"""Spans around calls into the kacforge layers, recorded from outside.

``Tracer.install`` rebinds each traced public name in the namespace of every
loaded ``kacforge`` module that holds it, so a call is seen where it is made:
``reps.decompose`` calling ``mor_dim_solver`` goes through the wrapper bound
in ``reps``, and ``cli`` calling ``audit_fusion`` through the one bound in
``cli``.  Methods are wrapped on their class.  Spans stay in memory and are
written out once, when the process ends.

A span is ``[name, start, end, parent, raised]``; ``parent`` is the index of
the enclosing span or -1.  The benchmark's own spans are named ``bench.*``.
"""

import functools
import json
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Layer entry points that get a span, by defining module.  Hot leaf helpers
# (group element products, rng_from, tv_distance, ...) are left out: their
# call counts would make the tracing overhead dwarf the work.
TRACED = {
    "hopf": ["build_algebra", "check_axioms", "group_subalgebra_check"],
    "reps": ["mor_dim_solver", "mor_dim_haar", "decompose",
             "enumerate_irreps", "build_candidates", "audit_fusion",
             "invariant_groups", "IrrepCatalog.coefficient_span_rank"],
    "groups": ["group_from_permutations", "group_from_matrices_mod",
               "group_from_cayley", "character_table", "matrix_irreps",
               "dual_group", "conjugacy_and_center", "is_isomorphic_small",
               "semidirect_product", "direct_product"],
    "matched": ["derive_actions", "matched_pair_from_compact_action",
                "matched_pair_from_discrete_action", "orbits_fixed_sets",
                "b_sets", "deform_by_chi_G", "deform_by_chi_Gamma"],
    "crossed": ["crossed_instance", "check_fusion_ring",
                "check_lemma_fourier", "rd_inequality_sample",
                "classical_dual", "action_from_pair", "word_length",
                "length_l0"],
    "measures": ["rel_T_obstruction", "measure_fourier", "c0_profile",
                 "uniform_is_unit_projection", "chebyshev_state"],
    "io_formats": ["parse_inputs", "Report.render"],
    "cli": ["run_pipeline"],
    "library": ["corpus_pairs", "symmetric_group", "cyclic_group",
                "pair_conjugation", "pair_double_s3_twist"],
}

LAYERS = tuple(TRACED) + ("bench",)

# Inclusive-time metrics: metric name -> span names summed into it.
TIMED = {
    "reps.mor_dim_solver_s": ["reps.mor_dim_solver"],
    "reps.audit_fusion_s": ["reps.audit_fusion"],
    "reps.enumerate_irreps_s": ["reps.enumerate_irreps"],
    "reps.invariant_groups_s": ["reps.invariant_groups"],
    "hopf.check_axioms_s": ["hopf.check_axioms"],
    "hopf.group_subalgebra_check_s": ["hopf.group_subalgebra_check"],
    "hopf.build_algebra_s": ["hopf.build_algebra"],
    "groups.construct_s": ["groups.group_from_permutations",
                           "groups.group_from_matrices_mod"],
    "matched.derive_actions_s": ["matched.derive_actions"],
    "groups.matrix_irreps_s": ["groups.matrix_irreps"],
    "groups.character_table_s": ["groups.character_table"],
    "crossed.check_fusion_ring_s": ["crossed.check_fusion_ring"],
    "crossed.check_lemma_fourier_s": ["crossed.check_lemma_fourier"],
    "crossed.rd_inequality_sample_s": ["crossed.rd_inequality_sample"],
    "measures.rel_T_obstruction_s": ["measures.rel_T_obstruction"],
    "io_formats.parse_inputs_s": ["io_formats.parse_inputs"],
    "io_formats.render_s": ["io_formats.Report.render"],
}

# Call-count metrics: metric name -> span name counted.
CALLS = {
    "reps.mor_dim_solver.calls": "reps.mor_dim_solver",
    "reps.decompose.calls": "reps.decompose",
}

COUNTS = ("reps.mor_dim_solver.matrix_cells",
          "reps.audit_fusion.triples_checked",
          "reps.audit_fusion.triples_total",
          "crossed.check_fusion_ring.triples",
          "measures.rel_T_obstruction.grid_points")


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_solver(counts, args, kwargs, out):
    """Rows x columns of the stacked intertwiner system, from the shapes."""
    u, w = _arg(args, kwargs, 0, "u"), _arg(args, kwargs, 1, "w")
    support = len(set(u.support()) | set(w.support()))
    counts["reps.mor_dim_solver.matrix_cells"] += \
        (w.dim * u.dim * support) * (w.dim * u.dim)


def _count_audit(counts, args, kwargs, out):
    catalog = _arg(args, kwargs, 1, "catalog")
    counts["reps.audit_fusion.triples_checked"] += len(out.entries)
    counts["reps.audit_fusion.triples_total"] += \
        len(catalog.orbit_space.orbits) ** 3 * len(catalog.irreps)


def _count_fusion_ring(counts, args, kwargs, out):
    counts["crossed.check_fusion_ring.triples"] += \
        _arg(args, kwargs, 0, "ring").n ** 3


def _count_grid(counts, args, kwargs, out):
    counts["measures.rel_T_obstruction.grid_points"] += \
        out.mixed_formula_checked


COUNTERS = {
    "reps.mor_dim_solver": _count_solver,
    "reps.audit_fusion": _count_audit,
    "crossed.check_fusion_ring": _count_fusion_ring,
    "measures.rel_T_obstruction": _count_grid,
}


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, False]
        self.spans.append(rec)
        self.stack.append(sid)
        rec[1] = perf_counter()
        try:
            yield
        except BaseException:
            rec[4] = True
            raise
        finally:
            rec[2] = perf_counter()
            self.stack.pop()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if counter is not None:
                counter(self.counts, args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap every traced name in every loaded kacforge module."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "kacforge" or name.startswith("kacforge.")}
        for layer, names in TRACED.items():
            home = modules[f"kacforge.{layer}"]
            for qual in names:
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, meth,
                            self._wrap(f"{layer}.{qual}", getattr(cls, meth)))
                    continue
                original = getattr(home, qual)
                wrapped = self._wrap(f"{layer}.{qual}", original)
                for mod in modules.values():
                    if getattr(mod, qual, None) is original:
                        setattr(mod, qual, wrapped)

    def metrics(self):
        """Per-layer metrics: inclusive times of the named calls (outermost
        span of each name only, so recursion is not counted twice), call
        counts, shape-derived counts and each layer's self time."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        outer = [True] * len(spans)
        for sid, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
            p = parent
            while p >= 0:
                if spans[p][0] == name:
                    outer[sid] = False
                    break
                p = spans[p][3]
        inclusive = defaultdict(float)
        calls = defaultdict(int)
        self_time = dict.fromkeys(LAYERS, 0.0)
        for sid, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            if outer[sid]:
                inclusive[name] += end - start
            self_time[name.split(".")[0]] += end - start - child_time[sid]
        out = {}
        for metric, names in TIMED.items():
            out[metric] = sum(inclusive[n] for n in names)
        for metric, name in CALLS.items():
            out[metric] = calls[name]
        for metric in COUNTS:
            out[metric] = self.counts[metric]
        for layer in LAYERS:
            out[f"self.{layer}_s"] = self_time[layer]
        out["trace.spans"] = len(spans)
        out["trace.raised"] = sum(1 for s in spans if s[4])
        return out

    def dump(self, path):
        fields = ("name", "start", "end", "parent", "raised")
        with open(path, "w") as fh:
            json.dump([dict(zip(fields, s)) for s in self.spans], fh)


def span_cost(calls=20000, repeats=5):
    """Median cost in seconds of one traced call over that of a plain call,
    from a scratch recorder; times ``trace.spans`` it estimates the tracing
    overhead of a run without the host noise of two separate passes."""
    def noop():
        return None

    wrapped = Tracer()._wrap("bench.calibrate", noop)
    costs = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)
