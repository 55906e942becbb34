"""Line-based input files and deterministic run reports.

One file describes one object.  A file is a sequence of `key: value` header
lines and block sections (`table:`, `gens:`, `alpha:`, `beta:`, `weights:`,
`chi:`, ...) whose following indentation-free rows hold integer or rational
tokens.  `#` starts a comment.  Recipes (pair restrictions, deformations,
ring constructions) reference other files by path relative to their own
location, so provenance stays explicit in reports.
"""

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .config import DEFAULT_CONFIG
from .crossed import (element_fusion_ring, free_orthogonal_ring,
                      irrep_fusion_ring)
from .errors import ParseError, ValidationError
from .groups import (group_from_cayley, group_from_matrices_mod,
                     group_from_permutations)
from .matched import (MatchedPair, deform_by_chi_G, deform_by_chi_Gamma,
                      derive_actions)
from .measures import FiniteMeasure


# ---------------------------------------------------------------------------
# tokenized line files

_HEADER_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_-]*):\s*(.*)$")


@dataclass
class ParsedFile:
    path: str
    headers: dict              # key -> (value string, line number)
    blocks: dict               # key -> list of (line number, [tokens])

    def header(self, key, default=None, required=False):
        if key in self.headers:
            return self.headers[key][0]
        if required:
            raise ParseError(f"missing required header '{key}:'",
                             path=self.path, line=1, column=1)
        return default

    def ref(self, key):
        """The file that the required header ``key`` names, resolved
        against this file's directory."""
        return _resolve(Path(self.path).parent,
                        self.header(key, required=True))

    def block(self, key, required=False):
        if key in self.blocks:
            return self.blocks[key]
        if required:
            raise ParseError(f"missing required block '{key}:'",
                             path=self.path, line=1, column=1)
        return []


def parse_line_file(path):
    path = str(path)
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path=path)
    headers, blocks = {}, {}
    current = None
    for ln, raw_line in enumerate(raw.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = _HEADER_RE.match(line)
        if m:
            key, value = m.group(1), m.group(2).strip()
            if value:
                if key in headers:
                    raise ParseError(f"duplicate header '{key}:'",
                                     path=path, line=ln, column=1)
                headers[key] = (value, ln)
                current = None
            else:
                if key in blocks:
                    raise ParseError(f"duplicate block '{key}:'",
                                     path=path, line=ln, column=1)
                blocks[key] = []
                current = key
            continue
        if current is None:
            raise ParseError("data row outside any block", path=path,
                             line=ln, column=len(line) - len(line.lstrip()) + 1)
        tokens = []
        for tok_m in re.finditer(r"\S+", line):
            tokens.append((tok_m.group(0), tok_m.start() + 1))
        blocks[current].append((ln, tokens))
    return ParsedFile(path=path, headers=headers, blocks=blocks)


def _int_token(tok, path, ln):
    """An integer token; it must fit the int64 arrays it is read into."""
    text, col = tok
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {text!r}",
                         path=path, line=ln, column=col)
    if not -2 ** 63 <= value < 2 ** 63:
        raise ParseError(f"integer {text} is outside the int64 range",
                         path=path, line=ln, column=col)
    return value


def _int_header(pf, key):
    """A required integer header, read like a block token."""
    text = pf.header(key, required=True)
    return _int_token((text, 1), pf.path, pf.headers[key][1])


def _fraction_token(tok, path, ln):
    text, col = tok
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected a rational, got {text!r}",
                         path=path, line=ln, column=col)


def _int_rows(rows, path):
    return [[_int_token(t, path, ln) for t in toks] for ln, toks in rows]


def _rect(rows, path, what):
    widths = {len(r) for _, r in rows}
    if len(widths) > 1:
        ln = rows[0][0]
        raise ParseError(f"ragged {what} rows (widths {sorted(widths)})",
                         path=path, line=ln, column=1)


# ---------------------------------------------------------------------------
# object loaders


def load_group(path):
    pf = parse_line_file(path)
    kind = pf.header("kind", required=True)
    name = pf.header("name", default=Path(path).stem)
    if kind == "cayley":
        rows = pf.block("table", required=True)
        _rect(rows, pf.path, "table")
        table = np.array(_int_rows(rows, pf.path), dtype=np.int64)
        labels = None
        if pf.header("labels"):
            labels = pf.header("labels").split()
            if len(labels) != table.shape[0]:
                _, ln = pf.headers["labels"]
                raise ParseError(f"{len(labels)} labels for order "
                                 f"{table.shape[0]}", path=pf.path,
                                 line=ln, column=1)
        G = group_from_cayley(table, labels=labels)
    elif kind == "perm":
        degree = _int_header(pf, "degree")
        if degree < 1:
            raise ParseError(f"degree {degree} is not positive", path=pf.path,
                             line=pf.headers["degree"][1], column=1)
        rows = pf.block("gens", required=True)
        gens = []
        for ln, toks in rows:
            images = [_int_token(t, pf.path, ln) for t in toks]
            # the length first: a huge degree must not build its range
            if len(images) != degree or sorted(images) != list(range(degree)):
                raise ParseError(
                    f"row is not a permutation of 0..{degree - 1}",
                    path=pf.path, line=ln, column=toks[0][1])
            gens.append(images)
        G = group_from_permutations(gens, degree=degree)
    elif kind == "matmod":
        modulus = _int_header(pf, "modulus")
        rows = pf.block("gens", required=True)
        _rect(rows, pf.path, "gens")
        gens = []
        for ln, toks in rows:
            flat = [_int_token(t, pf.path, ln) for t in toks]
            d = int(round(len(flat) ** 0.5))
            if d * d != len(flat):
                raise ParseError(f"{len(flat)} entries is not a square matrix",
                                 path=pf.path, line=ln, column=toks[0][1])
            gens.append(np.array(flat, dtype=np.int64).reshape(d, d))
        G = group_from_matrices_mod(gens, modulus=modulus)
    else:
        _, ln = pf.headers["kind"]
        raise ParseError(f"unknown group kind {kind!r} "
                         "(expected cayley|perm|matmod)",
                         path=pf.path, line=ln, column=1)
    G.name = name
    return G


def _resolve(base_dir, ref):
    return str((Path(base_dir) / ref).resolve())


def _element_token(tok, path, ln, order):
    """An integer token naming an element 0..order-1 of a group."""
    idx = _int_token(tok, path, ln)
    if not 0 <= idx < order:
        raise ParseError(f"element {idx} out of range 0..{order - 1}",
                         path=path, line=ln, column=tok[1])
    return idx


def _subgroup_elements(pf, G, role):
    """Explicit `<role>:` element block, or `<role>-gens:` closure."""
    for key in (role, f"{role}-gens"):
        out = [_element_token(t, pf.path, ln, G.order)
               for ln, toks in pf.block(key) for t in toks]
        if out:
            return out if key == role else G.closure(out)
    raise ParseError(f"need a '{role}:' or '{role}-gens:' block",
                     path=pf.path, line=1, column=1)


def load_pair(path, depth=0):
    if depth > 8:
        raise ParseError("deformation chain too deep (cycle?)",
                         path=str(path), line=1, column=1)
    pf = parse_line_file(path)
    kind = pf.header("kind", required=True)
    name = pf.header("name", default=Path(path).stem)
    if kind == "ambient":
        G = load_group(pf.ref("ambient"))
        discrete = _subgroup_elements(pf, G, "discrete")
        compact = _subgroup_elements(pf, G, "compact")
        return derive_actions(G, discrete, compact, name=name)
    if kind == "tables":
        R = load_group(pf.ref("discrete"))
        K = load_group(pf.ref("compact"))
        arows = pf.block("alpha", required=True)
        brows = pf.block("beta", required=True)
        _rect(arows, pf.path, "alpha")
        _rect(brows, pf.path, "beta")
        alpha = np.array(_int_rows(arows, pf.path), dtype=np.int64)
        beta = np.array(_int_rows(brows, pf.path), dtype=np.int64)
        return MatchedPair(R, K, alpha, beta, name=name)
    if kind == "deform":
        base = load_pair(pf.ref("base"), depth=depth + 1)
        side = pf.header("side", required=True)
        rows = pf.block("chi", required=True)
        chi = []
        for ln, toks in rows:
            chi.extend(_int_token(t, pf.path, ln) for t in toks)
        if side == "compact":
            return deform_by_chi_G(base, np.array(chi), name=name)
        if side == "discrete":
            return deform_by_chi_Gamma(base, np.array(chi), name=name)
        _, ln = pf.headers["side"]
        raise ParseError(f"unknown deformation side {side!r} "
                         "(expected compact|discrete)",
                         path=pf.path, line=ln, column=1)
    _, ln = pf.headers["kind"]
    raise ParseError(f"unknown pair kind {kind!r} "
                     "(expected ambient|tables|deform)",
                     path=pf.path, line=ln, column=1)


def ring_from_spec(spec, base_dir="."):
    """Built-in ring constructions:
    `group:<file>`, `dual-group:<file>`, `free-orthogonal:N=..,cutoff=..`."""
    kind, _, rest = spec.partition(":")
    kind, rest = kind.strip(), rest.strip()
    if kind in ("group", "dual-group"):
        if not rest:
            raise ValidationError("ring-spec", f"{kind} needs a group file")
        G = load_group(_resolve(base_dir, rest))
        return (irrep_fusion_ring if kind == "group"
                else element_fusion_ring)(G)
    if kind == "free-orthogonal":
        params = {}
        for part in rest.split(","):
            key, _, value = part.partition("=")
            key = key.strip()
            if key not in ("N", "cutoff") or key in params:
                raise ValidationError(
                    "ring-spec", f"free-orthogonal takes N and cutoff once "
                    f"each (got {key!r} in {rest!r})")
            params[key] = value.strip()
        try:
            N, cutoff = int(params["N"]), int(params["cutoff"])
        except (KeyError, ValueError):
            raise ValidationError(
                "ring-spec", f"free-orthogonal needs N=..,cutoff=.. "
                f"(got {rest!r})")
        return free_orthogonal_ring(N, cutoff)
    raise ValidationError(
        "ring-spec", f"unknown ring construction {kind!r} "
        "(expected group|dual-group|free-orthogonal)")


def load_ring(path):
    pf = parse_line_file(path)
    spec = pf.header("spec", required=True)
    ring = ring_from_spec(spec, base_dir=Path(pf.path).parent)
    ring.name = pf.header("name", default=Path(path).stem)
    return ring


def load_measure(path):
    pf = parse_line_file(path)
    G = load_group(pf.ref("group"))
    rows = pf.block("weights", required=True)
    weights = [Fraction(0)] * G.order
    first_line = {}
    for ln, toks in rows:
        if len(toks) != 2:
            raise ParseError("weight rows are 'element weight'",
                             path=pf.path, line=ln, column=toks[0][1])
        idx = _element_token(toks[0], pf.path, ln, G.order)
        if idx in first_line:
            raise ParseError(f"element {idx} already has a weight on line "
                             f"{first_line[idx]}",
                             path=pf.path, line=ln, column=toks[0][1])
        first_line[idx] = ln
        weights[idx] = _fraction_token(toks[1], pf.path, ln)
    return FiniteMeasure(G, tuple(weights)), G


# ---------------------------------------------------------------------------
# input bundles


@dataclass
class InputBundle:
    groups: dict = field(default_factory=dict)
    pairs: dict = field(default_factory=dict)
    rings: dict = field(default_factory=dict)
    measures: dict = field(default_factory=dict)
    config: object = DEFAULT_CONFIG


def parse_inputs(paths, config=DEFAULT_CONFIG):
    """Route files by extension; everything is validated at load.  Two
    objects of one kind may not share a name."""
    bundle = InputBundle(config=config)
    kinds = {".group": (bundle.groups, load_group),
             ".pair": (bundle.pairs, load_pair),
             ".ring": (bundle.rings, load_ring),
             ".measure": (bundle.measures, lambda p: load_measure(p)[0])}
    origin = {}
    for p in paths:
        suffix, stem = Path(p).suffix, Path(p).stem
        if suffix not in kinds:
            raise ParseError(
                f"unknown input extension {suffix!r} "
                "(expected .group|.pair|.ring|.measure)", path=str(p))
        kind, load = kinds[suffix]
        obj = load(p)
        name = stem if suffix == ".measure" else obj.name or stem
        if (suffix, name) in origin:
            raise ValidationError(
                "duplicate-name", f"{suffix[1:]} {name!r} of {p} is already "
                f"loaded from {origin[suffix, name]}")
        origin[suffix, name] = p
        kind[name] = obj
    return bundle


# ---------------------------------------------------------------------------
# reports


@dataclass
class ReportEntry:
    name: str
    status: str                # PASS | FAIL | AUDIT-AGREE | AUDIT-DISAGREE
    residual: float = None
    witness: str = ""

    def as_dict(self):
        out = {"name": self.name, "status": self.status}
        if self.residual is not None:
            out["residual"] = f"{self.residual:.6e}"
        if self.witness:
            out["witness"] = self.witness
        return out


@dataclass
class Report:
    command: str
    seed: int
    sections: dict = field(default_factory=dict)   # module -> [entries]

    def add(self, module, name, status, residual=None, witness=""):
        self.sections.setdefault(module, []).append(
            ReportEntry(name=name, status=status, residual=residual,
                        witness=witness))

    def entries(self):
        return [e for es in self.sections.values() for e in es]

    @property
    def failed(self):
        return any(e.status == "FAIL" for e in self.entries())

    def exit_code(self):
        return 2 if self.failed else 0

    def render_text(self):
        lines = [f"kacforge {self.command} (seed {self.seed:#x})"]
        for module, entries in self.sections.items():
            lines.append(f"[{module}]")
            for e in entries:
                bits = [f"  {e.status:<14} {e.name}"]
                if e.residual is not None:
                    bits.append(f"residual={e.residual:.6e}")
                if e.witness:
                    bits.append(f"-- {e.witness}")
                lines.append(" ".join(bits))
        summary = "FAIL" if self.failed else "PASS"
        lines.append(f"result: {summary}")
        return "\n".join(lines) + "\n"

    def render_json(self):
        doc = {
            "command": self.command,
            "seed": self.seed,
            "sections": [
                {"module": module,
                 "entries": [e.as_dict() for e in entries]}
                for module, entries in self.sections.items()
            ],
            "result": "FAIL" if self.failed else "PASS",
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def render(self, output="text"):
        return self.render_json() if output == "structured" \
            else self.render_text()
