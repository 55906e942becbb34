"""Crossed products by finite actions on fusion data.

A fusion ring stores labels, duals, dimensions and multiplicities; a ring
action is a fusion-preserving permutation family; the crossed ring grades
labels by the acting group and twists multiplication with the action.  On
top sit finitely supported dual-side elements with the block Fourier
transform into the function algebra, the weighted coefficient ("Sobolev-0")
norm, a two-route check of the graded decomposition of the transform, and a
sampling harness for polynomial operator-norm bounds along a length
function.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_SEED, RING_CAP
from .errors import (ActionNotCompatible, IdentityViolated, NonIntegral,
                     SizeBound, TruncationOverflow, ValidationError)
from .groups import (character_table, conjugacy_and_center, match_rows,
                     matrix_irreps, rng_from)
from .hopf import build_algebra, plain_function_algebra
from .library import pair_conjugation
from .reps import build_candidates


# ---------------------------------------------------------------------------
# fusion rings


def _check_ring_size(n, what):
    if n > RING_CAP:
        raise SizeBound(f"{what} has {n} labels, over the ring cap {RING_CAP}")


class FusionRing:
    """Finite (or truncated) fusion data over integer-indexed labels.

    ``mult[x, y, z]`` (int32, shape (n, n, n)) is the multiplicity of z in
    the product of x and y.  A truncated ring keeps only the labels inside
    a cutoff window; ``overflow[x, y]`` marks the products that leave it,
    decided once from exact integer dimensions.
    """

    def __init__(self, labels, unit, dual, dims, mult, truncated=False,
                 name=None):
        _check_ring_size(len(labels), "fusion ring")
        self.labels = list(labels)
        self.n = len(self.labels)
        self.unit = int(unit)
        self.dual = np.asarray(dual, dtype=np.int64)
        self.dims = np.asarray(dims, dtype=float)
        self.mult = np.asarray(mult, dtype=np.int32)
        self.truncated = truncated
        self.name = name or f"ring({self.n})"
        self._validate_basic()
        self.overflow = (self._overflow_mask(dims) if truncated
                         else np.zeros((self.n, self.n), dtype=bool))

    def _validate_basic(self):
        n, M, u = self.n, self.mult, self.unit
        if M.shape != (n, n, n):
            raise ValidationError("ring-mult",
                                  f"multiplicity tensor has shape {M.shape}")
        if not (0 <= u < n):
            raise ValidationError("ring-unit", "unit label out of range")
        if sorted(self.dual) != list(range(n)):
            raise ValidationError("ring-dual", "dual is not an involution base")
        if not np.array_equal(self.dual[self.dual], np.arange(n)):
            raise ValidationError("ring-dual", "dual is not an involution")
        if (self.dims <= 0).any():
            raise ValidationError("ring-dim", "dimensions must be positive")
        eye = np.eye(n, dtype=bool)
        unit_bad = (M[:, u, :] != eye) | (M[u, :, :] != eye)        # (x, z)
        dual_bad = M[:, :, u] != eye[self.dual]                      # (x, y)
        rows = np.flatnonzero(unit_bad.any(1) | dual_bad.any(1))
        if len(rows):
            x = rows[0]
            if unit_bad[x].any():
                z = np.flatnonzero(unit_bad[x])[0]
                raise ValidationError("ring-unit-law",
                                      f"unit fusion fails at ({x},{z})")
            y = np.flatnonzero(dual_bad[x])[0]
            raise ValidationError("ring-dual-law",
                                  f"dual pairing fails at ({x},{y})")

    def _overflow_mask(self, dims):
        # Python-int dimensions: products of large labels pass 2**53
        exact = np.array([int(d) for d in dims], dtype=object)
        return np.array([self.mult[x].astype(object) @ exact != exact[x] * exact
                         for x in range(self.n)], dtype=bool)

    def fuse(self, x, y, allow_truncation=False):
        """{z: multiplicity} of the product of labels x and y, z ascending."""
        if self.overflow[x, y] and not allow_truncation:
            raise TruncationOverflow(
                f"product of {self.labels[x]} and {self.labels[y]} "
                f"leaves the cutoff window")
        row = self.mult[x, y]
        return {int(z): int(row[z]) for z in np.flatnonzero(row)}

    def __repr__(self):
        return f"FusionRing({self.name!r}, n={self.n})"


def _exact_products(M):
    """The (n, n, n) int64 tensor M as float64 when matrix products of it
    are exact in float64, else M itself.

    An entry of a product of two n-wide slices of M is a sum of n terms of
    absolute value at most max|M|**2, so while n * max|M|**2 < 2**53 every
    partial sum is an integer that float64 holds exactly, in any summation
    order: the products then run in BLAS.  Past that bound they stay int64
    (no BLAS).  The bound takes |M| because a corrupted ring may hold
    negative multiplicities.
    """
    if len(M) * int(np.abs(M).max(initial=0)) ** 2 < 2 ** 53:
        return M.astype(float)
    return M


def check_fusion_ring(ring):
    """Associativity, Frobenius symmetry and dimension multiplicativity.

    Returns a dict of named deviations (0.0 when exact): the number of
    (a, b, c, d) on which the two groupings of a*b*c disagree, the number
    of (a, b, c) breaking Frobenius reciprocity and the largest dimension
    defect.  For truncated rings a triple (a, b, c) is skipped (and
    counted) when either grouping leaves the cutoff window, since the two
    sides then lose different parts, and the dimension law is not applied.
    """
    n, O = ring.n, ring.overflow
    M = ring.mult.astype(np.int64)
    support = M != 0
    P = _exact_products(M)
    assoc_bad = skipped = 0
    for a in range(n):
        # (b, c, d) tensors of (a*b)*c and a*(b*c)
        left = (P[a] @ P.reshape(n, n * n)).reshape(n, n, n)
        right = (P.reshape(n * n, n) @ P[a]).reshape(n, n, n)
        skip = O[a][:, None] | O | (support[a] @ O) | (support @ O[a])
        assoc_bad += int((left != right).sum(axis=2)[~skip].sum())
        skipped += int(skip.sum())
    frob_bad = int((M != M[:, ring.dual, :].transpose(2, 1, 0)).sum())
    dim_dev = 0.0
    if not ring.truncated:
        dim_dev = float(np.abs(M @ ring.dims -
                               np.outer(ring.dims, ring.dims)).max())
    return {"associativity": float(assoc_bad), "frobenius": float(frob_bad),
            "dimension-homomorphism": dim_dev,
            "associativity-skipped": float(skipped)}


def irrep_fusion_ring(G, seed=DEFAULT_SEED):
    """Fusion of the irreducible characters of a finite group (exact
    multiplicities from character inner products)."""
    # one irrep per conjugacy class: refuse before building the table
    _check_ring_size(len(conjugacy_and_center(G).classes),
                     f"irrep ring of order {G.order}")
    table = character_table(G, seed=seed)
    k = table.n_irreps
    chars = table.chars[:, table.classes.class_of]
    dims = [int(round(table.dims[i].real)) for i in range(k)]
    unit = 0                       # trivial character is pinned to row 0
    dual = match_rows(chars, np.conj(chars), 1e-6)
    if (dual < 0).any():
        raise ValidationError("ring-dual",
                              f"conjugate of row {np.argmax(dual < 0)} unclear")
    mult = np.zeros((k, k, k), dtype=np.int32)
    for x in range(k):
        # (y, z) inner products <chi_x chi_y, chi_z>, one block per x
        vals = (chars[x] * chars) @ np.conj(chars).T / G.order
        mult[x] = np.rint(vals.real)
        bad = np.argwhere(np.abs(vals - mult[x]) > 1e-6)
        if len(bad):
            y, z = bad[0]
            val = complex(np.mean(chars[x] * chars[y] * np.conj(chars[z])))
            raise NonIntegral(f"multiplicity ({x},{y},{z}) = {val}")
    return FusionRing(labels=[f"x{i}" for i in range(k)], unit=unit,
                      dual=dual, dims=dims, mult=mult,
                      name=f"irr({G.order})")


def element_fusion_ring(G):
    """Group elements as labels with the group law as fusion (the dual-side
    picture of a finite group)."""
    n = G.order
    _check_ring_size(n, f"element ring of order {n}")
    mult = np.zeros((n, n, n), dtype=np.int32)
    x, y = np.indices((n, n))
    mult[x, y, G.cayley] = 1
    return FusionRing(labels=list(G.labels), unit=G.identity,
                      dual=G.inverse.astype(np.int64), dims=[1.0] * n,
                      mult=mult, name=f"elements({G.order})")


def free_orthogonal_ring(N, cutoff):
    """Chebyshev-type fusion on labels 0..cutoff with dimension recursion
    d_{k+1} = N d_k - d_{k-1} (exact integers); marked truncated."""
    if N < 2:
        raise ValidationError("free-ring", "parameter must be >= 2")
    if cutoff < 1:
        raise ValidationError("free-ring", "cutoff must be >= 1")
    _check_ring_size(cutoff + 1, f"free-orthogonal ring with cutoff {cutoff}")
    dims = [1, N]
    while len(dims) <= cutoff:
        dims.append(N * dims[-1] - dims[-2])
    # j*k = sum of m from |j-k| to j+k in steps of 2, cut at the window
    j, k, m = np.ogrid[:cutoff + 1, :cutoff + 1, :cutoff + 1]
    mult = (abs(j - k) <= m) & (m <= j + k) & ((j + k) % 2 == m % 2)
    return FusionRing(labels=list(range(cutoff + 1)), unit=0,
                      dual=np.arange(cutoff + 1), dims=dims[:cutoff + 1],
                      mult=mult, truncated=True,
                      name=f"free-orthogonal(N={N},cutoff={cutoff})")


# ---------------------------------------------------------------------------
# actions and crossed rings


@dataclass
class RingAction:
    group: object                  # FiniteGroup
    perms: np.ndarray              # (|group|, ring.n) label permutations


def validate_ring_action(ring, action):
    G = action.group
    P = np.asarray(action.perms, dtype=np.int64)
    if P.shape != (G.order, ring.n):
        raise ActionNotCompatible(f"permutation table shape {P.shape}")
    if not np.array_equal(P[G.identity], np.arange(ring.n)):
        raise ActionNotCompatible("identity must act trivially")
    for g in range(G.order):
        row = P[g]
        if sorted(row) != list(range(ring.n)):
            raise ActionNotCompatible(f"row {g} is not a permutation")
        if row[ring.unit] != ring.unit:
            raise ActionNotCompatible(f"row {g} moves the unit")
        if not np.array_equal(ring.dual[row], row[ring.dual]):
            raise ActionNotCompatible(f"row {g} breaks the dual")
        if np.abs(ring.dims[row] - ring.dims).max() > 1e-9:
            raise ActionNotCompatible(f"row {g} changes dimensions")
        moved = ring.mult[np.ix_(row, row, row)]
        bad = np.argwhere((moved != ring.mult) & (ring.mult != 0))
        if len(bad):
            x, y, z = bad[0]
            raise ActionNotCompatible(
                f"row {g} breaks fusion at ({x},{y},{z})")
    # P[gh] against P[g] composed with P[h], for every (g, h) at once
    bad = (P[G.cayley] != P[np.arange(G.order)[:, None, None], P]).any(2)
    if bad.any():
        g, h = np.argwhere(bad)[0]
        raise ActionNotCompatible(f"not a homomorphism at ({g},{h})")
    return True


class CrossedFusionRing(FusionRing):
    """Labels (group element, base label) with action-twisted fusion:
    (r, x) * (s, y) = sum over z of base(act(s^-1, x) * y, z) (rs, z).

    Label (g, x) has index g * base.n + x.
    """

    def __init__(self, base, action, name=None):
        validate_ring_action(base, action)
        G = action.group
        nr, nb = G.order, base.n
        _check_ring_size(nr * nb, f"crossed ring over {base.name}")
        self.base = base
        self.action = action
        P = np.asarray(action.perms, dtype=np.int64)
        labels = [f"{g}.{x}" for g in G.labels for x in base.labels]
        dual = (G.inverse[:, None] * nb + P[:, base.dual]).ravel()
        mult = np.zeros((nr, nb, nr, nb, nr, nb), dtype=np.int32)
        r, s = np.indices((nr, nr))
        mult[r, :, s, :, G.cayley, :] = base.mult[P[G.inverse]][None]
        super().__init__(labels=labels, unit=G.identity * nb + base.unit,
                         dual=dual, dims=np.tile(base.dims, nr),
                         mult=mult.reshape(nr * nb, nr * nb, nr * nb),
                         truncated=base.truncated,
                         name=name or f"crossed[{base.name}]")

    def _overflow_mask(self, dims):
        # (r, x) * (s, y) leaves the window exactly when act(s^-1, x) * y
        # does, which the base decided from its exact dimensions
        G, nb = self.action.group, self.base.n
        moved = self.action.perms[G.inverse]                   # (s, x)
        over = self.base.overflow[moved].transpose(1, 0, 2)    # (x, s, y)
        return np.broadcast_to(over, (G.order,) + over.shape).reshape(
            G.order * nb, G.order * nb)


def crossed_ring(base, action, name=None):
    return CrossedFusionRing(base, action, name=name)


def action_from_pair(mp, seed=DEFAULT_SEED):
    """The discrete side of a crossed pair permuting compact irrep labels
    (matched through characters composed with the action)."""
    if not mp.beta_trivial:
        raise ActionNotCompatible(
            "only pairs with trivial discrete-side action are graded rings")
    K, R = mp.compact, mp.discrete
    ring = irrep_fusion_ring(K, seed=seed)
    table = character_table(K, seed=seed)
    chars = table.chars[:, table.classes.class_of]
    moved = chars[:, mp.alpha[R.inverse]].transpose(1, 0, 2)   # [r, x, g]
    perms = match_rows(chars, moved.reshape(-1, K.order), 1e-6)
    if (perms < 0).any():
        x = np.argmax(perms < 0) % len(chars)
        raise ActionNotCompatible(f"twisted character of label {x} unmatched")
    return RingAction(group=R, perms=perms.reshape(R.order, -1)), ring


# ---------------------------------------------------------------------------
# dual-side elements and Fourier transforms


@dataclass
class DualElement:
    """Finitely supported block element over a fusion ring's labels."""
    ring: FusionRing
    blocks: dict                   # label index -> complex (d, d) matrix

    def __post_init__(self):
        clean = {}
        for x, mat in self.blocks.items():
            mat = np.atleast_2d(np.asarray(mat, dtype=complex))
            d = int(round(self.ring.dims[x]))
            if mat.shape != (d, d):
                raise ValidationError(
                    "dual-block", f"label {self.ring.labels[x]} wants "
                    f"({d},{d}), got {mat.shape}")
            clean[int(x)] = mat
        self.blocks = clean

    def block(self, x):
        d = int(round(self.ring.dims[x]))
        return self.blocks.get(int(x), np.zeros((d, d), dtype=complex))

    def support(self):
        return sorted(self.blocks)

    def __add__(self, other):
        out = {x: self.block(x) for x in self.blocks}
        for x, m in other.blocks.items():
            out[x] = out.get(x, 0) + m
        return DualElement(self.ring, out)

    def scale(self, c):
        return DualElement(self.ring, {x: c * m
                                       for x, m in self.blocks.items()})


def unit_dual_element(ring):
    """The projection onto the trivial block."""
    return DualElement(ring, {ring.unit: np.array([[1.0 + 0.0j]])})


@dataclass
class ClassicalDual:
    """Matrix-irrep data of a finite group, with its function algebra."""
    group: object
    ring: FusionRing
    irreps: list
    algebra: object


def classical_dual(G, seed=DEFAULT_SEED):
    return ClassicalDual(group=G, ring=irrep_fusion_ring(G, seed=seed),
                         irreps=matrix_irreps(G, seed=seed),
                         algebra=plain_function_algebra(G))


def fourier_values(a, dual):
    """F(a) as a complex vector on the group: sum over blocks of
    dim(x) * Tr(U^x(g) a_x)."""
    out = np.zeros(dual.group.order, dtype=complex)
    for x, mat in a.blocks.items():
        mx = dual.irreps[x]
        out += mx.dim * np.einsum("gij,ji->g", mx.matrices, mat)
    return out


def fourier_transform(a, dual):
    """F(a) as an element of the function algebra of the group."""
    return dual.algebra.compact_function(fourier_values(a, dual))


def inverse_fourier(f, dual):
    """Blocks a_x = mean over the group of F(g) U^x(g)^*."""
    n = dual.group.order
    if hasattr(f, "vec"):
        e = dual.algebra.pair.discrete.identity
        values = f.vec[e * n:(e + 1) * n]
    else:
        values = np.asarray(f, dtype=complex)
    blocks = {}
    for x, mx in enumerate(dual.irreps):
        acc = np.einsum("g,gji->ij", values, mx.matrices.conj()) / n
        if np.abs(acc).max() > 1e-12:
            blocks[x] = acc
    return DualElement(dual.ring, blocks)


def sobolev0_norm(a):
    """Square root of sum over blocks of dim(x) * ||a_x||_F^2."""
    total = 0.0
    for x, mat in a.blocks.items():
        total += a.ring.dims[x] * float(np.sum(np.abs(mat) ** 2))
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# crossed instances: algebra + ring + corepresentation labels aligned


@dataclass
class CrossedInstance:
    pair: object
    algebra: object
    base_ring: FusionRing
    action: RingAction
    ring: CrossedFusionRing
    dual: ClassicalDual
    candidates: list               # aligned with ring labels

    def candidate(self, gamma, x):
        return self.candidates[gamma * self.base_ring.n + x]


def crossed_instance(mp, seed=DEFAULT_SEED, name=None):
    """Bundle a trivially-graded pair into algebra + fusion data.

    Requires the discrete-side action of the pair to be trivial, so that
    corepresentation candidates are indexed by (discrete element, compact
    irrep) exactly like the crossed ring labels.
    """
    action, base = action_from_pair(mp, seed=seed)
    ring = crossed_ring(base, action, name=name)
    A = build_algebra(mp)
    cands, space, irreps = build_candidates(A, seed=seed)
    if [orb for orb in space.orbits] != [[r] for r in range(mp.discrete.order)]:
        raise ActionNotCompatible("orbit structure is not singleton-graded")
    dual = ClassicalDual(group=mp.compact, ring=base,
                         irreps=irreps, algebra=plain_function_algebra(mp.compact))
    return CrossedInstance(pair=mp, algebra=A, base_ring=base, action=action,
                           ring=ring, dual=dual, candidates=cands)


def conj_action_builder(G, subgroup_elements, seed=DEFAULT_SEED, name=None):
    """Crossed product of a finite group by conjugation by a subgroup."""
    mp = pair_conjugation(G, subgroup_elements, name=name)
    inst = crossed_instance(mp, seed=seed, name=name)
    # conjugation fixes every character, so the label action must be trivial
    if not np.array_equal(inst.action.perms,
                          np.tile(np.arange(inst.base_ring.n),
                                  (mp.discrete.order, 1))):
        raise ActionNotCompatible("conjugation moved an irrep label")
    return inst


def crossed_fourier(inst, a):
    """Transform a dual element of the crossed ring into the algebra, going
    through the corepresentation coefficient tensors."""
    A = inst.algebra
    vec = np.zeros(A.dim, dtype=complex)
    for lab, mat in a.blocks.items():
        cand = inst.candidates[lab]
        vec += inst.ring.dims[lab] * np.einsum("ji,ijn->n", mat, cand.coeffs)
    return A.from_vector(vec)


def graded_parts(inst, a):
    """Split a crossed dual element into classical dual elements per grade."""
    parts = {}
    for lab, mat in a.blocks.items():
        g, x = divmod(lab, inst.base_ring.n)
        parts.setdefault(g, {})[x] = mat
    return {g: DualElement(inst.base_ring, blocks)
            for g, blocks in parts.items()}


@dataclass
class LemmaFourierReport:
    decomposition_deviation: float
    norm_deviation: float
    parseval_deviation: float
    tol: float

    @property
    def passed(self):
        return max(self.decomposition_deviation, self.norm_deviation,
                   self.parseval_deviation) <= self.tol

    def lines(self):
        s = "PASS" if self.passed else "FAIL"
        return [f"{s} graded-decomposition: {self.decomposition_deviation:.3e}",
                f"{s} norm-additivity: {self.norm_deviation:.3e}",
                f"{s} parseval: {self.parseval_deviation:.3e}"]


def check_lemma_fourier(inst, a, tol=1e-9):
    """Two routes to the crossed transform and its norm must coincide.

    Route one goes through corepresentation coefficients; route two
    assembles grade-by-grade classical transforms multiplied onto the
    discrete unitaries.  Norm route three is the algebra's invariant-state
    two-norm of the transform (Parseval).
    """
    A = inst.algebra
    via_coreps = crossed_fourier(inst, a).vec
    parts = graded_parts(inst, a)
    assembled = np.zeros(A.dim, dtype=complex)
    for g, part in parts.items():
        f_vals = fourier_values(part, inst.dual)
        fn = A.compact_function(f_vals).vec
        assembled += A.mul_vec(A.discrete_unitary(g).vec, fn)
    dev1 = float(np.abs(via_coreps - assembled).max(initial=0.0))

    total_sq = sobolev0_norm(a) ** 2
    split_sq = sum(sobolev0_norm(p) ** 2 for p in parts.values())
    dev2 = abs(total_sq - split_sq)

    f_norm_sq = A.inner(via_coreps, via_coreps).real
    dev3 = abs(f_norm_sq - total_sq)

    report = LemmaFourierReport(decomposition_deviation=dev1,
                                norm_deviation=dev2,
                                parseval_deviation=dev3, tol=tol)
    if not report.passed:
        worst = max(a.blocks,
                    key=lambda lab: float(np.abs(a.blocks[lab]).max()))
        raise IdentityViolated(
            f"transform decomposition failed (devs {dev1:.2e}/{dev2:.2e}/"
            f"{dev3:.2e}) near block {inst.ring.labels[worst]}")
    return report


# ---------------------------------------------------------------------------
# length functions


@dataclass
class LengthFunction:
    ring: FusionRing
    values: np.ndarray

    def __call__(self, x):
        return float(self.values[x])


def check_length(lf):
    """Unit value, dual symmetry, triangle law along fusion."""
    ring, v = lf.ring, lf.values
    x, y, z = np.nonzero(ring.mult > 0)
    excess = v[z] - (v[x] + v[y])
    return float(max(abs(v[ring.unit]), np.abs(v - v[ring.dual]).max(),
                     np.where(v < -1e-9, -v, 0.0).max(),
                     np.where(excess > 1e-9, excess, 0.0).max(initial=0.0)))


def word_length(ring, generators):
    """Fusion-graph distance from the unit along a self-dual generator set."""
    gens = np.asarray(generators, dtype=np.int64)
    gens = np.union1d(gens, ring.dual[gens])
    dist = np.full(ring.n, np.inf)
    dist[ring.unit] = 0.0
    frontier, level = np.array([ring.unit]), 0
    while len(frontier):
        level += 1
        # labels inside some product x * g, x on the frontier, g a generator
        reached = (ring.mult[np.ix_(frontier, gens)] > 0).any((0, 1))
        frontier = np.flatnonzero(reached & np.isinf(dist))
        dist[frontier] = level
    if np.isinf(dist).any():
        missing = [ring.labels[i] for i in np.flatnonzero(np.isinf(dist))]
        raise ValidationError("word-length",
                              f"generators do not reach {missing[:4]}")
    return LengthFunction(ring=ring, values=dist)


def invariantize_length(lf, action):
    """Replace values by the orbit maximum under the action (the orbit of
    label x is column x of the permutation table)."""
    values = np.asarray(lf.values, dtype=float)
    return LengthFunction(ring=lf.ring, values=values[action.perms].max(0))


def length_l0(crossed, l_gamma, l_base):
    """Graded length on the crossed ring: group length plus base length.

    The base length must be invariant under the action; pass it through
    ``invariantize_length`` first when it is not.
    """
    if isinstance(l_gamma, LengthFunction):
        l_gamma = l_gamma.values
    moved = np.abs(l_base.values[crossed.action.perms] - l_base.values)
    bad = (moved > 1e-9).any(1)
    if bad.any():
        raise ValidationError("length-invariance",
                              f"base length moves under group element "
                              f"{np.argmax(bad)}")
    values = (np.asarray(l_gamma)[:, None] + l_base.values).ravel()
    return LengthFunction(ring=crossed, values=values)


def graded_word_length(inst):
    """The graded length of a crossed instance: the discrete group's word
    length on its non-identity elements plus the base ring's word length on
    all of its labels."""
    R, base = inst.pair.discrete, inst.base_ring
    l_gamma = word_length(element_fusion_ring(R),
                          np.flatnonzero(np.arange(R.order) != R.identity))
    return length_l0(inst.ring, l_gamma, word_length(base, np.arange(base.n)))


# ---------------------------------------------------------------------------
# rapid-decay sampling harness


@dataclass
class RDSample:
    band: int
    ratio: float


@dataclass
class RDReport:
    samples: list
    bound_coeffs: tuple
    max_ratio: float

    @property
    def passed(self):
        return self.max_ratio <= 1.0 + 1e-9

    def lines(self):
        s = "PASS" if self.passed else "FAIL"
        out = [f"{s} polynomial bound: max ratio {self.max_ratio:.6g} "
               f"over {len(self.samples)} samples"]
        bands = sorted({smp.band for smp in self.samples})
        for k in bands:
            worst = max(smp.ratio for smp in self.samples if smp.band == k)
            out.append(f"  band {k}: worst ratio {worst:.6g}")
        return out


def rd_inequality_sample(inst, l0, poly_coeffs, samples=20,
                         seed=DEFAULT_SEED):
    """Sample dual elements in length bands and compare the operator norm
    of the transform against P(band) times the weighted coefficient norm.

    Report-only: never raises on a bound violation.  Refuses truncated
    rings, where left multiplication does not see the whole product.
    """
    ring = inst.ring
    if ring.truncated:
        raise ValidationError("rd-truncated",
                              "operator norms are not faithful under truncation")
    A = inst.algebra
    bands = {}
    for lab in range(ring.n):
        bands.setdefault(int(np.floor(l0(lab))), []).append(lab)
    out = []
    max_ratio = 0.0
    for t in range(samples):
        rng = rng_from(seed, 7, t)
        band = sorted(bands)[int(rng.integers(len(bands)))]
        blocks = {}
        for lab in bands[band]:
            d = int(round(ring.dims[lab]))
            blocks[lab] = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = DualElement(ring, blocks)
        f = crossed_fourier(inst, a)
        op = float(np.linalg.norm(A.left_mult_matrix(f.vec), ord=2))
        bound = float(sum(c * band ** i for i, c in enumerate(poly_coeffs)))
        denom = bound * sobolev0_norm(a)
        ratio = op / denom if denom > 0 else float("inf")
        max_ratio = max(max_ratio, ratio)
        out.append(RDSample(band=band, ratio=ratio))
    return RDReport(samples=out, bound_coeffs=tuple(poly_coeffs),
                    max_ratio=max_ratio)


def crude_poly_bound(inst):
    """Constant polynomial that provably dominates: square root of the
    algebra dimension times the compact order."""
    return (float(np.sqrt(inst.algebra.dim * inst.algebra.nk)),)
