"""Corepresentation theory for the crossed-product function algebras.

Candidates come in two families: orbit matrices built from the discrete
action (entries are sums of basis elements over a fiber of the action) and
lifted matrix irreps of the compact group.  Their tensor products are the
natural candidate list; whether candidates are irreducible or pairwise
distinct is always computed, never assumed.  Two independent routes give
intertwiner-space dimensions (invariant-state character pairing vs. an
exact nullspace solve) and every enumeration is certified against the
squared-dimension count of the algebra.
"""

from dataclasses import dataclass

import numpy as np

from .config import AUDIT_TRIPLES, DEFAULT_SEED, RETRY_BUDGET, TOL_EQ, TOL_MULT
from .errors import PeterWeylMismatch, SeedDegenerate, ValidationError
from .groups import (FiniteGroup, _eigen_groups, _row_blocks, closure_table,
                     dual_group, is_isomorphic_small, matrix_irreps,
                     permuted_rows, rng_from, rounded_pairings,
                     semidirect_product)
from .matched import b_sets, orbits_fixed_sets


class Corepresentation:
    """A (dim x dim) matrix over the algebra, stored on its support: the
    sorted basis elements some entry uses, and a (dim, dim, len(support))
    array of the coefficients there.  Both are read-only copies."""

    def __init__(self, algebra, values, support, label=None):
        self.algebra = algebra
        values = np.asarray(values, dtype=complex)
        support = np.asarray(support, dtype=np.int64)
        if values.ndim != 3 or values.shape[0] != values.shape[1] \
                or values.shape[2:] != support.shape:
            raise ValidationError("corep-shape", f"{values.shape}")
        if ((support < 0) | (support >= algebra.dim)).any() \
                or (np.diff(support) <= 0).any():
            raise ValidationError("corep-support", "not sorted basis indices")
        keep = np.abs(values).sum(axis=(0, 1)) > 1e-14
        self.values = np.ascontiguousarray(values[:, :, keep])
        self._support = support[keep]
        self.values.flags.writeable = self._support.flags.writeable = False
        self.dim = values.shape[0]
        self.label = label if label is not None else f"w{self.dim}"

    def support(self):
        """The sorted basis elements some entry uses (read-only)."""
        return self._support

    def dense(self, onto=None):
        """The coefficients on ``onto``, a sorted superset of the support
        (default: every basis element), zero off the support."""
        if onto is None:
            onto = np.arange(self.algebra.dim)
        out = np.zeros((self.dim, self.dim, len(onto)), dtype=complex)
        out[:, :, np.searchsorted(onto, self._support)] = self.values
        return out

    def character(self):
        out = np.zeros(self.algebra.dim, dtype=complex)
        out[self._support] = np.einsum("iin->n", self.values)
        return out

    def tensor(self, other):
        A = self.algebra
        if other.algebra is not A:
            raise ValidationError("corep-tensor", "different algebras")
        d1, d2 = self.dim, other.dim
        # the nonzero basis products p q = t, p-major and s-minor as in
        # A.mul_vec, so each entry sums the same terms in the same order
        Su, Sw = self._support, other._support
        q = A.partner[Su]
        hit = np.isin(q, Sw)
        p_at, q_at = np.nonzero(hit)[0], np.searchsorted(Sw, q[hit])
        support, t_at = np.unique(A.result[Su][hit], return_inverse=True)
        out = np.zeros((d1, d2, d1, d2, len(support)), dtype=complex)  # i k j l t
        for blk in _row_blocks(d1, d2 * d1 * d2 * len(p_at)):
            np.add.at(out[blk], (..., t_at),
                      self.values[blk, None, :, None, p_at]
                      * other.values[None, :, None, :, q_at])
        return Corepresentation(
            A, out.reshape(d1 * d2, d1 * d2, len(support)), support,
            label=f"{self.label}(x){other.label}")

    def __repr__(self):
        return f"Corepresentation({self.label!r}, dim={self.dim})"


def check_corepresentation(c):
    """Max deviation over the coaction identity and unitarity.

    The coaction identity Delta(c_ij) = sum_k c_ik x c_kj is compared on
    the support of the corepresentation, in row blocks of its left leg: the
    coproduct terms of distinct basis elements are distinct pairs, so the
    left-hand side at the term (delta_left, delta_right)[t, a] is c_ij[t].
    """
    A = c.algebra
    d = c.dim
    S = c.support()
    cS = c.values
    pos = np.full(A.dim, -1)
    pos[S] = np.arange(len(S))
    left, right = pos[A.delta_left[S]], pos[A.delta_right[S]]   # (|S|, nk)
    inside = (left >= 0) & (right >= 0)
    # a term with a leg off the support has no right-hand side to meet
    dev = float(np.abs(cS[:, :, ~inside.all(1)]).max(initial=0.0))
    t, a = np.nonzero(inside)
    for blk in _row_blocks(len(S), d * d * len(S)):
        rhs = np.einsum("ikp,kjq->ijpq", cS[:, :, blk], cS)
        mine = (left[t, a] >= blk.start) & (left[t, a] < blk.stop)
        tt, aa = t[mine], a[mine]
        rhs[:, :, left[tt, aa] - blk.start, right[tt, aa]] -= cS[:, :, tt]
        dev = max(dev, float(np.abs(rhs).max(initial=0.0)))
    want = np.eye(d)[:, :, None] * A.unit_vec
    full = c.dense()
    cs = A.star_vec(full)                           # entrywise star
    row = A.mul_vec(full[:, None], cs[None, :]).sum(2)         # c c*
    col = A.mul_vec(cs[:, :, None], full[:, None]).sum(0)      # c* c
    return max(dev, float(np.abs(row - want).max()),
               float(np.abs(col - want).max()))


# ---------------------------------------------------------------------------
# candidate builders


def candidate_corepresentation(A, orbit, mx, label=None):
    """Closed form of (orbit matrix) tensor (lifted irrep): the entry at
    ((r,i),(s,j)) collects U^x_{ij}(g) u_r d_g over the (r -> s) fiber."""
    orbit = np.asarray(orbit)
    do, dx = len(orbit), mx.dim
    pos = np.full(A.nr, -1)
    pos[orbit] = np.arange(do)
    g = np.arange(A.nk)
    s = A.pair.beta[g[None, :], orbit[:, None]]              # (do, nk)
    if (pos[s] < 0).any():
        raise ValidationError("orbit", f"{orbit.tolist()} is not closed")
    i = np.arange(dx)[:, None]
    rows = np.arange(do)[:, None, None, None] * dx + i
    cols = (pos[s] * dx)[..., None, None] + i.T
    basis = orbit[:, None] * A.nk + g                       # (do, nk)
    support = np.sort(basis, axis=None)
    values = np.zeros((do * dx, do * dx, len(support)), dtype=complex)
    # the cells are distinct; adding into zeros turns -0.0 entries into 0.0
    values[rows, cols, np.searchsorted(support, basis)[..., None, None]] \
        += mx.matrices
    return Corepresentation(A, values, support, label=label)


def build_candidates(A, seed=DEFAULT_SEED):
    """All (orbit, compact-irrep) tensor candidates in deterministic order.

    Returns (candidates, orbit_space, irreps); candidate k has label
    "o<i>*<x>" recording its construction.
    """
    space, _, _ = orbits_fixed_sets(A.pair)
    irreps = matrix_irreps(A.pair.compact, seed=seed)
    candidates = []
    for oi, orbit in enumerate(space.orbits):
        for mx in irreps:
            candidates.append(candidate_corepresentation(
                A, orbit, mx, label=f"o{oi}*{mx.label}"))
    return candidates, space, irreps


# ---------------------------------------------------------------------------
# intertwiner dimensions, two independent routes


def mor_dim_haar(u, w):
    """Invariant-state pairing of characters, rounded to an integer."""
    return int(rounded_pairings([u.character()], [w.character()],
                                u.algebra.nk)[0, 0])


def mor_dim_solver(u, w):
    """Exact nullspace of the intertwiner equations; returns (dim, basis).

    Solves for T (w.dim x u.dim) with (T x 1)u = w(T x 1) over the
    algebra's coefficient space.
    """
    du, dw = u.dim, w.dim
    support = np.union1d(u.support(), w.support())
    if not len(support):
        return 0, []
    S = len(support)
    Uc, Wc = u.dense(support), w.dense(support)    # (du, du, S), (dw, dw, S)
    # row (i, k, s) of (T x 1)u - w(T x 1), column (a, b) of T:
    # [a = i] u[b, k] - [b = k] w[i, a] at support element s
    M = np.zeros((dw, du, S, dw, du), dtype=complex)
    ii, kk = np.arange(dw), np.arange(du)
    M[ii, :, :, ii, :] += Uc.transpose(1, 2, 0)
    M[:, kk, :, :, kk] -= Wc.transpose(0, 2, 1)
    M = M.reshape(dw * du * S, dw * du)
    # M has dw*du*S rows and dw*du columns with S >= 1, so R and the
    # reduced vh are square: every null direction of M is a row of vh with
    # a singular value at or below the cutoff, and none is lost.  R of
    # M = QR has M's singular values and null space, and the SVD of R never
    # forms M's (dw*du*S)^2 left factor (R-SVD, T. F. Chan, ACM TOMS 8, 1982).
    if S > 1:
        M = np.linalg.qr(M, mode="r")
    svals, vh = np.linalg.svd(M)[1:]
    cutoff = TOL_EQ * max(float(svals.max(initial=0.0)), 1.0)
    basis = [row.conj().reshape(dw, du) for row in vh[svals <= cutoff]]
    return len(basis), basis


# ---------------------------------------------------------------------------
# honest enumeration


@dataclass
class IrrepCatalog:
    algebra: object
    candidates: list
    canonical: list
    equivalence_map: dict          # candidate index -> list of canonical ids
    orbit_space: object
    irreps: list

    def dims(self):
        return [c.dim for c in self.canonical]

    def coefficient_span_rank(self):
        rows = np.concatenate([c.dense().reshape(-1, self.algebra.dim)
                               for c in self.canonical])
        return int(np.linalg.matrix_rank(rows, tol=1e-8))


def _split_once(corep, basis, seed, depth, attempt):
    rng = rng_from(seed, 4, corep.dim, depth, attempt)
    Y = sum(c * B for c, B in zip(rng.normal(size=len(basis)), basis))
    # a skew End element cancels from Y + Y*; i(Y - Y*) keeps it
    for M in (Y + Y.conj().T, 1j * (Y - Y.conj().T)):
        vals, vecs = np.linalg.eigh(M)
        groups = _eigen_groups(vals, 1e-6)
        if len(groups) > 1:
            break
    else:
        return None
    parts = []
    for gi, idxs in enumerate(groups):
        W = vecs[:, idxs]
        sub = np.einsum("ia,ijn,jb->abn", W.conj(), corep.values, W)
        parts.append(Corepresentation(corep.algebra, sub, corep.support(),
                                      label=f"{corep.label}#p{gi}"))
    return parts


def decompose(corep, seed=DEFAULT_SEED, depth=0):
    """Split into irreducible unitary pieces via the endomorphism algebra."""
    nd, basis = mor_dim_solver(corep, corep)
    if nd == 1:
        return [corep]
    for attempt in range(RETRY_BUDGET):
        parts = _split_once(corep, basis, seed, depth, attempt)
        if parts is not None:
            out = []
            for p in parts:
                out.extend(decompose(p, seed=seed, depth=depth + 1))
            return out
    raise SeedDegenerate(
        f"could not split {corep.label} (End dim {nd}) after {RETRY_BUDGET} draws")


def enumerate_irreps(A, seed=DEFAULT_SEED):
    """Decompose all candidates, deduplicate, certify the dimension count."""
    candidates, space, irreps = build_candidates(A, seed=seed)
    canonical, known, pieces_of = [], np.zeros((0, A.dim), dtype=complex), []
    for cand in candidates:
        ids = []
        for p in decompose(cand, seed=seed):
            chi = p.character()
            same = np.flatnonzero(
                (rounded_pairings([chi], known, A.nk)[0] >= 1)
                & (np.array([k.dim for k in canonical]) == p.dim))
            if not len(same):
                canonical.append(p)
                known = np.vstack([known, chi])
                same = [len(canonical) - 1]
            ids.append(int(same[0]))
        pieces_of.append(ids)
    order = sorted(range(len(canonical)),
                   key=lambda k: (canonical[k].dim, k))
    relabel = {old: new for new, old in enumerate(order)}
    canonical = [canonical[old] for old in order]
    equivalence_map = {ci: sorted(relabel[k] for k in ids)
                       for ci, ids in enumerate(pieces_of)}
    total = sum(c.dim ** 2 for c in canonical)
    if total != A.dim:
        raise PeterWeylMismatch(
            f"sum of squared dims {total} != algebra dim {A.dim}")
    return IrrepCatalog(algebra=A, candidates=candidates, canonical=canonical,
                        equivalence_map=equivalence_map, orbit_space=space,
                        irreps=irreps)


# ---------------------------------------------------------------------------
# fusion: closed-form evaluation and the three-way audit


def fusion_formula_table(mp, space, chars):
    """Closed-form fusion multiplicities, indexed [x, gamma, r, s] by a row
    of ``chars`` (characters on the compact elements) and three orbits: the
    sum over points r, s of the two orbits with rs in orbit gamma of the
    mean of the conjugated character over the B-set of (r, s)."""
    nr, nk = mp.discrete.order, mp.compact.order
    per_pair = b_sets(mp).reshape(nr * nr, nk) @ np.conj(chars).T / nk
    o, n = space.orbit_of, len(space.orbits)
    out = np.zeros((n, n, n, len(chars)), dtype=complex)
    np.add.at(out, (o[mp.discrete.cayley].ravel(), np.repeat(o, nr),
                    np.tile(o, nr)), per_pair)
    return out.transpose(3, 0, 1, 2)


@dataclass
class FusionAuditEntry:
    gamma_orbit: int
    x_label: str
    r_orbit: int
    s_orbit: int
    solver: int
    haar: int
    formula: float
    status: str        # AUDIT-AGREE / AUDIT-DISAGREE


@dataclass
class DistinctnessEntry:
    left: str
    right: str
    mor_dim: int
    status: str
    intertwiner: object = None


@dataclass
class FlipEntry:
    candidate: str
    partner: object    # (x_label, orbit number) or None


@dataclass
class FusionAuditReport:
    entries: list
    distinctness: list
    flips: list
    triples_total: int
    seed: int

    @property
    def oracle_consistent(self):
        return all(e.solver == e.haar for e in self.entries)

    def coverage(self, complete):
        """``complete`` when every triple was checked, else what share of
        them the seeded sample checked."""
        if len(self.entries) == self.triples_total:
            return complete
        return (f"checked {len(self.entries)} of {self.triples_total} "
                f"triples (sampled, seed {self.seed:#x})")

    def disagreements(self):
        return [e for e in self.entries + self.distinctness
                if e.status == "AUDIT-DISAGREE"]


def audit_fusion(A, catalog=None, seed=DEFAULT_SEED):
    """Three-way fusion audit plus candidate-distinctness and flip search.

    Solver and character values must agree (oracle consistency); the
    closed-form value is logged with an agree/disagree flag and never
    asserted.  Disagreement does not raise.
    """
    if catalog is None:
        catalog = enumerate_irreps(A, seed=seed)
    mp = A.pair
    space = catalog.orbit_space
    closed = fusion_formula_table(
        mp, space, np.array([mx.character() for mx in catalog.irreps]))
    n_orb, nx = len(space.orbits), len(catalog.irreps)
    cands = catalog.candidates
    chars = np.array([c.character() for c in cands])
    # candidates are orbit-major with x0 trivial: those on x0 are the orbit
    # matrices, those on the orbit {e} the lifted compact irreps
    e_orbit = space.orbit_of[mp.discrete.identity]

    # triple t is (gamma, x, r, s) in row-major order of this shape
    shape = (n_orb, nx, n_orb, n_orb)
    triples_total = nx * n_orb ** 3
    picks = range(triples_total)
    if triples_total > AUDIT_TRIPLES:
        picks = np.sort(rng_from(seed, 5).choice(
            triples_total, size=AUDIT_TRIPLES, replace=False))

    entries = []
    tensor_cache = {}      # (r, s) -> orbit tensor and its Haar pairings
    for t in picks:
        gi, xi, ri, si = (int(v) for v in np.unravel_index(t, shape))
        if (ri, si) not in tensor_cache:
            target = cands[ri * nx].tensor(cands[si * nx])
            tensor_cache[(ri, si)] = target, rounded_pairings(
                chars, [target.character()], A.nk)[:, 0].tolist()
        target, haar = tensor_cache[(ri, si)]
        ci = gi * nx + xi
        solver = mor_dim_solver(cands[ci], target)[0]
        formula = closed[xi, gi, ri, si]
        agree = abs(formula - solver) < 1e-6
        entries.append(FusionAuditEntry(
            gamma_orbit=gi, x_label=catalog.irreps[xi].label, r_orbit=ri,
            s_orbit=si, solver=solver, haar=haar[ci],
            formula=float(formula.real),
            status="AUDIT-AGREE" if agree else "AUDIT-DISAGREE"))

    # distinctness of candidates with different construction labels: the
    # pairs i < j of the Gram matrix with an intertwiner, row-major
    distinctness = []
    gram = rounded_pairings(chars, chars, A.nk)
    for i, j in np.argwhere(np.triu(gram, 1) > 0).tolist():
        basis = mor_dim_solver(cands[i], cands[j])[1]
        distinctness.append(DistinctnessEntry(
            left=cands[i].label, right=cands[j].label, mor_dim=int(gram[i, j]),
            status="AUDIT-DISAGREE", intertwiner=basis[0] if basis else None))

    # flip search: candidate (orbit x) ~ (lifted x') tensor (orbit'), the
    # first match in (x', orbit') order.  Equal characters have equal
    # dimensions, their counits.
    swapped = A.mul_vec(chars[e_orbit * nx:(e_orbit + 1) * nx, None],
                        chars[None, ::nx]).reshape(-1, A.dim)
    partners = [(mx.label, oi) for mx in catalog.irreps for oi in range(n_orb)]
    flips = []
    for cand, chi in zip(cands, chars):
        hit = np.flatnonzero(np.abs(swapped - chi).max(1) < 1e-8)
        flips.append(FlipEntry(candidate=cand.label,
                               partner=partners[hit[0]] if len(hit) else None))

    return FusionAuditReport(entries=entries, distinctness=distinctness,
                             flips=flips, triples_total=triples_total,
                             seed=seed)


# ---------------------------------------------------------------------------
# invariant groups: 1-dim corepresentations and algebra characters


@dataclass
class InvariantGroups:
    intrinsic: FiniteGroup
    intrinsic_model: FiniteGroup
    intrinsic_iso: tuple
    spectrum: FiniteGroup
    spectrum_vectors: list
    spectrum_model: FiniteGroup
    spectrum_iso: tuple


def invariant_groups(A, catalog=None, seed=DEFAULT_SEED):
    """Both canonical finite groups attached to the algebra, with the
    independently built structured models and isomorphism tests."""
    if catalog is None:
        catalog = enumerate_irreps(A, seed=seed)
    mp = A.pair
    R, K = mp.discrete, mp.compact
    space, (fix_r_group, fix_r_el), (fix_k_group, fix_k_el) = \
        orbits_fixed_sets(mp)

    # --- group of 1-dim corepresentations under tensor
    ones = [c for c in catalog.canonical if c.dim == 1]
    for c in ones:       # group-like (the coproduct doubles it) and unitary
        dev = check_corepresentation(c)
        if dev > TOL_MULT:
            raise ValidationError("intrinsic-grouplike",
                                  f"deviation {dev:.3e}")
    V = np.array([c.character() for c in ones])    # d = 1: the coefficients
    cayley = closure_table(V, lambda i: A.mul_vec(V[i], V), TOL_MULT,
                           "intrinsic-closure", "product")
    intrinsic = FiniteGroup(cayley, labels=[c.label for c in ones])

    # structured model: compact-side dual extended by the fixed discrete part
    dualK = dual_group(K, seed=seed)
    act = permuted_rows(dualK.characters, mp.alpha[R.inverse[fix_r_el]], 1e-6)
    if (act < 0).any():
        raise ValidationError("intrinsic-model",
                              "twisted character escaped the dual")
    intrinsic_model = semidirect_product(dualK.group, fix_r_group, act)
    intrinsic_iso = is_isomorphic_small(intrinsic, intrinsic_model)

    # --- algebra characters under convolution
    dualR = dual_group(R, seed=seed)
    passers = []
    pass_vectors = []
    for g in range(K.order):
        # phi vanishes exactly off `on`: every pair in it must be a product
        point = (A.g_of == g).astype(complex)
        on = np.flatnonzero(point)
        if not (A.partner[on][:, on // A.nk] == on).all():
            continue
        for mi in range(dualR.group.order):
            phi = dualR.characters[mi][A.gamma_of] * point
            # phi(e_i) phi(e_j) = phi(e_i e_j) on the basis products
            if np.abs(phi[:, None] * phi[A.partner]
                      - phi[A.result]).max() > TOL_MULT:
                continue
            if np.abs(phi[A.star_index] - np.conj(phi)).max() > TOL_MULT:
                continue
            if abs(np.dot(phi, A.unit_vec) - 1.0) > TOL_MULT:
                continue
            passers.append((g, mi))
            pass_vectors.append(phi)
    P = np.array(pass_vectors)
    right = P[:, A.delta_right]                  # [j, basis, coproduct term]
    conv_cayley = closure_table(
        P, lambda i: (P[i][A.delta_left] * right).sum(2), TOL_MULT,
        "spectrum-closure", "convolution")
    spectrum = FiniteGroup(conv_cayley,
                           labels=[f"({K.labels[g]},m{mi})"
                                   for g, mi in passers])

    # structured model: discrete-side dual extended by the fixed compact part
    actS = permuted_rows(dualR.characters, mp.beta[fix_k_el], 1e-6)
    if (actS < 0).any():
        raise ValidationError("spectrum-model",
                              "twisted character escaped the dual")
    spectrum_model = semidirect_product(dualR.group, fix_k_group, actS)
    spectrum_iso = is_isomorphic_small(spectrum, spectrum_model)

    return InvariantGroups(
        intrinsic=intrinsic, intrinsic_model=intrinsic_model,
        intrinsic_iso=intrinsic_iso, spectrum=spectrum,
        spectrum_vectors=pass_vectors, spectrum_model=spectrum_model,
        spectrum_iso=spectrum_iso)
