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

from .config import (DEFAULT_SEED, RETRY_BUDGET, TOL_EQ, TOL_INT,
                     TOL_MULT)
from .errors import (NonIntegral, PeterWeylMismatch, SeedDegenerate,
                     ValidationError)
from .groups import (FiniteGroup, MatrixIrrep, _eigen_groups, _row_blocks,
                     character_table, dual_group, is_isomorphic_small,
                     match_rows, matrix_irreps, rng_from, semidirect_product)
from .matched import b_sets, orbits_fixed_sets


class Corepresentation:
    """A matrix over the algebra, stored as a (dim, dim, n) coefficient
    tensor with n the algebra dimension."""

    def __init__(self, algebra, coeffs, label=None, unitary=True):
        self.algebra = algebra
        # read-only, so the support computed once below stays true
        self.coeffs = np.ascontiguousarray(coeffs, dtype=complex).view()
        self.coeffs.flags.writeable = False
        if self.coeffs.ndim != 3 or self.coeffs.shape[0] != self.coeffs.shape[1] \
                or self.coeffs.shape[2] != algebra.dim:
            raise ValidationError("corep-shape", f"{self.coeffs.shape}")
        self.dim = self.coeffs.shape[0]
        self.label = label if label is not None else f"w{self.dim}"
        self.unitary = unitary
        self._support = None

    def character(self):
        return np.einsum("iin->n", self.coeffs)

    def support(self):
        """Basis elements some entry uses (read-only); computed once, as
        the coefficients are read-only."""
        if self._support is None:
            flat = np.abs(self.coeffs).sum(axis=(0, 1))
            self._support = np.nonzero(flat > 1e-14)[0]
            self._support.flags.writeable = False
        return self._support

    def tensor(self, other, label=None):
        A = self.algebra
        if other.algebra is not A:
            raise ValidationError("corep-tensor", "different algebras")
        d1, d2 = self.dim, other.dim
        out = A.mul_vec(self.coeffs[:, None, :, None],
                        other.coeffs[None, :, None, :])    # [i, k, j, l]
        out = out.reshape(d1 * d2, d1 * d2, A.dim)
        return Corepresentation(
            A, out, label=label or f"{self.label}(x){other.label}",
            unitary=self.unitary and other.unitary)

    def __repr__(self):
        return f"Corepresentation({self.label!r}, dim={self.dim})"


def check_corepresentation(c):
    """Max deviation over the coaction identity and (if flagged) unitarity.

    The coaction identity Delta(c_ij) = sum_k c_ik x c_kj is compared on
    the support of the corepresentation, in row blocks of its left leg: the
    coproduct terms of distinct basis elements are distinct pairs, so the
    left-hand side at the term (delta_left, delta_right)[t, a] is c_ij[t].
    """
    A = c.algebra
    d = c.dim
    S = c.support()
    cS = c.coeffs[:, :, S]
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
    if c.unitary:
        one = A.one().vec
        want = np.eye(d)[:, :, None] * one
        cs = A.star_vec(c.coeffs)                   # entrywise star
        row = A.mul_vec(c.coeffs[:, None], cs[None, :]).sum(2)     # c c*
        col = A.mul_vec(cs[:, :, None], c.coeffs[:, None]).sum(0)  # c* c
        dev = max(dev, float(np.abs(row - want).max()),
                  float(np.abs(col - want).max()))
    return dev


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
    basis = (orbit[:, None] * A.nk + g)[..., None, None]
    coeffs = np.zeros((do * dx, do * dx, A.dim), dtype=complex)
    # the cells are distinct; adding into zeros turns -0.0 entries into 0.0
    coeffs[rows, cols, basis] += mx.matrices
    return Corepresentation(A, coeffs, label=label)


def orbit_corepresentation(A, orbit, label=None):
    """Matrix over one orbit of the discrete action; entry (r, s) sums the
    basis elements u_r d_g over the fiber {g : the action sends r to s}."""
    trivial = MatrixIrrep("1", 1, np.ones((A.nk, 1, 1)))
    return candidate_corepresentation(A, orbit, trivial,
                                      label=label or f"orb{orbit[0]}")


def lifted_irrep_corepresentation(A, mx, label=None):
    """A matrix irrep of the compact group, embedded via point indicators
    (the candidate on the fixed orbit {e})."""
    return candidate_corepresentation(A, [A.pair.discrete.identity], mx,
                                      label=label or f"lift[{mx.label}]")


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
            cand = candidate_corepresentation(
                A, orbit, mx, label=f"o{oi}*{mx.label}")
            cand.orbit_index = oi
            cand.irrep_label = mx.label
            candidates.append(cand)
    return candidates, space, irreps


# ---------------------------------------------------------------------------
# intertwiner dimensions, two independent routes


def mor_dim_haar(u, w):
    """Invariant-state pairing of characters, rounded to an integer."""
    if not (u.unitary and w.unitary):
        raise ValidationError("mor-haar", "both inputs must be unitary")
    val = complex(np.vdot(u.character(), w.character())) / u.algebra.nk
    best = int(round(val.real))
    if abs(val - best) > TOL_INT:
        raise NonIntegral(f"character pairing {val} is not near an integer")
    return best


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
    Uc = u.coeffs[:, :, support]            # (du, du, S)
    Wc = w.coeffs[:, :, support]            # (dw, dw, S)
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
        rows = np.concatenate([c.coeffs.reshape(-1, self.algebra.dim)
                               for c in self.canonical])
        return int(np.linalg.matrix_rank(rows, tol=1e-8))


def _split_once(corep, basis, seed, depth, attempt):
    rng = rng_from(seed, 4, corep.dim, depth, attempt)
    Y = sum(c * B for c, B in zip(rng.normal(size=len(basis)), basis))
    M = Y + Y.conj().T
    vals, vecs = np.linalg.eigh(M)
    groups = _eigen_groups(vals, 1e-6)
    if len(groups) < 2:
        return None
    parts = []
    for gi, idxs in enumerate(groups):
        W = vecs[:, idxs]
        sub = np.einsum("ia,ijn,jb->abn", W.conj(), corep.coeffs, W)
        parts.append(Corepresentation(
            corep.algebra, sub, label=f"{corep.label}#p{gi}",
            unitary=corep.unitary))
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
    canonical = []
    pieces_of = {}
    for ci, cand in enumerate(candidates):
        pieces = decompose(cand, seed=seed)
        ids = []
        for p in pieces:
            match = None
            for ki, known in enumerate(canonical):
                if p.dim == known.dim and mor_dim_haar(p, known) >= 1:
                    match = ki
                    break
            if match is None:
                canonical.append(p)
                match = len(canonical) - 1
            ids.append(match)
        pieces_of[ci] = ids
    order = sorted(range(len(canonical)),
                   key=lambda k: (canonical[k].dim, k))
    relabel = {old: new for new, old in enumerate(order)}
    canonical = [canonical[old] for old in order]
    equivalence_map = {ci: sorted(relabel[k] for k in ids)
                       for ci, ids in pieces_of.items()}
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
    partner: object    # (x_label, orbit_index) or None


@dataclass
class FusionAuditReport:
    pair_name: str
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

    def lines(self):
        out = [f"fusion audit for {self.pair_name}: "
               f"{self.coverage(f'{len(self.entries)} triples')}, "
               f"{len(self.disagreements())} disagreements"]
        for e in self.entries:
            if e.status == "AUDIT-DISAGREE":
                out.append(
                    f"AUDIT-DISAGREE triple (o{e.gamma_orbit}*{e.x_label}"
                    f" | o{e.r_orbit} x o{e.s_orbit}): solver={e.solver}"
                    f" haar={e.haar} formula={e.formula:.6g}")
        for d in self.distinctness:
            if d.status == "AUDIT-DISAGREE":
                out.append(f"AUDIT-DISAGREE distinctness ({d.left} ~ {d.right})"
                           f": intertwiner space has dim {d.mor_dim}")
        for f in self.flips:
            if f.partner is not None:
                out.append(f"flip {f.candidate} ~ lift[{f.partner[0]}]"
                           f"(x)orb#{f.partner[1]}")
        return out


def audit_fusion(A, catalog=None, seed=DEFAULT_SEED, max_triples=2000):
    """Three-way fusion audit plus candidate-distinctness and flip search.

    Solver and character values must agree (oracle consistency); the
    closed-form value is logged with an agree/disagree flag and never
    asserted.  Disagreement does not raise.
    """
    if catalog is None:
        catalog = enumerate_irreps(A, seed=seed)
    mp = A.pair
    space = catalog.orbit_space
    table = character_table(mp.compact, seed=seed)
    closed = fusion_formula_table(mp, space,
                                  table.chars[:, table.classes.class_of])
    n_orb = len(space.orbits)
    orbit_coreps = [orbit_corepresentation(A, orb, label=f"orb#{oi}")
                    for oi, orb in enumerate(space.orbits)]
    lifted = [lifted_irrep_corepresentation(A, mx) for mx in catalog.irreps]

    triples = [(gi, xi, ri, si)
               for gi in range(n_orb) for xi in range(len(catalog.irreps))
               for ri in range(n_orb) for si in range(n_orb)]
    triples_total = len(triples)
    if len(triples) > max_triples:
        rng = rng_from(seed, 5)
        keep = rng.choice(len(triples), size=max_triples, replace=False)
        triples = [triples[t] for t in sorted(keep)]

    entries = []
    tensor_cache = {}
    for gi, xi, ri, si in triples:
        cand = catalog.candidates[gi * len(catalog.irreps) + xi]
        if (ri, si) not in tensor_cache:
            tensor_cache[(ri, si)] = orbit_coreps[ri].tensor(orbit_coreps[si])
        target = tensor_cache[(ri, si)]
        solver = mor_dim_solver(cand, target)[0]
        haar = mor_dim_haar(cand, target)
        formula = closed[xi, gi, ri, si]
        agree = abs(formula - solver) < 1e-6
        entries.append(FusionAuditEntry(
            gamma_orbit=gi, x_label=catalog.irreps[xi].label, r_orbit=ri,
            s_orbit=si, solver=solver, haar=haar, formula=float(formula.real),
            status="AUDIT-AGREE" if agree else "AUDIT-DISAGREE"))

    # distinctness of candidates with different construction labels
    distinctness = []
    cands = catalog.candidates
    for i in range(len(cands)):
        for j in range(i + 1, len(cands)):
            d = mor_dim_haar(cands[i], cands[j])
            if d > 0:
                dim_t, basis = mor_dim_solver(cands[i], cands[j])
                witness = basis[0] if basis else None
                distinctness.append(DistinctnessEntry(
                    left=cands[i].label, right=cands[j].label, mor_dim=d,
                    status="AUDIT-DISAGREE", intertwiner=witness))

    # flip search: candidate (orbit x) ~ (lifted x') tensor (orbit')
    flips = []
    for cand in cands:
        found = None
        chi_c = cand.character()
        for xi, lx in enumerate(lifted):
            for oi, oc in enumerate(orbit_coreps):
                if lx.dim * oc.dim != cand.dim:
                    continue
                chi_sw = A.mul_vec(lx.character(), oc.character())
                if np.abs(chi_sw - chi_c).max() < 1e-8:
                    found = (catalog.irreps[xi].label, oi)
                    break
            if found:
                break
        flips.append(FlipEntry(candidate=cand.label, partner=found))

    return FusionAuditReport(pair_name=mp.name, entries=entries,
                             distinctness=distinctness, flips=flips,
                             triples_total=triples_total, seed=seed)


# ---------------------------------------------------------------------------
# invariant groups: 1-dim corepresentations and algebra characters


@dataclass
class InvariantGroups:
    intrinsic: FiniteGroup
    intrinsic_vectors: list
    intrinsic_model: FiniteGroup
    intrinsic_iso: tuple
    spectrum: FiniteGroup
    spectrum_vectors: list
    spectrum_model: FiniteGroup
    spectrum_iso: tuple


def _closure_table(vectors, row_products, name, what):
    """Cayley table of a finite set of vectors closed under a product: row i
    matches ``row_products(i)``, the products of vector i with every vector."""
    table = np.stack([match_rows(vectors, row_products(i), TOL_MULT)
                      for i in range(len(vectors))])
    if (table < 0).any():
        i, j = np.argwhere(table < 0)[0]
        raise ValidationError(name, f"{what} {i}*{j} left the set")
    return table


def _twisted_action(dual, points, name):
    """Action table [q, n] of a fixed subgroup on a dual group: row q of
    ``points`` is the point map of q, and character n composed with it is
    the dual character act[q, n]."""
    chars = dual.characters
    moved = chars[:, points].transpose(1, 0, 2)         # [q, n, element]
    act = match_rows(chars, moved.reshape(-1, chars.shape[1]), 1e-6)
    if (act < 0).any():
        raise ValidationError(name, "twisted character escaped the dual")
    return act.reshape(len(points), len(chars))


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
    vecs = [c.coeffs[0, 0].copy() for c in ones]
    for v in vecs:       # group-likeness: the coproduct doubles the vector
        got = np.zeros((A.dim, A.dim), dtype=complex)
        got[A.delta_left, A.delta_right] = v[:, None]   # coproduct terms are distinct
        dev = float(np.abs(got - np.outer(v, v)).max(initial=0.0))
        if dev > TOL_MULT:
            raise ValidationError("intrinsic-grouplike",
                                  f"deviation {dev:.3e}")
    V = np.array(vecs)
    cayley = _closure_table(V, lambda i: A.mul_vec(V[i], V),
                            "intrinsic-closure", "product")
    intrinsic = FiniteGroup(cayley, labels=[c.label for c in ones])

    # structured model: compact-side dual extended by the fixed discrete part
    dualK = dual_group(K, seed=seed)
    act = _twisted_action(dualK, mp.alpha[R.inverse[fix_r_el]],
                          "intrinsic-model")
    intrinsic_model = semidirect_product(dualK.group, fix_r_group, act)
    intrinsic_iso = is_isomorphic_small(intrinsic, intrinsic_model)

    # --- algebra characters under convolution
    dualR = dual_group(R, seed=seed)
    rows = np.arange(A.dim)[:, None]
    passers = []
    pass_vectors = []
    for g in range(K.order):
        point = (A.g_of == g).astype(complex)
        for mi in range(dualR.group.order):
            phi = dualR.characters[mi][A.gamma_of] * point
            defect = np.outer(phi, phi)       # phi(e_i) phi(e_j) - phi(e_i e_j)
            defect[rows, A.partner] -= phi[A.result]
            if np.abs(defect).max() > TOL_MULT:
                continue
            if np.abs(phi[A.star_index] - np.conj(phi)).max() > TOL_MULT:
                continue
            if abs(np.dot(phi, A.one().vec) - 1.0) > TOL_MULT:
                continue
            passers.append((g, mi))
            pass_vectors.append(phi)
    P = np.array(pass_vectors)
    right = P[:, A.delta_right]                  # [j, basis, coproduct term]
    conv_cayley = _closure_table(
        P, lambda i: (P[i][A.delta_left] * right).sum(2),
        "spectrum-closure", "convolution")
    spectrum = FiniteGroup(conv_cayley,
                           labels=[f"({K.labels[g]},m{mi})"
                                   for g, mi in passers])

    # structured model: discrete-side dual extended by the fixed compact part
    actS = _twisted_action(dualR, mp.beta[fix_k_el], "spectrum-model")
    spectrum_model = semidirect_product(dualR.group, fix_k_group, actS)
    spectrum_iso = is_isomorphic_small(spectrum, spectrum_model)

    return InvariantGroups(
        intrinsic=intrinsic, intrinsic_vectors=vecs,
        intrinsic_model=intrinsic_model, intrinsic_iso=intrinsic_iso,
        spectrum=spectrum, spectrum_vectors=pass_vectors,
        spectrum_model=spectrum_model, spectrum_iso=spectrum_iso)
