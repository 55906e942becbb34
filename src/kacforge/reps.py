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

from .config import (AUDIT_TRIPLES, DEFAULT_SEED, INTERTWINER_CAP,
                     RETRY_BUDGET, TOL_EIGEN, TOL_EQ, TOL_INT,
                     TOL_MATCH, TOL_MULT)
from .errors import (PeterWeylMismatch, SeedDegenerate, SizeBound,
                     ValidationError)
from .groups import (FiniteGroup, _components, _eigen_groups, _row_blocks,
                     closure_table, dual_group, is_isomorphic_small,
                     matrix_irreps, permuted_rows, rng_from,
                     rounded_pairings, semidirect_product)
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
        if not np.isin(self._support, onto).all():
            raise ValidationError("corep-support", "leaves the given basis")
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
    """Exact nullspace of the intertwiner equations; returns (dim, basis)."""
    return mor_dims([u], w)[0]


def _line_classes(n, member, line, n_lines):
    """Members 0..n-1 that share a line fall into one class, named by its
    least member.  Returns the class of every member and of every line
    (-1 for a line without members)."""
    first = np.full(n_lines, n)
    np.minimum.at(first, line, member)
    cls = _components(n, member, first[line])
    return cls, np.append(cls, -1)[first]


def mor_dims(us, w):
    """Intertwiner spaces from each u of ``us`` to ``w``: one (dim, basis)
    per u, the basis an orthonormal list of (w.dim, u.dim) arrays.

    T solves (T x 1)u = w(T x 1) over the algebra's coefficient space: row
    (i, k, s) of the system reads sum_b T[i, b] u[b, k, s] - sum_a w[i, a, s]
    T[a, k] = 0, s in the union of the supports.  A row names only the
    unknowns of its nonzero terms, so the unknowns fall into the connected
    components of the system's nonzero pattern and the null space is the
    direct sum of theirs (the connected-component case of the
    block-triangular form, Pothen & Fan, ACM TOMS 16, 1990).  The
    components come from the patterns of the support slices, without
    forming the system:

    * the b that share a column (k, s) of u's slices form a class, whose
      unknowns T[i, b] meet in row (i, k, s) for every i; likewise the a
      that share a row (i, s) of w's slices, and T[a, k] for every k;
    * a row (i, k, s) with terms on both sides joins the class of column
      (k, s) in row i of T to the class of row (i, s) in column k.

    Each component is one dense block, its rows in the order of the whole
    system, and the blocks of one shape over all of ``us`` are solved in
    stacked calls.  A block with more rows than columns is reduced to R of
    its QR, which has the block's singular values and null space, so the
    SVD never forms the left factor (R-SVD, T. F. Chan, ACM TOMS 8, 1982).
    A singular value counts as zero at TOL_EQ times the largest one over
    that u's blocks (at least 1), the cutoff of its whole system.  A block
    over INTERTWINER_CAP cells raises SizeBound before any block is built.
    """
    if not us:
        return []
    n, dw, Sw = len(us), w.dim, w.support()
    S = np.unique(np.concatenate([Sw] + [u.support() for u in us]))
    nS = len(S)
    # the k of every u stacked: K = koff[q] + k; unknown T_q[a, b] is
    # uid(q, a, b) = dw * koff[q] + a * du[q] + b
    du = np.array([u.dim for u in us])
    koff = np.cumsum(du) - du
    nK = int(du.sum())
    qK = np.repeat(np.arange(n), du)
    # coefficients with a zero slice appended, flattened: entry (b, k) of
    # u_q at support position p, or len(support) off it, is at
    # uoff[q] + (b * du[q] + k) * width[q] + p
    width = np.array([len(u.support()) + 1 for u in us])
    uoff = np.cumsum(du * du * width) - du * du * width
    uflat = np.concatenate([np.concatenate(
        [u.values, np.zeros((u.dim, u.dim, 1))], 2).ravel() for u in us])
    wflat = np.concatenate([w.values, np.zeros((dw, dw, 1))], 2).ravel()
    pos = np.repeat(width[:, None] - 1, nS, axis=1)     # S[s] in u_q's support
    pw = np.full(nS, len(Sw))
    pw[np.searchsorted(S, Sw)] = np.arange(len(Sw))
    # line classes: the b of column (K, s) and the a of w's row (i, s)
    b, k, s = [], [], []
    for qq, u in enumerate(us):
        at = np.searchsorted(S, u.support())
        pos[qq, at] = np.arange(len(at))
        bb, kk, ss = np.nonzero(u.values)
        b.append(koff[qq] + bb)
        k.append(koff[qq] + kk)
        s.append(at[ss])
    b, k, s = (np.concatenate(x) for x in (b, k, s))
    cu, ck = _line_classes(nK, b, k * nS + s, nK * nS)
    ck = ck.reshape(nK, nS)
    i, a, s = np.nonzero(w.values)
    cw, ci = _line_classes(dw, a, i * nS + np.searchsorted(S, Sw)[s],
                           dw * nS)
    ci = ci.reshape(dw, nS)

    def uid(q, a, b):
        return dw * koff[q] + a * du[q] + b

    qu = np.repeat(np.arange(n), dw * du)
    a, b = np.divmod(np.arange(dw * nK) - dw * koff[qu], du[qu])
    # the rows with a term, in the order (i, k, s) for each u, reach
    # T[i, class of (k, s)] and T[class of (i, s), k]
    i, K, s = np.nonzero((ci[:, None] >= 0) | (ck[None] >= 0))
    q = qK[K]
    k = K - koff[q]
    rk, ri = ck[K, s], ci[i, s]
    both = (rk >= 0) & (ri >= 0)
    unk = np.arange(dw * nK)
    comp = _components(
        dw * nK,
        np.concatenate([unk, unk, uid(q, i, rk - koff[q])[both]]),
        np.concatenate([uid(qu, a, cu[koff[qu] + b] - koff[qu]),
                        uid(qu, cw[a], b), uid(q, ri, k)[both]]))
    row_comp = comp[np.where(rk >= 0, uid(q, i, rk - koff[q]),
                             uid(q, ri, k))]
    # blocks are named by their least unknown; rows (i, k, offset of
    # u[., k, s] in uflat, of w[i, ., s] in wflat) and columns (a, b, their
    # offsets, index of T[a, b]) are gathered block by block
    order = np.argsort(row_comp, kind="stable")
    rows = np.stack([i, k, uoff[q] + k * width[q] + pos[q, s],
                     i * dw * (len(Sw) + 1) + pw[s]])[:, order]
    order = np.argsort(comp, kind="stable")
    cols = np.stack([a, b, b * du[qu] * width[qu], a * (len(Sw) + 1),
                     unk - dw * koff[qu]])[:, order]
    keys, col_at, wide = np.unique(comp[order], return_index=True,
                                   return_counts=True)
    high = np.bincount(np.searchsorted(keys, row_comp), minlength=len(keys))
    row_at = np.cumsum(high) - high
    cells = np.maximum(high, wide) * wide
    if cells.max() > INTERTWINER_CAP:
        g = int(cells.argmax())
        raise SizeBound(f"intertwiner block of {high[g]} equations in "
                        f"{wide[g]} unknowns is over the cap of "
                        f"{INTERTWINER_CAP} cells")
    solved = []
    for nr, nc in np.unique(np.stack([high, wide], 1), axis=0).tolist():
        same = np.flatnonzero((high == nr) & (wide == nc))
        for blk in _row_blocks(len(same), max(nr, nc) * nc):
            g = same[blk]
            r = rows[:, row_at[g, None] + np.arange(nr)]     # [field, g, nr]
            c = cols[:, col_at[g, None] + np.arange(nc)]     # [field, g, nc]
            B = np.zeros((len(g), max(nr, nc), nc), dtype=complex)
            # [a = i] u[b, k, s] - [b = k] w[i, a, s]
            x, y, z = np.nonzero(c[0][:, None] == r[0][:, :, None])
            B[x, y, z] = uflat[r[2][x, y] + c[2][x, z]]
            x, y, z = np.nonzero(c[1][:, None] == r[1][:, :, None])
            B[x, y, z] -= wflat[r[3][x, y] + c[3][x, z]]
            if nr > nc:
                B = np.linalg.qr(B, mode="r")
            solved.append((g, *np.linalg.svd(B)[1:]))
    owner = qu[keys]
    top = np.zeros(n)
    for g, svals, _ in solved:
        np.maximum.at(top, owner[g], svals.max(1))
    cutoff = TOL_EQ * np.maximum(top, 1.0)
    null = []
    for g, svals, vh in solved:
        x, j = np.nonzero(svals <= cutoff[owner[g], None])
        null.extend(zip(g[x].tolist(), j.tolist(), vh[x, j].conj()))
    out = [[] for _ in us]
    for g, _, v in sorted(null, key=lambda t: t[:2]):
        T = np.zeros(dw * du[owner[g]], dtype=complex)
        T[cols[4, col_at[g]:col_at[g] + wide[g]]] = v
        out[owner[g]].append(T.reshape(dw, du[owner[g]]))
    return [(len(basis), basis) for basis in out]


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
        """Rank of the coefficient rows of all canonical irreps together, at
        the absolute tolerance TOL_EQ.  Each irrep lives on (its orbit) x K,
        so the rows are block-diagonal by orbit and the rank is the sum of
        the blocks' ranks."""
        orbit = self.orbit_space.orbit_of[self.algebra.gamma_of]  # per basis
        by_orbit = {}
        for c in self.canonical:
            by_orbit.setdefault(int(orbit[c.support()[0]]), []).append(c)
        rank = 0
        for o, coreps in by_orbit.items():
            on = np.flatnonzero(orbit == o)
            rows = np.concatenate([c.dense(on).reshape(-1, len(on))
                                   for c in coreps])
            rank += int(np.linalg.matrix_rank(rows, tol=TOL_EQ))
        return rank


def _split_once(corep, basis, seed, depth, attempt):
    rng = rng_from(seed, 4, corep.dim, depth, attempt)
    Y = sum(c * B for c, B in zip(rng.normal(size=len(basis)), basis))
    # a skew End element cancels from Y + Y*; i(Y - Y*) keeps it
    for M in (Y + Y.conj().T, 1j * (Y - Y.conj().T)):
        vals, vecs = np.linalg.eigh(M)
        groups = _eigen_groups(vals, TOL_EIGEN)
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

    # triple t is (gamma, x, r, s) in row-major order of this shape; each
    # orbit tensor (r, s) is built once and solved against its candidates
    shape = (n_orb, nx, n_orb, n_orb)
    triples_total = nx * n_orb ** 3
    picks = np.arange(triples_total)
    if triples_total > AUDIT_TRIPLES:
        picks = np.sort(rng_from(seed, 5).choice(
            triples_total, size=AUDIT_TRIPLES, replace=False))
    gi, xi, ri, si = np.unravel_index(picks, shape)
    ci = gi * nx + xi
    target_of = ri * n_orb + si
    solver = np.zeros(len(picks), dtype=np.int64)
    haar = np.zeros(len(picks), dtype=np.int64)
    for t in np.unique(target_of).tolist():
        at = np.flatnonzero(target_of == t)
        target = cands[t // n_orb * nx].tensor(cands[t % n_orb * nx])
        haar[at] = rounded_pairings(chars, [target.character()],
                                    A.nk)[ci[at], 0]
        solver[at] = [d for d, _ in mor_dims([cands[c] for c in ci[at]],
                                             target)]
    entries = []
    for g, x, r, s, d, h in zip(gi.tolist(), xi.tolist(), ri.tolist(),
                                si.tolist(), solver.tolist(), haar.tolist()):
        formula = closed[x, g, r, s]
        agree = abs(formula - d) < TOL_INT
        entries.append(FusionAuditEntry(
            gamma_orbit=g, x_label=catalog.irreps[x].label, r_orbit=r,
            s_orbit=s, solver=d, haar=h, formula=float(formula.real),
            status="AUDIT-AGREE" if agree else "AUDIT-DISAGREE"))

    # distinctness of candidates with different construction labels: the
    # pairs i < j of the Gram matrix with an intertwiner, row-major, solved
    # in one call per right candidate
    gram = rounded_pairings(chars, chars, A.nk)
    pairs = np.argwhere(np.triu(gram, 1) > 0).tolist()
    witness = {}
    for j in sorted({j for _, j in pairs}):
        left = [i for i, jj in pairs if jj == j]
        for i, (_, basis) in zip(left, mor_dims([cands[i] for i in left],
                                                cands[j])):
            witness[i, j] = basis[0] if basis else None
    distinctness = [DistinctnessEntry(
        left=cands[i].label, right=cands[j].label, mor_dim=int(gram[i, j]),
        status="AUDIT-DISAGREE", intertwiner=witness[i, j])
        for i, j in pairs]

    # flip search: candidate (orbit x) ~ (lifted x') tensor (orbit'), the
    # first match in (x', orbit') order.  Equal characters have equal
    # dimensions, their counits.
    swapped = A.mul_vec(chars[e_orbit * nx:(e_orbit + 1) * nx, None],
                        chars[None, ::nx]).reshape(-1, A.dim)
    partners = [(mx.label, oi) for mx in catalog.irreps for oi in range(n_orb)]
    flips = []
    for cand, chi in zip(cands, chars):
        hit = np.flatnonzero(np.abs(swapped - chi).max(1) < TOL_EQ)
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
    act = permuted_rows(dualK.characters, mp.alpha[R.inverse[fix_r_el]],
                        TOL_MATCH)
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
    actS = permuted_rows(dualR.characters, mp.beta[fix_k_el], TOL_MATCH)
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
