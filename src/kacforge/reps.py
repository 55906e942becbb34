"""Corepresentation theory for the crossed-product function algebras.

Candidates come in two families: orbit matrices built from the discrete
action (entries are sums of basis elements over a fiber of the action) and
lifted matrix irreps of the compact group.  Their tensor products are the
natural candidate list; whether candidates are irreducible or pairwise
distinct is always computed, never assumed.  Intertwiner dimensions come
by two routes: the invariant-state pairing of characters (a tensor's is
the product of its factors'), and an exact nullspace solve on the built
tensor.  Each enumeration is certified by the squared-dimension count.
"""

from dataclasses import dataclass

import numpy as np

from .config import (AUDIT_TRIPLES, DEFAULT_SEED, INTERTWINER_CAP,
                     RETRY_BUDGET, TOL_COEFF, TOL_EIGEN, TOL_EQ, TOL_INT,
                     TOL_MULT)
from .errors import (IdentityViolated, PeterWeylMismatch, SeedDegenerate,
                     SizeBound, ValidationError)
from .groups import (_BLOCK, FiniteGroup, _components, _eigen_groups,
                     _row_blocks, closure_table, dual_group, is_isomorphic_small,
                     matrix_irreps, permuted_rows, rng_from,
                     rounded_pairings, semidirect_product)
from .matched import b_sets, orbit_space, orbits_fixed_sets


class Corepresentation:
    """A (dim x dim) matrix over the algebra, stored as its nonzero
    coefficients: entry n is ``value[n]`` at basis element ``basis[n]`` in
    row ``row[n]`` and column ``col[n]`` (int32), in (basis, row, col)
    order.  The entries are taken in any order; those of value 0, and those
    on a basis element of total magnitude at most TOL_COEFF, are dropped."""

    def __init__(self, algebra, dim, entries, label=None):
        row, col, basis = (np.asarray(a, dtype=np.int64).ravel()
                           for a in entries[:3])
        value = np.asarray(entries[3], dtype=complex).ravel()
        if not len(row) == len(col) == len(basis) == len(value) \
                or ((row < 0) | (row >= dim) | (col < 0) | (col >= dim)).any():
            raise ValidationError("corep-shape", "entries outside the matrix")
        if ((basis < 0) | (basis >= algebra.dim)).any():
            raise ValidationError("corep-support", "not basis indices")
        key = (basis * dim + row) * dim + col
        order = np.argsort(key, kind="stable")
        key = key[order]
        if (key[1:] == key[:-1]).any():
            raise ValidationError("corep-shape", "an entry given twice")
        self._store(algebra, dim, key, value[order], label)

    @classmethod
    def _of_keys(cls, algebra, dim, key, value, label):
        """The corepresentation of the entries with the distinct ascending
        keys (basis * dim + row) * dim + col, each of a basis element and
        a cell in range, as ``tensor`` and ``candidate_corepresentation``
        build them: the constructor less its sort and checks."""
        out = cls.__new__(cls)
        out._store(algebra, dim, key, value, label)
        return out

    def _store(self, algebra, dim, key, value, label):
        self.algebra, self.dim = algebra, int(dim)
        basis = key // (self.dim * self.dim)
        # each basis element sums its magnitudes in (row, col) order; a
        # zero adds nothing to its sum
        big = np.bincount(basis, np.abs(value),
                          minlength=algebra.dim) > TOL_COEFF
        keep = (value != 0) & big[basis]
        key = key[keep]
        self.row = (key // self.dim % self.dim).astype(np.int32)
        self.col = (key % self.dim).astype(np.int32)
        self.basis, self.value = basis[keep], value[keep]
        self._support = np.flatnonzero(big)
        for a in (self.row, self.col, self.basis, self.value, self._support):
            a.flags.writeable = False
        self.label = label if label is not None else f"w{self.dim}"

    def support(self):
        """The sorted basis elements some entry uses (read-only)."""
        return self._support

    def dense(self, onto=None):
        """The coefficients on ``onto``, a sorted superset of the support
        (default: every basis element), zero off the support."""
        onto = np.arange(self.algebra.dim) if onto is None else onto
        at = np.searchsorted(onto, self.basis)
        if onto is not self._support and (    # the support needs no check
                np.take(onto, at, mode="clip") != self.basis).any():
            raise ValidationError("corep-support", "leaves the given basis")
        out = np.zeros((self.dim, self.dim, len(onto)), dtype=complex)
        out[self.row, self.col, at] = self.value
        return out

    def character(self):
        out = np.zeros(self.algebra.dim, dtype=complex)
        on = self.row == self.col
        np.add.at(out, self.basis[on], self.value[on])
        return out

    def tensor(self, other):
        A = self.algebra
        if other.algebra is not A:
            raise ValidationError("corep-tensor", "different algebras")
        d2, D, nb = other.dim, self.dim * other.dim, len(other.basis)
        # entry e (on p) times entry f (on q) is nonzero when q is the
        # factor of p in q's block s, offset[p, s] = q - s * nk.  The pairs
        # are listed e-major, f-minor, and f runs over the blocks in order:
        # each cell adds its terms p-major, s-minor, as A.mul_vec does
        s, off = np.divmod(other.basis, A.nk)
        pairs = [blk.start * nb + np.flatnonzero(
            A.offset[self.basis[blk, None], s] == off)
            for blk in _row_blocks(len(self.basis), nb)]
        e, f = np.divmod(np.concatenate(pairs or [np.zeros(0, np.int64)]), nb)
        cell, at = np.unique(
            (A.result[self.basis[e], s[f]].astype(np.int64) * D
             + self.row[e] * d2 + other.row[f]) * D
            + self.col[e] * d2 + other.col[f], return_inverse=True)
        value = np.zeros(len(cell), dtype=complex)
        np.add.at(value, at, self.value[e] * other.value[f])
        return Corepresentation._of_keys(A, D, cell, value,
                                         f"{self.label}(x){other.label}")

    def __repr__(self):
        return f"Corepresentation({self.label!r}, dim={self.dim})"


def check_corepresentation(c):
    """Max deviation over the coaction identity and unitarity.

    Delta(c_ij) = sum_k c_ik x c_kj is compared on the cells (i, j, leg
    pair), c c* = c* c = 1 on the cells (i, j, basis element), with c* the
    entries (col, row, star_index[basis], conj(value)).  Pairs of entries
    meeting on k add their nonzero products; entry (i, j, t) takes c_ij[t]
    off each coproduct term of t, and 1 comes off each (i, i, unit).  Cells
    of two rows never meet, so the rows go in runs of at most _BLOCK products.
    """
    A, d, N = c.algebra, c.dim, c.algebra.dim
    by_row, by_col = (np.argsort(a, kind="stable") for a in (c.row, c.col))
    mine = [a[by_row] for a in (c.row, c.col, c.basis, c.value)]
    star = [a[by_col] for a in (c.col, c.row, A.star_index[c.basis],
                                np.conj(c.value))]
    unit, dev = np.flatnonzero(A.unit_vec)[None], 0.0
    legs = A.delta_left * np.int64(N) + A.delta_right
    for left, right in ((mine, mine), (mine, star), (star, mine)):
        at = np.searchsorted(left[0], np.arange(d + 1))
        per_row = np.bincount(right[0], minlength=d)
        for run in _runs(np.bincount(left[0], per_row[left[1]],
                                     minlength=d).tolist(), _BLOCK):
            i, k, t, v = (a[at[run[0]]:at[run[-1] + 1]] for a in left)
            n, m = _join(k, right[0])
            if left is right:                 # the leg pair (p, q) is pN + q
                x = t[n] * N + right[2][m]
                want = (i, k, v, legs[t])
            else:
                x = A.mul_index(t[n], right[2][m])
                n, m, x = n[x < N], m[x < N], x[x < N]
                want = (run, run, np.ones(len(run)), unit.repeat(len(run), 0))
            wi, wj, wv = (np.repeat(a, want[3].shape[1]) for a in want[:3])
            cell, where = np.unique(np.concatenate([
                (i[n].astype(np.int64) * d + right[1][m]) * (N * N) + x,
                (wi.astype(np.int64) * d + wj) * (N * N) + want[3].ravel()]),
                return_inverse=True)
            total = np.zeros(len(cell), dtype=complex)
            np.add.at(total, where, np.concatenate([v[n] * right[3][m], -wv]))
            dev = max(dev, float(np.abs(total).max(initial=0.0)))
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
    D, i = do * dx, np.arange(dx)[:, None]
    rows = np.arange(do)[:, None, None, None] * dx + i
    cols = (pos[s] * dx)[..., None, None] + i.T
    basis = (orbit[:, None] * A.nk + g)[..., None, None]   # (do, nk, 1, 1)
    # the cells are distinct and in range; adding to 0.0 turns -0.0 parts
    # into 0.0
    key = ((basis * D + rows) * D + cols).ravel()
    order = np.argsort(key, kind="stable")
    value = np.broadcast_to(np.asarray(0.0 + mx.matrices, dtype=complex),
                            (do, A.nk, dx, dx)).ravel()
    return Corepresentation._of_keys(A, D, key[order], value[order], label)


def build_candidates(A, seed=DEFAULT_SEED):
    """All (orbit, compact-irrep) tensor candidates in deterministic order.

    Returns (candidates, orbit_space, irreps); candidate k has label
    "o<i>*<x>" recording its construction.
    """
    space = orbit_space(A.pair)
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
    return mor_dims([u, w], [0], [1])[0]


#: nonzero terms per solver run: a full run peaks at about 70 bytes a term,
#: 1.1 MB (tracemalloc, S6 End systems and the double-s3-twist audit).  A
#: pair (u, w) has w.dim * nnz(u) + u.dim * nnz(w) of them, and a pair over
#: this budget is solved alone
_RUN_TERMS = _BLOCK // 16


def _runs(sizes, budget):
    """Runs of consecutive indices into ``sizes`` whose sizes sum to at
    most ``budget``, an index whose size is over it alone."""
    run, total = [], 0
    for i, size in enumerate(sizes):
        if run and total + size > budget:
            yield run
            run, total = [], 0
        run.append(i)
        total += size
    if run:
        yield run


def _ragged(counts):
    """The owner q and the index j < counts[q] of each of sum(counts)
    items, in owner-major order."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


def _join(want, have):
    """The pairs (n, m) with have[m] == want[n], n-major; ``have`` sorted."""
    lo = np.searchsorted(have, want)
    n, j = _ragged(np.searchsorted(have, want, side="right") - lo)
    return n, lo[n] + j


def _distinct(x):
    """The rank of each of ``x`` among its distinct values (int32), and
    their number, by one argsort: in sorted order a value's rank counts the
    distinct values before it, and the sort order puts the ranks back in
    place, so equal keys get equal ranks under any sort kind.  Kept over
    np.unique(x, return_inverse=True) for memory, as term listing sets the
    solver's peak: with numpy 2.4 on a 2-vCPU host, on 1.3 M random int64
    keys this took 57 ms (487 ms by searchsorted into the sorted keys) and
    np.unique 66 ms, at a tracemalloc peak of 27 MB against 64 MB (50,000
    keys: 1.1 against 1.2 ms, 1.1 against 2.5 MB)."""
    order = np.argsort(x)
    key = x[order]
    keep = np.ones(len(key), dtype=bool)
    keep[1:] = key[1:] != key[:-1]
    del key                  # freed before the ranks: 27 MB peak, not 38
    rank = np.empty(len(x), dtype=np.int32)
    rank[order] = np.cumsum(keep, dtype=np.int32) - 1
    return rank, int(keep.sum())


def mor_dims(coreps, ui, wi):
    """Intertwiner spaces of pairs of corepresentations: for each n one
    (dim, basis) of the pair (u, w) = (coreps[ui[n]], coreps[wi[n]]), the
    basis an orthonormal list of (w.dim, u.dim) arrays.  Each
    corepresentation is listed once in ``coreps``; some may be unused.

    T solves (T x 1)u = w(T x 1) over the algebra's coefficient space: row
    (i, k, s) of the system reads sum_b T[i, b] u[b, k, s] - sum_a w[i, a, s]
    T[a, k] = 0.  Its nonzero terms come from the nonzero coefficients:
    u[b, k, s] is the coefficient of T[i, b] in row (i, k, s) for every i,
    and -w[i, a, s] that of T[a, k] for every k, w.dim * nnz(u) + u.dim *
    nnz(w) terms in all.  The system has no other rows.  A row names only
    the unknowns of its terms, so rows and unknowns fall into the connected
    components of the system's nonzero pattern and the null space is the
    direct sum of theirs (the connected-component case of the
    block-triangular form, Pothen & Fan, ACM TOMS 16, 1990).

    When the supports of u and w are disjoint, the rows split into T U_s = 0
    (s in supp u) and W_s T = 0 (s in supp w): the null space is null(N_w)
    x leftnull(M_u), of dimension a * b, where M_u = [U_s] side by side and
    N_w = [W_s] stacked (the system matrix is a Kronecker sum, Horn &
    Johnson, Topics in Matrix Analysis, 1991, s. 4.4).  The left null space
    is that of the one-sided system (u, Z), Z the dim-1 corepresentation
    with no entries, solved once per listed source; null(N_w) is that of
    (Z, w), solved only for the targets of pairs with a > 0.  Each
    one-sided system takes its own cutoff (below).  The pair's basis is the
    outer products q p, q-major, of q in the basis of (Z, w) and p in that
    of (u, Z).  Every other pair is solved as one system.

    The entries of ``coreps`` are concatenated once.  The systems are then
    solved in runs: consecutive ones with at most _RUN_TERMS terms
    together, or one alone.  Each component of a run is one dense block,
    its rows in the order (i, k, s) of its system and its unknowns in the
    order of T.  A block of one column has the column's norm as its
    singular value and [1] as its null vector, which is what the SVD of its
    1 x 1 R gives.  The wider blocks of one shape are solved in stacked
    calls; a block with more rows than columns is reduced to R of its QR,
    which has the block's singular values and null space, so the SVD never
    forms the left factor (R-SVD, T. F. Chan, ACM TOMS 8, 1982).  A
    singular value counts as zero at TOL_EQ times the largest one over that
    system's blocks (at least 1).  A block over INTERTWINER_CAP cells
    raises SizeBound before any block of its run is built.
    """
    ui, wi = np.asarray(ui), np.asarray(wi)
    if not len(ui):
        return []
    A = coreps[0].algebra
    coreps = list(coreps) + [Corepresentation(A, 1, ([], [], [], []),
                                              label="zero")]
    z = len(coreps) - 1
    coefs = [np.concatenate([getattr(c, name) for c in coreps])
             for name in ("row", "col", "basis", "value")]
    nnz = np.array([len(c.value) for c in coreps])
    start = np.cumsum(nnz) - nnz
    d = np.array([c.dim for c in coreps])

    def solve(us, ws):
        """(dim, basis) of the systems (coreps[us[n]], coreps[ws[n]])."""
        du, dw = d[us], d[ws]
        out = []
        for run in _runs((dw * nnz[us] + du * nnz[ws]).tolist(), _RUN_TERMS):
            q = np.array(run)
            out.extend(_solve_run(A.dim, du[q], dw[q], start[us[q]],
                                  nnz[us[q]], start[ws[q]], nnz[ws[q]],
                                  coefs))
        return out

    # whether the supports meet, in row blocks of pairs: a (pairs x dim)
    # array would outgrow the audit's memory bound
    covers = np.zeros((len(coreps), A.dim), dtype=bool)
    for n, c in enumerate(coreps):
        covers[n, c.support()] = True
    apart = np.concatenate([~(covers[ui[blk]] & covers[wi[blk]]).any(1)
                            for blk in _row_blocks(len(ui), A.dim)])
    out = [None] * len(ui)
    near = np.flatnonzero(~apart)
    for p, res in zip(near.tolist(), solve(ui[near], wi[near])):
        out[p] = res
    src = np.unique(ui[apart])
    left = dict(zip(src.tolist(), solve(src, np.full(len(src), z))))
    tgt = np.unique(wi[apart & np.isin(ui, [u for u, (a, _) in left.items()
                                            if a])])
    right = dict(zip(tgt.tolist(), solve(np.full(len(tgt), z), tgt)))
    for p in np.flatnonzero(apart).tolist():
        a, P = left[ui[p]]
        b, Q = right.get(wi[p], (0, []))
        out[p] = (a * b, [q @ r for q in Q for r in P])
    return out


def _group(label, n):
    """Items grouped by their labels, ints below n, the items labelled -1
    left out: the stable order of the others (int32), where each label's
    run starts in it and the count of each label."""
    order = np.flatnonzero(label >= 0).astype(np.int32)
    order = order[np.argsort(label[order], kind="stable")]
    count = np.bincount(label[order], minlength=n)
    return order, np.cumsum(count) - count, count


def _solve_run(N, du, dw, u_at, u_nnz, w_at, w_nnz, coefs):
    """(dim, basis) of each pair of a run, given its dimensions and the
    ranges of its u's and w's entries in ``coefs``."""
    x, y, t, v = coefs
    size = dw * du
    uoff = np.cumsum(size) - size
    rowoff = np.cumsum(size * N) - size * N
    # the terms: u[b, k, s] enters row (i, k, s) at the unknown T[i, b]
    # for every i, and w[i, a, s] row (i, k, s) at T[a, k] for every k.
    # Unknown T_q[a, b] is column uoff[q] + a * du[q] + b, and row (i, k, s)
    # has the key rowoff[q] + (i * du[q] + k) * N + s.

    def terms(at, nnz, times, of_u):
        """Row keys, columns and coefficient indices of one side's terms,
        the last two in int32: a run's unknowns and rows and a call's
        coefficients stay far below 2**31."""
        q, j = _ragged(times * nnz)
        e = at[q] + j // times[q]
        z = j % times[q]
        i, k, a, b = (z, y[e], z, x[e]) if of_u else (x[e], z, y[e], z)
        return (rowoff[q] + (i * du[q] + k) * N + t[e],
                (uoff[q] + a * du[q] + b).astype(np.int32),
                e.astype(np.int32))

    # one list of terms, u's then w's: term n is u's when n < nu
    row, col, e = (np.concatenate(side) for side in zip(
        terms(u_at, u_nnz, dw, True), terms(w_at, w_nnz, du, False)))
    nu = int((dw * u_nnz).sum())
    row, R = _distinct(row)
    U = int(size.sum())
    # components over the unknowns (vertices 0..U-1) and the rows (U on),
    # each named by its least unknown: block n has wide[n] unknowns and
    # high[n] rows
    comp = _components(U + R, col, U + row)
    wide = np.bincount(comp[:U], minlength=U)
    high = np.bincount(comp[U:], minlength=U)
    cells = np.maximum(high, wide) * wide
    if cells.max() > INTERTWINER_CAP:
        g = int(cells.argmax())
        raise SizeBound(f"intertwiner block of {high[g]} equations in "
                        f"{wide[g]} unknowns is over the cap of "
                        f"{INTERTWINER_CAP} cells")
    # the wider blocks' unknowns, in their order, and rows, in the order of
    # their keys, grouped by block (a one-column block's are labelled -1);
    # place[n] is vertex n's place among its block's unknowns or rows
    label = np.where(wide[comp] > 1, comp, -1)
    order, col_at, count = _group(label[:U], U)
    place = np.empty(U + R, dtype=np.int32)
    place[order] = np.arange(len(order)) - np.repeat(col_at, count)
    rows, row_at, count = _group(label[U:], U)
    place[U + rows] = np.arange(len(rows)) - np.repeat(row_at, count)
    term_label = label[U + row]
    # one column: its singular value is its norm, over the cells u - w (a
    # row of it has at most one term of each side)
    norm = np.zeros(R, dtype=complex)
    for part, sign in ((slice(nu), 1), (slice(nu, None), -1)):
        on = term_label[part] < 0
        norm[row[part][on]] += sign * v[e[part][on]]
    norm = np.sqrt(np.bincount(comp[U:], np.abs(norm) ** 2, minlength=U))
    # its null vector is complex, so that its conjugate is 1 - 0j as the
    # SVD's is, bit for bit
    names = np.flatnonzero(wide == 1)
    solved = [(names, norm[names][:, None],
               np.ones((len(names), 1, 1), dtype=complex), names[:, None])]
    # the wider blocks' terms by block: only the side, the row and column
    # in the block and the coefficient of each are kept, the rest freed
    # before any block is built
    by, first, count = _group(term_label, U)
    side, row, col, e = by < nu, place[U + row[by]], place[col[by]], e[by]
    del comp, label, place, rows, term_label, by
    names = np.flatnonzero(wide > 1)
    for nr, nc in np.unique(np.stack([high[names], wide[names]], 1),
                            axis=0).tolist():
        same = names[(high[names] == nr) & (wide[names] == nc)]
        for blk in _row_blocks(len(same), max(nr, nc) * nc):
            g = same[blk]
            p, j = _ragged(count[g])
            j += first[g][p]
            # a cell has at most one term of u and one of w: u's is
            # written, then w's taken off
            u = side[j]
            B = np.zeros((len(g), max(nr, nc), nc), dtype=complex)
            B[p[u], row[j[u]], col[j[u]]] = v[e[j[u]]]
            B[p[~u], row[j[~u]], col[j[~u]]] -= v[e[j[~u]]]
            if nr > nc:
                B = np.linalg.qr(B, mode="r")
            solved.append((g, *np.linalg.svd(B)[1:],
                           order[col_at[g, None] + np.arange(nc)]))
    pair = np.repeat(np.arange(len(size)), size)     # of each unknown
    top = np.zeros(len(size))
    for g, svals, _, _ in solved:
        np.maximum.at(top, pair[g], svals.max(1))
    cutoff = TOL_EQ * np.maximum(top, 1.0)
    # the null vectors, ordered by block and singular value, are written
    # one after another, pair by pair, into one array of T's
    null = []
    for g, svals, vh, cols in solved:
        owner = pair[g]
        p, j = np.nonzero(svals <= cutoff[owner, None])
        null.append((g[p], j, vh[p, j].conj(), cols[p] - uoff[owner[p], None]))
    g = np.concatenate([blocks for blocks, _, _, _ in null])
    owner = pair[g]
    rank = np.empty(len(g), dtype=np.int64)
    rank[np.lexsort((np.concatenate([j for _, j, _, _ in null]), g))] = \
        np.arange(len(g))
    at = np.zeros(len(g) + 1, dtype=np.int64)
    at[rank + 1] = size[owner]
    at = np.cumsum(at)
    T = np.zeros(at[-1], dtype=complex)
    lo = 0
    for blocks, _, vec, cols in null:
        T[at[rank[lo:lo + len(blocks)], None] + cols] = vec
        lo += len(blocks)
    nd = np.bincount(owner, minlength=len(size))
    first = np.cumsum(nd * size) - nd * size
    return [(c, list(T[s:s + c * h * w].reshape(c, h, w)))
            for c, s, h, w in zip(nd.tolist(), first.tolist(), dw.tolist(),
                                  du.tolist())]


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
    S = corep.support()
    dense = corep.dense(S)
    subs = [np.einsum("ia,ijn,jb->abn", vecs[:, idxs].conj(), dense,
                      vecs[:, idxs]) for idxs in groups]
    # the parts in an order the draw does not choose: by dimension, then by
    # character on S, real parts then imaginary parts, rounded to 8 decimals
    chars = [np.einsum("aan->n", sub) for sub in subs]
    order = sorted(range(len(subs)), key=lambda i: (
        len(subs[i]), tuple(np.round(chars[i].real, 8)),
        tuple(np.round(chars[i].imag, 8))))
    parts = []
    for gi, i in enumerate(order):
        a, b, n = np.indices(subs[i].shape).reshape(3, -1)
        parts.append(Corepresentation(corep.algebra, len(subs[i]),
                                      (a, b, S[n], subs[i].ravel()),
                                      label=f"{corep.label}#p{gi}"))
    return parts


def _irreducible_pieces(coreps, seed):
    """The irreducible pieces of each of ``coreps``, split breadth-first:
    one End solve over the whole of each level of the splitting trees.  A
    piece's splits draw from (seed, its dim, its depth), and the pieces of
    each corep are listed depth-first, children in split order."""
    leaves = []                        # (path from the corep, piece)
    level = [((r,), c) for r, c in enumerate(coreps)]
    depth = 0
    while level:
        below = []
        r = np.arange(len(level))
        for (path, c), (nd, basis) in zip(level, mor_dims(
                [c for _, c in level], r, r)):
            if nd == 1:
                leaves.append((path, c))
                continue
            for attempt in range(RETRY_BUDGET):
                parts = _split_once(c, basis, seed, depth, attempt)
                if parts is not None:
                    break
            else:
                raise SeedDegenerate(f"could not split {c.label} (End dim "
                                     f"{nd}) after {RETRY_BUDGET} draws")
            below.extend((path + (gi,), p) for gi, p in enumerate(parts))
        level = below
        depth += 1
    out = [[] for _ in coreps]
    for path, c in sorted(leaves, key=lambda leaf: leaf[0]):
        out[path[0]].append(c)
    return out


def decompose(corep, seed=DEFAULT_SEED):
    """Split into irreducible unitary pieces via the endomorphism algebra."""
    return _irreducible_pieces([corep], seed)[0]


def enumerate_irreps(A, seed=DEFAULT_SEED):
    """Decompose all candidates, deduplicate, certify the dimension count.

    Pieces live on the orbit block of their candidate and pair only within
    it, so each orbit's pieces take one Haar pairing call.  A piece is the
    irrep of the first piece of its orbit that it pairs with at equal
    dimension; those first pieces, stably sorted by dimension, are the
    catalog.  A pairing that is not an equivalence is refused."""
    candidates, space, irreps = build_candidates(A, seed=seed)
    pieces_of = _irreducible_pieces(candidates, seed)
    pieces = [p for ps in pieces_of for p in ps]
    dims = np.array([p.dim for p in pieces])
    orbit = space.orbit_of[A.gamma_of]                  # per basis element
    on_orbit = orbit[[p.support()[0] for p in pieces]]
    found = np.empty(len(pieces), dtype=np.intp)
    for o in np.unique(on_orbit).tolist():
        at, on = np.flatnonzero(on_orbit == o), np.flatnonzero(orbit == o)
        chars = np.array([pieces[n].character()[on] for n in at])
        same = ((rounded_pairings(chars, chars, A.nk) >= 1)
                & (dims[at, None] == dims[at]))
        found[at] = at[same.argmax(1)]
    bad = np.flatnonzero(found[found] != found)
    if len(bad):
        n = found[bad[0]]
        raise IdentityViolated(
            f"piece {pieces[bad[0]].label} pairs first with {pieces[n].label}"
            f", which pairs first with {pieces[found[n]].label}: the Haar "
            f"pairing is not an equivalence")
    first = np.flatnonzero(found == np.arange(len(pieces)))
    first = first[np.argsort(dims[first], kind="stable")]
    ident = np.empty_like(found)
    ident[first] = np.arange(len(first))
    canonical = [pieces[n] for n in first]
    at = np.cumsum([len(ps) for ps in pieces_of])[:-1]
    equivalence_map = {ci: sorted(ids.tolist()) for ci, ids
                       in enumerate(np.split(ident[found], at))}
    total = sum(c.dim ** 2 for c in canonical)
    if total != A.dim:
        raise PeterWeylMismatch(
            f"sum of squared dims {total} != algebra dim {A.dim}")
    return IrrepCatalog(algebra=A, candidates=candidates, canonical=canonical,
                        equivalence_map=equivalence_map, orbit_space=space,
                        irreps=irreps)


# ---------------------------------------------------------------------------
# fusion: tensor counts, closed-form evaluation and the three-way audit


def fusion_counts(sources, factors, triples, chars):
    """Haar and solver dimensions, two int64 arrays, of Mor(sources[i],
    factors[l] (x) factors[r]) for the index arrays (i, l, r) = ``triples``.
    The routes share no input.  The Haar route reads only ``chars``, the
    sources' and the factors' characters (u (x) w has the product of its
    factors'): each left factor named, in ascending order, takes one product
    and one pairing call.  The solver route builds each tensor once, in
    (l, r) order, into runs closed at _BLOCK // 8 entries (about 1 MB); a
    run's triples, in their given order, take one mor_dims call."""
    si, li, ri = triples
    (src, fac), A, n = chars, factors[0].algebra, len(factors)
    haar = np.zeros(len(si), dtype=np.int64)
    for k in np.unique(li).tolist():
        at = np.flatnonzero(li == k)
        haar[at] = rounded_pairings(src, A.mul_vec(fac[k], fac),
                                    A.nk)[si[at], ri[at]]
    target = li * n + ri
    order, first, count = _group(target, n * n)
    solver = np.zeros(len(target), dtype=np.int64)
    ts, tensors, held = [], [], 0
    for t in np.flatnonzero(count).tolist():
        ts.append(t)
        tensors.append(factors[t // n].tensor(factors[t % n]))
        held += len(tensors[-1].value)
        if held >= _BLOCK // 8 or first[t] + count[t] == len(order):
            at = np.sort(order[first[ts[0]]:first[t] + count[t]])
            col = np.searchsorted(ts, target[at])
            solver[at] = [d for d, _ in mor_dims(
                list(sources) + tensors, si[at], len(sources) + col)]
            ts, tensors, held = [], [], 0
    return haar, solver


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
    mor_dim: int       # by the Haar pairing
    solver: int
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
        """Whether both routes agree on every triple and candidate pair."""
        return all(e.solver == e.haar for e in self.entries) and all(
            d.solver == d.mor_dim for d in self.distinctness)

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


def audit_fusion(A, catalog, seed=DEFAULT_SEED):
    """Three-way fusion audit plus candidate-distinctness and flip search.

    Solver and character values must agree (oracle consistency); the
    closed-form value is logged with an agree/disagree flag and never
    asserted.  Disagreement does not raise.
    """
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

    # triple t is (gamma, x, r, s) in row-major order of this shape; the
    # candidate (gamma, x) against the tensor of the orbit matrices r, s
    shape = (n_orb, nx, n_orb, n_orb)
    triples_total = nx * n_orb ** 3
    picks = np.arange(triples_total)
    if triples_total > AUDIT_TRIPLES:
        picks = np.sort(rng_from(seed, 5).choice(
            triples_total, size=AUDIT_TRIPLES, replace=False))
    gi, xi, ri, si = np.unravel_index(picks, shape)
    haar, solver = fusion_counts(cands, cands[::nx], (gi * nx + xi, ri, si),
                                 (chars, chars[::nx]))
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
    # in one call
    gram = rounded_pairings(chars, chars, A.nk)
    pairs = np.argwhere(np.triu(gram, 1) > 0)
    distinctness = [DistinctnessEntry(
        left=cands[i].label, right=cands[j].label, mor_dim=int(gram[i, j]),
        solver=d, status="AUDIT-DISAGREE",
        intertwiner=basis[0] if basis else None)
        for (i, j), (d, basis) in zip(pairs.tolist(),
                                      mor_dims(cands, *pairs.T))]

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


def _invariant_group(vectors, row_products, labels, name, what, dual, fixed,
                     points):
    """(group, model, iso): ``vectors`` closed under ``row_products``, the
    semidirect product of ``dual`` by ``fixed`` acting on the dual's
    characters through the point maps ``points``, and their isomorphism."""
    group = FiniteGroup(closure_table(vectors, row_products, TOL_MULT,
                                      f"{name}-closure", what), labels=labels)
    act = permuted_rows(dual.characters, points)
    if (act < 0).any():
        raise ValidationError(f"{name}-model",
                              "twisted character escaped the dual")
    model = semidirect_product(dual.group, fixed, act)
    return group, model, is_isomorphic_small(group, model)


def invariant_groups(A, catalog, seed=DEFAULT_SEED):
    """Both canonical finite groups attached to the algebra, with the
    independently built structured models and isomorphism tests."""
    mp = A.pair
    R, K = mp.discrete, mp.compact
    _, (fix_r_group, fix_r_el), (fix_k_group, fix_k_el) = \
        orbits_fixed_sets(mp)

    # --- group of 1-dim corepresentations under tensor
    ones = [c for c in catalog.canonical if c.dim == 1]
    # group-like (the coproduct doubles it) and unitary, checked at once on
    # their block-diagonal direct sum: no cell pairs two rows, so its
    # deviation is the worst of theirs
    at = np.concatenate([np.full(len(c.basis), i) for i, c in enumerate(ones)])
    dev = check_corepresentation(Corepresentation(
        A, len(ones), (at, at, np.concatenate([c.basis for c in ones]),
                       np.concatenate([c.value for c in ones]))))
    if dev > TOL_MULT:
        raise ValidationError("intrinsic-grouplike",
                              f"worst deviation {dev:.3e}")
    V = np.array([c.character() for c in ones])    # d = 1: the coefficients
    intrinsic, intrinsic_model, intrinsic_iso = _invariant_group(
        V, lambda i: A.mul_vec(V[i], V), [c.label for c in ones],
        "intrinsic", "product", dual_group(K, seed=seed), fix_r_group,
        mp.alpha[R.inverse[fix_r_el]])

    # --- algebra characters under convolution
    dualR = dual_group(R, seed=seed)
    labels, vectors = [], []
    partner = A.partner
    for g in range(K.order):
        # phi vanishes exactly off `on`: every pair in it must be a product
        point = (A.g_of == g).astype(complex)
        on = np.flatnonzero(point)
        if not (partner[on][:, on // A.nk] == on).all():
            continue
        for mi in range(dualR.group.order):
            phi = dualR.characters[mi][A.gamma_of] * point
            # phi(e_i) phi(e_j) = phi(e_i e_j) on the basis products
            if np.abs(phi[:, None] * phi[partner]
                      - phi[A.result]).max() > TOL_MULT:
                continue
            if np.abs(phi[A.star_index] - np.conj(phi)).max() > TOL_MULT:
                continue
            if abs(np.dot(phi, A.unit_vec) - 1.0) > TOL_MULT:
                continue
            labels.append(f"({K.labels[g]},m{mi})")
            vectors.append(phi)
    if not vectors:
        raise ValidationError("spectrum-characters",
                              "no algebra character passes the product, "
                              "star and unit checks")
    P = np.array(vectors)
    left = A.delta_left
    right = P[:, A.delta_right]                  # [j, basis, coproduct term]
    spectrum, spectrum_model, spectrum_iso = _invariant_group(
        P, lambda i: (P[i][left] * right).sum(2), labels,
        "spectrum", "convolution", dualR, fix_k_group, mp.beta[fix_k_el])

    return InvariantGroups(
        intrinsic=intrinsic, intrinsic_model=intrinsic_model,
        intrinsic_iso=intrinsic_iso, spectrum=spectrum,
        spectrum_vectors=vectors, spectrum_model=spectrum_model,
        spectrum_iso=spectrum_iso)
