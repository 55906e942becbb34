"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive and shares no code with the package
internals it checks: different algorithms, same answers.  From the package
it reads stored data only (Cayley, inverse and action tables, entry arrays,
labels) and imports only the names in ``ORACLE_IMPORTS`` of
``tests/test_import_hygiene.py``, a rule that test checks.
"""

import itertools
from fractions import Fraction
from math import gcd

import numpy as np

from kacforge.config import TOL_EQ
from kacforge.errors import NotAMorphism, ValidationError


def snf_invariants_via_minors(rows, n_cols):
    """Invariant factors and free rank from gcds of k x k minors (exact)."""
    rows = [list(map(int, r)) for r in rows]
    if not rows:
        return (), n_cols
    m, n = len(rows), n_cols
    a = [[rows[i][j] for j in range(n)] for i in range(m)]
    deltas = [1]
    rank = 0
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                sub = [[a[i][j] for j in ci] for i in ri]
                g = gcd(g, abs(_int_det(sub)))
        if g == 0:
            break
        deltas.append(g)
        rank = k
    factors = tuple(deltas[k] // deltas[k - 1] for k in range(1, rank + 1))
    return tuple(d for d in factors if d > 1), n_cols - rank


def _int_det(m):
    """Integer determinant by fraction-free expansion (small matrices only)."""
    k = len(m)
    if k == 1:
        return m[0][0]
    total = 0
    for j in range(k):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _int_det(minor)
    return total


def abelian_invariants_by_orders(G):
    """Invariant factors and free rank (0) of a finite abelian group, read
    off its element-order counts.  For a prime p, the elements whose order
    divides p^j number p^(s_j), where s_j sums min(a, j) over the cyclic
    factors Z/p^a of the p-part; so s_j - s_(j-1) factors have a >= j.  The
    k-th largest invariant factor is the product over p of the k-th largest
    p^a."""
    if (G.cayley != G.cayley.T).any():
        raise ValueError("group is not abelian")
    orders = []
    for x in range(G.order):
        y, k = x, 1
        while y != G.identity:
            y, k = int(G.cayley[y, x]), k + 1
        orders.append(k)
    factors = []                  # largest first
    m, p = G.order, 1
    while m > 1:                  # each p that divides m is a prime
        p += 1
        if m % p:
            continue
        while m % p == 0:
            m //= p
        s = [0]                   # s_j for j = 0, 1, ...
        while True:
            killed = sum(p ** len(s) % k == 0 for k in orders)
            e = 0
            while p ** e < killed:
                e += 1
            if e == s[-1]:
                break
            s.append(e)
        at_least = [s[j] - s[j - 1] for j in range(1, len(s))]
        for k in range(at_least[0]):
            a = sum(c > k for c in at_least)
            if k == len(factors):
                factors.append(1)
            factors[k] *= p ** a
    return tuple(sorted(factors)), 0


def brute_center(G):
    return sorted(z for z in range(G.order)
                  if all(G.cayley[z, x] == G.cayley[x, z]
                         for x in range(G.order)))


def brute_conjugacy_classes(G):
    classes, seen = [], set()
    for x in range(G.order):
        if x in seen:
            continue
        cls = sorted({int(G.cayley[G.cayley[g, x], G.inverse[g]])
                      for g in range(G.order)})
        seen.update(cls)
        classes.append(cls)
    return classes


def brute_subgroup_generated(G, gens):
    elems = {G.identity}
    changed = True
    while changed:
        changed = False
        for a in list(elems):
            for g in list(gens) + [G.inverse[g] for g in gens]:
                y = int(G.cayley[a, g])
                if y not in elems:
                    elems |= {y}
                    changed = True
    return sorted(elems)


def brute_is_homomorphism(A, B, phi):
    return all(phi[A.cayley[x, y]] == B.cayley[phi[x], phi[y]]
               for x in range(A.order) for y in range(A.order))


def brute_character_inner(G, chi1, chi2):
    """<chi1, chi2> with chi given on elements: the mean over the group of
    chi1 * conj(chi2), summed element by element."""
    return sum(complex(chi1[g]) * complex(chi2[g]).conjugate()
               for g in range(G.order)) / G.order


def covariant_rep_partial_maps(mp):
    """Faithful operator model for the crossed product, built from scratch.

    Points are pairs (s, x) indexed p = s*|K| + x.  The basis element
    (r, g) acts as the partial permutation  (s, x) -> (r s, x)  restricted
    to the set where the discrete translate of x equals g, i.e.
    x = act_compact(s^{-1}, g).  Returned as an (n, n) array whose row i
    maps column p to a point index, with -1 meaning "killed".
    """
    R, K = mp.discrete, mp.compact
    nr, nk = R.order, K.order
    n = nr * nk
    rep = np.full((n, n), -1, dtype=np.int64)
    for r in range(nr):
        for g in range(nk):
            i = r * nk + g
            for s in range(nr):
                x = int(mp.alpha[R.inverse[s], g])
                rep[i, s * nk + x] = R.cayley[r, s] * nk + x
    return rep


def transpose_partial_map(mi, n):
    """Adjoint of the 0/1 matrix of a partial permutation map."""
    t = np.full(n, -1, dtype=np.int64)
    cols = np.nonzero(mi >= 0)[0]
    t[mi[cols]] = cols
    return t


def _operator_tables(mp):
    """Product and star of basis elements, read off the operator model.

    Point p and basis element p share the index r*|K| + g, and the operator
    of basis element j carries the one point of the identity fiber that it
    moves, (e, h), to point j.  So the composite of i after j carries that
    point to rep[i, j]: the product of i and j is basis element rep[i, j],
    or None (zero) when i kills point j.  The adjoint of i carries the one
    point that i sends into the identity fiber back to it, so that point is
    the star of i.  Both are lists, read in plain loops.
    """
    rep = covariant_rep_partial_maps(mp).tolist()
    nk, e = mp.compact.order, mp.discrete.identity
    prod = [[None if m < 0 else m for m in row] for row in rep]
    star = [next(p for p, m in enumerate(row) if m >= 0 and m // nk == e)
            for row in rep]
    return prod, star


def _product(prod, x, y):
    """Product of coefficient vectors, one basis pair (p, q) at a time over
    their nonzero coefficients, each term added to basis prod[p][q] in
    p-major order.  The terms x[p] * y are numpy's vector products, whose
    rounding the package's products share (Python's complex product rounds
    differently where numpy fuses a multiply and an add)."""
    out = np.zeros(len(x), dtype=complex)
    qs = np.flatnonzero(y).tolist()
    for p in np.flatnonzero(x).tolist():
        terms = x[p] * y
        for q in qs:
            if prod[p][q] is not None:
                out[prod[p][q]] += terms[q]
    return out


def _star(star, x):
    """Star of a coefficient vector: each conj(x[p]) added on basis star[p]."""
    out = np.zeros(len(x), dtype=complex)
    for p in np.flatnonzero(x).tolist():
        out[star[p]] += np.conj(x[p])
    return out


def _label(A, i):
    """The name u[r]d[g] of basis element i, from the groups' labels."""
    r, g = divmod(int(i), A.nk)
    return f"u[{A.pair.discrete.labels[r]}]d[{A.pair.compact.labels[g]}]"


def _dense(c):
    """The (dim, dim, algebra dim) coefficients of a corepresentation, one
    stored entry at a time."""
    out = np.zeros((c.dim, c.dim, c.algebra.dim), dtype=complex)
    for i, j, t, v in zip(c.row.tolist(), c.col.tolist(), c.basis.tolist(),
                          c.value.tolist()):
        out[i, j, t] = v
    return out


def naive_law_violations(mp):
    """Violation counts of every structure law of the crossed product.

    A dense brute-force reference for small pairs (dims up to about 42).
    Product and star come from the operator model (``_operator_tables``).
    The coproduct of u_r d_g comes from the group law alone: every a, b
    with ab = g gives (u_r d_a) x (u_{beta_a(r)} d_b).  Every law is then
    counted in plain loops over basis elements, pairs or triples; a count
    of 0 means the law holds.
    """
    from collections import Counter

    R, K = mp.discrete, mp.compact
    nr, nk = R.order, K.order
    n = nr * nk
    prod, star = _operator_tables(mp)

    def mul(i, j):
        return None if i is None or j is None else prod[i][j]

    unit = [R.identity * nk + g for g in range(nk)]
    eps = [1 if i % nk == K.identity else 0 for i in range(n)]
    haar = [Fraction(1, nk) if i // nk == R.identity else Fraction(0)
            for i in range(n)]
    delta = [[(r * nk + a, int(mp.beta[a, r]) * nk + b)
              for a in range(nk) for b in range(nk) if K.cayley[a, b] == g]
             for r in range(nr) for g in range(nk)]
    anti = [int(R.inverse[mp.beta[g, r]] * nk + K.inverse[mp.alpha[r, g]])
            for r in range(nr) for g in range(nk)]

    def h(i):
        return Fraction(0) if i is None else haar[i]

    out = {}
    out["product-associativity"] = sum(
        mul(mul(i, j), k) != mul(i, mul(j, k))
        for i in range(n) for j in range(n) for k in range(n))
    out["unit-element"] = sum(
        Counter(m for u in unit if (m := mul(u, i)) is not None) != Counter([i])
        or Counter(m for u in unit if (m := mul(i, u)) is not None) != Counter([i])
        for i in range(n))
    out["star-involution"] = sum(star[star[i]] != i for i in range(n))
    out["star-antihomomorphism"] = sum(
        (None if mul(i, j) is None else star[mul(i, j)]) != mul(star[j], star[i])
        for i in range(n) for j in range(n))
    out["coassociativity"] = sum(
        Counter((j1, j2, k) for j, k in delta[i] for j1, j2 in delta[j])
        != Counter((j, k1, k2) for j, k in delta[i] for k1, k2 in delta[k])
        for i in range(n))
    out["counit-laws"] = sum(
        Counter(k for j, k in delta[i] if eps[j]) != Counter([i])
        or Counter(j for j, k in delta[i] if eps[k]) != Counter([i])
        for i in range(n))
    out["counit-multiplicative"] = sum(
        (0 if mul(i, j) is None else eps[mul(i, j)]) != eps[i] * eps[j]
        for i in range(n) for j in range(n))
    bad = 0
    for i in range(n):
        for j in range(n):
            want = Counter() if mul(i, j) is None else Counter(delta[mul(i, j)])
            got = Counter()
            for j1, k1 in delta[i]:
                for j2, k2 in delta[j]:
                    a, b = mul(j1, j2), mul(k1, k2)
                    if a is not None and b is not None:
                        got[(a, b)] += 1
            bad += got != want
    out["coproduct-multiplicative"] = bad
    out["coproduct-star-compatible"] = sum(
        Counter((star[j], star[k]) for j, k in delta[i]) != Counter(delta[star[i]])
        for i in range(n))
    bad = 0
    for i in range(n):
        want = Counter(unit) if eps[i] else Counter()
        left = Counter(m for j, k in delta[i] if (m := mul(anti[j], k)) is not None)
        right = Counter(m for j, k in delta[i] if (m := mul(j, anti[k])) is not None)
        bad += left != want or right != want
    out["antipode-laws"] = bad
    out["antipode-involutive"] = sum(anti[anti[i]] != i for i in range(n))
    out["antipode-star-commute"] = sum(star[anti[i]] != anti[star[i]]
                                       for i in range(n))
    bad = 0
    for i in range(n):
        want = {u: haar[i] for u in unit if haar[i]}
        left, right = {}, {}
        for j, k in delta[i]:
            left[j] = left.get(j, 0) + haar[k]
            right[k] = right.get(k, 0) + haar[j]
        left = {x: v for x, v in left.items() if v}
        right = {x: v for x, v in right.items() if v}
        bad += left != want or right != want
    out["haar-invariance"] = bad
    out["haar-trace"] = sum(h(mul(i, j)) != h(mul(j, i))
                            for i in range(n) for j in range(n))
    out["haar-positivity"] = sum(
        h(mul(star[i], j)) != (Fraction(1, nk) if i == j else 0)
        for i in range(n) for j in range(n))
    out["haar-unital"] = int(sum(haar[u] for u in unit) != 1)
    return out


def multiset_coalgebra_laws(A):
    """Deviation of five laws of ``check_axioms``, compared as
    multisets of index tuples.  Each tuple is encoded as one int64 key, and
    a row fails when its sorted keys differ from the expected ones; a zero
    product is the index A.dim.  Only A's tables are read.

    * unit-element: the largest coefficient error of 1 e_i and e_i 1;
    * counit-multiplicative: rows i with some eps(ij) != eps(i) eps(j);
    * coproduct-multiplicative: pairs (i, j) whose nonzero terms of
      Delta(i) Delta(j) differ from those of Delta(ij).  Each term (i, a)
      of Delta(i) meets, in block s, one left leg u_s d_b; the block of the
      right leg of term b is read off the last row of u_s's discrete block,
      and this fixes the one j the term pairs with;
    * coproduct-star-compatible: rows with (* x *) Delta(i) != Delta(i*);
    * antipode-laws: rows where m(S x id) Delta or m(id x S) Delta is not
      eps(i) 1.
    """
    n, nk, nr = A.dim, A.nk, A.nr
    rows = np.arange(n)
    partner, offset, result = A.partner, A.offset, A.result
    dl, dr, blocks = A.delta_left, A.delta_right, A.delta_block
    ST, S, eps = A.star_index, A.antipode_index, A.counit_vec
    unit = np.flatnonzero(A.unit_vec.real > 0.5)
    cayley = A.pair.compact.cayley

    def times(i, j):
        """Index of the product of basis elements i and j, n for zero:
        i meets one basis element of j's block, partner[i, j // nk]."""
        i, j = np.broadcast_arrays(i, j)
        s = j // nk
        return np.where(partner[i, s] == j, result[i, s], n)

    def key(*cols):
        cols = np.broadcast_arrays(*cols)
        return np.ravel_multi_index(tuple(c.ravel() for c in cols),
                                    (n,) * len(cols))

    def changed(got, want):
        uniq, inv = np.unique(np.concatenate([got, want]),
                              return_inverse=True)
        net = np.bincount(inv, np.repeat([1, -1], [len(got), len(want)]),
                          minlength=len(uniq))
        return uniq[net != 0], net[net != 0]

    out = {}
    dev = 0.0
    for prod in (times(unit[:, None], rows), times(rows, unit[:, None])):
        live = prod < n
        _, net = changed(key(np.broadcast_to(rows, prod.shape)[live],
                             prod[live]), key(rows, rows))
        dev = max(dev, float(np.abs(net).max(initial=0.0)))
    out["unit-element"] = dev

    hit = eps[result] != 0
    ones = np.flatnonzero(eps)
    diff, _ = changed(key(np.broadcast_to(rows[:, None], hit.shape)[hit],
                          partner[hit]), key(ones[:, None], ones[None, :]))
    out["counit-multiplicative"] = float(len(np.unique(diff // n)))

    rblock = blocks[nk - 1::nk].ravel()       # [r * nk + a]
    j1, k1 = dl[:, :, None], dr[:, :, None]
    j2 = partner[dl]                                         # (n, nk, nr)
    block = rblock[j2]
    owner = j2 - j2 % nk + cayley[j2 % nk, offset[k1, block]]
    got = key(rows[:, None, None], owner, result[dl], result[k1, block])
    m = result
    want = key(rows[:, None, None], partner[:, :, None], dl[m], dr[m])
    diff, _ = changed(got, want)
    out["coproduct-multiplicative"] = float(len(np.unique(diff // (n * n))))

    lhs = np.sort(key(ST[dl], ST[dr]).reshape(n, nk), 1)
    rhs = np.sort(key(dl[ST], dr[ST]).reshape(n, nk), 1)
    out["coproduct-star-compatible"] = float((lhs != rhs).any(1).sum())

    want = np.where(eps[:, None] != 0, unit, n)
    bad = np.zeros(n, dtype=bool)
    for prod in (times(S[dl], dr), times(dl, S[dr])):
        bad |= (np.sort(prod, 1) != want).any(1)
    out["antipode-laws"] = float(bad.sum())
    return out


def naive_fusion_laws(mult, dual, dims, truncated):
    """Fusion-ring law counts in plain loops over nested Python lists.

    Same four numbers as the package's ring check: associativity counted
    over every (a, b, c, d) with a triple (a, b, c) skipped, for a
    truncated ring, when a product met by either grouping leaves the
    cutoff window; Frobenius reciprocity N(a,b,c) = N(c, dual b, a) over
    every (a, b, c); the largest dimension defect, untruncated rings only.
    A product leaves the window when its multiplicities miss the product
    of dimensions, decided here from exact Python-int dimensions.
    """
    n = len(mult)
    N = [[[int(mult[a][b][c]) for c in range(n)] for b in range(n)]
         for a in range(n)]
    d = [int(v) for v in dims]
    support = [[[(w, N[a][b][w]) for w in range(n) if N[a][b][w]]
                for b in range(n)] for a in range(n)]
    leaves = [[sum(m * d[w] for w, m in support[a][b]) != d[a] * d[b]
               for b in range(n)] for a in range(n)]
    assoc = skipped = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if truncated and (
                        leaves[a][b] or leaves[b][c]
                        or any(leaves[w][c] for w, _ in support[a][b])
                        or any(leaves[a][w] for w, _ in support[b][c])):
                    skipped += 1
                    continue
                for e in range(n):
                    # zero multiplicities add nothing to either grouping
                    left = sum(m * N[w][c][e] for w, m in support[a][b])
                    right = sum(m * N[a][w][e] for w, m in support[b][c])
                    assoc += left != right
    frob = sum(N[a][b][c] != N[c][int(dual[b])][a]
               for a in range(n) for b in range(n) for c in range(n))
    dim = 0
    if not truncated:
        for a in range(n):
            for b in range(n):
                total = sum(m * d[w] for w, m in support[a][b])
                dim = max(dim, abs(total - d[a] * d[b]))
    return {"associativity": float(assoc), "frobenius": float(frob),
            "dimension-homomorphism": float(dim),
            "associativity-skipped": float(skipped)}


def naive_corep_tensor(u, w):
    """Coefficient tensor of the tensor product of two corepresentations,
    one algebra product per matrix entry: entry ((i, k), (j, l)) is
    u_ij w_kl."""
    prod, _ = _operator_tables(u.algebra.pair)
    d1, d2 = u.dim, w.dim
    uc, wc = _dense(u), _dense(w)
    out = np.zeros((d1 * d2, d1 * d2, u.algebra.dim), dtype=complex)
    for i in range(d1):
        for j in range(d1):
            for k in range(d2):
                for ell in range(d2):
                    out[i * d2 + k, j * d2 + ell] = _product(
                        prod, uc[i, j], wc[k, ell])
    return out


def naive_corep_deviation(c):
    """Max deviation of a corepresentation from the coaction identity and
    from unitarity, one matrix entry (i, j) at a time on the dense
    coefficient vectors: Delta(c_ij) as an (n, n) array from the coproduct
    tables against sum_k outer(c_ik, c_kj), and sum_k c_ik c_jk* and
    sum_k c_ki* c_kj against [i = j] times the unit."""
    A = c.algebra
    d, n = c.dim, A.dim
    prod, star = _operator_tables(A.pair)
    cc = _dense(c)
    cs = [[_star(star, cc[i, j]) for j in range(d)] for i in range(d)]
    dev = 0.0
    for i in range(d):
        for j in range(d):
            delta = np.zeros((n, n), dtype=complex)
            np.add.at(delta, (A.delta_left, A.delta_right), cc[i, j, :, None])
            outer = sum(np.outer(cc[i, k], cc[k, j]) for k in range(d))
            one = A.unit_vec if i == j else np.zeros(n)
            row = sum(_product(prod, cc[i, k], cs[j][k]) for k in range(d))
            col = sum(_product(prod, cs[k][i], cc[k, j]) for k in range(d))
            dev = max(dev, np.abs(outer - delta).max(),
                      np.abs(row - one).max(), np.abs(col - one).max())
    return float(dev)


def naive_embedding_violations(A, tol=1e-9):
    """Violation counts of the classical embeddings, one algebra product
    per group pair: (r, s) with u_r u_s != u_rs, r with u_r* != u_r^-1,
    (g, h) with d_g d_h != [g = h] d_g and (r, h) with
    u_r d_h u_r* != d_alpha_r(h)."""
    R, K = A.pair.discrete, A.pair.compact
    nr, nk = R.order, K.order
    prod, star = _operator_tables(A.pair)

    def vec(*idx):
        v = np.zeros(A.dim, dtype=complex)
        for i in idx:
            v[i] += 1.0
        return v

    def differs(x, y):
        return np.abs(x - y).max() > tol

    u = [vec(*(r * nk + g for g in range(nk))) for r in range(nr)]
    d = [vec(R.identity * nk + g) for g in range(nk)]
    return {
        "discrete-product-embedding": sum(
            differs(_product(prod, u[r], u[s]), u[R.cayley[r, s]])
            for r in range(nr) for s in range(nr)),
        "discrete-star-embedding": sum(
            differs(_star(star, u[r]), u[R.inverse[r]]) for r in range(nr)),
        "compact-idempotents": sum(
            differs(_product(prod, d[g], d[h]), d[g] if g == h else 0 * d[g])
            for g in range(nk) for h in range(nk)),
        "covariance-relation": sum(
            differs(_product(prod, _product(prod, u[r], d[h]),
                             _star(star, u[r])),
                    d[A.pair.alpha[r, h]])
            for r in range(nr) for h in range(nk)),
    }


def naive_magic_relations(mp, orbit):
    """The five indicator-matrix relations over one orbit, from Python sets
    of compact elements and plain loops: (name, ok, witness) triples, each
    witness the last violation in loop order."""
    K = mp.compact
    orbit = tuple(int(v) for v in orbit)
    sets = {(r, s): {g for g in range(K.order) if mp.beta[g, r] == s}
            for r in orbit for s in orbit}
    full = set(range(K.order))

    row_orth = col_orth = row_part = col_part = split = None
    for r in orbit:
        for s1 in orbit:
            for s2 in orbit:
                if s1 < s2 and sets[(r, s1)] & sets[(r, s2)]:
                    row_orth = (r, s1, s2)
    for s in orbit:
        for r1 in orbit:
            for r2 in orbit:
                if r1 < r2 and sets[(r1, s)] & sets[(r2, s)]:
                    col_orth = (r1, r2, s)
    for r in orbit:
        if set().union(*(sets[(r, s)] for s in orbit)) != full:
            row_part = r
    for s in orbit:
        if set().union(*(sets[(r, s)] for r in orbit)) != full:
            col_part = s
    for s in orbit:
        for r in orbit:
            for a in range(K.order):
                t = int(mp.beta[a, s])
                for b in range(K.order):
                    lhs = K.cayley[a, b] in sets[(s, r)]
                    rhs = (t in orbit and a in sets[(s, t)]
                           and b in sets[(t, r)])
                    if lhs != rhs:
                        split = (s, r, a, b)
    return [(name, wit is None, wit) for name, wit in (
        ("row-orthogonality", row_orth), ("column-orthogonality", col_orth),
        ("row-partition", row_part), ("column-partition", col_part),
        ("coproduct-splitting", split))]


def burnside_orbit_counts(mp, space):
    """Per orbit, the fixed points of all compact elements on it, divided by
    the compact order: exactly 1 for every orbit, by Burnside's lemma."""
    nk = mp.compact.order
    return [Fraction(sum(int(mp.beta[g, r]) == r
                         for g in range(nk) for r in orb), nk)
            for orb in space.orbits]


def naive_fusion_formula(mp, space, chi_x, gamma_orbit, r_orbit, s_orbit):
    """Closed-form fusion value of one (x, gamma, r, s): over r, s in the two
    orbits with rs in orbit gamma, the conjugated character summed over
    {g : alpha_s(g) fixes r and g fixes s}, divided by |K|."""
    R, nk = mp.discrete, mp.compact.order
    total = 0j
    for r in space.orbits[r_orbit]:
        for s in space.orbits[s_orbit]:
            if space.orbit_of[R.cayley[r, s]] != gamma_orbit:
                continue
            for g in range(nk):
                if mp.beta[mp.alpha[s, g], r] == r and mp.beta[g, s] == s:
                    total += np.conj(chi_x[g]) / nk
    return total


def naive_group_from_generators(gens, compose, identity, cap, table_cap):
    """Elements generated by ``gens`` in the discovery order of a level-by-
    level BFS from ``identity`` (each element of a level times every
    generator in turn), and the table from one ``compose`` per ordered pair.
    Raises ValueError, worded as the package's SizeBound, when the closure
    passes ``cap`` elements or the order passes ``table_cap``."""
    elems = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(g, x)
                if y not in index:
                    if len(elems) >= cap:
                        raise ValueError(f"closure exceeds cap {cap}")
                    index[y] = len(elems)
                    elems.append(y)
                    nxt.append(y)
        frontier = nxt
    if len(elems) > table_cap:
        raise ValueError(f"order {len(elems)} exceeds dense-table cap "
                         f"{table_cap}")
    table = [[index[compose(a, b)] for b in elems] for a in elems]
    return elems, table


def naive_word_length(mult, dual, unit, generators):
    """Fusion-graph distance from ``unit``, one label at a time: label x is
    joined to every z with mult[x][g][z] > 0 for a generator g or the dual
    of one.  Labels the queue never reaches get None."""
    n = len(dual)
    gens = sorted({int(g) for g in generators} |
                  {int(dual[g]) for g in generators})
    dist = [None] * n
    dist[unit] = 0
    queue = [unit]
    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        for g in gens:
            for z in range(n):
                if mult[x][g][z] > 0 and dist[z] is None:
                    dist[z] = dist[x] + 1
                    queue.append(z)
    return dist


def naive_match_rows(table, queries, tol):
    """For each query row, the one row of ``table`` that is within ``tol``
    of it in every entry, compared pair by pair in Python complex
    arithmetic, else -1 (no such row, or more than one)."""
    out = []
    for q in queries:
        hits = [k for k, t in enumerate(table)
                if all(abs(complex(a) - complex(b)) <= tol
                       for a, b in zip(q, t))]
        out.append(hits[0] if len(hits) == 1 else -1)
    return out


def naive_generating_sequence(cayley, identity):
    """Greedy generators of the group with table ``cayley``: each is the
    least element outside the subgroup generated so far, that subgroup
    grown as a Python set by right products with every generator."""
    cayley = [list(map(int, row)) for row in np.asarray(cayley)]
    gens, reached = [], {int(identity)}
    while len(reached) < len(cayley):
        gens.append(min(set(range(len(cayley))) - reached))
        frontier = set(reached)
        while frontier:
            frontier = {cayley[x][g] for x in frontier for g in gens} - reached
            reached |= frontier
    return tuple(gens)


def naive_orbit_max(values, perms):
    """For each label, the largest value over its orbit, the orbit grown by
    applying every permutation row until nothing new appears."""
    out = []
    for x in range(len(values)):
        orbit, frontier = {x}, [x]
        while frontier:
            nxt = []
            for y in frontier:
                for row in perms:
                    z = int(row[y])
                    if z not in orbit:
                        orbit |= {z}
                        nxt.append(z)
            frontier = nxt
        out.append(max(values[y] for y in orbit))
    return out


def naive_intertwiner_dim(u, w):
    """Dimension of {T : (T x 1)u = w(T x 1)} for T of shape (w.dim, u.dim):
    one equation per entry (i, k) of either side and algebra basis element
    s, written out by loops, one unknown per entry T[a, b]; the dimension
    is the number of unknowns minus the rank.  Basis elements on which both
    inputs vanish give zero rows and are left out.  The entries are of unit
    size, so the rank counts singular values above an absolute 1e-8 (a
    relative cutoff would count round-off in a system that is all
    round-off)."""
    du, dw = u.dim, w.dim
    uc, wc = _dense(u), _dense(w)
    rows = []
    for s in range(u.algebra.dim):
        if not (uc[:, :, s].any() or wc[:, :, s].any()):
            continue
        for i in range(dw):
            for k in range(du):
                row = np.zeros(dw * du, dtype=complex)
                for b in range(du):        # sum_b T[i, b] u[b, k]
                    row[i * du + b] += uc[b, k, s]
                for a in range(dw):        # sum_a w[i, a] T[a, k]
                    row[a * du + k] -= wc[i, a, s]
                rows.append(row)
    if not rows:
        return dw * du
    return dw * du - int(np.linalg.matrix_rank(np.array(rows), tol=1e-8))


def _naive_weight_grid(slots, denominator):
    """All nonnegative integer vectors of the given length summing to the
    denominator (exhaustive rational grid)."""
    if slots == 1:
        yield (denominator,)
        return
    for head in range(denominator + 1):
        for rest in _naive_weight_grid(slots - 1, denominator - head):
            yield (head,) + rest


def _tv(a, b):
    """Sum of absolute differences of two weight tuples."""
    return sum(abs(x - y) for x, y in zip(a, b))


def tv_distance(mu, nu):
    """Full coordinate sum of absolute weight differences of two measures
    (exact); measures on groups of different orders are refused."""
    if mu.group.order != nu.group.order:
        raise ValidationError("measure-group", "measures on different groups")
    return _tv(mu.weights, nu.weights)


def naive_separation_grid(G, denominators):
    """The separation grid one exact weight tuple at a time: every weight
    vector of the recursive grid, as ``Fraction``s, is at total-variation
    distance ``_tv`` from the identity point mass.  Returns (identity-free
    points, their least distance, points checked against 2*(1 - w(e)),
    largest deviation)."""
    n, e = G.order, G.identity
    delta_e = tuple(Fraction(int(x == e)) for x in range(n))
    grid_min = None
    grid_points = 0
    mixed_checked = 0
    mixed_dev = Fraction(0)
    for D in denominators:
        for counts in _naive_weight_grid(n, D):
            w = tuple(Fraction(c, D) for c in counts)
            d = _tv(w, delta_e)
            mixed_checked += 1
            mixed_dev = max(mixed_dev, abs(d - 2 * (1 - w[e])))
            if w[e] == 0:
                grid_points += 1
                grid_min = d if grid_min is None else min(grid_min, d)
    return grid_points, grid_min, mixed_checked, mixed_dev


def naive_convolve(G, a, b):
    """Convolution of two Fraction weight tuples: every product a[x] b[y]
    added to the weight of x*y."""
    out = [Fraction(0)] * G.order
    for x in range(G.order):
        for y in range(G.order):
            out[G.cayley[x, y]] += a[x] * b[y]
    return tuple(out)


def dense_validate_morphism(A, B, M):
    """The dense validator of a linear map given by its (B.dim, A.dim)
    matrix M, checked column by column at ``TOL_EQ``, with each algebra's
    product and star from its operator model: True, or ``NotAMorphism``
    naming the first law that fails and where."""
    if M.shape != (B.dim, A.dim):
        raise NotAMorphism(f"matrix shape {M.shape} != ({B.dim},{A.dim})")
    if np.abs(M @ A.unit_vec - B.unit_vec).max() > TOL_EQ:
        raise NotAMorphism("unit is not preserved")
    if np.abs(B.counit_vec @ M - A.counit_vec).max() > TOL_EQ:
        raise NotAMorphism("counit is not preserved")
    prod_a, star_a = _operator_tables(A.pair)
    prod_b, star_b = _operator_tables(B.pair)
    # image columns are M[:, i]: M(x*) = M(x)* on every basis element
    for i in range(A.dim):
        if np.abs(M[:, star_a[i]] - _star(star_b, M[:, i])).max() > TOL_EQ:
            raise NotAMorphism(f"star fails at basis {_label(A, i)}")
    # M(e_i e_j) against M(e_i) M(e_j) for every j at once, the right side
    # one basis pair (p, q) of B at a time
    for i in range(A.dim):
        lhs = np.zeros((B.dim, A.dim), dtype=complex)
        rhs = np.zeros((B.dim, A.dim), dtype=complex)
        for j in range(A.dim):
            if prod_a[i][j] is not None:
                lhs[:, j] = M[:, prod_a[i][j]]
        for p in np.flatnonzero(M[:, i]).tolist():
            for q in range(B.dim):
                if prod_b[p][q] is not None:
                    rhs[prod_b[p][q]] += M[p, i] * M[q]
        bad = np.abs(lhs - rhs).max(0) > TOL_EQ
        if bad.any():
            raise NotAMorphism(
                f"multiplicativity fails at ({_label(A, i)}, "
                f"{_label(A, np.argmax(bad))})")
    # coproduct intertwining on every basis element (the coproduct terms of
    # distinct basis elements of B are distinct pairs)
    for i in range(A.dim):
        lhs = M[:, A.delta_left[i]] @ M[:, A.delta_right[i]].T
        rhs = np.zeros((B.dim, B.dim), dtype=complex)
        rhs[B.delta_left, B.delta_right] = M[:, i, None]
        if np.abs(lhs - rhs).max() > TOL_EQ:
            raise NotAMorphism(f"coproduct fails at basis {_label(A, i)}")
    return True


def _character(c):
    """The character of a corepresentation: its diagonal entries summed on
    their basis elements, one stored entry at a time."""
    out = np.zeros(c.algebra.dim, dtype=complex)
    for i, j, t, v in zip(c.row.tolist(), c.col.tolist(), c.basis.tolist(),
                          c.value.tolist()):
        if i == j:
            out[t] += v
    return out


def _pairing(x, y, n):
    """vdot(x, y) / n rounded to the integer it must be near."""
    v = np.vdot(x, y) / n
    k = round(v.real)
    if abs(v - k) > TOL_EQ:
        raise AssertionError(f"character pairing {v} is not near an integer")
    return k


def first_irrep_identification(A, pieces_of, space):
    """The irrep catalog of the irreducible pieces of each candidate, by a
    pieces x pieces table of which pieces pair (pieces of one dimension on
    one orbit whose characters have a Haar pairing of at least 1) and a
    loop in which each piece is the first irrep found before it that it
    pairs with, or a new one.  Returns (canonical, equivalence_map)."""
    pieces = [p for ps in pieces_of for p in ps]
    orbit = space.orbit_of[A.gamma_of]                  # per basis element
    # entries are stored in basis order: basis[0] is the least of the support
    on_orbit = [orbit[p.basis[0]] for p in pieces]
    chars = [_character(p) for p in pieces]
    same = np.array([[on_orbit[a] == on_orbit[b] and p.dim == q.dim
                      and _pairing(chars[a], chars[b], A.nk) >= 1
                      for b, q in enumerate(pieces)]
                     for a, p in enumerate(pieces)], dtype=bool).reshape(
                         len(pieces), len(pieces))
    # each piece is the first irrep found before it that it pairs with, or
    # a new one; first[k] is the piece that found irrep k
    first, ident = [], []
    for n in range(len(pieces)):
        hit = np.flatnonzero(same[n, first])
        if not len(hit):
            first.append(n)
            hit = [len(first) - 1]
        ident.append(int(hit[0]))
    canonical = [pieces[n] for n in first]
    at = np.cumsum([0] + [len(ps) for ps in pieces_of])
    pieces_of = [ident[lo:hi] for lo, hi in zip(at[:-1], at[1:])]
    order = sorted(range(len(canonical)),
                   key=lambda k: (canonical[k].dim, k))
    relabel = {old: new for new, old in enumerate(order)}
    canonical = [canonical[old] for old in order]
    equivalence_map = {ci: sorted(relabel[k] for k in ids)
                       for ci, ids in enumerate(pieces_of)}
    return canonical, equivalence_map
