"""The function-algebra crossed product attached to a matched pair.

Basis elements are indexed by (discrete, compact) pairs; writing u_r for the
discrete unitaries and d_g for the compact point indicators, the basis
element r*|K|+g stands for u_r d_g.  All structure maps have 0/1 structure
constants, so products, coproducts, star, antipode, counit and the invariant
state live in exact integer/rational tables; complex coefficient vectors sit
on top of them.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import TOL_AXIOM, TOL_COEFF, TOL_EQ
from .errors import AxiomViolation, NotAMorphism
from .groups import _row_blocks
from .matched import MatchedPair, trivial_pair


class KacAlgebra:
    """Exact structure tables for the crossed-product function algebra.

    Every table is an index array derived from the two actions:

    * ``partner``, ``result`` (dim, nr): basis i times basis partner[i, s]
      is basis result[i, s]; i times any other basis element is 0.
    * ``delta_left``, ``delta_right`` (dim, nk): the coproduct of basis i is
      the sum over a of delta_left[i, a] x delta_right[i, a].
    * ``star_index``, ``antipode_index`` (dim,): star and antipode of basis i.
    """

    def __init__(self, mp: MatchedPair):
        self.pair = mp
        R, K = mp.discrete, mp.compact
        nr, nk = R.order, K.order
        self.nr, self.nk = nr, nk
        self.dim = nr * nk
        self.gamma_of, self.g_of = np.divmod(np.arange(self.dim, dtype=np.int32), nk)

        A, B = mp.alpha, mp.beta
        r_idx, g_idx = self.gamma_of, self.g_of

        # (u_r d_g)(u_s d_h) = [h = alpha_{s^-1}(g)] u_{rs} d_h: row i = (r, g)
        # meets one partner per s, in ascending order of partner
        h = A[R.inverse][:, g_idx].T
        self.partner = (np.arange(nr) * nk + h).astype(np.int32)
        self.result = (R.cayley[r_idx] * nk + h).astype(np.int32)

        # (u_r d_g)* = u_{r^-1} d_{alpha_r(g)}
        self.star_index = (R.inverse[r_idx] * nk + A[r_idx, g_idx]).astype(np.int32)

        # S(u_r d_g) = u_{beta_g(r)^-1} d_{alpha_r(g)^-1}
        self.antipode_index = (
            R.inverse[B[g_idx, r_idx]] * nk + K.inverse[A[r_idx, g_idx]]
        ).astype(np.int32)

        # coproduct of u_r d_g: sum over g = a b of (u_r d_a) x (u_{beta_a(r)} d_b),
        # term a in column a
        b = K.cayley[K.inverse][:, g_idx].T
        self.delta_left = (r_idx[:, None] * nk + np.arange(nk)).astype(np.int32)
        self.delta_right = (B[:, r_idx].T * nk + b).astype(np.int32)

        self.counit_vec = (self.g_of == K.identity).astype(np.int64)
        self.haar_fraction = [Fraction(1, nk) if r == R.identity else Fraction(0)
                              for r in self.gamma_of]
        self.haar_vec = np.array([float(x) for x in self.haar_fraction])

    # -- naming -------------------------------------------------------------

    def basis_index(self, r, g):
        return int(r) * self.nk + int(g)

    def basis_label(self, i):
        r, g = divmod(int(i), self.nk)
        return f"u[{self.pair.discrete.labels[r]}]d[{self.pair.compact.labels[g]}]"

    # -- elements -----------------------------------------------------------

    def from_vector(self, vec):
        return AlgebraElement(self, np.asarray(vec, dtype=complex).copy())

    def one(self):
        return self.discrete_unitary(self.pair.discrete.identity)

    def discrete_unitary(self, r):
        """The group unitary u_r = sum_g u_r d_g."""
        vec = np.zeros(self.dim, dtype=complex)
        vec[r * self.nk:(r + 1) * self.nk] = 1.0
        return AlgebraElement(self, vec)

    def compact_function(self, values):
        """Embed a function on the compact group: sum_g f(g) u_e d_g."""
        vec = np.zeros(self.dim, dtype=complex)
        e = self.pair.discrete.identity
        vec[e * self.nk:(e + 1) * self.nk] = values
        return AlgebraElement(self, vec)

    # -- structure maps on vectors -----------------------------------------

    def mul_index(self, i, j):
        """Index of the product of basis elements i and j, or dim when the
        product is 0; either operand may itself be dim (the zero element)."""
        i, j = np.broadcast_arrays(i, j)
        live = (i < self.dim) & (j < self.dim)
        ii = np.where(live, i, 0)
        s = np.where(live, j // self.nk, 0)
        hit = live & (self.partner[ii, s] == j)
        return np.where(hit, self.result[ii, s], self.dim)

    def mul_vec(self, a, b):
        """Product of coefficient vectors, broadcast over leading axes.

        Each row accumulates its terms i-major, s-minor over the columns
        that are nonzero anywhere in ``a`` (the extra zero terms leave its
        sums unchanged), in row blocks of bounded size."""
        a, b = np.broadcast_arrays(a, b)
        out = np.zeros(a.shape, dtype=complex)
        ia = np.flatnonzero(a.any(axis=tuple(range(a.ndim - 1))))
        a, b, flat = (x.reshape(-1, self.dim) for x in (a, b, out))
        terms = self.result[ia].ravel()
        for blk in _row_blocks(len(flat), len(ia) * self.nr):
            contrib = a[blk, ia, None] * b[blk][:, self.partner[ia]]
            rows = np.arange(len(contrib))[:, None] * self.dim
            np.add.at(flat[blk].reshape(-1), (rows + terms).ravel(),
                      contrib.reshape(-1))
        return out

    def star_vec(self, a):
        out = np.zeros(np.shape(a), dtype=complex)
        np.add.at(out.T, self.star_index, np.conj(a).T)
        return out

    def antipode_vec(self, a):
        out = np.zeros(self.dim, dtype=complex)
        np.add.at(out, self.antipode_index, a)
        return out

    def counit(self, a):
        return complex(np.dot(self.counit_vec, a))

    def haar(self, a):
        return complex(np.dot(self.haar_vec, a))

    def inner(self, a, b):
        """Invariant-state inner product h(a* b)."""
        return self.haar(self.mul_vec(self.star_vec(a), b))

    def left_mult_matrix(self, a):
        """Matrix of x -> a x in the standard basis."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        # basis i sends partner[i, s] to result[i, s]; these cells are
        # distinct over all (i, s)
        i = np.flatnonzero(a)
        out[self.result[i], self.partner[i]] += a[i, None]
        return out

    def __repr__(self):
        return f"KacAlgebra({self.pair.name!r}, dim={self.dim})"


class AlgebraElement:
    """A coefficient vector over the standard basis of a KacAlgebra."""

    __array_priority__ = 100  # keep numpy from hijacking scalar products

    def __init__(self, algebra, vec):
        self.algebra = algebra
        self.vec = np.asarray(vec, dtype=complex)

    def __add__(self, other):
        self._same(other)
        return AlgebraElement(self.algebra, self.vec + other.vec)

    def __sub__(self, other):
        self._same(other)
        return AlgebraElement(self.algebra, self.vec - other.vec)

    def __neg__(self):
        return AlgebraElement(self.algebra, -self.vec)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._same(other)
            return AlgebraElement(self.algebra,
                                  self.algebra.mul_vec(self.vec, other.vec))
        return AlgebraElement(self.algebra, self.vec * other)

    def __rmul__(self, scalar):
        return AlgebraElement(self.algebra, scalar * self.vec)

    def star(self):
        return AlgebraElement(self.algebra, self.algebra.star_vec(self.vec))

    def antipode(self):
        return AlgebraElement(self.algebra, self.algebra.antipode_vec(self.vec))

    def haar(self):
        return self.algebra.haar(self.vec)

    def counit(self):
        return self.algebra.counit(self.vec)

    def coeffs(self):
        nk = self.algebra.nk
        return {divmod(int(i), nk): complex(self.vec[i])
                for i in np.nonzero(np.abs(self.vec) > TOL_COEFF)[0]}

    def _same(self, other):
        if other.algebra is not self.algebra:
            raise ValueError("elements belong to different algebras")

    def __repr__(self):
        terms = [f"{c:.4g}*{self.algebra.basis_label(self.algebra.basis_index(r, g))}"
                 for (r, g), c in sorted(self.coeffs().items())]
        return " + ".join(terms) if terms else "0"


def build_algebra(mp):
    """The crossed-product function algebra of a validated pair."""
    return KacAlgebra(mp)


def plain_function_algebra(K):
    """C(K) with trivial discrete part — the classical baseline."""
    return KacAlgebra(trivial_pair(K))


# ---------------------------------------------------------------------------
# axiom certification


@dataclass
class AxiomCheck:
    name: str
    deviation: float
    witness: object = None


@dataclass
class AxiomReport:
    algebra: KacAlgebra
    checks: list
    tol: float

    @property
    def passed(self):
        return all(c.deviation <= self.tol for c in self.checks)

    def worst(self):
        return max(self.checks, key=lambda c: c.deviation)

    def raise_if_failed(self):
        for c in self.checks:
            if c.deviation > self.tol:
                raise AxiomViolation(c.name, c.deviation, c.witness)

    def lines(self):
        out = []
        for c in self.checks:
            status = "PASS" if c.deviation <= self.tol else "FAIL"
            line = f"{status} {c.name}: deviation {c.deviation:.3e}"
            if c.witness is not None and c.deviation > self.tol:
                line += f" at {c.witness}"
            out.append(line)
        return out


def _key(cols, n):
    """Encode index tuples (broadcastable arrays with entries in range(n)) as
    int64 keys that sort like the tuples."""
    cols = np.broadcast_arrays(*cols)
    return np.ravel_multi_index(tuple(c.ravel() for c in cols), (n,) * len(cols))


def _changed(got, want, got_w=None, want_w=None):
    """Keys whose multiplicity (or total weight) differs between two key
    arrays, with the difference."""
    keys = np.concatenate([got, want])
    w = np.concatenate([np.ones(len(got)) if got_w is None else np.ravel(got_w),
                        -(np.ones(len(want)) if want_w is None else np.ravel(want_w))])
    uniq, inv = np.unique(keys, return_inverse=True)
    net = np.bincount(inv, weights=w, minlength=len(uniq))
    return uniq[net != 0], net[net != 0]


def _row_check(A, name, bad):
    """Check counting the failing basis elements of a row mask, witnessed by
    the first of them."""
    hits = np.flatnonzero(bad)
    return AxiomCheck(name, float(len(hits)),
                      A.basis_label(hits[0]) if len(hits) else None)


def check_axioms(A):
    """Certify every structural identity of the built algebra.

    All underlying structure constants are 0/1, so each check is exact
    integer arithmetic on index arrays; deviations count violating
    instances, and a zero product counts as one more (absorbing) index.
    The report never raises — use .raise_if_failed() for the exception
    contract.
    """
    checks = []
    n, nk, nr = A.dim, A.nk, A.nr
    rows = np.arange(n)
    dl, dr = A.delta_left, A.delta_right
    S = A.antipode_index
    ST = A.star_index
    eps = A.counit_vec
    one = A.one().vec
    unit = np.nonzero(one.real > 0.5)[0]

    # associativity of the product: triples with (ij)k != 0 are enumerated;
    # of the triples with i(jk) != 0 (counted through `lands`) those not
    # enumerated are violations too
    lands = np.bincount(A.result.ravel(), minlength=n)
    bad = np.zeros(n, dtype=np.int64)
    for blk in _row_blocks(n, nr * nr):
        m = A.result[blk]
        k = A.partner[m]                                     # (b, nr, nr)
        left = A.result[m]
        right = A.mul_index(rows[blk, None, None],
                            A.mul_index(A.partner[blk][:, :, None], k))
        bad[blk] = ((left != right).sum((1, 2)) - (right < n).sum((1, 2))
                    + lands[A.partner[blk]].sum(1))
    witness = None
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        jj, kk = rows[:, None], rows[None, :]
        neq = A.mul_index(A.mul_index(i, jj), kk) != A.mul_index(i, A.mul_index(jj, kk))
        j, k = np.argwhere(neq)[0]
        witness = (A.basis_label(i), A.basis_label(j), A.basis_label(k))
    checks.append(AxiomCheck("product-associativity", float(bad.sum()), witness))

    # unit element: largest coefficient error of 1 e_i and e_i 1
    e_dev = 0.0
    for prod in (A.mul_index(unit[:, None], rows), A.mul_index(rows, unit[:, None])):
        live = prod < n
        _, net = _changed(_key((np.broadcast_to(rows, prod.shape)[live], prod[live]), n),
                          _key((rows, rows), n))
        e_dev = max(e_dev, float(np.abs(net).max(initial=0.0)))
    checks.append(AxiomCheck("unit-element", e_dev))

    # star: involutive antihomomorphism, over all basis pairs; pairs with
    # ij != 0 are enumerated, the rest violate iff (j* i*) != 0
    dev = float((ST[ST] != rows).sum())
    checks.append(AxiomCheck("star-involution", dev))
    rev = A.mul_index(ST[A.partner], ST[:, None])
    stars_to = np.bincount(ST, minlength=n)
    bad = ((rev != ST[A.result]).sum() - (rev < n).sum()
           + (stars_to[:, None] * stars_to[A.partner]).sum())
    checks.append(AxiomCheck("star-antihomomorphism", float(bad)))

    # coassociativity (multisets of index triples)
    bad = np.zeros(n, dtype=bool)
    for blk in _row_blocks(n, nk * nk):
        j, k = dl[blk][:, :, None], dr[blk][:, :, None]
        left = _key((dl[j[..., 0]], dr[j[..., 0]], k), n).reshape(len(k), -1)
        right = _key((j, dl[k[..., 0]], dr[k[..., 0]]), n).reshape(len(k), -1)
        bad[blk] = (np.sort(left, 1) != np.sort(right, 1)).any(1)
    checks.append(_row_check(A, "coassociativity", bad))

    # counit laws: exactly one leg survives the counit, and it is i itself
    def _single(sel):
        return ((sel >= 0).sum(1) == 1) & (sel.max(1) == rows)
    bad = ~(_single(np.where(eps[dl] != 0, dr, -1))
            & _single(np.where(eps[dr] != 0, dl, -1)))
    checks.append(_row_check(A, "counit-laws", bad))

    # counit multiplicative: per row i, the j with eps(ij) = 1 against the
    # j with eps(i) eps(j) = 1
    hit = eps[A.result] != 0
    ones = np.flatnonzero(eps)
    diff, _ = _changed(_key((np.broadcast_to(rows[:, None], hit.shape)[hit],
                             A.partner[hit]), n),
                       _key((ones[:, None], ones[None, :]), n))
    bad = len(np.unique(diff // n))
    checks.append(AxiomCheck("counit-multiplicative", float(bad)))

    # coproduct is a *-homomorphism: multiplicativity on all basis pairs.
    # In Delta(i) Delta(j) the left legs j1 of Delta(i) and j2 of Delta(j)
    # multiply to nonzero only for j2 = partner[j1, s], s the block of j.
    # Every coproduct term with left leg j2 has its right leg in the block
    # `rblock[j2]`, and j2 with that right leg names its element (`owner`).
    # So each (i, a, s) gives exactly one nonzero term, of one pair (i, j);
    # all other pairs must have a zero product.
    rblock = np.empty(n, dtype=np.int64)
    rblock[dl] = dr // nk
    owner = np.empty((n, nk), dtype=np.int64)
    owner[dl, dr % nk] = rows[:, None]
    bad_pairs = []
    for blk in _row_blocks(n, 2 * nk * nr):
        i = rows[blk, None, None]
        j1, k1 = dl[blk], dr[blk][:, :, None]
        j2 = A.partner[j1]                                   # (b, nk, nr)
        block = rblock[j2]
        k2 = A.partner[k1, block]
        j = owner[j2, k2 - block * nk]
        got = _key((i, j, A.result[j1], A.result[k1, block]), n)
        m = A.result[blk]                                    # (b, nr)
        want = _key((i, A.partner[blk][:, :, None], dl[m], dr[m]), n)
        diff, _ = _changed(got, want)
        bad_pairs.append(np.unique(diff // (n * n)))
    bad_pairs = np.concatenate(bad_pairs)
    witness = None
    if len(bad_pairs):
        i, j = divmod(int(bad_pairs[0]), n)
        witness = (A.basis_label(i), A.basis_label(j))
    checks.append(AxiomCheck("coproduct-multiplicative", float(len(bad_pairs)),
                             witness))

    # coproduct commutes with star
    lhs = _key((ST[dl], ST[dr]), n).reshape(n, nk)
    rhs = _key((dl[ST], dr[ST]), n).reshape(n, nk)
    bad = (np.sort(lhs, 1) != np.sort(rhs, 1)).any(1)
    checks.append(AxiomCheck("coproduct-star-compatible", float(bad.sum())))

    # antipode laws: convolution inverse of the identity; the expected
    # multiset is the unit's support when eps(i) = 1, else all-zero products
    want = np.where(eps[:, None] != 0, unit, n)
    bad = np.zeros(n, dtype=bool)
    for prod in (A.mul_index(S[dl], dr), A.mul_index(dl, S[dr])):
        bad |= (np.sort(prod, 1) != want).any(1)
    checks.append(_row_check(A, "antipode-laws", bad))

    # antipode squared is the identity; star-compatibility
    checks.append(AxiomCheck("antipode-involutive",
                             float((S[S] != rows).sum())))
    checks.append(AxiomCheck("antipode-star-commute",
                             float((ST[S] != S[ST]).sum())))

    # invariant state: two-sided invariance (exact: the state times |K| is
    # integer valued)
    hk = np.array([int(x * nk) for x in A.haar_fraction] + [0], dtype=np.int64)
    target = _key((rows[:, None], unit[None, :]), n)
    target_w = np.broadcast_to(hk[:n, None], (n, len(unit)))
    inst = np.broadcast_to(rows[:, None], dl.shape)
    bad = np.zeros(n, dtype=bool)
    for legs, weights in ((dl, hk[dr]), (dr, hk[dl])):
        diff, _ = _changed(_key((inst, legs), n), target, weights, target_w)
        bad[diff // n] = True
    checks.append(_row_check(A, "haar-invariance", bad))

    # invariant state is tracial over all basis pairs: pairs with h(ij) != 0
    # are enumerated, the rest violate iff h(ji) != 0
    h_ij = hk[A.result]
    h_ji = hk[A.mul_index(A.partner, rows[:, None])]
    seen = h_ij != 0
    bad = ((seen & (h_ij != h_ji)).sum() + seen.sum()
           - (seen & (h_ji != 0)).sum())
    checks.append(AxiomCheck("haar-trace", float(bad)))

    # ... and positive definite: the basis Gram matrix h(e_i* e_j) is 1/|K|
    # times the identity; only the nonzero products are enumerated
    cols = A.partner[ST]
    diag = cols == rows[:, None]
    dev = float(np.abs(A.haar_vec[A.result[ST]]
                       - np.where(diag, 1.0 / nk, 0.0)).max(initial=0.0))
    if not diag.any(1).all():
        dev = max(dev, 1.0 / nk)
    checks.append(AxiomCheck("haar-positivity", dev))

    checks.append(AxiomCheck("haar-unital", float(abs(A.haar(one) - 1.0))))
    return AxiomReport(algebra=A, checks=checks, tol=TOL_AXIOM)


# ---------------------------------------------------------------------------
# morphisms and quotient spaces


@dataclass
class Morphism:
    """A linear map between algebras given columnwise on basis elements."""

    source: KacAlgebra
    target: KacAlgebra
    matrix: np.ndarray       # (target.dim, source.dim)

    def apply(self, vec):
        return self.matrix @ vec


def validate_morphism(rho):
    """Certify unital *-homomorphism property plus coproduct intertwining."""
    A, B = rho.source, rho.target
    M = rho.matrix
    if M.shape != (B.dim, A.dim):
        raise NotAMorphism(f"matrix shape {M.shape} != ({B.dim},{A.dim})")
    if np.abs(M @ A.one().vec - B.one().vec).max() > TOL_EQ:
        raise NotAMorphism("unit is not preserved")
    if np.abs(B.counit_vec @ M - A.counit_vec).max() > TOL_EQ:
        raise NotAMorphism("counit is not preserved")
    # star of basis i is basis star_index[i]; image columns are M[:, i]
    bad = np.abs(M[:, A.star_index] - B.star_vec(M.T).T).max(0) > TOL_EQ
    if bad.any():
        raise NotAMorphism(
            f"star fails at basis {A.basis_label(np.argmax(bad))}")
    basis_images = np.vstack([M.T, np.zeros(B.dim)])   # row dim: the zero
    for i in range(A.dim):
        lhs = basis_images[A.mul_index(i, np.arange(A.dim))]
        rhs = B.mul_vec(M[:, i], M.T)
        bad = np.abs(lhs - rhs).max(1, initial=0.0) > TOL_EQ
        if bad.any():
            raise NotAMorphism(
                f"multiplicativity fails at ({A.basis_label(i)}, "
                f"{A.basis_label(np.argmax(bad))})")
    # coproduct intertwining on every basis element (the coproduct terms of
    # distinct basis elements of B are distinct pairs)
    for i in range(A.dim):
        lhs = M[:, A.delta_left[i]] @ M[:, A.delta_right[i]].T
        rhs = np.zeros((B.dim, B.dim), dtype=complex)
        rhs[B.delta_left, B.delta_right] = M[:, i, None]
        if np.abs(lhs - rhs).max() > TOL_EQ:
            raise NotAMorphism(f"coproduct fails at basis {A.basis_label(i)}")
    return True


def compact_restriction_morphism(A, A0, embed):
    """Restriction along a compact subgroup embedding (discrete sides equal).

    ``embed[g0]`` is the parent index of the subgroup element g0.  Basis
    u_r d_g maps to u_r d_{g} when g lies in the subgroup, else to 0.
    """
    if A.nr != A0.nr:
        raise NotAMorphism("discrete sides differ")
    back = np.full(A.nk, -1)
    back[embed] = np.arange(len(embed))
    M = np.zeros((A0.dim, A.dim))
    i = np.flatnonzero(back[A.g_of] >= 0)
    M[A.gamma_of[i] * A0.nk + back[A.g_of[i]], i] = 1.0
    rho = Morphism(source=A, target=A0, matrix=M)
    validate_morphism(rho)
    return rho


def coset_space_dimension(A, rho):
    """Dimension of {a : (id x rho) of the coproduct of a equals a x unit}."""
    validate_morphism(rho)
    B = rho.target
    n, m = A.dim, B.dim
    # column i holds (id x rho) Delta(e_i) - e_i x 1 as an (n, m) block matrix
    T = np.zeros((n, m, n), dtype=complex)
    T[A.delta_left, :, np.arange(n)[:, None]] = \
        rho.matrix[:, A.delta_right].transpose(1, 2, 0)
    T[np.arange(n), :, np.arange(n)] -= B.one().vec
    svals = np.linalg.svd(T.reshape(n * m, n), compute_uv=False)
    scale = svals.max(initial=1.0)
    return int(np.sum(svals <= TOL_AXIOM * max(scale, 1.0)))


# ---------------------------------------------------------------------------
# embedded copies of the two classical pieces


def group_subalgebra_check(A):
    """Exact report that the discrete group algebra and the compact function
    algebra both embed with the expected relations."""
    R, K = A.pair.discrete, A.pair.compact
    n, nr, nk = A.dim, R.order, K.order
    e = R.identity
    ks = np.arange(nk)
    checks = []

    # u_r u_s = sum_g e_{result[(r, g), s]}: its terms must be the nk basis
    # elements of u_{rs}, each once (all coefficients are 0/1 counts)
    terms = np.sort(A.result.reshape(nr, nk, nr), 1)          # [r, ., s]
    want = (R.cayley * nk)[:, None, :] + ks[None, :, None]
    bad = (terms != want).any(1).sum()
    checks.append(AxiomCheck("discrete-product-embedding", float(bad)))
    # u_r* = sum_g e_{star_index[(r, g)]} against u_{r^-1}
    terms = np.sort(A.star_index.reshape(nr, nk), 1)
    bad = (terms != (R.inverse * nk)[:, None] + ks).any(1).sum()
    checks.append(AxiomCheck("discrete-star-embedding", float(bad)))

    # d_g d_h = [g = h] d_g on the compact copy u_e d_g
    d = e * nk + ks
    prod = A.mul_index(d[:, None], d[None, :])
    bad = (prod != np.where(ks[:, None] == ks, d[:, None], n)).sum()
    checks.append(AxiomCheck("compact-idempotents", float(bad)))

    # covariance: u_r d_h u_r^* = d_{alpha_r(h)}.  Term i = (r, g) of u_r
    # meets d_h only for h = h_of[i], landing on result[i, e]; for each
    # (r, h) the products of those landings with the terms of u_r^* must
    # leave exactly one nonzero term, and that one d_{alpha_r(h)}
    h_of = A.partner[:, e] - e * nk
    prod = A.mul_index(A.result[:, e, None],
                       A.star_index.reshape(nr, nk)[A.gamma_of])    # (n, nk)
    target = e * nk + A.pair.alpha[A.gamma_of, h_of]
    rh = A.gamma_of * nk + h_of
    live = np.bincount(rh, (prod < n).sum(1), minlength=n)
    hits = np.bincount(rh, (prod == target[:, None]).sum(1), minlength=n)
    bad = ((live != 1) | (hits == 0)).sum()
    checks.append(AxiomCheck("covariance-relation", float(bad)))

    # coproduct of a compact indicator stays inside the compact copy:
    # Delta(d_g) = sum_a d_a x d_{a^-1 g}
    got = _key((A.delta_left[e * nk + ks], A.delta_right[e * nk + ks]), n)
    want = _key((e * nk + ks[None, :], e * nk + K.cayley[K.inverse][:, ks].T), n)
    bad = (np.sort(got.reshape(nk, -1), 1)
           != np.sort(want.reshape(nk, -1), 1)).any(1).sum()
    checks.append(AxiomCheck("compact-coproduct-form", float(bad)))

    # coproduct of a discrete unitary: sum_a (u_r d_a) x u_{beta_a(r)}
    r = np.arange(R.order)[:, None, None]
    got = _key((A.delta_left, A.delta_right), n)
    want = _key((r * nk + ks[:, None],
                 A.pair.beta[ks[:, None], r] * nk + ks[None, :]), n)
    bad = (np.sort(got.reshape(R.order, -1), 1)
           != np.sort(want.reshape(R.order, -1), 1)).any(1).sum()
    checks.append(AxiomCheck("discrete-coproduct-form", float(bad)))

    return AxiomReport(algebra=A, checks=checks, tol=TOL_AXIOM)


# ---------------------------------------------------------------------------
# deterministic structure dump


def structure_dump(A):
    """Plain-text structure constants, stable across runs, for diffing."""
    lines = [f"# algebra {A.pair.name} dim {A.dim}"]
    for i in range(A.dim):
        lines.append(f"basis {i} {A.basis_label(i)}")
    for i in range(A.dim):
        terms = [f"{j}:{m}" for j, m in zip(A.partner[i].tolist(), A.result[i].tolist())]
        lines.append(f"mul {i} " + " ".join(terms))
    lines.append("star " + " ".join(str(int(v)) for v in A.star_index))
    lines.append("antipode " + " ".join(str(int(v)) for v in A.antipode_index))
    for i in range(A.dim):
        pairs = ";".join(f"{j},{k}" for j, k in
                         zip(A.delta_left[i].tolist(), A.delta_right[i].tolist()))
        lines.append(f"delta {i} {pairs}")
    lines.append("counit " + " ".join(str(int(v)) for v in A.counit_vec))
    lines.append("haar " + " ".join(str(f) for f in A.haar_fraction))
    return "\n".join(lines) + "\n"
