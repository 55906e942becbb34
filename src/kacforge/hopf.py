"""The function-algebra crossed product attached to a matched pair.

Basis elements are indexed by (discrete, compact) pairs; writing u_r for the
discrete unitaries and d_g for the compact point indicators, the basis
element r*|K|+g stands for u_r d_g.  All structure maps have 0/1 structure
constants, so products, coproducts, star, antipode, counit and the invariant
state live in exact integer/rational tables; complex coefficient vectors sit
on top of them.
"""

from dataclasses import dataclass

import numpy as np

from .config import TOL_AXIOM
from .errors import NotAMorphism
from .groups import _row_blocks
from .matched import MatchedPair


class KacAlgebra:
    """Exact structure tables for the crossed-product function algebra.

    Every table is an index array derived from the two actions:

    * ``offset``, ``result`` (dim, nr): basis i meets one basis element of
      each discrete block s, the one at offset[i, s] in that block (the
      read-only ``partner`` gives its full index); their product is basis
      result[i, s], and i times any other basis element is 0.
    * ``delta_block`` (dim, nk): the coproduct of basis i = (r, g) is the
      sum over a of u_r d_a x u_s d_{a^-1 g}, s = delta_block[i, a]; the
      read-only ``delta_left`` and ``delta_right`` give the legs' indices.
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
        # meets the one h of each block s
        h = A[R.inverse][:, g_idx].T
        self.offset = h.astype(np.int32)
        self.result = (R.cayley[r_idx] * nk + h).astype(np.int32)

        # (u_r d_g)* = u_{r^-1} d_{alpha_r(g)}
        self.star_index = (R.inverse[r_idx] * nk + A[r_idx, g_idx]).astype(np.int32)

        # S(u_r d_g) = u_{beta_g(r)^-1} d_{alpha_r(g)^-1}
        self.antipode_index = (
            R.inverse[B[g_idx, r_idx]] * nk + K.inverse[A[r_idx, g_idx]]
        ).astype(np.int32)

        # coproduct of u_r d_g: sum over g = a b of (u_r d_a) x (u_{beta_a(r)} d_b),
        # term a in column a
        self.delta_block = B[:, r_idx].T.astype(np.int32)

        self.unit_vec = (self.gamma_of == R.identity).astype(complex)
        self.counit_vec = (self.g_of == K.identity).astype(np.int64)
        # the invariant state times |K|: 1 on each u_e d_g, else 0
        self.haar_k = (self.gamma_of == R.identity).astype(np.int64)
        self.haar_vec = self.haar_k / nk

    @property
    def partner(self):
        """(dim, nr) full basis indices of the factors in `offset`, in
        ascending order along each row."""
        return np.arange(self.nr, dtype=np.int32) * self.nk + self.offset

    @property
    def delta_left(self):
        """(dim, nk) left legs of the coproduct: u_r d_a in column a."""
        return self.gamma_of[:, None] * self.nk + np.arange(self.nk, dtype=np.int32)

    @property
    def delta_right(self):
        """(dim, nk) right legs of the coproduct: u_s d_{a^-1 g} in column a,
        s = delta_block[i, a]."""
        K = self.pair.compact
        return self.delta_block * self.nk + K.cayley[K.inverse][:, self.g_of].T

    # -- naming -------------------------------------------------------------

    def basis_label(self, i):
        r, g = divmod(int(i), self.nk)
        return f"u[{self.pair.discrete.labels[r]}]d[{self.pair.compact.labels[g]}]"

    # -- elements -----------------------------------------------------------

    def discrete_unitary(self, r):
        """The group unitary u_r = sum_g u_r d_g."""
        vec = np.zeros(self.dim, dtype=complex)
        vec[r * self.nk:(r + 1) * self.nk] = 1.0
        return vec

    def compact_function(self, values):
        """Embed a function on the compact group: sum_g f(g) u_e d_g."""
        vec = np.zeros(self.dim, dtype=complex)
        e = self.pair.discrete.identity
        vec[e * self.nk:(e + 1) * self.nk] = values
        return vec

    # -- structure maps on vectors -----------------------------------------

    def mul_index(self, i, j):
        """Index of the product of basis elements i and j, or dim when the
        product is 0; either operand may itself be dim (the zero element).
        A zero operand is clamped into the table and its lookup discarded:
        j = dim reads offset nk in the last block, which no offset holds,
        and a clamped i fails ``ii == i``."""
        ii = np.minimum(i, self.dim - 1)
        s = np.minimum(np.asarray(j) // self.nk, self.nr - 1)
        hit = (self.offset[ii, s] == j - s * self.nk) & (ii == i)
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
        cols = self.partner[ia]
        for blk in _row_blocks(len(flat), len(ia) * self.nr):
            contrib = a[blk, ia, None] * b[blk][:, cols]
            rows = np.arange(len(contrib))[:, None] * self.dim
            np.add.at(flat[blk].reshape(-1), (rows + terms).ravel(),
                      contrib.reshape(-1))
        return out

    def star_vec(self, a):
        out = np.zeros(np.shape(a), dtype=complex)
        np.add.at(out.T, self.star_index, np.conj(a).T)
        return out

    def haar(self, a):
        return complex(np.dot(self.haar_vec, a))

    def inner(self, a, b):
        """Invariant-state inner product h(a* b)."""
        return self.haar(self.mul_vec(self.star_vec(a), b))

    def left_mult_blocks(self, a):
        """The (nk, nr, nr) diagonal blocks of the matrix of x -> a x in
        the standard basis.

        x -> a x keeps the compact index: its matrix has no entry outside
        the cells (u_t d_h, u_s d_h), so block h holds, at [t, s], the entry
        of row u_t d_h and column u_s d_h."""
        out = np.zeros((self.nk, self.nr, self.nr), dtype=complex)
        i = np.flatnonzero(a)
        out[self.offset[i], self.gamma_of[self.result[i]],
            np.arange(self.nr)] += a[i, None]
        return out

    def __repr__(self):
        return f"KacAlgebra({self.pair.name!r}, dim={self.dim})"


def build_algebra(mp):
    """The crossed-product function algebra of a validated pair."""
    return KacAlgebra(mp)


# ---------------------------------------------------------------------------
# axiom certification


@dataclass
class AxiomCheck:
    name: str
    deviation: float


@dataclass
class AxiomReport:
    checks: list
    tol: float

    @property
    def passed(self):
        return all(c.deviation <= self.tol for c in self.checks)

    def worst(self):
        return max(self.checks, key=lambda c: c.deviation)


def _is_coproduct(B, dr, left, right, t):
    """Columns i whose terms left[a, i] x right[a, i] without a zero leg
    (index B.dim) are the terms of Delta(t[i]) in B, dr = B.delta_right,
    each once: a term's left leg fixes its place.  None if t[i] = B.dim."""
    live = (left < B.dim) & (right < B.dim)
    to = np.minimum(t, B.dim - 1)
    at = left - (to - B.g_of[to])
    hit = live & (at >= 0) & (at < B.nk)
    at = np.where(hit, at, B.nk)
    seen = np.zeros((B.nk + 1, len(t)), dtype=bool)
    seen[at, np.arange(len(t))] = True
    ok = (seen[:B.nk].all(0) & (np.count_nonzero(live, 0) == B.nk)
          & (~hit | (right == np.take(dr, to * B.nk + at, mode="clip")))
          .all(0))
    return np.where(t < B.dim, ok, ~live.any(0))


def _triple_counts(A, blocks):
    """Per basis element x, over the triples (x, a, y) with a in the
    discrete blocks ``blocks``: the listed triples (x, partner[x, s],
    partner[xa, t]), s in ``blocks``, the only ones with (xa)y != 0, on
    which x(ay) differs; and the triples with x(ay) != 0 (counted through
    `lands`, per z the (a, y) with ay = z) less the listed ones with
    x(ay) != 0.  n * |blocks| * nr lookups."""
    n, nk, nr = A.dim, A.nk, A.nr
    rows = np.arange(n)
    partner = A.partner
    members = (blocks[:, None] * nk + np.arange(nk)).ravel()
    lands = np.bincount(A.result[members].ravel(), minlength=n)
    differ = np.zeros(n, dtype=np.int64)
    unlisted = np.zeros(n, dtype=np.int64)
    for blk in _row_blocks(n, 8 * len(blocks) * nr):
        xa = A.result[blk][:, blocks]                        # (b, |blocks|)
        y = partner[xa]                                      # (b, |blocks|, nr)
        right = A.mul_index(rows[blk, None, None],
                            A.mul_index(partner[blk][:, blocks, None], y))
        differ[blk] = (A.result[xa] != right).sum((1, 2))
        unlisted[blk] = lands[partner[blk]].sum(1) - (right < n).sum((1, 2))
    return differ, unlisted


def _associativity_count(A):
    """Violations of associativity over all basis triples: the two counts
    of `_triple_counts` over every block."""
    return float(sum(_triple_counts(A, np.arange(A.nr))).sum())


def _light_associative(A):
    """True when Light's test certifies that the product is associative;
    False when it finds a violation or does not apply.

    The magma is the basis plus an absorbing zero under ``mul_index``.  The
    a with (xa)y = x(ay) for all x, y are closed under products (Clifford &
    Preston, The Algebraic Theory of Semigroups I, 1.2), so checking every
    a of a generating set G certifies every triple.  G is the u_s d_h, s a
    generator of the discrete group and h in K: `_triple_counts` over the
    generator blocks makes n * |gens| * nr lookups against the full
    count's n * nr^2, and closing G under right multiplication by G costs
    n * |gens|.  The two counts are checked apart, so that a stray partner
    entry cannot offset a disagreement.
    """
    n, nk = A.dim, A.nk
    gens = np.array(A.pair.discrete.generators, dtype=np.int64)
    G = (gens[:, None] * nk + np.arange(nk)).ravel()
    reached = np.zeros(n, dtype=bool)
    reached[G] = True
    new = G
    while len(new):
        new = np.unique(A.result[new][:, gens])
        new = new[~reached[new]]
        reached[new] = True
    if not reached.all():
        return False
    differ, unlisted = _triple_counts(A, gens)
    return not differ.any() and int(unlisted.sum()) == 0


def _coproduct_multiplicative(A, blocks):
    """Pairs (i, j), j in the discrete blocks ``blocks``, with
    Delta(i) Delta(j) != Delta(ij), counted.  Term a of Delta(i) meets in
    block s only term b of left leg partner[dl[i, a], s] = u_s d_b, whose
    right leg lies in block t (read off the last row of u_s's discrete
    block; coassociativity asks all its rows to agree), where dr[i, a]
    meets only offset c, that of term b of j = u_s d_{bc}.  So each term
    lands on one pair (i, j); the pair with ij = m must get the terms of
    Delta(m), any other pair none."""
    n, nk, nr, nb = A.dim, A.nk, A.nr, len(blocks)
    dl, dr = A.delta_left, A.delta_right
    t = A.delta_block[nk - 1::nk].ravel()[A.partner[:, blocks]]
    offset, result = A.offset[:, blocks], A.result[:, blocks]
    bad_pairs = 0
    for blk in _row_blocks(n, 8 * nk * nb):
        at = np.arange(blk.stop - blk.start)
        j1, k1, own = dl[blk].T, dr[blk].T, offset[blk]
        k1 = k1[:, :, None] * nr + t[j1]           # [dr[i, a], t] at [a, i, s]
        lands = np.take(A.pair.compact.cayley,
                        offset[j1] * nk + np.take(A.offset, k1))
        on = lands == own
        left = np.where(on, result[j1], n).reshape(nk, -1)
        ok = _is_coproduct(A, dr, left, np.take(A.result, k1).reshape(nk, -1),
                           result[blk].ravel()).reshape(-1, nb)
        bad = np.zeros((len(at), nb, nk), dtype=bool)       # [i, s, offset]
        _, i, s = np.nonzero(~on)
        bad[i, s, lands[~on]] = True
        bad[at[:, None], np.arange(nb), own] = ~ok
        bad_pairs += int(bad.sum())
    return bad_pairs


def check_axioms(A):
    """Certify every structural identity of the built algebra.

    All underlying structure constants are 0/1, so each check is exact
    integer arithmetic on index arrays; deviations count violating
    instances, and a zero product counts as one more (absorbing) index.
    The report never raises.
    """
    checks = []
    n, nk, nr = A.dim, A.nk, A.nr
    rows = np.arange(n)
    partner = A.partner
    dl, dr, blocks = A.delta_left, A.delta_right, A.delta_block
    R, K = A.pair.discrete, A.pair.compact
    S = A.antipode_index
    ST = A.star_index
    eps = A.counit_vec
    unit = np.flatnonzero(A.unit_vec.real > 0.5)

    associative = _light_associative(A)
    if associative:
        checks.append(AxiomCheck("product-associativity", 0.0))
    else:
        checks.append(AxiomCheck("product-associativity",
                                 _associativity_count(A)))

    # unit element: largest coefficient error of 1 e_j and e_j 1.  In 1 e_j,
    # k units meeting j with one product give it coefficient k (a j that no
    # unit fixes leaves another error: the n pairs (u, s) are not n e_j)
    met, prod = partner[unit], A.result[unit]                # (nk, nr)
    shared = ((met[:, None] == met) & (prod[:, None] == prod)).sum(1)
    e_dev = max((shared - (prod == met)).max(),
                (A.result[:, R.identity] != rows).any())
    checks.append(AxiomCheck("unit-element", float(e_dev)))

    # star: involutive antihomomorphism, over all basis pairs; pairs with
    # ij != 0 are enumerated, the rest violate iff (j* i*) != 0
    dev = float((ST[ST] != rows).sum())
    checks.append(AxiomCheck("star-involution", dev))
    rev = A.mul_index(ST[partner], ST[:, None])
    stars_to = np.bincount(ST, minlength=n)
    bad = ((rev != ST[A.result]).sum() - (rev < n).sum()
           + (stars_to[:, None] * stars_to[partner]).sum())
    checks.append(AxiomCheck("star-antihomomorphism", float(bad)))

    # coassociativity: every leg offset is fixed, so term (a, b) of
    # (Delta x id) Delta(i) can only meet term (b, b^-1 a) of
    # (id x Delta) Delta(i), and their blocks must agree: the middle legs'
    # when every row of i's discrete block has the blocks of i, the right
    # legs' when blocks[i, b c] = blocks[dr[i, b], c]
    per_r = blocks.reshape(nr, nk, nk)
    bad = np.repeat((per_r != per_r[:, :1]).any((1, 2)), nk)
    flat = blocks.ravel()
    for blk in _row_blocks(n, nk * nk):
        bad[blk] |= (flat[rows[blk, None, None] * nk + K.cayley]
                     != blocks[dr[blk]]).any((1, 2))
    coassociative = not bad.any()
    checks.append(AxiomCheck("coassociativity", float(bad.sum())))

    # counit laws: the term a = e of each row is the row itself
    checks.append(AxiomCheck("counit-laws", float(
        (blocks[:, K.identity] != A.gamma_of).sum())))

    # counit multiplicative: row i meets one j per block, with eps(j) = 1
    # and eps(ij) = 1 when eps(i) = 1, and eps(ij) = 0 when eps(i) = 0
    one = eps[:, None] != 0
    bad = ((eps[A.result] != 0) != one) | (one & (A.offset != K.identity))
    checks.append(AxiomCheck("counit-multiplicative",
                             float(bad.any(1).sum())))

    # once the product associates, the j with Delta(ij) = Delta(i) Delta(j)
    # for every i are closed under products, so Light's generating set
    # certifies every j.  The count reads that property off the table only
    # when the coproduct is coassociative (see _coproduct_multiplicative),
    # so the generators serve when both laws hold; a pair they fail on, or
    # a law that fails, takes the full count
    gens = np.array(R.generators, dtype=np.int64)
    on_gens = (associative and coassociative
               and _coproduct_multiplicative(A, gens) == 0)
    bad = 0 if on_gens else _coproduct_multiplicative(A, np.arange(nr))
    checks.append(AxiomCheck("coproduct-multiplicative", float(bad)))

    # coproduct commutes with star
    bad = ~_is_coproduct(A, dr, ST[dl.T], ST[dr.T], ST)
    checks.append(AxiomCheck("coproduct-star-compatible", float(bad.sum())))

    # antipode laws: convolution inverse of the identity; with eps(i) = 1
    # the nk products are the units u_e d_h, each once, else all 0
    bad = np.zeros(n, dtype=bool)
    for prod in (A.mul_index(S[dl.T], dr.T), A.mul_index(dl.T, S[dr.T])):
        h = np.where((prod >= unit[0]) & (prod <= unit[-1]), prod - unit[0], nk)
        seen = np.zeros((nk + 1, n), dtype=bool)
        seen[h, rows] = True
        bad |= np.where(eps != 0, ~seen[:nk].all(0), (prod < n).any(0))
    checks.append(AxiomCheck("antipode-laws", float(bad.sum())))

    # antipode squared is the identity; star-compatibility
    checks.append(AxiomCheck("antipode-involutive",
                             float((S[S] != rows).sum())))
    checks.append(AxiomCheck("antipode-star-commute",
                             float((ST[S] != S[ST]).sum())))

    # invariant state: two-sided invariance.  The state lives on the block
    # u_e, so a row in it must keep every right leg there, any other row
    # none
    bad = (blocks == R.identity) != (A.gamma_of == R.identity)[:, None]
    checks.append(AxiomCheck("haar-invariance", float(bad.any(1).sum())))

    # invariant state is tracial over all basis pairs: pairs with h(ij) != 0
    # are enumerated, the rest violate iff h(ji) != 0
    hk = np.append(A.haar_k, 0)
    h_ij = hk[A.result]
    h_ji = hk[A.mul_index(partner, rows[:, None])]
    seen = h_ij != 0
    bad = ((seen & (h_ij != h_ji)).sum() + seen.sum()
           - (seen & (h_ji != 0)).sum())
    checks.append(AxiomCheck("haar-trace", float(bad)))

    # ... and positive definite: the basis Gram matrix h(e_i* e_j) is 1/|K|
    # times the identity; only the nonzero products are enumerated
    diag = partner[ST] == rows[:, None]
    dev = max(np.abs(hk[A.result[ST]] - diag).max(initial=0),
              not diag.any(1).all())
    checks.append(AxiomCheck("haar-positivity", int(dev) / nk))

    # ... and unital, counted exactly: |K| h(1) is an integer sum
    checks.append(AxiomCheck("haar-unital",
                             abs(int(A.haar_k[unit].sum()) - nk) / nk))
    return AxiomReport(checks=checks, tol=TOL_AXIOM)


# ---------------------------------------------------------------------------
# morphisms and quotient spaces


@dataclass
class Morphism:
    """Basis map: source basis i goes to target basis image[i], or to 0."""

    source: KacAlgebra
    target: KacAlgebra
    image: np.ndarray        # (source.dim,) ints; target.dim stands for 0


def validate_morphism(rho):
    """Certify unital *-homomorphism property plus coproduct intertwining,
    each law an exact comparison of basis indices (B.dim is the zero)."""
    A, B = rho.source, rho.target
    f = np.asarray(rho.image)
    if (f.shape != (A.dim,) or f.dtype.kind not in "iu"
            or not ((0 <= f) & (f <= B.dim)).all()):
        raise NotAMorphism(
            f"image of shape {f.shape} is not {A.dim} indices in 0..{B.dim}")
    hits = f[A.unit_vec.real > 0.5]
    if not np.array_equal(np.sort(hits[hits < B.dim]),
                          np.flatnonzero(B.unit_vec.real > 0.5)):
        raise NotAMorphism("unit is not preserved")
    if (np.append(B.counit_vec, 0)[f] != A.counit_vec).any():
        raise NotAMorphism("counit is not preserved")
    bad = f[A.star_index] != np.append(B.star_index, B.dim)[f]
    if bad.any():
        raise NotAMorphism(
            f"star fails at basis {A.basis_label(np.argmax(bad))}")
    # f(ij) against f(i) f(j); f0[A.dim] is the zero
    f0, cols = np.append(f, B.dim), np.arange(A.dim)
    for blk in _row_blocks(A.dim, A.dim):
        bad = (f0[A.mul_index(cols[blk, None], cols)]
               != B.mul_index(f[blk, None], f))
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise NotAMorphism(
                f"multiplicativity fails at ({A.basis_label(blk.start + i)}, "
                f"{A.basis_label(j)})")
    bad = ~_is_coproduct(B, B.delta_right, f[A.delta_left.T],
                         f[A.delta_right.T], f)
    if bad.any():
        raise NotAMorphism(
            f"coproduct fails at basis {A.basis_label(np.argmax(bad))}")
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
    g0 = back[A.g_of]
    rho = Morphism(A, A0, np.where(g0 >= 0, A.gamma_of * A0.nk + g0, A0.dim))
    validate_morphism(rho)
    return rho


def coset_space_dimension(A, rho):
    """Dimension of {a : (id x rho) of the coproduct of a equals a x unit}.

    Column u_r d_g of this system, (id x rho) Delta(e_i) - e_i x 1, has
    rows only at (u_r d_a, q), so it is one real (|K| m, |K|) block per r,
    m = target.dim, of |K|^2 m cells.  The blocks share one SVD cutoff."""
    validate_morphism(rho)
    nk, m, ks = A.nk, rho.target.dim, np.arange(A.nk)
    unit = np.flatnonzero(rho.target.unit_vec.real > 0.5)
    dr = A.delta_right
    svals = []
    for blk in _row_blocks(A.nr, nk * nk * (m + 1)):
        i = np.arange(blk.start * nk, blk.stop * nk).reshape(-1, nk)  # (r, g)
        # T[r, a, q, g]; row q = m takes the terms that rho sends to 0
        T = np.zeros((len(i), nk, m + 1, nk))
        T[np.arange(len(i))[:, None, None], ks, rho.image[dr[i]],
          ks[:, None]] = 1.0
        T[:, ks[:, None], unit, ks[:, None]] -= 1.0
        svals.append(np.linalg.svd(T[:, :, :m].reshape(len(i), -1, nk),
                                   compute_uv=False).ravel())
    svals = np.concatenate(svals)
    return int(np.sum(svals <= TOL_AXIOM * max(svals.max(), 1.0)))


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
    h_of = A.offset[:, e]
    prod = A.mul_index(A.result[:, e, None],
                       A.star_index.reshape(nr, nk)[A.gamma_of])    # (n, nk)
    target = e * nk + A.pair.alpha[A.gamma_of, h_of]
    rh = A.gamma_of * nk + h_of
    live = np.bincount(rh, (prod < n).sum(1), minlength=n)
    hits = np.bincount(rh, (prod == target[:, None]).sum(1), minlength=n)
    bad = ((live != 1) | (hits == 0)).sum()
    checks.append(AxiomCheck("covariance-relation", float(bad)))

    # coproduct of a compact indicator stays inside the compact copy:
    # Delta(d_g) = sum_a d_a x d_{a^-1 g}, every right leg in the block e
    bad = (A.delta_block[d] != e).any(1).sum()
    checks.append(AxiomCheck("compact-coproduct-form", float(bad)))

    # coproduct of a discrete unitary: sum_a (u_r d_a) x u_{beta_a(r)}
    bad = (A.delta_block.reshape(nr, nk, nk)
           != A.pair.beta.T[:, None, :]).any((1, 2)).sum()
    checks.append(AxiomCheck("discrete-coproduct-form", float(bad)))

    return AxiomReport(checks=checks, tol=TOL_AXIOM)
