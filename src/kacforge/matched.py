"""Matched pairs of finite groups: exact factorizations and their actions.

A matched pair couples a "discrete" group (call it R here) and a "compact"
group (call it K) through two action tables
    act_on_compact[r, k]   (left action of R on the set of K)
    act_on_discrete[k, r]  (right action of K on the set of R)
subject to the twisted compatibility laws validated on construction.  Exact
factorizations of an ambient group give one canonical example; recipes that
twist one side by a crossed homomorphism give more.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NotCrossedHom, NotMatched, ValidationError
from .groups import FiniteGroup, group_from_cayley

# index convention throughout: r, s, t name discrete elements; g, h, k compact


class MatchedPair:
    """Two groups plus mutually twisted action tables, fully validated."""

    def __init__(self, discrete, compact, alpha, beta, name=None, validate=True):
        self.discrete = discrete
        self.compact = compact
        self.alpha = np.ascontiguousarray(alpha, dtype=np.int32)
        self.beta = np.ascontiguousarray(beta, dtype=np.int32)
        self.name = name or f"pair({discrete.order}x{compact.order})"
        nr, nk = discrete.order, compact.order
        if self.alpha.shape != (nr, nk):
            raise ValidationError("alpha-shape",
                                  f"{self.alpha.shape} != ({nr},{nk})")
        if self.beta.shape != (nk, nr):
            raise ValidationError("beta-shape",
                                  f"{self.beta.shape} != ({nk},{nr})")
        self.alpha.flags.writeable = False
        self.beta.flags.writeable = False
        if validate:
            self.validate()

    # -- structural checks --------------------------------------------------

    def validate(self):
        R, K = self.discrete, self.compact
        A, B = self.alpha, self.beta
        CR, CK = R.cayley, K.cayley
        nr, nk = R.order, K.order

        for r in range(nr):
            if len(np.unique(A[r])) != nk:
                raise ValidationError("alpha-bijection", f"row r={r}")
        for g in range(nk):
            if len(np.unique(B[g])) != nr:
                raise ValidationError("beta-bijection", f"row g={g}")
        if not np.array_equal(A[R.identity], np.arange(nk)):
            raise ValidationError("alpha-identity", "identity of R must act trivially")
        if not np.array_equal(B[K.identity], np.arange(nr)):
            raise ValidationError("beta-identity", "identity of K must act trivially")
        if not np.array_equal(A[:, K.identity], np.full(nr, K.identity)):
            raise ValidationError("alpha-unit", "actions must fix the unit of K")
        if not np.array_equal(B[:, R.identity], np.full(nk, R.identity)):
            raise ValidationError("beta-unit", "actions must fix the unit of R")
        for r in range(nr):
            if not np.array_equal(A[CR[r]], A[r][A]):
                s = next(ss for ss in range(nr)
                         if not np.array_equal(A[CR[r, ss]], A[r][A[ss]]))
                raise ValidationError("alpha-action", f"(r,s)=({r},{s})")
        for g in range(nk):
            lhs = B[CK[g]]                      # [h, r] -> beta_{gh}(r)
            rhs = B[np.arange(nk)[:, None], B[g][None, :]]
            if not np.array_equal(lhs, rhs):
                h = next(hh for hh in range(nk)
                         if not np.array_equal(lhs[hh], rhs[hh]))
                raise ValidationError("beta-action", f"(g,h)=({g},{h})")
        for r in range(nr):
            lhs = A[r][CK]                      # [g, h] -> alpha_r(gh)
            rhs = CK[A[r][:, None], A[B[:, r], :]]
            if not np.array_equal(lhs, rhs):
                g, h = np.argwhere(lhs != rhs)[0]
                raise ValidationError("product-compat-compact",
                                      f"(r,g,h)=({r},{g},{h})")
        for g in range(nk):
            lhs = B[g][CR]                      # [r, s] -> beta_g(rs)
            rhs = CR[B[A[:, g]].T, B[g][None, :]]
            if not np.array_equal(lhs, rhs):
                r, s = np.argwhere(lhs != rhs)[0]
                raise ValidationError("product-compat-discrete",
                                      f"(g,r,s)=({g},{r},{s})")
        return True

    # -- conveniences -------------------------------------------------------

    @property
    def alpha_trivial(self):
        return np.array_equal(self.alpha,
                              np.tile(np.arange(self.compact.order),
                                      (self.discrete.order, 1)))

    @property
    def beta_trivial(self):
        return np.array_equal(self.beta,
                              np.tile(np.arange(self.discrete.order),
                                      (self.compact.order, 1)))

    def act_compact(self, r, g):
        """alpha_r(g)."""
        return int(self.alpha[r, g])

    def stabilizer_in_compact(self, r):
        """{g : beta_g(r) = r}."""
        return np.flatnonzero(self.beta[:, r] == r).tolist()

    def __repr__(self):
        return (f"MatchedPair({self.name!r}, discrete={self.discrete.order}, "
                f"compact={self.compact.order})")


# ---------------------------------------------------------------------------
# exact factorizations


def derive_actions(H, discrete_elements, compact_elements, name=None):
    """Actions from an exact factorization H = K R with K ∩ R = {e}.

    ``discrete_elements`` and ``compact_elements`` are subgroup element lists
    inside H.  For r in R and g in K the product r g factors uniquely as
    g' r'; the tables record g' and r'.  Raises NotMatched when the counting
    or uniqueness fails.
    """
    R, Rset = H.subgroup(discrete_elements)
    K, Kset = H.subgroup(compact_elements)
    nr = len(Rset)
    if nr * len(Kset) != H.order:
        raise NotMatched(f"|R| |K| = {nr * len(Kset)} != |H| = {H.order}")
    inter = np.intersect1d(Rset, Kset).tolist()
    if inter != [H.identity]:
        raise NotMatched(f"subgroups intersect in {inter}")
    gr = H.cayley[np.ix_(Kset, Rset)].ravel()    # g r at gi * nr + ri
    _, first = np.unique(gr, return_index=True)
    if len(first) < len(gr):
        again = np.ones(len(gr), dtype=bool)
        again[first] = False
        raise NotMatched(f"element {gr[again.argmax()]} factors twice as K*R")
    if len(first) != H.order:
        raise NotMatched("K*R does not exhaust the ambient group")
    factor = np.empty(H.order, dtype=np.int32)
    factor[gr] = np.arange(len(gr))
    # r g = g' r' with g' = alpha_r(g), r' = beta_g(r)
    alpha, beta = np.divmod(factor[H.cayley[np.ix_(Rset, Kset)]], nr)
    return MatchedPair(R, K, alpha, beta.T, name=name)


# ---------------------------------------------------------------------------
# direct constructions


def matched_pair_from_compact_action(R, K, alpha, name=None):
    """Pair with trivial discrete-side action; alpha must be by automorphisms."""
    nr, nk = R.order, K.order
    beta = np.tile(np.arange(nr, dtype=np.int32), (nk, 1))
    return MatchedPair(R, K, alpha, beta, name=name)


def matched_pair_from_discrete_action(R, K, beta, name=None):
    """Pair with trivial compact-side action; beta must be by automorphisms."""
    nr, nk = R.order, K.order
    alpha = np.tile(np.arange(nk, dtype=np.int32), (nr, 1))
    return MatchedPair(R, K, alpha, beta, name=name)


def trivial_pair(K, name=None):
    """Discrete side trivial: plain function algebra of K downstream."""
    R = group_from_cayley([[0]], labels=["e"])
    return matched_pair_from_compact_action(
        R, K, np.arange(K.order, dtype=np.int32)[None, :],
        name=name or f"plain({K.order})")


def beta_kernel_elements(mp):
    """Compact elements acting trivially on the discrete side (a subgroup)."""
    return np.flatnonzero(
        (mp.beta == np.arange(mp.discrete.order)).all(1)).tolist()


def compact_subpair(mp, subset_elements, name=None):
    """Restrict the pair to a compact subgroup that the discrete action
    preserves.  Returns the restricted pair and the embedding index list."""
    sub, embed = mp.compact.subgroup(subset_elements)
    embed = list(embed)
    back = np.full(mp.compact.order, -1)
    back[embed] = np.arange(sub.order)
    alpha0 = back[mp.alpha[:, embed]]
    if (alpha0 < 0).any():
        r, i = np.argwhere(alpha0 < 0)[0]
        raise NotMatched(
            f"discrete action does not preserve the subgroup: "
            f"alpha[{r}] moves element {embed[i]} outside")
    restricted = MatchedPair(mp.discrete, sub, alpha0, mp.beta[embed],
                             name=name or f"{mp.name}|sub{sub.order}")
    return restricted, embed


# ---------------------------------------------------------------------------
# orbits and fixed subgroups


@dataclass
class OrbitSpace:
    pair: MatchedPair
    orbits: list          # sorted element lists, ordered by min element
    orbit_of: np.ndarray  # discrete index -> orbit index


def orbits_fixed_sets(mp):
    """Orbits of the compact action on the discrete side, plus both fixed
    subgroups (as (FiniteGroup, parent element list)).

    beta is a right action, so column r of beta is the whole orbit of r and
    its minimum names the orbit; orbits are ordered by that minimum."""
    A, B = mp.alpha, mp.beta
    _, orbit_of = np.unique(B.min(0), return_inverse=True)
    orbits = [np.flatnonzero(orbit_of == oi).tolist()
              for oi in range(orbit_of.max() + 1)]
    space = OrbitSpace(pair=mp, orbits=orbits,
                       orbit_of=orbit_of.astype(np.int32))
    fixed_r = np.flatnonzero((B == np.arange(B.shape[1])).all(0))
    fixed_k = np.flatnonzero((A == np.arange(A.shape[1])).all(0))
    return space, mp.discrete.subgroup(fixed_r), mp.compact.subgroup(fixed_k)


def burnside_orbit_counts(mp, space):
    """Average number of fixed points per orbit; exactly 1 for every orbit."""
    fixed = (mp.beta == np.arange(mp.discrete.order)).sum(0)
    return [Fraction(int(fixed[orb].sum()), mp.compact.order)
            for orb in space.orbits]


# ---------------------------------------------------------------------------
# indicator matrices


@dataclass
class MagicUnitary:
    pair: MatchedPair
    orbit: tuple
    fiber: np.ndarray     # (nk, |orbit|): fiber[g, i] = beta_g(orbit[i])


def magic_unitary(mp, orbit):
    """Partition-of-unity matrix over one orbit: entry (r, s) collects the
    compact elements moving r to s, {g : fiber[g, r] = s}."""
    orbit = tuple(int(v) for v in orbit)
    return MagicUnitary(pair=mp, orbit=orbit, fiber=mp.beta[:, list(orbit)])


def _last(bad, orbit, n_points):
    """(ok, witness) of a violation mask: the witness is the last violation
    in C order, its first ``n_points`` indices read as orbit points."""
    if not bad.any():
        return True, None
    idx = np.argwhere(bad)[-1].tolist()
    wit = [orbit[v] for v in idx[:n_points]] + idx[n_points:]
    return False, wit[0] if len(wit) == 1 else tuple(wit)


def magic_relations_report(mu):
    """Exact check of the five structural relations of an indicator matrix.

    Returns a list of (relation-name, ok, witness) triples; every check is
    integer array work on the fiber map, no floats involved.  Each witness
    is the last violation in loop order, the loops running over its entries
    left to right, except that column-orthogonality's (r1, r2, s) runs over
    s first.
    """
    mp, orbit, fiber = mu.pair, mu.orbit, mu.fiber
    o = np.array(orbit)
    # member[g, i, j]: g lies in entry (orbit[i], orbit[j])
    member = (fiber[:, :, None] == o).astype(np.int64)
    ascending = o[:, None] < o
    out = []

    # entries (r, s1), (r, s2) with s1 < s2 share an element
    shared = np.einsum("gij,gik->ijk", member, member) > 0
    out.append(("row-orthogonality", *_last(shared & ascending, orbit, 3)))
    # entries (r1, s), (r2, s) with r1 < r2 share an element; mask [s, r1, r2]
    shared = np.einsum("gis,gjs->sij", member, member) > 0
    ok, wit = _last(shared & ascending, orbit, 3)
    out.append(("column-orthogonality", ok, wit and wit[1:] + wit[:1]))
    # every row and every column of entries covers the whole compact group
    out.append(("row-partition", *_last(~member.any(2).all(0), orbit, 1)))
    out.append(("column-partition", *_last(~member.any(1).all(0), orbit, 1)))

    # coproduct compatibility inside the orbit: membership of a product ab
    # in entry (s, r) splits along the intermediate point t = beta_a(s);
    # both sides indexed [s, r, a, b]
    target = o[None, :, None, None]
    ab = mp.beta[mp.compact.cayley[..., None], o].transpose(2, 0, 1)
    lhs = ab[:, None] == target
    t_in = np.isin(fiber, o).T[:, None, :, None]
    then_b = mp.beta[:, fiber].transpose(2, 1, 0)        # beta_b(beta_a(s))
    rhs = t_in & (then_b[:, None] == target)
    out.append(("coproduct-splitting", *_last(lhs != rhs, orbit, 2)))
    return out


def b_sets(mp):
    """Boolean (r, s, g) mask of the B-sets: g with alpha_s(g) stabilizing
    r and g stabilizing s.  These index the character sums in the closed
    fusion formula."""
    B, nr = mp.beta, mp.discrete.order
    r = np.arange(nr)
    return ((B[mp.alpha] == r).transpose(2, 0, 1)
            & (B == r).T[None])


# ---------------------------------------------------------------------------
# crossed-homomorphism deformations


def _check_chi_compact_to_discrete(mp0, chi):
    """chi : K -> R with chi(gh) = chi(g) chi(alpha_{chi(g)^-1}(h))."""
    R, K, A = mp0.discrete, mp0.compact, mp0.alpha
    chi = np.ascontiguousarray(chi, dtype=np.int32)
    if chi.shape != (K.order,):
        raise NotCrossedHom(f"chi has shape {chi.shape}, expected ({K.order},)")
    if chi[K.identity] != R.identity:
        raise NotCrossedHom("chi must send the unit to the unit")
    # [g, h]: chi(gh) against chi(g) chi(alpha_{chi(g)^-1}(h))
    bad = chi[K.cayley] != R.cayley[chi[:, None], chi[A[R.inverse[chi]]]]
    if bad.any():
        g, h = np.argwhere(bad)[0]
        raise NotCrossedHom(f"twisted multiplicativity fails at (g,h)=({g},{h})")
    return chi


def deform_by_chi_G(mp0, chi, name=None):
    """Twist the compact group law by a crossed homomorphism into the
    discrete side.  Requires the base pair to have trivial discrete-side
    action.  Element indices are reused; only tables change."""
    if not mp0.beta_trivial:
        raise NotCrossedHom("base pair must have trivial discrete-side action")
    R, K, A = mp0.discrete, mp0.compact, mp0.alpha
    chi = _check_chi_compact_to_discrete(mp0, chi)
    nk = K.order
    g_idx = np.arange(nk, dtype=np.int32)
    # g*h = g alpha_{chi(g)}(h)
    twisted = K.cayley[g_idx[:, None], A[chi[g_idx][:, None], g_idx[None, :]]]
    K_new = group_from_cayley(twisted, labels=K.labels)
    # beta'_g(r) = chi(alpha_r(g))^-1 r chi(g)
    beta_new = R.cayley[R.cayley[R.inverse[chi[A.T]], np.arange(R.order)],
                        chi[:, None]]
    return MatchedPair(R, K_new, A, beta_new,
                       name=name or f"{mp0.name}-twist-compact")


def _check_chi_discrete_to_compact(mp0, chi):
    """chi : R -> K with chi(rs) = chi(beta_{chi(s)^-1}(r)) chi(s)."""
    R, K, B = mp0.discrete, mp0.compact, mp0.beta
    chi = np.ascontiguousarray(chi, dtype=np.int32)
    if chi.shape != (R.order,):
        raise NotCrossedHom(f"chi has shape {chi.shape}, expected ({R.order},)")
    if chi[R.identity] != K.identity:
        raise NotCrossedHom("chi must send the unit to the unit")
    # [r, s]: chi(rs) against chi(beta_{chi(s)^-1}(r)) chi(s)
    bad = chi[R.cayley] != K.cayley[chi[B[K.inverse[chi]].T], chi]
    if bad.any():
        r, s = np.argwhere(bad)[0]
        raise NotCrossedHom(f"twisted multiplicativity fails at (r,s)=({r},{s})")
    return chi


def deform_by_chi_Gamma(mp0, chi, name=None):
    """Twist the discrete group law by a crossed homomorphism into the
    compact side.  Requires the base pair to have trivial compact-side
    action.  Element indices are reused; only tables change."""
    if not mp0.alpha_trivial:
        raise NotCrossedHom("base pair must have trivial compact-side action")
    R, K, B = mp0.discrete, mp0.compact, mp0.beta
    chi = _check_chi_discrete_to_compact(mp0, chi)
    nr = R.order
    r_idx = np.arange(nr, dtype=np.int32)
    # r*s = beta_{chi(s)}(r) s
    twisted = R.cayley[B[chi[r_idx][None, :], r_idx[:, None]], r_idx[None, :]]
    R_new = group_from_cayley(twisted, labels=R.labels)
    # alpha'_r(g) = chi(r) g chi(beta_g(r))^-1
    alpha_new = K.cayley[K.cayley[chi[:, None], np.arange(K.order)],
                         K.inverse[chi[B.T]]]
    return MatchedPair(R_new, K, alpha_new, B,
                       name=name or f"{mp0.name}-twist-discrete")
