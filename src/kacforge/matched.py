"""Matched pairs of finite groups: exact factorizations and their actions.

A matched pair couples a "discrete" group (call it R here) and a "compact"
group (call it K) through two action tables
    act_on_compact[r, k]   (left action of R on the set of K)
    act_on_discrete[k, r]  (right action of K on the set of R)
subject to the twisted compatibility laws validated on construction, each
law over whole tables in row blocks.  Exact factorizations of an ambient
group give one canonical example; recipes that twist one side by a crossed
homomorphism give more.  ``orbit_space`` gives the K-orbits on R alone;
``orbits_fixed_sets`` adds both fixed subgroups, for the invariant groups.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotCrossedHom, NotMatched, ValidationError
from .groups import _row_blocks, group_from_cayley

# index convention throughout: r, s, t name discrete elements; g, h, k compact


class MatchedPair:
    """Two groups plus mutually twisted action tables, fully validated."""

    def __init__(self, discrete, compact, alpha, beta, name=None):
        self.discrete = discrete
        self.compact = compact
        for what, table in (("alpha", alpha), ("beta", beta)):
            # checked before the cast, which would wrap entries of 2^31 or more
            table = np.asarray(table)
            if table.size and (table.min() < -2 ** 31
                               or table.max() >= 2 ** 31):
                raise ValidationError(f"{what}-range",
                                      "entries outside the int32 range")
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
        self.validate()

    # -- structural checks --------------------------------------------------

    def validate(self):
        R, K = self.discrete, self.compact
        A, B = self.alpha, self.beta
        CR, CK = R.cayley, K.cayley
        nr, nk = R.order, K.order

        bad = np.flatnonzero((np.sort(A, 1) != np.arange(nk)).any(1))
        if len(bad):
            raise ValidationError("alpha-bijection", f"row r={bad[0]}")
        bad = np.flatnonzero((np.sort(B, 1) != np.arange(nr)).any(1))
        if len(bad):
            raise ValidationError("beta-bijection", f"row g={bad[0]}")
        if not np.array_equal(A[R.identity], np.arange(nk)):
            raise ValidationError("alpha-identity", "identity of R must act trivially")
        if not np.array_equal(B[K.identity], np.arange(nr)):
            raise ValidationError("beta-identity", "identity of K must act trivially")
        if not np.array_equal(A[:, K.identity], np.full(nr, K.identity)):
            raise ValidationError("alpha-unit", "actions must fix the unit of K")
        if not np.array_equal(B[:, R.identity], np.full(nk, R.identity)):
            raise ValidationError("beta-unit", "actions must fix the unit of R")
        laws = (
            # alpha_{rs} = alpha_r alpha_s
            ("alpha-action", "r,s", nr, nr * nk,
             lambda b: (A[CR[b]] != A[b][:, A]).any(2)),
            # beta_{gh} = beta_h beta_g
            ("beta-action", "g,h", nk, nk * nr,
             lambda b: (B[CK[b]] != B[np.arange(nk)[:, None],
                                      B[b][:, None]]).any(2)),
            # alpha_r(gh) = alpha_r(g) alpha_{beta_g(r)}(h)
            ("product-compat-compact", "r,g,h", nr, nk * nk,
             lambda b: A[b][:, CK] != CK[A[b][:, :, None], A[B[:, b].T]]),
            # beta_g(rs) = beta_{alpha_s(g)}(r) beta_g(s)
            ("product-compat-discrete", "g,r,s", nk, nr * nr,
             lambda b: B[b][:, CR] != CR[B[A[:, b].T].transpose(0, 2, 1),
                                          B[b][:, None]]),
        )
        for law, names, n, per_row, bad_in in laws:
            for blk in _row_blocks(n, per_row):
                bad = bad_in(blk)
                if bad.any():
                    at = np.argwhere(bad)[0]
                    at[0] += blk.start
                    raise ValidationError(
                        law, f"({names})=({','.join(map(str, at))})")

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
    or the intersection fails.
    """
    R, Rset = H.subgroup(discrete_elements)
    K, Kset = H.subgroup(compact_elements)
    nr = len(Rset)
    if nr * len(Kset) != H.order:
        raise NotMatched(f"|R| |K| = {nr * len(Kset)} != |H| = {H.order}")
    inter = np.intersect1d(Rset, Kset).tolist()
    if inter != [H.identity]:
        raise NotMatched(f"subgroups intersect in {inter}")
    # so (g, r) -> g r is a bijection onto H: g r = g' r' puts g'^-1 g =
    # r' r^-1 in K ∩ R = {e}
    gr = H.cayley[np.ix_(Kset, Rset)].ravel()    # g r at gi * nr + ri
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


def beta_kernel_elements(mp):
    """Compact elements acting trivially on the discrete side (a subgroup)."""
    return np.flatnonzero(
        (mp.beta == np.arange(mp.discrete.order)).all(1)).tolist()


def compact_subpair(mp, subset_elements):
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
                             name=f"{mp.name}|sub{sub.order}")
    return restricted, embed


# ---------------------------------------------------------------------------
# orbits and fixed subgroups


@dataclass
class OrbitSpace:
    orbits: list          # sorted element lists, ordered by min element
    orbit_of: np.ndarray  # discrete index -> orbit index


def orbit_space(mp):
    """Orbits of the compact action on the discrete side.

    beta is a right action, so column r of beta is the whole orbit of r and
    its minimum names the orbit; orbits are ordered by that minimum."""
    _, orbit_of = np.unique(mp.beta.min(0), return_inverse=True)
    orbits = [np.flatnonzero(orbit_of == oi).tolist()
              for oi in range(orbit_of.max() + 1)]
    return OrbitSpace(orbits=orbits, orbit_of=orbit_of.astype(np.int32))


def orbits_fixed_sets(mp):
    """The orbit space plus both fixed subgroups (as (FiniteGroup, parent
    element list)), the points that the other side's action fixes."""
    A, B = mp.alpha, mp.beta
    fixed_r = np.flatnonzero((B == np.arange(B.shape[1])).all(0))
    fixed_k = np.flatnonzero((A == np.arange(A.shape[1])).all(0))
    return (orbit_space(mp), mp.discrete.subgroup(fixed_r),
            mp.compact.subgroup(fixed_k))


# ---------------------------------------------------------------------------
# indicator matrices


def _last(bad, orbit, n_points):
    """(ok, witness) of a violation mask: the witness is the last violation
    in C order, its first ``n_points`` indices read as orbit points."""
    if not bad.any():
        return True, None
    idx = np.argwhere(bad)[-1].tolist()
    wit = [orbit[v] for v in idx[:n_points]] + idx[n_points:]
    return False, wit[0] if len(wit) == 1 else tuple(wit)


def magic_relations_report(mp, orbit):
    """Exact check of the five structural relations of the partition-of-unity
    matrix over one orbit, whose entry (r, s) collects the compact elements
    moving r to s, {g : beta_g(r) = s}.

    Returns a list of (relation-name, ok, witness) triples; every check is
    integer array work on the fiber map fiber[g, i] = beta_g(orbit[i]), no
    floats involved.  Each witness is the last violation in loop order, the
    loops running over its entries left to right, except that
    column-orthogonality's (r1, r2, s) runs over s first.
    """
    orbit = [int(v) for v in orbit]
    o = np.array(orbit)
    fiber = mp.beta[:, o]
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


def _chi_table(chi, size, values):
    """chi as an int32 table of ``size`` indices into range(values)."""
    chi = np.asarray(chi)
    if chi.shape != (size,):
        raise NotCrossedHom(f"chi has shape {chi.shape}, expected ({size},)")
    if ((chi < 0) | (chi >= values)).any():
        raise NotCrossedHom(f"chi takes values outside 0..{values - 1}")
    return chi.astype(np.int32)


def _check_chi_compact_to_discrete(mp0, chi):
    """chi : K -> R with chi(gh) = chi(g) chi(alpha_{chi(g)^-1}(h))."""
    R, K, A = mp0.discrete, mp0.compact, mp0.alpha
    chi = _chi_table(chi, K.order, R.order)
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
    chi = _chi_table(chi, R.order, K.order)
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
