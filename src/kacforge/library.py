"""Named small groups and the standard worked instances used across tests,
scripts, and the CLI."""

import numpy as np

from .groups import (direct_product, group_from_cayley,
                     group_from_matrices_mod, group_from_permutations)
from .matched import (deform_by_chi_G, deform_by_chi_Gamma, derive_actions,
                      matched_pair_from_compact_action,
                      matched_pair_from_discrete_action)


def cyclic_group(n):
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return group_from_cayley(table, labels=[f"c{i}" if i else "e" for i in range(n)])


def symmetric_group(n):
    if n == 1:
        return group_from_permutations([], degree=1)
    gens = [tuple([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return group_from_permutations(gens, degree=n)


def stabilizer_and_cycle(n):
    """S_n with two subgroups that factor it exactly: the stabilizer of the
    last point and the cyclic group of the n-cycle (0 1 ... n-1), each as a
    list of elements of S_n."""
    S = symmetric_group(n)
    stab = [i for i, p in enumerate(S.permutations) if p[n - 1] == n - 1]
    cycle = S.permutations.index(tuple(range(1, n)) + (0,))
    return S, stab, S.closure([cycle])


def dihedral_group(n):
    """Symmetries of the n-gon, order 2n, as permutations of the vertices."""
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((-i) % n for i in range(n))
    return group_from_permutations([rot, ref], degree=n)


def quaternion_group():
    """Order-8 quaternion group, realized inside 2x2 matrices over Z/3."""
    i_mat = [[0, 2], [1, 0]]   # i^2 = -1
    j_mat = [[1, 1], [1, 2]]   # j^2 = -1, j i j^-1 = i^-1
    G = group_from_matrices_mod([i_mat, j_mat], modulus=3)
    assert G.order == 8
    return G


def special_linear_group(n, p):
    """SL_n over the field with p elements, generated by elementary matrices."""
    gens = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            m = np.eye(n, dtype=int)
            m[i, j] = 1
            gens.append(m.tolist())
    return group_from_matrices_mod(gens, modulus=p)


# ---------------------------------------------------------------------------
# standard matched pairs


def _elements_of_order(G, k):
    return np.flatnonzero(G.element_orders() == k).tolist()


def pair_s3_split():
    """S3 factored as <transposition> * <rotation>: compact side normal."""
    S3 = symmetric_group(3)
    r = S3.closure([_elements_of_order(S3, 2)[0]])
    k = S3.closure([_elements_of_order(S3, 3)[0]])
    return derive_actions(S3, r, k, name="s3-split")


def pair_s3_split_dual():
    """S3 factored the other way round: discrete side normal."""
    S3 = symmetric_group(3)
    r = S3.closure([_elements_of_order(S3, 3)[0]])
    k = S3.closure([_elements_of_order(S3, 2)[0]])
    return derive_actions(S3, r, k, name="s3-split-dual")


def pair_s4():
    """S4 = (point stabilizer of the last letter) * <4-cycle>; both actions
    genuinely nontrivial."""
    return derive_actions(*stabilizer_and_cycle(4), name="s4-cyclic4")


def pair_z6_abelian():
    """Z/6 split into its 2-part and 3-part: both actions trivial."""
    Z6 = cyclic_group(6)
    return derive_actions(Z6, Z6.closure([3]), Z6.closure([2]), name="z6-abelian")


def pair_sign_on_z7():
    """S3 acting on Z/7 through the parity sign (odd permutations negate)."""
    S3 = symmetric_group(3)
    Z7 = cyclic_group(7)
    sign = np.array([1 if _perm_parity(p) == 0 else -1 for p in S3.permutations])
    alpha = np.array([[(s * k) % 7 for k in range(7)] for s in sign],
                     dtype=np.int32)
    return matched_pair_from_compact_action(S3, Z7, alpha, name="sign-on-z7")


def _perm_parity(p):
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
              if p[i] > p[j])
    return inv % 2


def pair_conjugation(G, subgroup_elements, name=None):
    """Crossed-product pair: a subgroup acting on its ambient group by
    conjugation; discrete-side action trivial."""
    R, embed = G.subgroup(subgroup_elements)
    C = G.cayley
    alpha = C[C[embed], G.inverse[embed][:, None]]     # r g r^-1
    return matched_pair_from_compact_action(
        R, G, alpha, name=name or f"conj({R.order} on {G.order})")


def pair_conj_s3_rotations():
    """Rotation subgroup of S3 acting on S3 by conjugation."""
    S3 = symmetric_group(3)
    rot = S3.closure([_elements_of_order(S3, 3)[0]])
    return pair_conjugation(S3, rot, name="conj-s3-rot")


# ---------------------------------------------------------------------------
# deformation recipes


def subgroup_twist_recipe(base_pair, lambda_elements, name=None):
    """Enlarge the compact side by a chosen subgroup of the discrete side,
    then twist by the projection onto that subgroup.

    Input: a pair with trivial discrete-side action (so the compact action is
    by automorphisms) and a subgroup of the discrete group.  Output: the
    twisted pair; its compact group carries the product-then-twist law.
    """
    if not base_pair.beta_trivial:
        raise ValueError("recipe needs a trivial discrete-side action")
    R, K0 = base_pair.discrete, base_pair.compact
    Lam, embed = R.subgroup(lambda_elements)
    K = direct_product(Lam, K0)          # index = lam * |K0| + k
    nl, nk0 = Lam.order, K0.order
    lam_idx, k_idx = np.divmod(np.arange(nl * nk0), nk0)
    alpha = lam_idx * nk0 + base_pair.alpha[:, k_idx]
    mp0 = matched_pair_from_compact_action(
        R, K, alpha, name=(name or base_pair.name) + "-ext")
    chi = np.asarray(embed, dtype=np.int32)[lam_idx]
    return deform_by_chi_G(mp0, chi, name=name or base_pair.name + "-twist")


def pair_dihedral7_twist():
    """Twist of the parity action on Z/7 along a reflection subgroup; the
    twisted compact group is dihedral of order 14."""
    base = pair_sign_on_z7()
    S3 = base.discrete
    lam = S3.closure([_elements_of_order(S3, 2)[0]])
    return subgroup_twist_recipe(base, lam, name="dihedral7-twist")


def quotient_twist_recipe(core, compact, onto, name=None):
    """Double the discrete side by the compact group (conjugation on the new
    coordinate), then twist by the projection-composed-with-``onto`` map.

    ``onto`` maps core indices to compact indices and must be a
    homomorphism; the identity works when core == compact.
    """
    R = direct_product(core, compact)    # index = c * |K| + h
    nc, nk = core.order, compact.order
    c_idx, h_idx = np.divmod(np.arange(nc * nk), nk)
    C = compact.cayley
    beta = c_idx * nk + C[C[compact.inverse[:, None], h_idx],
                          np.arange(nk)[:, None]]          # g^-1 h g
    mp0 = matched_pair_from_discrete_action(
        R, compact, beta, name=(name or "quotient") + "-base")
    chi = np.asarray(onto, dtype=np.int32)[c_idx]
    return deform_by_chi_Gamma(mp0, chi, name=name or "quotient-twist")


def pair_double_s3_twist():
    """Core and compact both S3, twisted by the identity projection; the
    twisted discrete group has order 36 over a compact S3."""
    S3 = symmetric_group(3)
    return quotient_twist_recipe(S3, S3, list(range(6)),
                                 name="double-s3-twist")


# ---------------------------------------------------------------------------
# the shared instance corpus


def corpus_pairs():
    """All standard instances, largest last; every algebra dimension <= 256."""
    return [
        pair_z6_abelian(),
        pair_s3_split(),
        pair_s3_split_dual(),
        pair_conj_s3_rotations(),
        pair_s4(),
        pair_sign_on_z7(),
        pair_dihedral7_twist(),
        pair_double_s3_twist(),
    ]

