"""Exact probability measures on finite groups and their transforms.

Weights are nonnegative rationals summing to one; distances stay in
exact arithmetic.  The module also certifies the finite-scale
separation bound (any measure vanishing at the identity sits
at full variation distance from the point mass there; the mixed-mass
identity is derived over integer linear forms), computes block
transforms of measures with their per-block norm profile, and evaluates
Chebyshev-recursion states on the free orthogonal dimension ladder.
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

import numpy as np

from .config import DEFAULT_SEED, RING_CAP, SEPARATION_CAP
from .crossed import DualElement, unit_dual_element
from .errors import DomainError, SizeBound, ValidationError
from .groups import rng_from

# int64 entries per row block of the separation grid, which keeps its
# peak memory to a small multiple of this (2**18 raised exact-shadow RSS)
_GRID_BLOCK = 2 ** 14
# the separation grid's weight denominators, and the seeded draws beside it
_GRID_DENOMINATORS = (1, 2, 3, 4)
_SAMPLE_DRAWS = 25


def _fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    raise ValidationError("measure-weight", f"cannot read weight {x!r}")


@dataclass(frozen=True)
class FiniteMeasure:
    group: object
    weights: tuple             # Fractions, one per element index

    def __post_init__(self):
        w = tuple(_fraction(x) for x in self.weights)
        object.__setattr__(self, "weights", w)
        if len(w) != self.group.order:
            raise ValidationError("measure-size",
                                  f"{len(w)} weights for order "
                                  f"{self.group.order}")
        if any(x < 0 for x in w):
            raise ValidationError("measure-sign", "negative weight")
        if sum(w) != 1:
            raise ValidationError("measure-mass", f"total mass {sum(w)}")

    def support(self):
        return [g for g, x in enumerate(self.weights) if x != 0]


def uniform_measure(G):
    return FiniteMeasure(G, (Fraction(1, G.order),) * G.order)


def _random_counts(G, seed, zero_at=None, salt=()):
    """The seeded integer counts of an exact measure: an int64 row of
    G.order counts in 0..60, zero on ``zero_at``, with a positive sum (the
    measure is counts / sum)."""
    rng = rng_from(seed, 31, *salt)
    counts = rng.integers(0, 61, size=G.order)          # counts 0..60
    zero = set(zero_at or ())
    if zero.issuperset(range(G.order)):
        raise ValidationError("measure-support",
                              "zero_at covers every element")
    counts[list(zero)] = 0
    if counts.sum() == 0:
        counts[min(set(range(G.order)) - zero)] = 1
    return counts


# ---------------------------------------------------------------------------
# the finite-scale separation certificate


@dataclass
class SeparationReport:
    grid_points: int
    grid_min_distance: Fraction
    sample_min_distance: Fraction
    mixed_formula_checked: int
    mixed_formula_max_dev: Fraction
    symbolic_ok: bool
    #: the right-hand side of the mixed-mass identity every report checks
    symbolic_formula: ClassVar[str] = "2*(1 - mu(e))"

    @property
    def passed(self):
        return (self.grid_min_distance == 2 and
                self.sample_min_distance == 2 and
                self.mixed_formula_max_dev == 0 and self.symbolic_ok)

    def lines(self):
        s = "PASS" if self.passed else "FAIL"
        return [
            f"{s} separation: grid min {self.grid_min_distance} over "
            f"{self.grid_points} identity-free measures "
            f"(denominators {list(_GRID_DENOMINATORS)})",
            f"{s} seeded sample min {self.sample_min_distance} over "
            f"{_SAMPLE_DRAWS} draws",
            f"{s} mixed-mass formula {self.symbolic_formula}: max deviation "
            f"{self.mixed_formula_max_dev} over {self.mixed_formula_checked} "
            f"points, symbolic derivation "
            f"{'holds' if self.symbolic_ok else 'fails'}",
        ]


def _separation_grid(G, denominators):
    """Exhaustive grid of measures with weights in (1/D)Z as exact integer
    counts, in row blocks of about _GRID_BLOCK int64 entries: identity-free
    points, their least distance to delta_e, points checked against
    2*(1 - mu(e)) and the largest deviation from it.  A grid of more than
    SEPARATION_CAP points is refused before any point is built."""
    from itertools import chain, combinations_with_replacement, islice
    n, e = G.order, G.identity
    size = sum(math.comb(n + D - 1, D) for D in denominators)
    if size > SEPARATION_CAP:
        raise SizeBound(f"separation grid of order {n} has {size} points, "
                        f"over the grid cap {SEPARATION_CAP}")
    points, checked, mins, devs = 0, 0, [], [Fraction(0)]
    for D in denominators:
        # a composition of D into n parts is a D-multiset of the n slots
        multisets = combinations_with_replacement(range(n), D)
        rows = max(1, _GRID_BLOCK // max(n, D))
        while len(flat := np.fromiter(chain.from_iterable(
                islice(multisets, rows)), np.int64)):
            k = len(flat) // D
            c = np.bincount(flat + n * np.arange(k).repeat(D),
                            minlength=k * n).reshape(k, n)
            # each row counts a D-multiset, so it is >= 0 and sums to D;
            # D * tv is summed coordinate by coordinate (not the closed form)
            dist = np.abs(c - D * (np.arange(n) == e)).sum(axis=1)
            mixed = np.abs(dist - 2 * (D - c[:, e]))
            devs.append(Fraction(int(mixed.max()), D))
            free = dist[c[:, e] == 0]
            points, checked = points + len(free), checked + k
            mins += [Fraction(int(free.min()), D)] if len(free) else []
    return points, min(mins, default=None), checked, max(devs)


def _orthant_abs(form):
    """|form| on the nonnegative orthant, for a linear form given as its
    integer coefficients on (1, s_1, ..., s_m) with every s_i >= 0: the form
    itself when no coefficient is negative, its negation when none is
    positive, and None when its sign is not fixed there."""
    if min(form) >= 0:
        return form
    if max(form) <= 0:
        return [-c for c in form]
    return None


def _tv_identity_holds(mu, e, rhs):
    """Whether sum_x |mu(x) - delta_e(x)| equals the linear form ``rhs`` at
    every point of the nonnegative orthant, for masses ``mu`` given as linear
    forms; False, never assumed, when the sign of some term is not fixed."""
    total = [0] * len(rhs)
    for x, form in enumerate(mu):
        term = _orthant_abs([form[0] - (x == e), *form[1:]])
        if term is None:
            return False
        total = [t + c for t, c in zip(total, term)]
    return total == list(rhs)


def _sample_distances(G, samples, seed):
    """Exact distances to delta_e of the seeded identity-free measures of
    ``_random_counts`` (salt (13, t) for draw t), read from their integer
    counts c of total T as sum |c - T delta_e| / T, summed coordinate by
    coordinate as on the grid."""
    e = G.identity
    point_e = np.arange(G.order) == e
    out = []
    for t in range(samples):
        c = _random_counts(G, seed, zero_at=[e], salt=(13, t))
        total = int(c.sum())
        out.append(Fraction(int(np.abs(c - total * point_e).sum()), total))
    return out


def rel_T_obstruction(G, seed=DEFAULT_SEED):
    """Certify that identity-free measures sit at exact distance 2 from the
    identity point mass, and that mixed measures obey 2*(1 - mass at e).

    Three routes: an exhaustive rational grid (weights in (1/D)Z for each
    D of _GRID_DENOMINATORS), _SAMPLE_DRAWS seeded random measures, and
    a derivation over integer linear forms in nonnegative masses, which
    proves the mixed-mass identity for every measure.
    """
    n = G.order
    if n < 2:
        raise DomainError("separation is vacuous below group order 2")
    grid_points, grid_min, mixed_checked, mixed_dev = \
        _separation_grid(G, _GRID_DENOMINATORS)

    sample_min = min(_sample_distances(G, _SAMPLE_DRAWS, seed))

    # the generic measure, identity first, as linear forms in
    # (1, s_1, ..., s_{n-1}): mu(e) = 1 - sum s_i and mu(x_i) = s_i; the
    # right-hand side is the form 2*(1 - mu(e))
    mass_e = (1,) + (-1,) * (n - 1)
    forms = [mass_e] + [tuple(int(k == i) for k in range(n))
                        for i in range(1, n)]
    rhs = tuple(2 * (int(k == 0) - c) for k, c in enumerate(mass_e))
    symbolic_ok = _tv_identity_holds(forms, 0, rhs)

    return SeparationReport(
        grid_points=grid_points, grid_min_distance=grid_min,
        sample_min_distance=sample_min,
        mixed_formula_checked=mixed_checked, mixed_formula_max_dev=mixed_dev,
        symbolic_ok=symbolic_ok)


# ---------------------------------------------------------------------------
# block transforms of measures


def measure_fourier(mu, dual):
    """Block x maps to the weight-averaged irrep matrix sum."""
    if mu.group.order != dual.group.order:
        raise ValidationError("measure-group",
                              "measure and dual data disagree")
    w = np.array([float(x) for x in mu.weights])
    return DualElement(dual.ring, {x: np.einsum("g,gij->ij", w, mx.matrices)
                                   for x, mx in enumerate(dual.irreps)})


def c0_profile(a):
    """Per-block operator norms of a dual element, largest label first
    kept in label order (the finite decay profile)."""
    out = {}
    for x in sorted(a.blocks):
        out[x] = float(np.linalg.norm(a.blocks[x], ord=2))
    return out


def uniform_is_unit_projection(dual):
    """Deviation of the uniform measure's transform from the trivial-block
    projection (Schur orthogonality kills every other block)."""
    a = measure_fourier(uniform_measure(dual.group), dual)
    p = unit_dual_element(dual.ring)
    return max(np.abs(a.block(x) - p.block(x)).max()
               for x in range(dual.ring.n))


# ---------------------------------------------------------------------------
# Chebyshev-recursion states


@dataclass
class ChebyshevState:
    values: list               # Fractions, index k = 0..cutoff

    def c0_profile(self, eps):
        """Labels whose value has dropped below the threshold."""
        return [k for k, v in enumerate(self.values) if abs(v) < eps]


def chebyshev_values(x, cutoff):
    """P_0, ..., P_cutoff at x for P_0 = 1, P_1 = X, X P_k = P_{k+1} + P_{k-1}."""
    x = _fraction(x)
    out = [Fraction(1), x]
    while len(out) <= cutoff:
        out.append(x * out[-1] - out[-2])
    return out[:cutoff + 1]


def chebyshev_state(N, t, cutoff):
    """Ratios P_k(t)/P_k(N), exact, for 0 < t < N."""
    if N < 2 or int(N) != N:
        raise DomainError(f"ladder parameter must be an integer >= 2, got {N}")
    t = _fraction(t)
    if not (0 < t < N):
        raise DomainError(f"evaluation point {t} outside (0, {N})")
    if cutoff < 0:
        raise DomainError("cutoff must be nonnegative")
    if cutoff >= RING_CAP:                 # labels 0..cutoff of the ladder
        raise DomainError(f"cutoff {cutoff} gives {cutoff + 1} labels, over "
                          f"the ring cap {RING_CAP}")
    # P_k(p/q) is an integer of size at most (2 max(|p|, q))^k over q^k, and
    # 0 < P_k(N) <= N^k: so no ratio's numerator or denominator has more
    # digits than those two bounds at k = cutoff, which must fit in text
    digits = cutoff * (math.log10(2 * max(t.numerator, t.denominator))
                       + math.log10(N)) + 2
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and digits > limit:
        raise DomainError(f"cutoff {cutoff} at N={N}, t={t} gives values of "
                          f"up to {int(digits)} digits, over the "
                          f"{limit}-digit limit of integer text")
    num = chebyshev_values(t, cutoff)
    den = chebyshev_values(N, cutoff)
    return ChebyshevState(values=[a / b for a, b in zip(num, den)])
