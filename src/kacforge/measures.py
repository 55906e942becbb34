"""Exact probability measures on finite groups and their transforms.

Weights are nonnegative rationals summing to one; distances stay in
exact arithmetic.  The module also certifies the finite-scale
separation bound (any measure vanishing at the identity sits
at full variation distance from the point mass there), computes block
transforms of measures with their per-block norm profile, and evaluates
Chebyshev-recursion states on the free orthogonal dimension ladder.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import sympy

from .config import DEFAULT_SEED
from .crossed import DualElement, unit_dual_element
from .errors import DomainError, ValidationError
from .groups import rng_from

# int64 entries per row block of the separation grid, which keeps its
# peak memory to a small multiple of this (2**18 raised exact-shadow RSS)
_GRID_BLOCK = 2 ** 14


def _fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10 ** 12)
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

    def __call__(self, g):
        return self.weights[g]

    def support(self):
        return [g for g, x in enumerate(self.weights) if x != 0]


def uniform_measure(G):
    return FiniteMeasure(G, (Fraction(1, G.order),) * G.order)


def delta_measure(G, g):
    w = [Fraction(0)] * G.order
    w[g] = Fraction(1)
    return FiniteMeasure(G, tuple(w))


def random_rational_measure(G, seed, zero_at=None, salt=()):
    """Seeded exact measure; optionally forced to vanish at given points."""
    rng = rng_from(seed, 31, *salt)
    counts = rng.integers(0, 61, size=G.order)          # counts 0..60
    zero = set(zero_at or ())
    if zero.issuperset(range(G.order)):
        raise ValidationError("measure-support",
                              "zero_at covers every element")
    counts[list(zero)] = 0
    if counts.sum() == 0:
        counts[min(set(range(G.order)) - zero)] = 1
    total = int(counts.sum())
    return FiniteMeasure(G, tuple(Fraction(int(c), total) for c in counts))


def tv_distance(mu, nu):
    """Full coordinate sum of absolute weight differences (exact)."""
    if mu.group.order != nu.group.order:
        raise ValidationError("measure-group", "measures on different groups")
    return sum(abs(a - b) for a, b in zip(mu.weights, nu.weights))


# ---------------------------------------------------------------------------
# the finite-scale separation certificate


@dataclass
class SeparationReport:
    group_order: int
    grid_denominators: tuple
    grid_points: int
    grid_min_distance: Fraction
    sample_points: int
    sample_min_distance: Fraction
    mixed_formula_checked: int
    mixed_formula_max_dev: Fraction
    symbolic_formula: str
    symbolic_ok: bool

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
            f"(denominators {list(self.grid_denominators)})",
            f"{s} seeded sample min {self.sample_min_distance} over "
            f"{self.sample_points} draws",
            f"{s} mixed-mass formula {self.symbolic_formula}: max deviation "
            f"{self.mixed_formula_max_dev} over {self.mixed_formula_checked} "
            f"points, symbolic derivation "
            f"{'holds' if self.symbolic_ok else 'fails'}",
        ]


def _separation_grid(G, denominators):
    """Exhaustive grid of measures with weights in (1/D)Z as exact integer
    counts, in row blocks of about _GRID_BLOCK int64 entries: identity-free
    points, their least distance to delta_e, points checked against
    2*(1 - mu(e)) and the largest deviation from it."""
    from itertools import chain, combinations_with_replacement, islice
    n, e = G.order, G.identity
    points, checked, mins, devs = 0, 0, [], [Fraction(0)]
    for D in denominators:
        if D < 1:
            raise DomainError(f"grid denominator must be >= 1, got {D}")
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


def rel_T_obstruction(G, denominators=(1, 2, 3, 4), samples=25,
                      seed=DEFAULT_SEED):
    """Certify that identity-free measures sit at exact distance 2 from the
    identity point mass, and that mixed measures obey 2*(1 - mass at e).

    Three routes: an exhaustive rational grid, a seeded random sample, and
    a symbolic derivation over nonnegative symbols.
    """
    n = G.order
    e = G.identity
    if n < 2:
        raise DomainError("separation is vacuous below group order 2")
    delta_e = delta_measure(G, e)
    grid_points, grid_min, mixed_checked, mixed_dev = \
        _separation_grid(G, denominators)

    sample_min = None
    for t in range(samples):
        mu = random_rational_measure(G, seed=seed, zero_at=[e], salt=(13, t))
        d = tv_distance(mu, delta_e)
        sample_min = d if sample_min is None else min(sample_min, d)

    rest = sympy.symbols(f"s0:{n - 1}", nonnegative=True)
    total_rest = sympy.Add(*rest)
    mass_e = 1 - total_rest
    tv_expr = sympy.Abs(mass_e - 1) + total_rest
    symbolic_ok = sympy.simplify(tv_expr - 2 * (1 - mass_e)) == 0

    return SeparationReport(
        group_order=n, grid_denominators=tuple(denominators),
        grid_points=grid_points, grid_min_distance=grid_min,
        sample_points=samples, sample_min_distance=sample_min,
        mixed_formula_checked=mixed_checked, mixed_formula_max_dev=mixed_dev,
        symbolic_formula="2*(1 - mu(e))", symbolic_ok=bool(symbolic_ok))


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
    N: int
    t: Fraction
    values: list               # Fractions, index k = 0..cutoff

    def c0_profile(self, eps):
        """Labels whose value has dropped below the threshold."""
        return [k for k, v in enumerate(self.values) if abs(v) < eps]

    def lines(self):
        return [f"k={k}: {v}" for k, v in enumerate(self.values)]


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
    num = chebyshev_values(t, cutoff)
    den = chebyshev_values(N, cutoff)
    return ChebyshevState(N=int(N), t=t,
                          values=[a / b for a, b in zip(num, den)])
