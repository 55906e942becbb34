"""Exact measures, separation certificates, block transforms, Chebyshev
states.

Oracle discipline: the frozen variation values were computed by hand
before being pinned; the transform identities are checked against
independently computed block products.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacforge.crossed import classical_dual, unit_dual_element
from kacforge.errors import DomainError, ValidationError
from kacforge.library import corpus_pairs, cyclic_group, symmetric_group
from kacforge.measures import (ChebyshevState, FiniteMeasure, c0_profile,
                               chebyshev_state, chebyshev_values,
                               delta_measure, measure_fourier,
                               random_rational_measure, rel_T_obstruction,
                               tv_distance, uniform_is_unit_projection,
                               uniform_measure)

from .oracles import naive_convolve

_state = {}


def s3():
    if "s3" not in _state:
        _state["s3"] = symmetric_group(3)
    return _state["s3"]


def dual_s3():
    if "dual" not in _state:
        _state["dual"] = classical_dual(s3())
    return _state["dual"]


def split_pair():
    if "pair" not in _state:
        _state["pair"] = {p.name: p for p in corpus_pairs()}["s3-split"]
    return _state["pair"]


# ---------------------------------------------------------------------------
# measure basics


def test_measure_validation():
    G = cyclic_group(3)
    with pytest.raises(ValidationError):
        FiniteMeasure(G, (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValidationError):
        FiniteMeasure(G, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValidationError):
        FiniteMeasure(G, (Fraction(3, 2), Fraction(-1, 2), Fraction(0)))
    m = FiniteMeasure(G, ("1/2", "1/4", "1/4"))
    assert m(0) == Fraction(1, 2)
    assert m.support() == [0, 1, 2]


def test_uniform_and_delta():
    G = s3()
    u = uniform_measure(G)
    assert all(w == Fraction(1, 6) for w in u.weights)
    d = delta_measure(G, 4)
    assert d.support() == [4]
    assert d(4) == 1


def test_random_measure_deterministic_and_constrained():
    G = s3()
    a = random_rational_measure(G, seed=7, zero_at=[G.identity])
    b = random_rational_measure(G, seed=7, zero_at=[G.identity])
    assert a.weights == b.weights
    assert a(G.identity) == 0
    assert sum(a.weights) == 1


# ---------------------------------------------------------------------------
# variation distance


def test_tv_basic_values():
    G = s3()
    m = random_rational_measure(G, seed=1)
    assert tv_distance(m, m) == 0
    assert tv_distance(delta_measure(G, 0), delta_measure(G, 3)) == 2
    mp = split_pair()
    a = FiniteMeasure(mp.compact, (0, Fraction(7, 10), Fraction(3, 10)))
    b = FiniteMeasure(mp.compact, (0, Fraction(3, 10), Fraction(7, 10)))
    assert tv_distance(a, b) == Fraction(4, 5)


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=30, deadline=None)
def test_tv_metric_properties(sa, sb, sc):
    G = cyclic_group(6)
    a = random_rational_measure(G, seed=sa)
    b = random_rational_measure(G, seed=sb)
    c = random_rational_measure(G, seed=sc)
    assert tv_distance(a, b) == tv_distance(b, a)
    assert tv_distance(a, b) >= 0
    assert (tv_distance(a, b) == 0) == (a.weights == b.weights)
    assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c)


# ---------------------------------------------------------------------------
# separation certificate


def test_separation_report_s3():
    rep = rel_T_obstruction(s3(), denominators=(1, 2, 3), samples=10)
    assert rep.passed
    assert rep.grid_min_distance == 2
    assert rep.sample_min_distance == 2
    assert rep.grid_points == 55          # compositions of 1,2,3 into 5 slots
    assert rep.mixed_formula_checked == 83
    assert rep.mixed_formula_max_dev == 0
    assert rep.symbolic_ok
    assert any("2*(1 - mu(e))" in ln for ln in rep.lines())


def test_separation_report_cyclic():
    rep = rel_T_obstruction(cyclic_group(6), denominators=(1, 2, 3, 4),
                            samples=8)
    assert rep.passed
    assert rep.grid_min_distance == 2 and rep.mixed_formula_max_dev == 0


def test_separation_excluded_case():
    G = s3()
    assert tv_distance(delta_measure(G, G.identity),
                       delta_measure(G, G.identity)) == 0


# ---------------------------------------------------------------------------
# block transforms


def test_transform_of_identity_mass_is_identity_blocks():
    dual = dual_s3()
    a = measure_fourier(delta_measure(s3(), s3().identity), dual)
    for x in range(dual.ring.n):
        d = int(round(dual.ring.dims[x]))
        assert np.abs(a.block(x) - np.eye(d)).max() < 1e-12


def test_transform_of_uniform_is_unit_projection():
    assert uniform_is_unit_projection(dual_s3()) < 1e-10
    assert uniform_is_unit_projection(classical_dual(cyclic_group(6))) < 1e-10


def test_transform_intertwines_convolution():
    dual = dual_s3()
    for t in range(6):
        mu = random_rational_measure(s3(), seed=50 + t)
        nu = random_rational_measure(s3(), seed=80 + t)
        fa = measure_fourier(mu, dual)
        fb = measure_fourier(nu, dual)
        conv = FiniteMeasure(s3(), naive_convolve(s3(), mu.weights,
                                                  nu.weights))
        fc = measure_fourier(conv, dual)
        dev = max(np.abs(fc.block(x) - fa.block(x) @ fb.block(x)).max()
                  for x in range(dual.ring.n))
        assert dev < 1e-9


def test_c0_profile_shapes():
    dual = dual_s3()
    prof = c0_profile(measure_fourier(delta_measure(s3(), 2), dual))
    assert set(prof) == {0, 1, 2}
    for v in prof.values():
        assert abs(v - 1.0) < 1e-9      # point masses transform to unitaries
    prof_u = c0_profile(measure_fourier(uniform_measure(s3()), dual))
    assert abs(prof_u[0] - 1.0) < 1e-12
    assert prof_u[1] < 1e-12 and prof_u[2] < 1e-12


# ---------------------------------------------------------------------------
# Chebyshev states


def test_chebyshev_frozen_values():
    st_ = chebyshev_state(3, 2, 10)
    assert st_.values[0] == 1
    assert st_.values[1] == Fraction(2, 3)
    assert st_.values[2] == Fraction(3, 8)
    assert st_.values[3] == Fraction(4, 21)
    assert st_.values[4] == Fraction(1, 11)
    assert all(isinstance(v, Fraction) for v in st_.values)


def test_chebyshev_first_step_is_ratio():
    for N in (2, 3, 5):
        for t in (Fraction(1, 2), 1, Fraction(3, 2)):
            if 0 < t < N:
                assert chebyshev_state(N, t, 1).values[1] == Fraction(t, N)


def test_chebyshev_recursion_consistency():
    vals = chebyshev_values(Fraction(5, 2), 8)
    for k in range(1, 8):
        assert Fraction(5, 2) * vals[k] == vals[k + 1] + vals[k - 1]


def test_chebyshev_domain_errors():
    with pytest.raises(DomainError):
        chebyshev_state(3, 0, 5)
    with pytest.raises(DomainError):
        chebyshev_state(3, 3, 5)
    with pytest.raises(DomainError):
        chebyshev_state(3, -1, 5)
    with pytest.raises(DomainError):
        chebyshev_state(1, Fraction(1, 2), 5)
    with pytest.raises(DomainError):
        chebyshev_state(3, 2, -1)


@given(st.integers(min_value=3, max_value=7),
       st.fractions(min_value=2, max_value=7))
@settings(max_examples=40, deadline=None)
def test_chebyshev_strictly_decreasing_on_safe_band(N, t):
    # strict decrease holds from the second value on when 2 <= t < N
    if not (2 <= t < N):
        return
    st_ = chebyshev_state(N, t, 12)
    for k in range(1, 12):
        assert st_.values[k + 1] < st_.values[k]


def test_chebyshev_approaches_one_near_top():
    near = chebyshev_state(3, Fraction(3 * 10 ** 6 - 1, 10 ** 6), 4)
    for v in near.values:
        assert abs(v - 1) < 1e-4


def test_chebyshev_profile_and_lines():
    st_ = chebyshev_state(3, 2, 10)
    prof = st_.c0_profile(Fraction(1, 20))
    assert prof == [5, 6, 7, 8, 9, 10]
    assert st_.lines()[2] == "k=2: 3/8"
