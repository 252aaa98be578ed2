"""The in-house Brent solver and golden search against scipy.optimize, the reference here only."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq
from scipy.optimize import minimize_scalar

from semibound import roots
from semibound.kinetics import from_callable
from semibound.roots import brentq_array, golden_minimum

# the tolerances the package solves at, as scipy.optimize.brentq keywords
TOLS = {"xtol": roots.XTOL, "rtol": roots.RTOL}


def one_at_a_time(f, k):
    """f(x, idx) of problem k as a function of one float, for scipy's scalar brentq."""
    return lambda x: f(np.array([x]), np.array([k]))[0]


@settings(max_examples=200, deadline=None)
@given(c=st.floats(0.01, 100.0), q=st.floats(1.0, 6.0), e=st.floats(1e-3, 1e3),
       stretch=st.floats(1.001, 1e3), start=st.floats(0.0, 0.999),
       side=st.sampled_from([1.0, -1.0]))
def test_scalar_brentq_matches_scipy_bit_for_bit(c, q, e, stretch, start, side):
    # one bracket: the root of c|x|^q - e, which is +-(e/c)^(1/q)
    f = lambda x, i: c * np.abs(x) ** q - e
    root = (e / c) ** (1.0 / q)
    lo, hi = sorted((side * start * root, side * stretch * root))
    got = brentq_array(f, np.array([lo]), np.array([hi]))
    assert got.tolist() == [scipy_brentq(one_at_a_time(f, 0), lo, hi, **TOLS)]


def test_array_brentq_matches_scalar_elementwise():
    rng = np.random.default_rng(3)
    c, q, e = rng.uniform(0.01, 10, 400), rng.uniform(1, 6, 400), rng.uniform(1e-3, 50, 400)
    hi = (e / c) ** (1 / q) * rng.uniform(1.001, 100, 400)
    f = lambda x, i: c[i] * np.abs(x) ** q[i] - e[i]
    got = brentq_array(f, np.zeros(400), hi)
    # the scalar reference evaluates the same array expression, one element at a time
    assert all(got[k] == scipy_brentq(one_at_a_time(f, k), 0.0, hi[k], **TOLS)
               for k in range(400))


def test_array_brentq_roots_at_the_bracket_ends():
    f = lambda x, i: x - np.array([0.0, 2.0, 0.5])[i]
    assert brentq_array(f, np.zeros(3), np.full(3, 2.0)).tolist() == [0.0, 2.0, 0.5]
    assert brentq_array(f, np.zeros(0), np.zeros(0)).shape == (0,)


QUARTIC = lambda p: 0.5 * p * p + 0.01 * p * p * p * p


def reference_inverse(y: float) -> float:
    """T^-1 one value at a time: bracket doubling from hi = 1, then scipy's brentq."""
    if y <= 0.0:
        return 0.0
    hi = 1.0
    while QUARTIC(hi) < y:
        hi *= 2.0
    return scipy_brentq(lambda p: QUARTIC(p) - y, 0.0, hi, **TOLS)


def test_synthesized_inverse_matches_the_scalar_solve():
    law = from_callable("quartic", QUARTIC)
    # y == rest maps to 0; 1e4 and 3e7 need the bracket doubled many times
    y = np.concatenate([[0.0, 1e-300, 0.25, 1e4, 3e7], np.linspace(0.0, 40.0, 1001)])
    got = law.inverse(y)
    assert got[0] == 0.0
    assert got.tolist() == [reference_inverse(v) for v in y]
    assert law.inverse(1e4) == reference_inverse(1e4)
    assert isinstance(law.inverse(1e4), float)


def test_synthesized_inverse_raises_beyond_the_bracket_cap():
    law = from_callable("saturating", lambda p: 1.0 - np.exp(-p * p))
    assert law.inverse(0.5) == pytest.approx(np.sqrt(np.log(2.0)), rel=1e-14)
    with pytest.raises(ValueError, match="no momentum found"):
        law.inverse(np.array([0.5, 2.0]))


def test_non_convergence_raises(monkeypatch):
    monkeypatch.setattr(roots, "MAXITER", 2)
    with pytest.raises(RuntimeError, match="Failed to converge after 2 iterations"):
        brentq_array(lambda x, i: x ** 3 - 2.0, np.zeros(3), np.full(3, 1e6))


def test_bad_brackets_and_nan_raise():
    with pytest.raises(ValueError, match="different signs"):
        brentq_array(lambda x, i: x * x + 1.0, -np.ones(2), np.ones(2))
    with pytest.raises(ValueError, match="NaN"):
        brentq_array(lambda x, i: np.where(x > 0.5, np.nan, -1.0), np.zeros(2), np.ones(2))


@pytest.mark.parametrize("f, x_min", [(lambda x: (x - 1.3) ** 2 + 0.5, 1.3),
                                      (lambda x: (x + 7.0) ** 4, -7.0)],
                         ids=["parabola", "quartic"])
def test_golden_minimum_agrees_with_scipy(f, x_min):
    ref = minimize_scalar(f, bounds=(-100.0, 100.0), method="bounded",
                          options={"xatol": 1e-12})
    x, at_edge = golden_minimum(f, -100.0, 100.0)
    # f(x_min + d) rounds to f(x_min) for |d| below about sqrt(eps * f(x_min) / f''),
    # 7.5e-9 for the parabola, so neither search can place its minimum closer
    assert x == pytest.approx(x_min, abs=1e-8)
    assert x == pytest.approx(ref.x, abs=1e-7)
    assert not at_edge


@pytest.mark.parametrize("centre", [150.0, -150.0, 100.0, -100.0])
def test_golden_minimum_flags_a_minimum_at_or_beyond_the_bounds(centre):
    x, at_edge = golden_minimum(lambda x: (x - centre) ** 2, -100.0, 100.0)
    assert at_edge and abs(x - np.sign(centre) * 100.0) < 1e-12
    assert not golden_minimum(lambda x: (x - 99.99) ** 2, -100.0, 100.0)[1]


def test_golden_minimum_ends_on_wide_intervals():
    # XATOL is below the spacing of floats near 1e6: the ulp floor ends the search
    x, at_edge = golden_minimum(lambda x: (x - 3e5) ** 2, -1e6, 1e6)
    assert x == pytest.approx(3e5, rel=1e-12) and not at_edge
