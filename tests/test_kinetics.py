import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semibound import (
    BoundStateProblem,
    NoEffectiveMass,
    Smoothness,
    effective_mass,
    harmonic,
    massless,
    nonrelativistic,
    reduced_kinetic,
    relativistic,
    validate_admissibility,
)
from semibound.kinetics import from_callable

ALL_LAWS = [nonrelativistic(1.0), nonrelativistic(3.0), relativistic(0.2), massless()]
GRID = np.linspace(-5.0, 5.0, 2048)


@pytest.mark.parametrize("law", ALL_LAWS, ids=[
    "nonrelativistic{'m': 1.0}", "nonrelativistic{'m': 3.0}", "relativistic{'m': 0.2}",
    "massless{}"])
def test_inverse_round_trip(law):
    p = np.linspace(0.0, 5.0, 401)
    back = law.inverse(law.eval(p))
    assert np.allclose(back, p, rtol=1e-12, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(p=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_evenness_and_odd_speed(p):
    for law in ALL_LAWS:
        assert float(law.eval(p)) == pytest.approx(float(law.eval(-p)), abs=1e-14)
        assert float(law.deriv(-p)) == pytest.approx(-float(law.deriv(p)), abs=1e-14)


def test_validation_nonrelativistic_all_pass():
    report = validate_admissibility(nonrelativistic(1.0), GRID)
    assert report.all_passed


def test_validation_relativistic_all_pass():
    report = validate_admissibility(relativistic(0.2), GRID)
    assert report.all_passed
    assert report.smoothness is Smoothness.SMOOTH


def test_validation_massless_flags_smoothness():
    report = validate_admissibility(massless(), GRID)
    assert report.all_passed  # A-C hold; D checked away from p=0
    assert report.smoothness is Smoothness.NON_SMOOTH_AT_ZERO
    assert any("skipped" in c.note for c in report.checks)


def test_validation_catches_non_monotone():
    law = from_callable("cosine", lambda p: 1.0 + np.cos(p))
    report = validate_admissibility(law, GRID)
    failed = {c.condition for c in report.checks if not c.passed}
    assert any(c.startswith("C") for c in failed)


def test_validation_catches_odd_part():
    law = from_callable("tilted", lambda p: p * p + 0.1 * p)
    report = validate_admissibility(law, GRID)
    failed = {c.condition for c in report.checks if not c.passed}
    assert any(c.startswith("B") for c in failed)


def test_effective_mass_nonrelativistic():
    assert effective_mass(nonrelativistic(3.0)) == pytest.approx(3.0, rel=1e-14)


def test_effective_mass_relativistic():
    # T''(0) = 1/m for sqrt(p^2 + m^2)
    assert effective_mass(relativistic(0.2)) == pytest.approx(0.2, rel=1e-12)


def test_effective_mass_massless_raises():
    with pytest.raises(NoEffectiveMass):
        effective_mass(massless())


def test_reduced_kinetic_zeroes_rest_energy():
    t = reduced_kinetic(relativistic(0.2))
    assert t.rest_energy == 0.0
    assert float(t.eval(0.0)) == pytest.approx(0.0, abs=1e-15)


def test_reduced_inverse_closed_form():
    # invert t(p) = sqrt(p^2 + m^2) - m at w = 0.3, m = 0.2
    t = reduced_kinetic(relativistic(0.2))
    expected = np.sqrt(0.3**2 + 2 * 0.2 * 0.3)
    assert float(t.inverse(0.3)) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.458257569495584, rel=1e-12)


def test_reduced_kinetic_idempotent():
    t1 = reduced_kinetic(relativistic(0.2))
    t2 = reduced_kinetic(t1)
    p = np.linspace(0.0, 4.0, 101)
    assert np.array_equal(t1.eval(p), t2.eval(p))
    assert t2.rest_energy == 0.0


def test_reduced_kinetic_massless_identity():
    law = massless()
    assert reduced_kinetic(law) is law


@pytest.mark.parametrize("law", [nonrelativistic(2.0), relativistic(0.2)],
                         ids=lambda l: l.name)
def test_deriv_matches_finite_differences(law):
    p = np.linspace(-4.0, 4.0, 81)
    h = 1e-6
    fd = (np.asarray(law.eval(p + h)) - np.asarray(law.eval(p - h))) / (2 * h)
    exact = np.asarray(law.deriv(p))
    assert np.allclose(fd, exact, rtol=1e-6, atol=1e-9)


def test_massless_deriv_matches_finite_differences_away_from_zero():
    law = massless()
    p = np.concatenate([np.linspace(-4, -0.1, 40), np.linspace(0.1, 4, 40)])
    h = 1e-6
    fd = (np.asarray(law.eval(p + h)) - np.asarray(law.eval(p - h))) / (2 * h)
    assert np.allclose(fd, np.asarray(law.deriv(p)), rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("law,c4", [(nonrelativistic(1.0), 1e-12),
                                    (relativistic(0.2), 31.25)],
                         ids=["nonrelativistic", "relativistic"])
def test_small_momentum_expansion(law, c4):
    # |T(p) - T(0) - p^2/(2M)| <= C p^4; for sqrt(p^2+m^2) the exact quartic
    # coefficient is 1/(8 m^3) = 15.625 at m = 0.2, C doubles it for slack.
    M = effective_mass(law)
    p = np.linspace(-0.1, 0.1, 201)
    resid = np.abs(np.asarray(law.eval(p)) - law.rest_energy - p**2 / (2 * M))
    assert np.all(resid <= c4 * p**4 + 1e-15)


def test_synthesized_law_matches_analytic():
    law = from_callable("quartic", lambda p: p**2 / 2 + p**4 / 4)
    p = np.linspace(-2.0, 2.0, 41)
    assert np.allclose(law.deriv(p), p + p**3, rtol=1e-7, atol=1e-7)
    assert np.allclose(law.deriv2(p), 1 + 3 * p * p, rtol=1e-5, atol=1e-5)
    y = np.asarray(law.eval(np.abs(p)))
    assert np.allclose(law.inverse(y), np.abs(p), rtol=1e-10, atol=1e-12)


def test_inverse_clamps_small_negative_round_off():
    law = relativistic(0.2)
    assert float(law.inverse(0.2 - 1e-13)) == 0.0
    with pytest.raises(ValueError):
        law.inverse(0.1)


def test_validation_reports_non_finite_values():
    law = from_callable("capped", lambda p: np.where(np.abs(p) > 4.0, np.inf, 0.5 * p * p))
    report = validate_admissibility(law, GRID)
    names = ["values finite", "A: non-negativity", "B: evenness", "C: monotonicity",
             "D: class C2"]
    assert [c.condition for c in report.checks] == names
    assert not any(c.passed for c in report.checks)
    assert all(np.isnan(c.worst_violation) for c in report.checks)
    assert [c.worst_location for c in report.checks] == [-5.0, None, None, None, None]
    assert report.summary() == "\n".join(
        ["kinetic law 'capped' (smooth):", "  [FAIL] values finite worst=nan at p=-5.0"]
        + [f"  [FAIL] {name} worst=nan at p=None" for name in names[1:]])


def test_nonpositive_hbar_is_refused():
    with pytest.raises(ValueError, match="hbar must be positive"):
        BoundStateProblem(nonrelativistic(1.0), harmonic(1.0, 1.0), hbar=0.0)


def test_validation_needs_samples():
    with pytest.raises(ValueError, match="non-empty"):
        validate_admissibility(nonrelativistic(1.0), np.array([]))


def test_effective_mass_of_negative_curvature_raises():
    concave = from_callable("concave", lambda p: 0.5 * p * p, deriv=lambda p: p,
                            deriv2=lambda p: -np.ones_like(p))
    with pytest.raises(NoEffectiveMass, match="not positive"):
        effective_mass(concave)


@pytest.mark.parametrize("law", [relativistic(0.2),
                                 from_callable("relativistic", lambda p: np.sqrt(p * p + 0.04))],
                         ids=["built-in", "synthesized"])
def test_inverse_takes_a_list_as_eval_does(law):
    y = [0.5, 0.6]
    assert np.array_equal(law.inverse(y), law.inverse(np.array(y)))
    assert np.asarray(law.eval(y)).shape == np.asarray(law.deriv(y)).shape == (2,)
    assert type(law.inverse(0.5)) is float
    assert law.inverse(np.array(0.5)).shape == ()


def test_validation_with_one_positive_sample_passes_monotonicity_with_a_note():
    report = validate_admissibility(nonrelativistic(1.0), np.array([-1.0, 0.0, 1.0]))
    check, = [c for c in report.checks if c.condition == "C: monotonicity"]
    assert check.passed
    assert check.note == "fewer than 2 positive samples"
