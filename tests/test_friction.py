import math

import numpy as np
import pytest

from tpadlab import friction
from tpadlab.errors import InvalidProperty, OutOfContourRange

# Hand-computed reference values (arbitrary-precision evaluation of the
# model formulas, frozen before the implementation existed).
PSI_30K_3UM = 1.6708437761069341
MU_30K_3UM = 0.2997071460760433


def test_psi_reference_point():
    vib = friction.VibrationState(frequency=30e3, amplitude=3e-6)
    assert friction.psi(vib) == pytest.approx(PSI_30K_3UM, rel=1e-12)
    # two decimals is what the calibration source quotes
    assert friction.psi(vib) == pytest.approx(1.671, abs=5e-4)


def test_psi_halves_when_amplitude_doubles():
    a = friction.psi(friction.VibrationState(30e3, 3e-6))
    b = friction.psi(friction.VibrationState(30e3, 6e-6))
    assert b == pytest.approx(0.5 * a, rel=1e-14)


def test_psi_is_infinite_at_zero_amplitude():
    assert friction.psi(friction.VibrationState(30e3, 0.0)) == math.inf


def test_velocity_model_reference_point():
    mu = friction.relative_friction_velocity(friction.VibrationState(30e3, 3e-6))
    assert mu == pytest.approx(MU_30K_3UM, rel=1e-12)
    assert mu == pytest.approx(0.300, abs=1e-3)


def test_velocity_model_zero_amplitude_limit():
    assert friction.relative_friction_velocity(friction.VibrationState(30e3, 0.0)) == 1.0


def test_velocity_model_fast_vibration_asymptote():
    mu = friction.relative_friction_velocity(friction.VibrationState(100e3, 100e-6))
    assert mu == pytest.approx(0.0032011752954530515, rel=1e-12)
    assert mu < 0.01


def test_velocity_model_bounded_on_random_grid():
    rng = np.random.default_rng(42)
    for _ in range(200):
        vib = friction.VibrationState(
            frequency=rng.uniform(1e3, 200e3), amplitude=rng.uniform(1e-8, 1e-4)
        )
        assert 0.0 < friction.relative_friction_velocity(vib) < 1.0


def test_velocity_model_decreasing_in_velocity_product():
    # mu' depends on f*alpha only; sort a random grid by the product
    rng = np.random.default_rng(7)
    points = [(rng.uniform(1e3, 200e3), rng.uniform(1e-8, 1e-4)) for _ in range(100)]
    points.sort(key=lambda p: p[0] * p[1])
    values = [
        friction.relative_friction_velocity(friction.VibrationState(f, a)) for f, a in points
    ]
    assert all(x > y for x, y in zip(values, values[1:]))


def test_squeeze_model_at_rest():
    params = friction.SqueezeFilmParams(u0=1e-6, ps=1.25e5)
    assert friction.relative_friction_squeeze(0.0, params) == 1.0


def test_squeeze_model_unit_exponent():
    # parameters chosen so 5 a^2 p0 / (4 u0^2 ps) = 1
    params = friction.SqueezeFilmParams(u0=1e-6, ps=1.25e5, p0=1e5)
    mu = friction.relative_friction_squeeze(1e-6, params)
    assert mu == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_squeeze_model_decreasing_in_amplitude():
    params = friction.SqueezeFilmParams(u0=1e-6, ps=1.25e5)
    values = [friction.relative_friction_squeeze(a, params) for a in (1e-6, 2e-6, 3e-6)]
    assert values[0] > values[1] > values[2]


def test_contour_reference_points():
    assert friction.contour_amplitude(16e3) == pytest.approx(6.889966853487861, rel=1e-12)
    assert friction.contour_amplitude(50e3) == pytest.approx(2.2194435540571975, rel=1e-12)
    assert friction.contour_amplitude(80e3) == pytest.approx(1.2332731684547549, rel=1e-12)
    assert friction.contour_amplitude(160e3) == pytest.approx(0.3120893187594378, rel=1e-12)


def test_contour_positive_across_band():
    lo, hi = friction.CONTOUR_FREQUENCY_RANGE_HZ
    for f in np.linspace(lo, hi, 145):
        assert friction.contour_amplitude(float(f)) > 0


def test_contour_out_of_band():
    with pytest.raises(OutOfContourRange):
        friction.contour_amplitude(15.9e3)
    with pytest.raises(OutOfContourRange):
        friction.contour_amplitude(160.1e3)
    with pytest.raises(OutOfContourRange, match="got an integer too long to print$"):
        friction.contour_amplitude(10**5000)


def test_vibration_state_invariants():
    with pytest.raises(InvalidProperty):
        friction.VibrationState(frequency=0.0, amplitude=1e-6)
    with pytest.raises(InvalidProperty):
        friction.VibrationState(frequency=30e3, amplitude=-1e-6)


def test_friction_params_invariants():
    with pytest.raises(InvalidProperty):
        friction.FrictionParams(poisson=0.5)
    with pytest.raises(InvalidProperty):
        friction.FrictionParams(mu0=0.0)
    with pytest.raises(InvalidProperty):
        friction.SqueezeFilmParams(u0=-1e-6, ps=1e5)
