import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tpadlab import circuit
from tpadlab.errors import InvalidProperty

# Reference operating point, hand-evaluated with an arbitrary-precision
# calculator and frozen before the implementation existed: 30 kHz
# resonance, C = 1 nF, fingertip-loaded damping.
C0 = 9.88e-9
L_30K = 0.02814477323398271  # makes f_r = 30 kHz with C = 1 nF
X0_30K = 536.9599969362191
Z_RES = 126.23150922676827 - 505.43382446754j
UG_40V = 33.55834554830607
DP_FINGER = 0.5237965376462858
DP_SPRING = 0.8849180719292252


def finger_params(resistance=2150.0):
    return circuit.BvdParams(L_30K, 1e-9, resistance, C0)


def random_params(rng):
    """Draw within the ranges the closed form must cover."""
    f_r = rng.uniform(20e3, 45e3)
    c = rng.uniform(0.1e-9, 10e-9)
    l = 1.0 / ((2.0 * math.pi * f_r) ** 2 * c)
    return circuit.BvdParams(l, c, rng.uniform(200.0, 5000.0), rng.uniform(5e-9, 20e-9))


def parallel_combination(p, frequency):
    """Brute-force network arithmetic, the independent route to Z."""
    w = 2.0 * np.pi * frequency
    z_static = 1.0 / (1j * w * p.static_capacitance)
    z_motional = p.resistance + 1j * (p.inductance * w - 1.0 / (p.capacitance * w))
    return z_static * z_motional / (z_static + z_motional)


def test_resonant_frequency_unit_case():
    f = circuit.resonant_frequency(circuit.BvdParams(1.0, 1.0, 1.0, 1.0))
    assert f == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)


def test_resonant_frequency_inverse_construction():
    assert circuit.resonant_frequency(finger_params()) == pytest.approx(30e3, rel=1e-12)


def test_impedance_matches_parallel_combination():
    rng = np.random.default_rng(123)
    freqs = rng.uniform(1e3, 100e3, size=50)
    for _ in range(200):
        p = random_params(rng)
        z_closed = circuit.impedance(p, freqs)
        z_brute = parallel_combination(p, freqs)
        assert np.max(np.abs(z_closed - z_brute) / np.abs(z_brute)) < 1e-9


LOG_UNIFORM = st.floats(-100.0, 100.0).map(lambda exponent: 10.0**exponent)


@settings(max_examples=500)
@given(l=LOG_UNIFORM, c=LOG_UNIFORM, r=LOG_UNIFORM, c0=LOG_UNIFORM, f=LOG_UNIFORM)
def test_impedance_equals_the_brute_force_network(l, c, r, c0, f):
    w = 2.0 * math.pi * f
    z_static = 1.0 / complex(0.0, w * c0)
    z_motional = r + complex(0.0, w * l) + 1.0 / complex(0.0, w * c)
    z_brute = z_static * z_motional / (z_static + z_motional)  # Re(Zs + Zm) = R > 0, never 0
    z_closed = circuit.impedance(circuit.BvdParams(l, c, r, c0), f)
    assume(cmath.isfinite(z_brute) and cmath.isfinite(z_closed) and z_brute != 0)
    assert abs(z_closed - z_brute) <= 1e-12 * abs(z_brute)


def one_line_impedance(p, frequency):
    """The closed form as one complex expression, divided by its real denominator: the reference route."""
    with np.errstate(all="ignore"):
        w = 2.0 * np.pi * np.asarray(frequency, dtype=float)
        x0 = -1.0 / (p.static_capacitance * w)
        x1 = p.inductance * w - 1.0 / (p.capacitance * w)
        r = p.resistance
        return (x0 * x0 * r + 1j * x0 * (r * r + x0 * x1 + x1 * x1)) / (r * r + (x0 + x1) ** 2)


def assert_same_bits(z, reference):
    """Equal bit for bit, signed zeros included; raveled, as a 0-d array has no float view."""
    assert np.array_equal(np.ravel(z).view(float), np.ravel(reference).view(float))


@settings(max_examples=200)
@given(
    f_r=st.floats(20e3, 45e3),
    r=st.floats(500.0, 3000.0),
    c=st.floats(50e-12, 200e-12),
    span=st.tuples(st.floats(0.5, 1.0), st.floats(1.0, 2.0)),
    n=st.integers(1, 700),
)
def test_impedance_is_the_one_line_form_bit_for_bit_over_the_c05_box(f_r, r, c, span, n):
    p = circuit.BvdParams(1.0 / ((2.0 * math.pi * f_r) ** 2 * c), c, r, C0)
    freqs = np.linspace(span[0] * f_r, span[1] * f_r, n)
    assert_same_bits(circuit.impedance(p, freqs), one_line_impedance(p, freqs))


DEMO_F_R = circuit.resonant_frequency(finger_params())


@pytest.mark.parametrize(
    "p,freqs",
    [
        (circuit.BvdParams(28.1e-3, 1e-9, 2150.0, C0), np.array([30e3])),  # circuit_freq.stdout
        # fit --demo's truth over its spectrum's points, as generate_spectrum lays them out
        (finger_params(), np.linspace(0.9 * DEMO_F_R, 1.1 * DEMO_F_R, 201)),
    ],
    ids=["circuit-freq", "fit-demo"],
)
def test_impedance_is_the_one_line_form_bit_for_bit_at_the_golden_parameters(p, freqs):
    assert_same_bits(circuit.impedance(p, freqs), one_line_impedance(p, freqs))


@settings(max_examples=500)
@given(l=LOG_UNIFORM, c=LOG_UNIFORM, r=LOG_UNIFORM, c0=LOG_UNIFORM, f=st.lists(LOG_UNIFORM, min_size=1, max_size=8))
def test_impedance_equals_the_one_line_form_across_float_range(l, c, r, c0, f):
    # a part that leaves float range can turn the other part of the division's result into nan, not 0 as here,
    # so only whole values are compared; == also lets the sign of an underflowed x0*x0*r differ
    p = circuit.BvdParams(l, c, r, c0)
    z, reference = circuit.impedance(p, np.array(f)), one_line_impedance(p, np.array(f))
    finite = np.isfinite(reference)
    assert np.array_equal(np.isfinite(z), finite)
    assert np.all(z[finite] == reference[finite])


@pytest.mark.parametrize(
    "frequency",
    [30e3, 30000, np.float64(30e3), np.array(30e3), [30e3, 31e3], np.full((2, 3), 30e3)],
    ids=["float", "int", "numpy-scalar", "0-d", "list", "2-d"],
)
def test_impedance_keeps_the_shape_of_its_frequency(frequency):
    z = circuit.impedance(finger_params(), frequency)
    if np.isscalar(frequency):
        assert type(z) is complex
    else:
        assert isinstance(z, np.ndarray) and z.dtype == complex and z.shape == np.shape(frequency)
    assert_same_bits(z, one_line_impedance(finger_params(), frequency))


def test_motional_reactance_vanishes_at_resonance():
    p = finger_params()
    f_r = circuit.resonant_frequency(p)
    x1 = circuit.motional_reactance(p, f_r)
    assert abs(x1) < 1e-6 * circuit.static_reactance_magnitude(p.static_capacitance, f_r)


def test_static_reactance_reference_value():
    assert circuit.static_reactance_magnitude(C0, 30e3) == pytest.approx(X0_30K, rel=1e-12)


def test_impedance_at_resonance_reference_point():
    z = circuit.impedance_at_resonance(finger_params())
    assert z == pytest.approx(Z_RES, rel=1e-12)
    assert abs(z) == pytest.approx(520.958486673892, rel=1e-12)
    # two-route agreement
    assert z == pytest.approx(circuit.impedance(finger_params(), 30e3), rel=1e-9)
    # coarse quoted values
    assert z.real == pytest.approx(126.3, abs=0.1)
    assert z.imag == pytest.approx(-505.5, abs=0.1)


def test_open_motional_branch_leaves_static_reactance():
    p = finger_params(resistance=1e12)
    z = circuit.impedance_at_resonance(p)
    x0 = circuit.static_reactance_magnitude(C0, circuit.resonant_frequency(p))
    assert z.real == pytest.approx(0.0, abs=1e-6)
    assert z.imag == pytest.approx(-x0, rel=1e-12)


def test_resonance_magnitude_identity():
    p = finger_params()
    w = 2.0 * math.pi * circuit.resonant_frequency(p)
    x0 = 1.0 / (p.static_capacitance * w)
    r = p.resistance
    expected = x0 * r / math.sqrt(r * r + x0 * x0)
    assert abs(circuit.impedance_at_resonance(p)) == pytest.approx(expected, rel=1e-12)


def test_motional_voltage_reference_point():
    u_g = circuit.motional_voltage(finger_params(), circuit.DriveConfig(40.0, 100.0))
    assert u_g == pytest.approx(UG_40V, rel=1e-12)
    assert u_g == pytest.approx(33.56, abs=0.01)


def test_motional_voltage_without_shunt():
    u_g = circuit.motional_voltage(finger_params(), circuit.DriveConfig(40.0, 0.0))
    assert u_g == 40.0


def test_motional_voltage_divider_bound():
    rng = np.random.default_rng(5)
    d = circuit.DriveConfig(40.0, 100.0)
    for _ in range(50):
        assert circuit.motional_voltage(random_params(rng), d) < d.source_voltage


def test_real_power_reference_points():
    d = circuit.DriveConfig(40.0, 100.0)
    assert circuit.real_power(finger_params(2150.0), d) == pytest.approx(DP_FINGER, rel=1e-12)
    assert circuit.real_power(finger_params(1250.0), d) == pytest.approx(DP_SPRING, rel=1e-12)
    # the two-significant-figure values
    assert circuit.real_power(finger_params(2150.0), d) == pytest.approx(0.524, abs=5e-4)
    assert circuit.real_power(finger_params(1250.0), d) == pytest.approx(0.885, abs=5e-4)


def test_real_power_without_shunt():
    p = finger_params()
    d = circuit.DriveConfig(40.0, 0.0)
    assert circuit.real_power(p, d) == pytest.approx(40.0**2 / p.resistance, rel=1e-15)


def test_real_power_equals_ug_squared_over_r():
    rng = np.random.default_rng(17)
    d = circuit.DriveConfig(40.0, 100.0)
    for _ in range(100):
        p = random_params(rng)
        u_g = circuit.motional_voltage(p, d)
        assert circuit.real_power(p, d) == pytest.approx(u_g * u_g / p.resistance, rel=1e-12)


def test_real_power_decreasing_in_damping():
    grid = np.linspace(100.0, 10000.0, 1000)
    powers = [
        circuit.real_power(finger_params(float(r)), circuit.DriveConfig(40.0, 100.0)) for r in grid
    ]
    assert all(a > b for a, b in zip(powers, powers[1:]))


def test_transfer_function_equals_impedance():
    rng = np.random.default_rng(99)
    freqs = rng.uniform(1e3, 100e3, size=50)
    for _ in range(200):
        p = random_params(rng)
        h = circuit.transfer_ug_over_i(p, freqs)
        z = circuit.impedance(p, freqs)
        assert np.max(np.abs(h - z) / np.abs(z)) < 1e-9


def test_transfer_function_blocks_dc():
    # capacitive network: magnitude blows up toward DC
    assert abs(circuit.transfer_ug_over_i(finger_params(), 0.1)) > 1e6


def test_transfer_function_reference_point():
    h = circuit.transfer_ug_over_i(finger_params(), 30e3)
    assert h == pytest.approx(Z_RES, rel=1e-9)


def test_evaluate_is_internally_consistent():
    p = finger_params()
    d = circuit.DriveConfig(40.0, 100.0)
    ev = circuit.evaluate(p, d)
    assert ev.frequency == pytest.approx(30e3, rel=1e-12)
    assert ev.x1 == 0.0
    assert ev.z == pytest.approx(Z_RES, rel=1e-12)
    assert ev.u_g == pytest.approx(UG_40V, rel=1e-12)
    assert ev.i_g == pytest.approx(ev.u_g / p.resistance, rel=1e-15)
    assert ev.delta_p == pytest.approx(ev.u_g**2 / p.resistance, rel=1e-12)
    # exact complex divider sits above the scalar form here
    assert ev.u_g_exact == pytest.approx(37.6310069768001, rel=1e-12)


def test_invariant_checks():
    with pytest.raises(InvalidProperty):
        circuit.BvdParams(0.0, 1e-9, 2150.0, C0)
    with pytest.raises(InvalidProperty):
        circuit.BvdParams(L_30K, 1e-9, math.inf, C0)
    with pytest.raises(InvalidProperty):
        circuit.DriveConfig(0.0, 100.0)
    with pytest.raises(InvalidProperty):
        circuit.DriveConfig(40.0, -1.0)
