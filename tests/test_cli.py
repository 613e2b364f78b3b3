import csv
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from tpadlab import beam, bvdfit, cli, dataio, materials
from tpadlab.errors import AnalysisError, InvalidProperty
from tpadlab.units import MAX_POINTS, csv_table

FS = 300e3
GOLDEN = Path(__file__).parent / "golden"

NOTE_PREFIX = "# model-conditional:"
SWEEP = ("beam", "--glass", "SLG_0.4", "--sweep", "thickness", "--grid")
FIT_POINTS = ("fit", "--demo", "--points")


def rows(out):
    return [line for line in out.strip().splitlines() if line]


def data_rows(out):
    return [line for line in rows(out) if not line.startswith("#")]


def cells(line):
    return line.split(",")


# --- materials ----------------------------------------------------------


def test_materials_list(run_cli):
    code, out = run_cli("materials", "--list")
    assert code == 0
    lines = rows(out)
    assert lines[0] == "name,thickness_m,density_kg_m3,youngs_modulus_pa"
    assert len(lines) == 9
    assert lines[1].startswith("SLG_0.4,0.0004,2483,")


def test_materials_bare_defaults_to_list(run_cli):
    _, listed = run_cli("materials", "--list")
    _, bare = run_cli("materials")
    assert bare == listed


def test_materials_show(run_cli):
    code, out = run_cli("materials", "--show", "Gorilla_0.8")
    assert code == 0
    lines = rows(out)
    assert len(lines) == 2
    name, thickness, density, modulus = cells(lines[1])
    assert name == "Gorilla_0.8"
    assert float(thickness) == pytest.approx(0.8e-3)
    assert float(density) == pytest.approx(2420.0)
    assert float(modulus) == pytest.approx(71.5e9)


def test_materials_actuator(run_cli):
    code, out = run_cli("materials", "--actuator")
    assert code == 0
    lines = rows(out)
    assert lines[0] == "thickness_m,density_kg_m3,youngs_modulus_pa,static_capacitance_f"
    values = [float(v) for v in cells(lines[1])]
    assert values == pytest.approx([0.3e-3, 7900.0, 84e9, 9.88e-9])


def test_materials_unknown_name(run_cli):
    code, _ = run_cli("materials", "--show", "Quartz_1.0")
    assert code == 2


def _write_material_json(path, name="Custom_1.0", density=2500.0):
    payload = [
        {
            "name": name,
            "thickness_m": 1.0e-3,
            "density_kg_m3": density,
            "youngs_modulus_pa": 70e9,
        }
    ]
    path.write_text(json.dumps(payload))
    return str(path)


def test_materials_extra_file(run_cli, tmp_path):
    extra = _write_material_json(tmp_path / "extra.json")
    code, out = run_cli("materials", "--show", "Custom_1.0", "--file", extra)
    assert code == 0
    assert rows(out)[1].startswith("Custom_1.0,0.001,2500,")
    code, _ = run_cli("materials", "--show", "Custom_1.0")
    assert code == 2


def test_materials_env_var(run_cli, tmp_path, monkeypatch):
    extra = _write_material_json(tmp_path / "extra.json")
    monkeypatch.setenv("TPADLAB_MATERIALS", extra)
    code, out = run_cli("materials", "--list")
    assert code == 0
    assert rows(out)[1].startswith("Custom_1.0,")  # extras come first


def test_materials_extra_shadows_builtin(run_cli, tmp_path):
    extra = _write_material_json(tmp_path / "shadow.json", name="SLG_0.4", density=9999.0)
    code, out = run_cli("materials", "--show", "SLG_0.4", "--file", extra)
    assert code == 0
    assert float(cells(rows(out)[1])[2]) == 9999.0


_GOOD_RECORD = {"name": "Custom_1.0", "thickness_m": 1e-3, "density_kg_m3": 2500.0, "youngs_modulus_pa": 70e9}

# material files that are JSON but not a list of glass records; each message names the first fault
MATERIAL_SCHEMA_ERRORS = {
    "not-an-array": (_GOOD_RECORD, "material file {path} must contain a top-level array"),
    "entry-not-an-object": ([_GOOD_RECORD, ["Custom_2.0"]], "{path}: entry 1 is not an object"),
    "name-not-a-string": ([dict(_GOOD_RECORD, name=7)], "{path}: entry 0 name must be a string"),
    "value-is-a-string": (
        [dict(_GOOD_RECORD, density_kg_m3="2500")],
        "{path}: entry 0 key 'density_kg_m3' must be a number",
    ),
    "value-is-a-bool": (
        [dict(_GOOD_RECORD, youngs_modulus_pa=True)],
        "{path}: entry 0 key 'youngs_modulus_pa' must be a number",
    ),
    "empty-name": ([dict(_GOOD_RECORD, name="")], "glass name must be non-empty"),
}


@pytest.mark.parametrize("payload,message", MATERIAL_SCHEMA_ERRORS.values(), ids=MATERIAL_SCHEMA_ERRORS.keys())
def test_materials_file_schema_error(capsys, tmp_path, payload, message):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["materials", "--file", str(path)]) == 2
    assert capsys.readouterr() == ("", f"tpadlab: error: {message.format(path=path)}\n")


def test_materials_file_quotes_a_name_that_splits_a_row(run_cli, tmp_path):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps([dict(_GOOD_RECORD, name="Custom,1.0")]))
    code, out = run_cli("materials", "--file", str(path), "--show", "Custom,1.0")
    assert code == 0
    assert [row[0] for row in csv.reader(io.StringIO(out, newline=""))] == ["name", "Custom,1.0"]


@pytest.mark.parametrize("argv", [["materials"], ["beam", "--glass", "SLG_0.4"]], ids=["materials", "beam"])
def test_material_file_with_an_integer_beyond_float_range_is_invalid(capsys, tmp_path, argv):
    path = _write_material_json(tmp_path / "extra.json", density=10**400)
    assert cli.main([*argv, "--file", path]) == 2
    assert capsys.readouterr().err == f"tpadlab: error: glass density must be positive and finite, got {10**400}\n"


def test_materials_malformed_file(run_cli, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    code, _ = run_cli("materials", "--list", "--file", str(bad))
    assert code == 2


# --- friction -----------------------------------------------------------


def test_friction_velocity_point(run_cli):
    code, out = run_cli("friction", "--model", "velocity", "--freq", "30kHz", "--amp", "3um")
    assert code == 0
    lines = rows(out)
    assert lines[0] == "model,frequency_hz,amplitude_m,psi,mu_prime"
    model, freq, amp, psi, mu = cells(lines[1])
    assert model == "velocity"
    assert float(freq) == 30000.0
    assert float(amp) == pytest.approx(3e-6)
    assert float(psi) == pytest.approx(1.6708437761069341, rel=1e-10)
    assert float(mu) == pytest.approx(0.2997071460760433, rel=1e-10)


def test_friction_velocity_at_rest(run_cli):
    code, out = run_cli("friction", "--model", "velocity", "--freq", "30kHz", "--amp", "0")
    assert code == 0
    _, _, _, psi, mu = cells(rows(out)[1])
    assert psi == "inf"
    assert float(mu) == 1.0


def test_friction_squeeze_point(run_cli):
    # amp == u0 and ps = 1.25 p0 puts the exponent at exactly -1
    code, out = run_cli(
        "friction", "--model", "squeeze", "--amp", "2um", "--u0", "2um", "--ps", "126656.25"
    )
    assert code == 0
    lines = rows(out)
    assert lines[0] == "model,amplitude_m,mu_prime"
    assert float(cells(lines[1])[2]) == pytest.approx(math.exp(-1.0), rel=1e-10)


def test_friction_contour_point(run_cli):
    code, out = run_cli("friction", "--model", "contour", "--freq", "50kHz")
    assert code == 0
    lines = rows(out)
    assert lines[0] == "model,frequency_hz,amplitude_um"
    assert float(cells(lines[1])[2]) == pytest.approx(2.2194435540571975, rel=1e-10)


def test_friction_contour_out_of_band(run_cli):
    code, _ = run_cli("friction", "--model", "contour", "--freq", "10kHz")
    assert code == 3


def test_friction_missing_flags(run_cli):
    code, _ = run_cli("friction", "--model", "velocity", "--freq", "30kHz")
    assert code == 64
    code, _ = run_cli("friction", "--model", "squeeze", "--amp", "1um")
    assert code == 64
    code, _ = run_cli("friction", "--model", "contour")
    assert code == 64


# --- circuit ------------------------------------------------------------

L_30K = 0.02814477323398271


def test_circuit_resonance_summary(run_cli):
    code, out = run_cli(
        "circuit",
        "--inductance", str(L_30K),
        "--capacitance", "1nF",
        "--resistance", "2150",
        "--c0", "9.88nF",
        "--voltage", "40",
    )
    assert code == 0
    lines = rows(out)
    assert lines[0] == (
        "frequency_hz,x0_ohm,x1_ohm,z_real_ohm,z_imag_ohm,z_abs_ohm,"
        "u_g_v,u_g_exact_v,i_g_a,delta_p_w"
    )
    values = [float(v) for v in cells(lines[1])]
    assert values[0] == pytest.approx(30e3, rel=1e-12)
    assert values[1] == pytest.approx(536.9599969362191, rel=1e-10)
    assert values[2] == pytest.approx(0.0, abs=1e-6)
    assert values[6] == pytest.approx(33.55834554830607, rel=1e-10)
    assert values[7] == pytest.approx(37.6310069768001, rel=1e-10)
    assert values[8] == pytest.approx(0.015608532813165614, rel=1e-10)
    assert values[9] == pytest.approx(0.5237965376462858, rel=1e-10)


def test_circuit_peak_voltage_conversion(run_cli):
    _, rms_out = run_cli(
        "circuit", "--inductance", str(L_30K), "--capacitance", "1nF",
        "--resistance", "2150", "--c0", "9.88nF", "--voltage", "40",
    )
    peak = 40.0 * math.sqrt(2.0)
    _, peak_out = run_cli(
        "circuit", "--inductance", str(L_30K), "--capacitance", "1nF",
        "--resistance", "2150", "--c0", "9.88nF", "--voltage", str(peak), "--peak",
    )
    rms_vals = [float(v) for v in cells(rows(rms_out)[1])]
    peak_vals = [float(v) for v in cells(rows(peak_out)[1])]
    assert peak_vals == pytest.approx(rms_vals, rel=1e-12)


def test_circuit_single_frequency(run_cli):
    code, out = run_cli(
        "circuit", "--inductance", str(L_30K), "--capacitance", "1nF",
        "--resistance", "2150", "--c0", "9.88nF", "--freq", "30kHz",
    )
    assert code == 0
    lines = rows(out)
    assert lines[0] == "frequency_hz,x0_ohm,x1_ohm,z_real_ohm,z_imag_ohm,z_abs_ohm"
    values = [float(v) for v in cells(lines[1])]
    assert values[3] == pytest.approx(126.23150922676827, rel=1e-10)
    assert values[4] == pytest.approx(-505.43382446754, rel=1e-10)
    assert values[5] == pytest.approx(520.958486673892, rel=1e-10)


def test_circuit_requires_voltage_or_freq(run_cli):
    code, _ = run_cli(
        "circuit", "--inductance", str(L_30K), "--capacitance", "1nF",
        "--resistance", "2150", "--c0", "9.88nF",
    )
    assert code == 64


def test_circuit_rejects_bad_parameters(run_cli):
    code, _ = run_cli(
        "circuit", "--inductance", "0", "--capacitance", "1nF",
        "--resistance", "2150", "--c0", "9.88nF", "--voltage", "40",
    )
    assert code == 2


CIRCUIT_ARGS = (
    "circuit", "--inductance", "28.1mH", "--capacitance", "1nF", "--resistance", "2150", "--c0", "9.88nF"
)


def test_circuit_rejects_infinite_voltage(run_cli):
    assert run_cli(*CIRCUIT_ARGS, "--voltage", "1e999") == (64, "")


def test_circuit_rejects_infinite_frequency(run_cli):
    assert run_cli(*CIRCUIT_ARGS, "--freq", "1e999") == (64, "")


def test_a_mega_suffix_is_no_milli_suffix(run_cli):
    # 40MV once parsed as 40 mV and exited 0
    assert run_cli(*CIRCUIT_ARGS, "--voltage", "40MV") == (64, "")
    assert run_cli(*CIRCUIT_ARGS, "--voltage", "40mv")[0] == 0


@pytest.mark.parametrize("freq", ["-5", "0", "-0"])
def test_circuit_rejects_a_non_positive_frequency(freq, capsys):
    # -5 used to print a negative x0_ohm magnitude with exit 0, and 0 a division by zero with exit 3
    assert cli.main([*CIRCUIT_ARGS, "--freq", freq]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"tpadlab: error: --freq must be positive and finite, got {float(freq)!r}\n"


def test_circuit_rejects_bad_unit_suffix(run_cli):
    code, _ = run_cli(
        "circuit", "--inductance", str(L_30K), "--capacitance", "1nX",
        "--resistance", "2150", "--c0", "9.88nF", "--voltage", "40",
    )
    assert code == 64


# --- fit ----------------------------------------------------------------

FIT_HEADER = (
    "inductance_h,capacitance_f,resistance_ohm,static_capacitance_f,"
    "resonant_frequency_hz,residual_norm,iterations,converged"
)


def test_fit_demo_is_deterministic(run_cli):
    code_a, out_a = run_cli("fit", "--demo")
    code_b, out_b = run_cli("fit", "--demo")
    assert code_a == code_b == 0
    assert out_a == out_b
    lines = rows(out_a)
    assert lines[0] == FIT_HEADER
    assert cells(lines[1])[7] == "true"


def test_fit_demo_noise_free_recovery(run_cli):
    code, out = run_cli("fit", "--demo", "--noise", "0")
    assert code == 0
    fields = cells(rows(out)[1])
    expected_l = 1.0 / ((2.0 * math.pi * 30e3) ** 2 * 1e-9)
    assert float(fields[0]) == pytest.approx(expected_l, rel=1e-9)
    assert float(fields[1]) == pytest.approx(1e-9, rel=1e-9)
    assert float(fields[2]) == pytest.approx(2150.0, rel=1e-9)
    assert float(fields[3]) == pytest.approx(9.88e-9, rel=1e-12)
    assert float(fields[4]) == pytest.approx(30e3, rel=1e-9)
    assert fields[7] == "true"


def test_fit_demo_round_trip_through_csv(run_cli, tmp_path):
    saved = tmp_path / "spectrum.csv"
    code, demo_out = run_cli("fit", "--demo", "--demo-out", str(saved))
    assert code == 0
    assert saved.read_text().startswith("frequency_hz,magnitude_ohm,phase_deg")
    code, file_out = run_cli("fit", "--input", str(saved), "--c0", "9.88nF")
    assert code == 0
    demo_fields = cells(rows(demo_out)[1])
    file_fields = cells(rows(file_out)[1])
    for i in range(5):
        assert float(file_fields[i]) == pytest.approx(float(demo_fields[i]), rel=1e-6)
    assert file_fields[7] == "true"


def test_fit_missing_input_file(run_cli, tmp_path):
    code, _ = run_cli("fit", "--input", str(tmp_path / "nope.csv"), "--c0", "9.88nF")
    assert code == 2


def test_fit_needs_input_or_demo(run_cli):
    code, _ = run_cli("fit")
    assert code == 64
    code, _ = run_cli("fit", "--input", "x.csv")  # --c0 missing
    assert code == 64


def test_fit_featureless_spectrum(run_cli, tmp_path):
    c0 = 9.88e-9
    path = tmp_path / "cap.csv"
    lines = ["frequency_hz,magnitude_ohm,phase_deg"]
    for f in np.linspace(20e3, 40e3, 201):
        lines.append(f"{f:.6f},{1.0 / (2.0 * math.pi * f * c0):.6f},-90")
    path.write_text("\n".join(lines) + "\n")
    code, _ = run_cli("fit", "--input", str(path), "--c0", "9.88nF")
    assert code == 3


def test_fit_iteration_cap_failure(run_cli):
    code, _ = run_cli("fit", "--demo", "--max-iter", "1")
    assert code == 3


def test_fit_rejects_a_step_that_leaves_float_range(run_cli, monkeypatch):
    # trial steps of this fit leave float range in exp(theta): they are rejected steps, not bad input
    left_range = []
    wrapped = bvdfit._params_from_theta

    def params_from_theta(theta, c0):
        try:
            return wrapped(theta, c0)
        except InvalidProperty:
            left_range.append(theta)
            raise

    monkeypatch.setattr(bvdfit, "_params_from_theta", params_from_theta)
    code, out = run_cli("fit", "--demo", "--demo-c", "1", "--demo-r", "1", "--points", "12", "--fit-c0")
    assert code == 0
    assert cells(rows(out)[1])[7] == "true"
    assert left_range


# fit --demo flags outside what the demo spectrum or the fit can take: one typed error, no numpy warning
FIT_DEMO_EDGES = {
    "negative-points": (("--points", "-1"), 2, "spectrum needs at least 8 points, got -1"),
    "negative-seed": (("--seed", "-1"), 2, "seed must be non-negative, got -1"),
    "noise-out-of-range": (("--demo-c", "1", "--noise", "1e307"), 2, "spectrum contains non-finite values"),
    "zero-max-iter": (("--max-iter", "0"), 2, "fit max_iterations must be positive and finite, got 0"),
    "negative-max-iter": (("--max-iter", "-1"), 2, "fit max_iterations must be positive and finite, got -1"),
    "max-iter-beyond-float-range": (
        ("--max-iter", str(10**400)),
        2,
        f"fit max_iterations must be positive and finite, got {10**400}",
    ),
    "negative-shunt": (("--include-shunt", "-5"), 2, "fit shunt_resistance must be >= 0 and finite, got -5.0"),
    # |Z| is near 1e-97 Ohm and the start fits it, but with a 1e300 Ohm shunt the model/data ratio overflows
    "start-out-of-range": (
        ("--demo-c", "1e91", "--demo-r", "2e-97", "--c0", "1e92", "--include-shunt", "1e300"),
        3,
        "objective is not finite at the starting point",
    ),
    "overdamped": (
        ("--demo-r", "100kohm"),
        3,
        "spectrum shows no usable resonance: the linear start gives L=-0.0729 H, C=-4.34e-10 F, R=1.07e+04 Ohm",
    ),
}


@pytest.mark.parametrize("flags,code,message", FIT_DEMO_EDGES.values(), ids=FIT_DEMO_EDGES.keys())
def test_fit_demo_edge_is_one_typed_error(capsys, flags, code, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["fit", "--demo", *flags]) == code
    assert capsys.readouterr() == ("", f"tpadlab: error: {message}\n")


def test_fit_checks_its_options_before_writing_the_demo_spectrum(run_cli, tmp_path):
    path = tmp_path / "demo.csv"
    assert run_cli("fit", "--demo", "--demo-out", str(path), "--max-iter", "0") == (2, "")
    assert not path.exists()


def test_fit_input_with_an_infinite_cell_is_one_typed_error(capsys, tmp_path):
    lines = ["frequency_hz,magnitude_ohm,phase_deg"] + [f"{29000 + 100 * k},{1000 + k},-80" for k in range(12)]
    lines[5] = "29400,inf,0"
    path = tmp_path / "spectrum.csv"
    path.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["fit", "--input", str(path), "--c0", "9.88nF"]) == 2
    assert capsys.readouterr() == ("", "tpadlab: error: spectrum contains non-finite values\n")


# --- beam ---------------------------------------------------------------


def test_beam_single_design(run_cli):
    code, out = run_cli("beam", "--glass", "SLG_0.4")
    assert code == 0
    lines = rows(out)
    assert lines[0] == "name,d1_prime_pa_m3,d2_per_width_pa_m3,beta_a_per_m,beta_p_per_m,n,n_squared"
    fields = cells(lines[1])
    assert fields[0] == "SLG_0.4"
    assert float(fields[1]) == pytest.approx(9.326666666666666, rel=1e-10)
    assert float(fields[5]) == pytest.approx(5.561018403134684, rel=1e-10)


def test_beam_reference_ratio(run_cli):
    code, out = run_cli("beam", "--glass", "Gorilla_0.8", "--reference", "SLG_0.4")
    assert code == 0
    lines = rows(out)
    assert lines[0].startswith(NOTE_PREFIX)
    assert lines[1].endswith(",predicted_power_ratio")
    assert float(cells(lines[2])[-1]) == pytest.approx(2.747167344344283, rel=1e-10)


def test_beam_explicit_properties_match_library(run_cli):
    _, lib_out = run_cli("beam", "--glass", "SLG_0.4")
    code, out = run_cli(
        "beam", "--thickness", "0.4mm", "--density", "2.483g/cm3", "--youngs-modulus", "71GPa"
    )
    assert code == 0
    lib_n = float(cells(rows(lib_out)[1])[5])
    custom = cells(rows(out)[1])
    assert custom[0] == "custom"
    assert float(custom[5]) == pytest.approx(lib_n, rel=1e-12)


BEAM_HEADER = "name,d1_prime_pa_m3,d2_per_width_pa_m3,beta_a_per_m,beta_p_per_m,n,n_squared"

# each --actuator-* flag replaces its own field of the builtin actuator record and leaves the rest
ACTUATOR_OVERRIDES = {
    "thickness": (("--actuator-thickness", "5e-4"), {"thickness": 5e-4}),
    "density": (("--actuator-density", "7500"), {"density": 7500.0}),
    "youngs-modulus": (("--actuator-youngs-modulus", "6e10"), {"youngs_modulus": 6e10}),
    "all": (
        ("--actuator-thickness", "5e-4", "--actuator-density", "7500", "--actuator-youngs-modulus", "6e10"),
        {"thickness": 5e-4, "density": 7500.0, "youngs_modulus": 6e10},
    ),
}


def _beam_row(glass, actuator):
    r = beam.amplification_number(glass, actuator)
    return (glass.name, r.d1_prime, r.d2_per_width, r.beta_a, r.beta_p, r.n, r.n_squared)


@pytest.mark.parametrize("flags,fields", ACTUATOR_OVERRIDES.values(), ids=ACTUATOR_OVERRIDES.keys())
def test_beam_actuator_overrides(run_cli, flags, fields):
    base = materials.default_actuator()
    actuator = materials.ActuatorSpec(
        thickness=fields.get("thickness", base.thickness),
        density=fields.get("density", base.density),
        youngs_modulus=fields.get("youngs_modulus", base.youngs_modulus),
        static_capacitance=base.static_capacitance,
    )
    glass = materials.lookup("SLG_0.4")
    expected = csv_table(BEAM_HEADER, [_beam_row(glass, actuator)])
    assert expected != csv_table(BEAM_HEADER, [_beam_row(glass, base)])  # the override shows in the row
    assert run_cli("beam", "--glass", "SLG_0.4", *flags) == (0, "\n".join(expected) + "\n")


def test_beam_rejects_infinite_thickness(run_cli):
    code, out = run_cli("beam", "--thickness", "1e999", "--density", "2.5g/cm3", "--youngs-modulus", "70GPa")
    assert (code, out) == (64, "")


def test_beam_quotes_a_name_that_splits_the_row(capsys):
    argv = ["beam", "--thickness", "1mm", "--density", "2500", "--youngs-modulus", "70GPa", "--name", "a,b"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    header, row = csv.reader(io.StringIO(out, newline=""))
    assert (len(row), row[0]) == (len(header), "a,b")


def test_beam_rejects_infinite_actuator_density(run_cli):
    assert run_cli("beam", "--glass", "SLG_0.4", "--actuator-density", "1e999") == (64, "")


def test_beam_rejects_infinite_density_in_material_file(run_cli, tmp_path):
    extra = _write_material_json(tmp_path / "inf.json", name="X", density=math.inf)
    assert run_cli("beam", "--glass", "X", "--file", extra) == (2, "")


def test_beam_sweep_rejects_points_outside_the_model(capsys):
    # exit 3, as a single point with that thickness is; a value GlassSpec rejects stays exit 2
    assert cli.main(["beam", "--glass", "SLG_0.4", "--sweep", "thickness", "--grid-values", "0.4mm,1e-200"]) == 3
    message = "result outside the model's range (glass thickness 1e-200 gives a non-finite n^2)"
    assert capsys.readouterr() == ("", f"tpadlab: error: {message}\n")


def test_beam_glass_and_explicit_are_exclusive(run_cli):
    code, _ = run_cli("beam", "--glass", "SLG_0.4", "--thickness", "0.4mm")
    assert code == 64


def test_beam_needs_some_glass(run_cli):
    code, _ = run_cli("beam")
    assert code == 64


def test_beam_sweep_grid(run_cli):
    code, out = run_cli("beam", "--glass", "SLG_0.4", "--sweep", "thickness", "--grid", "0.4mm:0.8mm:5")
    assert code == 0
    lines = rows(out)
    assert lines[0] == "axis_value,n,n_squared"
    assert len(lines) == 6
    values = [float(cells(line)[0]) for line in lines[1:]]
    assert values == pytest.approx([4e-4, 5e-4, 6e-4, 7e-4, 8e-4])
    n_sq = [float(cells(line)[2]) for line in lines[1:]]
    assert all(a > b for a, b in zip(n_sq, n_sq[1:]))


def test_beam_sweep_grid_count_past_the_int_digit_limit_by_leading_zeros(run_cli):
    five = run_cli(*SWEEP, "0.4mm:0.8mm:5")
    assert five[0] == 0
    assert run_cli(*SWEEP, f"0.4mm:0.8mm:{'0' * 4400}5") == five


def test_beam_sweep_grid_values(run_cli):
    code, out = run_cli(
        "beam", "--glass", "SLG_0.4", "--sweep", "density", "--grid-values", "2200,2.483g/cm3"
    )
    assert code == 0
    lines = rows(out)
    assert len(lines) == 3
    assert float(cells(lines[2])[0]) == pytest.approx(2483.0)


def test_beam_sweep_needs_grid(run_cli):
    code, _ = run_cli("beam", "--glass", "SLG_0.4", "--sweep", "thickness")
    assert code == 64


@pytest.mark.parametrize(
    "grid,message",
    [
        (("--grid-values", "1mm,2xx"), "unknown length unit 'xx' in '2xx' (expected one of: m, mm, nm, um, µm, μm)"),
        (("--grid", "1mm:2xx:3"), "unknown length unit 'xx' in '2xx' (expected one of: m, mm, nm, um, µm, μm)"),
        (("--grid", "1mm:2mm:x"), "--grid COUNT must be an integer >= 1, got 'x'"),
        (("--grid", "1mm:2mm:0"), "--grid COUNT must be an integer >= 1, got '0'"),
    ],
    ids=["grid-values-unit", "grid-unit", "grid-count-text", "grid-count-zero"],
)
def test_beam_bad_grid_names_the_fault(capsys, grid, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(["beam", "--glass", "SLG_0.4", "--sweep", "thickness", *grid])
    assert exc.value.code == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"tpadlab beam: error: {message}\n")


def test_unit_messages_reach_flag_users(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["friction", "--model", "contour", "--freq", "30xx"])
    assert exc.value.code == 64
    message = "argument --freq: unknown frequency unit 'xx' in '30xx' (expected one of: Hz, MHz, kHz)"
    assert capsys.readouterr().err.endswith(f"tpadlab friction: error: {message}\n")


def test_beam_bad_grid_shape(run_cli):
    code, _ = run_cli("beam", "--glass", "SLG_0.4", "--sweep", "thickness", "--grid", "0.4mm:0.8mm")
    assert code == 64


# --- predict-power ------------------------------------------------------


def test_predict_power_default_reference(run_cli):
    code, out = run_cli("predict-power")
    assert code == 0
    lines = rows(out)
    assert lines[0].startswith(NOTE_PREFIX)
    assert lines[1] == "name,n_squared,predicted_power_ratio"
    body = lines[2:]
    assert len(body) == 8
    by_name = {cells(line)[0]: cells(line) for line in body}
    assert float(by_name["SLG_0.4"][2]) == pytest.approx(1.0, rel=1e-12)
    assert float(by_name["Gorilla_0.8"][2]) == pytest.approx(2.747167344344283, rel=1e-10)


def test_predict_power_other_reference(run_cli):
    code, out = run_cli("predict-power", "--reference", "Gorilla_0.8")
    assert code == 0
    by_name = {cells(line)[0]: cells(line) for line in data_rows(out)[1:]}
    assert float(by_name["Gorilla_0.8"][2]) == pytest.approx(1.0, rel=1e-12)
    assert float(by_name["SLG_0.4"][2]) == pytest.approx(1.0 / 2.747167344344283, rel=1e-10)


def test_prediction_ratio_cell_is_power_ratio():
    glasses, actuator = materials.material_library(), materials.default_actuator()
    for reference in glasses:
        lines = cli._prediction_lines(glasses, reference, actuator)
        for glass, line in zip(glasses, lines[2:], strict=True):
            expected = csv_table("predicted_power_ratio", [(beam.power_ratio(reference, glass, actuator),)])
            assert cells(line)[2] == expected[1], (reference.name, glass.name)


# --- reduce-traces ------------------------------------------------------


def _write_trace_csv(path, v_piezo, v_shunt, ldv=None):
    columns = [v_piezo, v_shunt] + ([ldv] if ldv is not None else [])
    header = "v_piezo,v_shunt" + (",ldv" if ldv is not None else "")
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(f"{v:.9e}" for v in row))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _tone_columns(n=30000, with_ldv=True):
    t = np.arange(n) / FS
    omega = 2.0 * math.pi * 30e3
    v_piezo = 40.0 * np.sin(omega * t)
    v_shunt = 10.0 * np.sin(omega * t - math.radians(60.0))
    ldv = 3e-6 * np.sin(omega * t + 0.4) if with_ldv else None
    return v_piezo, v_shunt, ldv


def test_reduce_traces_full_row(run_cli, tmp_path):
    v_piezo, v_shunt, ldv = _tone_columns()
    path = _write_trace_csv(tmp_path / "trial.csv", v_piezo, v_shunt, ldv)
    code, out = run_cli("reduce-traces", path, "--sample-rate", "300kHz")
    assert code == 0
    lines = rows(out)
    assert lines[0] == (
        "file,drive_frequency_hz,real_power_w,amplitude_m,rms_current_a,amplitude_low_confidence"
    )
    fields = cells(lines[1])
    assert fields[0] == path
    assert float(fields[1]) == pytest.approx(30e3, abs=1.0)
    assert float(fields[2]) == pytest.approx(1.0, rel=1e-3)
    assert float(fields[3]) == pytest.approx(3e-6, rel=5e-3)
    assert float(fields[4]) == pytest.approx(0.1 / math.sqrt(2.0), rel=1e-4)
    assert fields[5] == "false"


def test_reduce_traces_without_ldv(run_cli, tmp_path):
    v_piezo, v_shunt, _ = _tone_columns(with_ldv=False)
    path = _write_trace_csv(tmp_path / "noldv.csv", v_piezo, v_shunt)
    code, out = run_cli("reduce-traces", path, "--sample-rate", "300kHz")
    assert code == 0
    fields = cells(rows(out)[1])
    assert float(fields[2]) == pytest.approx(1.0, rel=1e-3)
    assert fields[3] == ""
    assert fields[5] == ""


def test_reduce_traces_detects_the_tone_once_without_ldv(run_cli, tmp_path, monkeypatch):
    detect, calls = dataio.detect_drive_frequency, []
    monkeypatch.setattr(dataio, "detect_drive_frequency", lambda traces: calls.append(1) or detect(traces))
    v_piezo, v_shunt, _ = _tone_columns(with_ldv=False)
    path = _write_trace_csv(tmp_path / "noldv.csv", v_piezo, v_shunt)
    code, _ = run_cli("reduce-traces", path, "--sample-rate", "300kHz")
    assert code == 0
    assert len(calls) == 1


def test_reduce_traces_silent_trial(run_cli, tmp_path):
    n = 30000
    path = _write_trace_csv(tmp_path / "silent.csv", np.zeros(n), np.zeros(n))
    code, out = run_cli("reduce-traces", path, "--sample-rate", "300kHz")
    assert code == 0
    assert rows(out)[1] == f"{path},0,0,,0,"


def test_reduce_traces_source_column_correction(run_cli, tmp_path):
    v_device, v_shunt, ldv = _tone_columns()
    path = _write_trace_csv(tmp_path / "src.csv", v_device + v_shunt, v_shunt, ldv)
    code, out = run_cli(
        "reduce-traces", path, "--sample-rate", "300kHz", "--piezo-column", "source"
    )
    assert code == 0
    assert float(cells(rows(out)[1])[2]) == pytest.approx(1.0, rel=1e-3)


def test_reduce_traces_velocity_kind(run_cli, tmp_path):
    v_piezo, v_shunt, _ = _tone_columns(with_ldv=False)
    omega = 2.0 * math.pi * 30e3
    t = np.arange(len(v_piezo)) / FS
    ldv = 3e-6 * omega * np.cos(omega * t)
    path = _write_trace_csv(tmp_path / "vel.csv", v_piezo, v_shunt, ldv)
    code, out = run_cli(
        "reduce-traces", path, "--sample-rate", "300kHz", "--ldv-kind", "velocity"
    )
    assert code == 0
    assert float(cells(rows(out)[1])[3]) == pytest.approx(3e-6, rel=5e-3)


def test_reduce_traces_multiple_files(run_cli, tmp_path):
    v_piezo, v_shunt, ldv = _tone_columns()
    a = _write_trace_csv(tmp_path / "a.csv", v_piezo, v_shunt, ldv)
    b = _write_trace_csv(tmp_path / "b.csv", v_piezo, v_shunt, ldv)
    code, out = run_cli("reduce-traces", a, b, "--sample-rate", "300kHz")
    assert code == 0
    lines = rows(out)
    assert len(lines) == 3
    assert cells(lines[1])[1:] == cells(lines[2])[1:]


@pytest.mark.parametrize("name", ["a,b.csv", 'say "hi".csv'])
def test_reduce_traces_quotes_a_file_cell_that_needs_it(run_cli, tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    _write_trace_csv(tmp_path / name, *_tone_columns(n=3000, with_ldv=False))
    code, out = run_cli("reduce-traces", name, "--sample-rate", "300kHz")
    assert code == 0
    header, row = csv.reader(io.StringIO(out))
    assert len(header) == len(row) == 6
    assert row[0] == name


def test_reduce_traces_bad_file(run_cli, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,volts\n0,0\n")
    code, _ = run_cli("reduce-traces", str(bad), "--sample-rate", "300kHz")
    assert code == 2


@pytest.mark.parametrize(
    "argv,name,content",
    [
        (("reduce-traces", "{}", "--sample-rate", "300kHz"), "trace.csv", b"v_piezo,v_shunt\n1,2\n\xff,3\n"),
        (
            ("fit", "--input", "{}", "--c0", "1nF"),
            "spectrum.csv",
            b"frequency_hz,magnitude_ohm,phase_deg\n\xff,3,4\n",
        ),
        (("materials", "--file", "{}"), "extra.json", b'[{"name": "\xff"}]'),
    ],
    ids=["trace", "spectrum", "material"],
)
def test_non_utf8_input_is_unusable(run_cli, tmp_path, argv, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    assert run_cli(*(arg.format(path) for arg in argv)) == (2, "")


def test_reduce_traces_non_finite_sample(run_cli, tmp_path):
    v_piezo, v_shunt, ldv = _tone_columns()
    v_shunt = v_shunt.copy()
    v_shunt[100] = math.nan
    path = _write_trace_csv(tmp_path / "nan.csv", v_piezo, v_shunt, ldv)
    code, out = run_cli("reduce-traces", path, "--sample-rate", "300kHz")
    assert code == 2
    assert out == ""


def test_reduce_traces_near_float_range_is_one_typed_error(capsys, tmp_path):
    # v*i and v_shunt**2 overflow: the sums are inf, and no table prints inf
    v_piezo, v_shunt, ldv = _tone_columns(n=3000)
    path = _write_trace_csv(tmp_path / "huge.csv", 1e154 * v_piezo, 1e154 * v_shunt, 1e154 * ldv)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["reduce-traces", path, "--sample-rate", "300kHz"]) == 3
    assert capsys.readouterr() == ("", "tpadlab: error: result outside the model's range (got inf)\n")


def test_reduce_traces_ldv_near_float_range_is_an_analysis_failure(capsys, tmp_path):
    # the mean of the ldv channel overflows; the power and current stay finite
    v_piezo, v_shunt, ldv = _tone_columns(n=300)
    path = _write_trace_csv(tmp_path / "huge_ldv.csv", v_piezo, v_shunt, ldv / 3e-6 * 1.7e308)
    argv = ["reduce-traces", path, "--sample-rate", "300kHz", "--shunt", "100", "--ldv-kind", "displacement"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", "tpadlab: error: result outside the model's range (ldv amplitude is not finite)\n")


# --- repro --------------------------------------------------------------


def test_repro_fig4(run_cli):
    code, out = run_cli("repro", "fig4")
    assert code == 0
    lines = rows(out)
    assert lines[0] == "frequency_hz,amplitude_um"
    assert len(lines) == 146
    first = cells(lines[1])
    assert float(first[0]) == 16000.0
    assert float(first[1]) == pytest.approx(6.889966853487861, rel=1e-10)
    last = cells(lines[-1])
    assert float(last[0]) == 160000.0
    assert float(last[1]) == pytest.approx(0.3120893187594378, rel=1e-10)


def test_repro_fig11(run_cli):
    code, out = run_cli("repro", "fig11")
    assert code == 0
    lines = rows(out)
    assert lines[0].startswith(NOTE_PREFIX)
    assert len(data_rows(out)) == 9  # header + 8 glasses


def test_repro_fig10_stdout_blocks(run_cli):
    code, out = run_cli("repro", "fig10")
    assert code == 0
    lines = rows(out)
    markers = [line for line in lines if line.startswith("# axis=")]
    assert markers == [
        "# axis=thickness base=SLG_0.4",
        "# axis=density base=SLG_0.4",
        "# axis=youngs_modulus base=SLG_0.4",
    ]


def test_repro_fig10_directory_output(run_cli, tmp_path):
    out_dir = tmp_path / "fig10"
    code, out = run_cli("repro", "fig10", "--out", str(out_dir))
    assert code == 0
    assert out == ""
    expected_rows = {"thickness": 71, "density": 61, "youngs_modulus": 81}
    for axis, count in expected_rows.items():
        text = (out_dir / f"fig10_{axis}.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == f"# axis={axis} base=SLG_0.4"
        assert lines[1] == "axis_value,n,n_squared"
        assert len(lines) == 2 + count


# --- generic behavior ---------------------------------------------------


def test_out_flag_matches_stdout(run_cli, tmp_path):
    _, stdout_text = run_cli("friction", "--model", "contour", "--freq", "50kHz")
    out_file = tmp_path / "contour.csv"
    code, piped = run_cli(
        "friction", "--model", "contour", "--freq", "50kHz", "--out", str(out_file)
    )
    assert code == 0
    assert piped == ""
    assert out_file.read_text() == stdout_text


# an output path that cannot be written: (argv, the path the message names, the reason), from the directory
# tmp_path, in which "file" is an existing file
UNWRITABLE_OUTPUTS = {
    "out-in-missing-directory": (("materials", "--list", "--out", "missing/x.csv"), "missing/x.csv", "No such file"),
    "demo-out-is-a-directory": (("fit", "--demo", "--demo-out", "."), ".", "Is a directory"),
    "fig10-out-is-a-file": (("repro", "fig10", "--out", "file"), "file", "File exists"),
    "fig10-out-under-a-file": (("repro", "fig10", "--out", "file/sub"), "file/sub", "Not a directory"),
}


@pytest.mark.parametrize("argv,path,reason", UNWRITABLE_OUTPUTS.values(), ids=UNWRITABLE_OUTPUTS.keys())
def test_unwritable_output_path_is_exit_2(capsys, monkeypatch, tmp_path, argv, path, reason):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("kept\n")
    assert cli.main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"tpadlab: error: cannot write {path}: {reason}") and err.count("\n") == 1
    assert (tmp_path / "file").read_text() == "kept\n"


# a point count above units.MAX_POINTS, refused before anything is allocated
POINT_COUNTS = {
    "fit-points-bound-plus-one": (FIT_POINTS, str(MAX_POINTS + 1), f"spectrum may have at most {MAX_POINTS} points"),
    "fit-points-401-digits": (FIT_POINTS, str(10**400), f"spectrum may have at most {MAX_POINTS} points"),
    "grid-count-bound-plus-one": (SWEEP, f"1e-4:2e-4:{MAX_POINTS + 1}", f"--grid COUNT must be at most {MAX_POINTS}"),
    "grid-count-401-digits": (SWEEP, f"1e-4:2e-4:{10**400}", f"--grid COUNT must be at most {MAX_POINTS}"),
    # past int()'s 4300-digit limit for strings
    "grid-count-4400-digits": (SWEEP, f"1e-4:2e-4:{'1' * 4400}", f"--grid COUNT must be at most {MAX_POINTS}"),
}


@pytest.mark.parametrize("argv,count,message", POINT_COUNTS.values(), ids=POINT_COUNTS.keys())
def test_point_count_above_the_bound_is_exit_2(capsys, argv, count, message):
    assert cli.main([*argv, count]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"tpadlab: error: {message}, got ") and err.count("\n") == 1


def test_unknown_subcommand(run_cli):
    code, _ = run_cli("resonate")
    assert code == 64


def test_unknown_flag(run_cli):
    code, _ = run_cli("materials", "--frobnicate")
    assert code == 64


def test_one_parser_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_flags_do_not_carry_over_between_calls(run_cli):
    point = ("friction", "--model", "velocity", "--freq", "30kHz", "--amp", "3um")
    code, changed = run_cli(*point, "--mu0", "0.5")
    assert code == 0
    code, default = run_cli(*point)
    assert code == 0
    assert default == (GOLDEN / "friction_velocity.stdout").read_text()
    assert changed != default


# --- results outside the model's range ----------------------------------

# finite inputs that pass every record check, yet leave float range inside a closed form
OUT_OF_RANGE = {
    "circuit-huge-frequency": (*CIRCUIT_ARGS, "--freq", "1e300"),
    "circuit-top-of-range-frequency": (*CIRCUIT_ARGS, "--freq", "1e308"),
    "velocity-subnormal-amplitude": ("friction", "--model", "velocity", "--freq", "30kHz", "--amp", "1e-320"),
    "beam-tiny-thickness": ("beam", "--thickness", "1e-200", "--density", "2.5g/cm3", "--youngs-modulus", "70GPa"),
    "circuit-huge-voltage": (*CIRCUIT_ARGS, "--voltage", "1e300"),
    "squeeze-huge-amplitude": ("friction", "--model", "squeeze", "--amp", "1e200", "--u0", "1e-200", "--ps", "1"),
    "circuit-tiny-motional-branch": (
        "circuit", "--inductance", "1e-300", "--capacitance", "1e-300", "--resistance", "2150",
        "--c0", "9.88nF", "--voltage", "10",
    ),
    # {capture}: v_piezo = -v_shunt = 1.5e308 sin, so the source-side v_piezo - v_shunt overflows
    "reduce-source-side-overflow": ("reduce-traces", "{capture}", "--sample-rate", "300kHz", "--piezo-column", "source"),
}


@pytest.fixture(scope="module")
def opposed_capture(scratch):
    """20,000 rows at 300 kHz of a 30 kHz tone, each channel finite and near the top of float range."""
    v_piezo = 1.5e308 * np.sin(2.0 * math.pi * 30e3 * np.arange(20_000) / FS)
    return _write_trace_csv(scratch / "opposed.csv", v_piezo, -v_piezo)


@pytest.mark.parametrize("argv", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
def test_result_outside_the_model_is_an_analysis_failure(run_cli_child, opposed_capture, argv):
    run = run_cli_child(*(arg.format(capture=opposed_capture) for arg in argv))
    assert (run.code, run.out) == (3, "")
    assert "Traceback" not in run.err
    assert run.err.startswith("tpadlab: error: result outside the model's range (")
    assert run.err.count("\n") == 1


def test_no_numpy_warning_before_a_typed_error(run_cli_child):
    # the one-line stderr of circuit-huge-frequency above already rules out its warning
    run = run_cli_child("fit", "--demo", "--demo-c", "1e-300")
    assert (run.code, run.out) == (2, "")
    assert run.err == "tpadlab: error: spectrum contains non-finite values\n"


def test_rows_hold_no_non_finite_number():
    for value in (-math.inf, math.nan, np.float64("nan")):
        with pytest.raises(AnalysisError, match="outside the model's range"):
            csv_table("name,value", [("x", value)])
