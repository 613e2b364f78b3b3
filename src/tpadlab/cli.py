"""Command line interface.

One executable, eight subcommands:

* ``materials``      -- list or show library glass records
* ``friction``       -- evaluate a friction-reduction model point
* ``circuit``        -- equivalent-circuit resonance predictions
* ``fit``            -- fit circuit parameters to an impedance CSV
* ``beam``           -- amplification number and design sweeps
* ``predict-power``  -- relative power prediction across the library
* ``reduce-traces``  -- reduce raw trial captures to summary rows
* ``repro``          -- emit the bundled reference tables

All output is CSV (optionally with ``#`` comment lines) on stdout or at
``--out``; runs are byte-deterministic for identical inputs and seeds.
Numeric flags accept unit suffixes (e.g. ``0.4mm``, ``9.88nF``,
``30kHz``); bare numbers are SI.

Exit codes: 0 success, 64 usage error, 2 unusable input
(:class:`~tpadlab.errors.ParseError`), 3 analysis failure
(:class:`~tpadlab.errors.AnalysisError`, or a result outside the model's
range: a non-finite number to print, or an overflow or a division by zero
inside a closed form).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

from . import beam, circuit, friction, materials, units
from .errors import AnalysisError, TpadlabError, require_positive
from .units import csv_table

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ANALYSIS = 3
EXIT_USAGE = 64

MODEL_CONDITIONAL_NOTE = (
    "# model-conditional: assumes the reflected plate impedance dominates the "
    "actuator impedance and that plate impedances are similar across designs"
)

# repro fig4: contour samples every 1 kHz
_FIG4_FREQS_HZ = [1e3 * k for k in range(16, 161)]


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _materials_csv_rows(glasses) -> list[str]:
    rows = [(g.name, g.thickness, g.density, g.youngs_modulus) for g in glasses]
    return csv_table("name,thickness_m,density_kg_m3,youngs_modulus_pa", rows)


def _extra_materials(args) -> list[materials.GlassSpec]:
    """Extra glasses from --file and TPADLAB_MATERIALS, in that order."""
    extra: list[materials.GlassSpec] = []
    for path in filter(None, [getattr(args, "materials_file", None), os.environ.get("TPADLAB_MATERIALS")]):
        extra.extend(materials.load_material_file(path))
    return extra


def _cmd_materials(args, parser) -> list[str]:
    if args.actuator:
        a = materials.default_actuator()
        return csv_table(
            "thickness_m,density_kg_m3,youngs_modulus_pa,static_capacitance_f",
            [(a.thickness, a.density, a.youngs_modulus, a.static_capacitance)],
        )
    extra = _extra_materials(args)
    if args.show:
        return _materials_csv_rows([materials.lookup(args.show, extra)])
    return _materials_csv_rows(materials.material_library(extra))


def _cmd_friction(args, parser) -> list[str]:
    if args.model == "velocity":
        if args.freq is None or args.amp is None:
            parser.error("--model velocity needs --freq and --amp")
        params = friction.FrictionParams(
            explore_velocity=args.explore_velocity,
            mu0=args.mu0,
            poisson=args.poisson,
            psi_star=args.psi_star,
        )
        vib = friction.VibrationState(frequency=args.freq, amplitude=args.amp)
        mu = friction.relative_friction_velocity(vib, params)
        psi = "inf" if args.amp == 0 else friction.psi(vib, params)
        row = ("velocity", args.freq, args.amp, psi, mu)
        return csv_table("model,frequency_hz,amplitude_m,psi,mu_prime", [row])
    if args.model == "squeeze":
        if args.amp is None or args.u0 is None or args.ps is None:
            parser.error("--model squeeze needs --amp, --u0 and --ps")
        params = friction.SqueezeFilmParams(u0=args.u0, ps=args.ps, p0=args.p0)
        mu = friction.relative_friction_squeeze(args.amp, params)
        return csv_table("model,amplitude_m,mu_prime", [("squeeze", args.amp, mu)])
    # contour
    if args.freq is None:
        parser.error("--model contour needs --freq")
    alpha_um = friction.contour_amplitude(args.freq)
    return csv_table("model,frequency_hz,amplitude_um", [("contour", args.freq, alpha_um)])


def _cmd_circuit(args, parser) -> list[str]:
    params = circuit.BvdParams(
        inductance=args.inductance,
        capacitance=args.capacitance,
        resistance=args.resistance,
        static_capacitance=args.c0,
    )
    if args.freq is not None:
        require_positive(args, "--", "freq")
        z = circuit.impedance(params, args.freq)
        x0 = circuit.static_reactance_magnitude(args.c0, args.freq)
        x1 = circuit.motional_reactance(params, args.freq)
        row = (args.freq, x0, x1, z.real, z.imag, abs(z))
        return csv_table("frequency_hz,x0_ohm,x1_ohm,z_real_ohm,z_imag_ohm,z_abs_ohm", [row])
    voltage = args.voltage
    if voltage is None:
        parser.error("--voltage is required unless --freq is given")
    if args.peak:
        voltage /= math.sqrt(2.0)
    drive = circuit.DriveConfig(source_voltage=voltage, shunt_resistance=args.shunt)
    ev = circuit.evaluate(params, drive)
    header = (
        "frequency_hz,x0_ohm,x1_ohm,z_real_ohm,z_imag_ohm,z_abs_ohm,"
        "u_g_v,u_g_exact_v,i_g_a,delta_p_w"
    )
    row = (ev.frequency, ev.x0, ev.x1, ev.z.real, ev.z.imag, abs(ev.z))
    return csv_table(header, [(*row, ev.u_g, ev.u_g_exact, ev.i_g, ev.delta_p)])


def _cmd_fit(args, parser) -> list[str]:
    from . import bvdfit

    options = bvdfit.FitOptions(
        max_iterations=args.max_iter,
        fit_static_capacitance=args.fit_c0,
        shunt_resistance=args.include_shunt,
    )
    if args.demo:
        c0 = args.c0 if args.c0 is not None else materials.default_actuator().static_capacitance
        c = args.demo_c
        l = 1.0 / ((2.0 * math.pi * args.demo_fr) ** 2 * c)
        truth = circuit.BvdParams(l, c, args.demo_r, c0)
        spectrum = bvdfit.generate_spectrum(
            truth, n_points=args.points, noise=args.noise, seed=args.seed
        )
        if args.demo_out:
            with open(args.demo_out, "w", encoding="utf-8", newline="") as handle:
                bvdfit.save_impedance_csv(spectrum, handle)
    else:
        if args.input is None:
            parser.error("either --input or --demo is required")
        if args.c0 is None:
            parser.error("--c0 is required with --input")
        c0 = args.c0
        spectrum = bvdfit.load_impedance_csv(args.input)
    result = bvdfit.fit_bvd(spectrum, c0, options)
    p = result.params
    header = (
        "inductance_h,capacitance_f,resistance_ohm,static_capacitance_f,"
        "resonant_frequency_hz,residual_norm,iterations,converged"
    )
    row = (p.inductance, p.capacitance, p.resistance, p.static_capacitance, circuit.resonant_frequency(p))
    return csv_table(header, [(*row, result.residual_norm, result.iterations, result.converged)])


_AXIS_VALUE_PARSERS = {
    "thickness": units.parse_length,
    "density": units.parse_density,
    "youngs_modulus": units.parse_pressure,
}


def _resolve_glass(args, parser) -> materials.GlassSpec:
    explicit = [args.thickness, args.density, args.youngs_modulus]
    if args.glass and any(v is not None for v in explicit):
        parser.error("--glass and explicit --thickness/--density/--youngs-modulus are exclusive")
    if args.glass:
        return materials.lookup(args.glass, _extra_materials(args))
    if any(v is None for v in explicit):
        parser.error("give --glass NAME or all of --thickness, --density, --youngs-modulus")
    return materials.GlassSpec(args.name, args.thickness, args.density, args.youngs_modulus)


def _resolve_actuator(args) -> materials.ActuatorSpec:
    fields = ("thickness", "density", "youngs_modulus")
    given = {f: getattr(args, f"actuator_{f}") for f in fields if getattr(args, f"actuator_{f}") is not None}
    return dataclasses.replace(materials.default_actuator(), **given)


def _parse_grid(args, parser, axis: str):
    parse_value = _AXIS_VALUE_PARSERS[axis]
    if args.grid_values:
        try:
            return [parse_value(v) for v in args.grid_values.split(",")]
        except ValueError as exc:
            parser.error(str(exc))
    if not args.grid:
        parser.error("--sweep needs --grid START:STOP:COUNT or --grid-values V1,V2,...")
    parts = args.grid.split(":")
    if len(parts) != 3:
        parser.error(f"--grid must be START:STOP:COUNT, got {args.grid!r}")
    try:
        start, stop = parse_value(parts[0]), parse_value(parts[1])
    except ValueError as exc:
        parser.error(str(exc))
    try:
        count = int(parts[2])
    except ValueError:
        count = 0
    if count < 1:
        parser.error(f"--grid COUNT must be an integer >= 1, got {parts[2]!r}")
    import numpy as np

    return np.linspace(start, stop, count)


def _sweep_lines(rows) -> list[str]:
    return csv_table("axis_value,n,n_squared", rows)


def _cmd_beam(args, parser) -> list[str]:
    glass = _resolve_glass(args, parser)
    actuator = _resolve_actuator(args)
    if args.sweep:
        grid = _parse_grid(args, parser, args.sweep)
        return _sweep_lines(beam.sweep_amplification(glass, actuator, args.sweep, grid))
    r = beam.amplification_number(glass, actuator)
    header = "name,d1_prime_pa_m3,d2_per_width_pa_m3,beta_a_per_m,beta_p_per_m,n,n_squared"
    fields = [glass.name, r.d1_prime, r.d2_per_width, r.beta_a, r.beta_p, r.n, r.n_squared]
    lines = []
    if args.reference:
        reference = materials.lookup(args.reference, _extra_materials(args))
        header += ",predicted_power_ratio"
        fields.append(beam.power_ratio(reference, glass, actuator))
        lines.append(MODEL_CONDITIONAL_NOTE)
    return lines + csv_table(header, [fields])


def _prediction_lines(glasses, reference, actuator) -> list[str]:
    ratios = [beam.power_ratio(reference, g, actuator) for g in glasses]
    rows = [(g.name, beam.amplification_number(g, actuator).n_squared, r) for g, r in zip(glasses, ratios)]
    return [MODEL_CONDITIONAL_NOTE, *csv_table("name,n_squared,predicted_power_ratio", rows)]


def _cmd_predict_power(args, parser) -> list[str]:
    extra = _extra_materials(args)
    reference = materials.lookup(args.reference, extra)
    return _prediction_lines(materials.material_library(extra), reference, materials.default_actuator())


def _cmd_reduce_traces(args, parser) -> list[str]:
    import numpy as np

    from . import dataio

    header = "file,drive_frequency_hz,real_power_w,amplitude_m,rms_current_a,amplitude_low_confidence"
    rows = []
    for path in args.inputs:
        traces = dataio.load_traces_csv(path, args.sample_rate, ldv_kind=args.ldv_kind)
        if args.piezo_column == "source":
            with np.errstate(over="ignore"):  # samples near float range give inf, a typed error below
                v_piezo = traces.v_piezo - traces.v_shunt
            if not np.isfinite(v_piezo).all():
                raise AnalysisError("result outside the model's range (v_piezo - v_shunt is not finite)")
            traces = dataclasses.replace(traces, v_piezo=v_piezo)
        s = dataio.summarize_trial(traces, args.shunt)
        row = (path, s.drive_frequency, s.real_power, s.amplitude, s.rms_current)
        rows.append((*row, s.amplitude_low_confidence))
    return csv_table(header, rows)


def _fig10_blocks() -> list[tuple[str, list[str]]]:
    """repro fig10's three sweeps over the acceptance ranges, each headed by its ``# axis=`` line."""
    import numpy as np

    grids = {
        "thickness": np.linspace(0.3e-3, 1.0e-3, 71),
        "density": np.linspace(2000.0, 2600.0, 61),
        "youngs_modulus": np.linspace(60e9, 80e9, 81),
    }
    base = materials.lookup("SLG_0.4")
    actuator = materials.default_actuator()
    blocks = []
    for axis, grid in grids.items():
        rows = beam.sweep_amplification(base, actuator, axis, grid)
        blocks.append((axis, [f"# axis={axis} base=SLG_0.4", *_sweep_lines(rows)]))
    return blocks


def _cmd_repro(args, parser) -> list[str] | None:
    if args.figure == "fig4":
        rows = [(f, friction.contour_amplitude(f)) for f in _FIG4_FREQS_HZ]
        return csv_table("frequency_hz,amplitude_um", rows)
    if args.figure == "fig11":
        reference = materials.lookup("SLG_0.4")
        return _prediction_lines(materials.material_library(), reference, materials.default_actuator())
    # fig10: three sweep tables; --out is a directory, stdout gets
    # comment-separated blocks
    blocks = _fig10_blocks()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for axis, lines in blocks:
            path = os.path.join(args.out, f"fig10_{axis}.csv")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
        return None
    return [line for _, lines in blocks for line in lines]


def _add_materials_file_flag(sub) -> None:
    sub.add_argument(
        "--file",
        dest="materials_file",
        metavar="PATH",
        help="extra material JSON file (also honored: TPADLAB_MATERIALS env var)",
    )


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="tpadlab", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    def add(name, handler, help_text):
        sub = subparsers.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler, subparser=sub)
        sub.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
        return sub

    sub = add("materials", _cmd_materials, "list or show glass property records")
    sub.add_argument("--list", action="store_true", help="list all library glasses (default)")
    sub.add_argument("--show", metavar="NAME", help="show a single glass by name")
    sub.add_argument("--actuator", action="store_true", help="show the builtin actuator record")
    _add_materials_file_flag(sub)

    sub = add("friction", _cmd_friction, "evaluate a friction-reduction model")
    sub.add_argument(
        "--model", required=True, choices=("velocity", "squeeze", "contour"), help="model to evaluate"
    )
    sub.add_argument("--freq", type=units.parse_frequency, help="vibration frequency (Hz; kHz suffix ok)")
    sub.add_argument("--amp", type=units.parse_length, help="vibration amplitude (m; um/mm suffix ok)")
    sub.add_argument(
        "--explore-velocity",
        type=units.parse_velocity,
        default=friction.DEFAULT_FRICTION_PARAMS.explore_velocity,
        help="finger exploration velocity U (m/s)",
    )
    sub.add_argument(
        "--mu0",
        type=float,
        default=friction.DEFAULT_FRICTION_PARAMS.mu0,
        help="friction coefficient with vibration off (dimensionless)",
    )
    sub.add_argument(
        "--poisson",
        type=float,
        default=friction.DEFAULT_FRICTION_PARAMS.poisson,
        help="fingertip Poisson ratio (dimensionless)",
    )
    sub.add_argument(
        "--psi-star",
        type=float,
        default=friction.DEFAULT_FRICTION_PARAMS.psi_star,
        help="characteristic Psi value (dimensionless)",
    )
    sub.add_argument("--u0", type=units.parse_length, help="squeeze model: gap at rest (m)")
    sub.add_argument("--ps", type=units.parse_pressure, help="squeeze model: pressing pressure (Pa)")
    sub.add_argument(
        "--p0",
        type=units.parse_pressure,
        default=friction.ATMOSPHERIC_PRESSURE_PA,
        help="squeeze model: ambient pressure (Pa)",
    )

    sub = add("circuit", _cmd_circuit, "equivalent-circuit resonance predictions")
    sub.add_argument(
        "--inductance", type=units.parse_inductance, required=True, help="motional inductance L (H)"
    )
    sub.add_argument(
        "--capacitance", type=units.parse_capacitance, required=True, help="motional capacitance C (F)"
    )
    sub.add_argument(
        "--resistance", type=units.parse_resistance, required=True, help="motional resistance R (Ohm)"
    )
    sub.add_argument(
        "--c0", type=units.parse_capacitance, required=True, help="static capacitance C0 (F; nF suffix ok)"
    )
    sub.add_argument("--voltage", type=units.parse_voltage, help="source voltage U_i (V RMS)")
    sub.add_argument(
        "--peak", action="store_true", help="treat --voltage as a peak value and convert to RMS"
    )
    sub.add_argument(
        "--shunt", type=units.parse_resistance, default=100.0, help="shunt resistance R0 (Ohm)"
    )
    sub.add_argument(
        "--freq",
        type=units.parse_frequency,
        help="report impedance at this frequency (Hz) instead of the resonance summary",
    )

    sub = add("fit", _cmd_fit, "fit circuit parameters to an impedance spectrum CSV")
    sub.add_argument("--input", metavar="PATH", help="spectrum CSV (frequency_hz,magnitude_ohm,phase_deg)")
    sub.add_argument("--c0", type=units.parse_capacitance, help="known static capacitance C0 (F)")
    sub.add_argument("--fit-c0", action="store_true", help="also fit C0 instead of holding it fixed")
    sub.add_argument(
        "--include-shunt",
        type=units.parse_resistance,
        default=0.0,
        metavar="OHM",
        help="series shunt resistance included in the fitted model (Ohm)",
    )
    sub.add_argument("--max-iter", type=int, default=500, help="iteration cap")
    sub.add_argument("--demo", action="store_true", help="fit a synthetic spectrum instead of a file")
    sub.add_argument(
        "--demo-fr", type=units.parse_frequency, default=30e3, help="demo: resonant frequency (Hz)"
    )
    sub.add_argument(
        "--demo-c", type=units.parse_capacitance, default=1e-9, help="demo: motional capacitance (F)"
    )
    sub.add_argument(
        "--demo-r", type=units.parse_resistance, default=2150.0, help="demo: motional resistance (Ohm)"
    )
    sub.add_argument("--noise", type=float, default=0.01, help="demo: relative noise level (0.01 = 1%%)")
    sub.add_argument("--seed", type=int, default=0, help="demo: random seed")
    sub.add_argument("--points", type=int, default=201, help="demo: number of spectrum points")
    sub.add_argument("--demo-out", metavar="PATH", help="demo: also write the generated spectrum CSV here")

    sub = add("beam", _cmd_beam, "amplification number for one design, or a sweep")
    sub.add_argument("--glass", metavar="NAME", help="library glass name")
    sub.add_argument("--name", default="custom", help="name for an explicitly specified glass")
    sub.add_argument("--thickness", type=units.parse_length, help="glass thickness (m; mm suffix ok)")
    sub.add_argument("--density", type=units.parse_density, help="glass density (kg/m3; g/cm3 suffix ok)")
    sub.add_argument(
        "--youngs-modulus",
        type=units.parse_pressure,
        help="glass Young's modulus (Pa; GPa or kN/mm2 suffix ok)",
    )
    sub.add_argument("--actuator-thickness", type=units.parse_length, help="actuator thickness (m)")
    sub.add_argument("--actuator-density", type=units.parse_density, help="actuator density (kg/m3)")
    sub.add_argument(
        "--actuator-youngs-modulus", type=units.parse_pressure, help="actuator Young's modulus (Pa)"
    )
    sub.add_argument(
        "--reference", metavar="NAME", help="also report power predicted relative to this glass"
    )
    sub.add_argument(
        "--sweep", choices=beam.SWEEP_AXES, help="sweep this glass property instead of a single point"
    )
    sub.add_argument(
        "--grid",
        metavar="START:STOP:COUNT",
        help="sweep grid, unit suffixes allowed on START/STOP (e.g. 0.3mm:1mm:71)",
    )
    sub.add_argument(
        "--grid-values", metavar="V1,V2,...", help="explicit sweep grid values (unit suffixes allowed)"
    )
    _add_materials_file_flag(sub)

    sub = add("predict-power", _cmd_predict_power, "predict relative power for all library glasses")
    sub.add_argument(
        "--reference", default="SLG_0.4", metavar="NAME", help="reference glass (default SLG_0.4)"
    )
    _add_materials_file_flag(sub)

    sub = add("reduce-traces", _cmd_reduce_traces, "reduce raw trial captures to summary rows")
    sub.add_argument("inputs", nargs="+", metavar="TRACE_CSV", help="trace files (v_piezo,v_shunt[,ldv])")
    sub.add_argument(
        "--sample-rate", type=units.parse_frequency, required=True, help="sampling rate (Hz; kHz ok)"
    )
    sub.add_argument(
        "--shunt", type=units.parse_resistance, default=100.0, help="shunt resistance R0 (Ohm)"
    )
    sub.add_argument(
        "--ldv-kind",
        choices=units.LDV_KINDS,
        default="displacement",
        help="what the ldv column holds (displacement m, or velocity m/s)",
    )
    sub.add_argument(
        "--piezo-column",
        choices=("device", "source"),
        default="device",
        help="whether v_piezo was logged across the device or at the source "
        "(source: the shunt drop is subtracted first)",
    )

    sub = add("repro", _cmd_repro, "emit bundled reference tables")
    sub.add_argument(
        "figure",
        choices=("fig4", "fig10", "fig11"),
        help="fig4: contour samples; fig10: three design sweeps (--out is a directory); "
        "fig11: library power predictions",
    )

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        lines = args.handler(args, args.subparser)
    except (TpadlabError, OverflowError, ZeroDivisionError) as exc:
        if not isinstance(exc, TpadlabError):  # a closed form left float range on finite input
            kind = "overflow" if isinstance(exc, OverflowError) else "division by zero"
            exc = AnalysisError(f"result outside the model's range ({kind})")
        print(f"tpadlab: error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS if isinstance(exc, AnalysisError) else EXIT_PARSE
    if lines is None:  # handler wrote its own files (repro fig10 --out)
        return EXIT_OK
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
