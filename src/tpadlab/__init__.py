"""Modeling, fitting, and design-exploration toolkit for ultrasonic
friction-reduction haptic plates.

Subpackages by concern:

* :mod:`tpadlab.materials` -- glass/actuator property records and library
* :mod:`tpadlab.friction`  -- friction-reduction models
* :mod:`tpadlab.circuit`   -- equivalent-circuit power model
* :mod:`tpadlab.bvdfit`    -- circuit parameter fitting from spectra
* :mod:`tpadlab.beam`      -- sandwich-beam amplification and sweeps
* :mod:`tpadlab.dataio`    -- raw trial capture reduction
* :mod:`tpadlab.cli`       -- the ``tpadlab`` command line tool

The names below are exported lazily (PEP 562): ``from tpadlab import
fit_bvd`` imports :mod:`tpadlab.bvdfit` on first use, so a caller that
needs only the scalar closed forms never imports numpy.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_SUBMODULE_OF = {
    name: module
    for module, names in {
        "beam": (
            "AmplificationResult", "BeamGeometry", "amplification_from_wavenumbers",
            "amplification_number", "power_ratio", "sweep_amplification",
        ),
        "bvdfit": (
            "FitOptions", "FitResult", "ImpedanceSpectrum", "fit_bvd", "generate_spectrum",
            "initial_guess", "load_impedance_csv", "residual",
        ),
        "circuit": (
            "BvdParams", "CircuitEvaluation", "DriveConfig", "evaluate", "impedance",
            "impedance_at_resonance", "motional_voltage", "real_power", "resonant_frequency",
            "transfer_ug_over_i",
        ),
        "dataio": (
            "AmplitudeEstimate", "TimeTraces", "TrialSummary", "amplitude_from_ldv",
            "detect_drive_frequency", "load_traces_csv", "noise_floor", "real_power_from_traces",
            "summarize_trial",
        ),
        "friction": (
            "FrictionParams", "SqueezeFilmParams", "VibrationState", "contour_amplitude", "psi",
            "relative_friction_squeeze", "relative_friction_velocity",
        ),
        "materials": (
            "ActuatorSpec", "GlassSpec", "default_actuator", "load_material_file", "lookup",
            "material_library",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name):
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
