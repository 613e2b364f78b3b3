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
"""

from .beam import (
    AmplificationResult,
    BeamGeometry,
    amplification_from_wavenumbers,
    amplification_number,
    power_ratio,
    sweep_amplification,
)
from .bvdfit import (
    FitOptions,
    FitResult,
    ImpedanceSpectrum,
    fit_bvd,
    generate_spectrum,
    initial_guess,
    load_impedance_csv,
    residual,
)
from .circuit import (
    BvdParams,
    CircuitEvaluation,
    DriveConfig,
    evaluate,
    impedance,
    impedance_at_resonance,
    motional_voltage,
    real_power,
    resonant_frequency,
    transfer_ug_over_i,
)
from .dataio import (
    AmplitudeEstimate,
    TimeTraces,
    TrialSummary,
    amplitude_from_ldv,
    detect_drive_frequency,
    load_traces_csv,
    real_power_from_traces,
    summarize_trial,
)
from .friction import (
    FrictionParams,
    SqueezeFilmParams,
    VibrationState,
    contour_amplitude,
    psi,
    relative_friction_squeeze,
    relative_friction_velocity,
)
from .materials import (
    ActuatorSpec,
    GlassSpec,
    default_actuator,
    load_material_file,
    lookup,
    material_library,
)

__version__ = "0.1.0"

__all__ = [
    "ActuatorSpec",
    "AmplificationResult",
    "AmplitudeEstimate",
    "BeamGeometry",
    "BvdParams",
    "CircuitEvaluation",
    "DriveConfig",
    "FitOptions",
    "FitResult",
    "FrictionParams",
    "GlassSpec",
    "ImpedanceSpectrum",
    "SqueezeFilmParams",
    "TimeTraces",
    "TrialSummary",
    "VibrationState",
    "amplification_from_wavenumbers",
    "amplification_number",
    "amplitude_from_ldv",
    "contour_amplitude",
    "default_actuator",
    "detect_drive_frequency",
    "evaluate",
    "fit_bvd",
    "generate_spectrum",
    "impedance",
    "impedance_at_resonance",
    "initial_guess",
    "load_impedance_csv",
    "load_material_file",
    "load_traces_csv",
    "lookup",
    "material_library",
    "motional_voltage",
    "power_ratio",
    "psi",
    "real_power",
    "real_power_from_traces",
    "relative_friction_squeeze",
    "relative_friction_velocity",
    "resonant_frequency",
    "summarize_trial",
    "sweep_amplification",
    "transfer_ug_over_i",
]
