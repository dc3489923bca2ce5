"""critherm: magnetic criticality-enhanced hybrid nanodiamond thermometer
simulator.

The physics chain is spin_model (NV levels) -> magnet_model (mean-field
magnetization + dipole field) -> ensemble_spectrum (CW ODMR synthesis) ->
sensitivity (estimators, design sweep) -> protocol_sim (three-point
Monte Carlo).  cli_runner exposes everything as the `thermo` command.
"""

from .errors import (
    DomainError,
    EstimationError,
    GeometryError,
    LabelingAmbiguityError,
    SchemaError,
    SolverError,
    ThermoError,
    UnmeasurableError,
)
from .spin_model import (
    LevelSet,
    SpinSystem,
    build_hamiltonian,
    d_of_t,
    transition_frequencies,
)
from .magnet_model import (
    Magnet,
    MagnetizationCurve,
    brillouin,
    curie_temperature,
    dipole_field,
    dm_dtemp,
    load_materials,
    magnetic_moment,
    magnetization_curve,
    solve_magnetization,
)
from .ensemble_spectrum import (
    Ensemble,
    OdmrSpectrum,
    SensorAssembly,
    default_freq_grid,
    domega_dtemp,
    nv_site,
    sample_ensemble,
    signal_at,
    signal_temperature_slope,
    synthesize_spectrum,
)
from .sensitivity import (
    DesignPoint,
    SensitivityReport,
    design_sweep,
    eta_cw_lorentzian,
    eta_cw_numeric,
    eta_ramsey,
    sensitivity_report,
)
from .protocol_sim import (
    Calibration,
    CountRecord,
    ThreePointConfig,
    TrackResult,
    calibrate_three_point,
    shot_noise_curve,
    simulate_counts,
    three_point_penalty,
    track_square_wave,
)

__version__ = "0.1.0"
