"""critherm: magnetic criticality-enhanced hybrid nanodiamond thermometer
simulator.

The physics chain is spin_model (NV levels) -> magnet_model (mean-field
magnetization + dipole field) -> ensemble_spectrum (CW ODMR synthesis) ->
sensitivity (estimators, design sweep) -> protocol_sim (three-point
Monte Carlo).  cli_runner exposes everything as the `thermo` command.
"""

from .spin_model import d_of_t, transition_frequencies

__version__ = "0.1.0"
