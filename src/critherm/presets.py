"""Documented default scenarios.

None of these numbers are sacred: they are the artifact's published
assumptions (the originals were measured on unpublished samples), chosen so
the simulated observables land on the reported anchors, and every one can be
overridden per scenario file.  Tests and the README examples build on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble_spectrum import SensorAssembly
from .magnet_model import M_SAT_GD, M_SAT_NI, Magnet, curie_temperature
from .spin_model import SpinSystem


@dataclass(frozen=True)
class GdBulkDemo:
    """Millimetre Gd sphere probed by a single NV in bulk diamond.

    The particle sits at the origin, magnetized along +z; the NV is on the
    easy axis with its symmetry axis aligned to the field.  The 6.2 mm
    stand-off fixes the saturation field at the NV to ~7.4 mT, which puts
    the peak susceptibility of the 0.5 K scan at ~14 MHz/K (a millimetre Gd
    particle is multi-domain, so its effective far field is far below the
    naive fully-saturated dipole; the stand-off encodes that reduction).
    """

    magnet: Magnet
    nv_position: tuple
    nv_axis: tuple
    spin: SpinSystem
    scan_temps: np.ndarray


def gd_bulk_demo() -> GdBulkDemo:
    magnet = Magnet(
        m_sat=M_SAT_GD,
        radius=1.0e-3,
        tc=292.0,
        spin_j=0.5,
        center=(0.0, 0.0, 0.0),
        easy_axis=(0.0, 0.0, 1.0),
    )
    return GdBulkDemo(
        magnet=magnet,
        nv_position=(0.0, 0.0, 6.2e-3),
        nv_axis=(0.0, 0.0, 1.0),
        spin=SpinSystem(),  # bulk diamond: negligible strain
        scan_temps=np.arange(280.0, 291.51, 0.5),
    )


def cuni_design_assembly(seed: int = 0, x: float = 0.70) -> SensorAssembly:
    """Fig-1-style design point: 200 nm Cu(1-x)Ni(x) sphere, 50 nm gap,
    100 nm FND with 500 NV centres, 12 Mcps total."""
    magnet = Magnet(
        m_sat=x * M_SAT_NI,
        radius=100e-9,
        tc=curie_temperature(x),
        spin_j=0.5,
        center=(0.0, 0.0, 0.0),
        easy_axis=(0.0, 0.0, 1.0),
    )
    return SensorAssembly(
        magnet=magnet,
        fnd_center=(0.0, 0.0, 200e-9),
        fnd_radius=50e-9,
        n_nv=500,
        strain_mean=4e6,
        strain_sd=2e6,
        line_width=8e6,
        contrast=0.2,
        photon_rate=12e6,
        rng_seed=seed,
    )


def cuni_tracking_assembly(seed: int = 0) -> SensorAssembly:
    """The nano-thermometer as measured: Tc pinned to the extracted 340 K
    (composition x = 0.74) so the 63 C tracking point sits ~4 K below the
    transition.

    m_sat is the *effective* remanent scale of the ball-milled particle,
    calibrated so the Zeeman splittings a few K below Tc come out at the
    observed few-tens-of-MHz scale; the ideal alloy value (x * M_SAT_NI)
    over-predicts the splitting there by roughly 6x.
    """
    magnet = Magnet(
        m_sat=6e4,
        radius=100e-9,
        tc=340.0,
        spin_j=0.5,
        center=(0.0, 0.0, 0.0),
        easy_axis=(0.0, 0.0, 1.0),
    )
    return SensorAssembly(
        magnet=magnet,
        fnd_center=(0.0, 0.0, 200e-9),
        fnd_radius=50e-9,
        n_nv=500,
        strain_mean=4e6,
        strain_sd=2e6,
        line_width=8e6,
        contrast=0.2,
        photon_rate=12e6,
        rng_seed=seed,
    )


# Single-NV pillar scenario (Ramsey projection): photon rate and the two
# dephasing times to compare.
PILLAR_PHOTON_RATE = 1.7e6      # counts/s
PILLAR_T2_NATURAL = 10e-6       # s, natural 1.1% 13C
PILLAR_T2_PURIFIED = 250e-6     # s, isotopically purified
PILLAR_CONTRAST = 0.3           # pulsed readout contrast


def single_nv_pillar_assembly(seed: int = 0, x: float = 0.70) -> SensorAssembly:
    """Single NV 25 nm under the pillar top, magnet resting above it."""
    magnet = Magnet(
        m_sat=x * M_SAT_NI,
        radius=100e-9,
        tc=curie_temperature(x),
        spin_j=0.5,
        center=(0.0, 0.0, 0.0),
        easy_axis=(0.0, 0.0, 1.0),
    )
    return SensorAssembly(
        magnet=magnet,
        fnd_center=(0.0, 0.0, -125e-9),
        fnd_radius=1e-9,
        n_nv=1,
        strain_mean=0.0,
        strain_sd=0.0,
        line_width=1e6,
        contrast=PILLAR_CONTRAST,
        photon_rate=PILLAR_PHOTON_RATE,
        rng_seed=seed,
    )
