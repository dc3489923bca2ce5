"""Documented default scenarios.

None of these numbers are sacred: they are the artifact's published
assumptions (the originals were measured on unpublished samples), chosen so
the simulated observables land on the reported anchors, and every one can be
overridden per scenario file.  Tests and the README examples build on them.

The dataclass defaults of SensorAssembly, Magnet and SpinSystem carry the
design point (a 200 nm particle 50 nm from a 100 nm FND of 500 NV centres,
12 Mcps total); each preset states only what differs from them.
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
    return GdBulkDemo(
        magnet=Magnet(m_sat=M_SAT_GD, radius=1.0e-3, tc=292.0),
        nv_position=(0.0, 0.0, 6.2e-3),
        nv_axis=(0.0, 0.0, 1.0),
        spin=SpinSystem(),  # bulk diamond: negligible strain
        scan_temps=np.arange(280.0, 291.51, 0.5),
    )


def cuni_design_assembly(seed: int = 0) -> SensorAssembly:
    """Fig-1-style design point: a 200 nm Cu(0.30)Ni(0.70) sphere at the
    origin, easy axis +z, beside SensorAssembly's default FND."""
    magnet = Magnet(m_sat=0.70 * M_SAT_NI, radius=100e-9,
                    tc=curie_temperature(0.70))
    return SensorAssembly(magnet=magnet, rng_seed=seed)


def cuni_tracking_assembly(seed: int = 0) -> SensorAssembly:
    """The nano-thermometer as measured: Tc pinned to the extracted 340 K
    (composition x = 0.74) so the 63 C tracking point sits ~4 K below the
    transition.

    m_sat is the *effective* remanent scale of the ball-milled particle,
    calibrated so the Zeeman splittings a few K below Tc come out at the
    observed few-tens-of-MHz scale; the ideal alloy value (x * M_SAT_NI)
    over-predicts the splitting there by roughly 6x.
    """
    return SensorAssembly(magnet=Magnet(m_sat=6e4, radius=100e-9, tc=340.0),
                          rng_seed=seed)


# Single-NV pillar scenario (Ramsey projection): photon rate, natural
# dephasing time and pulsed readout contrast.
PILLAR_PHOTON_RATE = 1.7e6      # counts/s
PILLAR_T2_NATURAL = 10e-6       # s, natural 1.1% 13C
PILLAR_CONTRAST = 0.3           # pulsed readout contrast


def single_nv_pillar_assembly(seed: int = 0) -> SensorAssembly:
    """Single unstrained NV 25 nm under the pillar top, the design-point
    magnet resting above it."""
    return SensorAssembly(
        magnet=cuni_design_assembly().magnet,
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
