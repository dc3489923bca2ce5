"""NV ground-state spin-1 Hamiltonian: levels, ODMR transition frequencies
and their temperature derivatives.

The Hamiltonian is  H = D(T) Sz^2 + E (Sx^2 - Sy^2) - gamma S.B  in the
m_s = {+1, 0, -1} basis, with every term in Hz (fields in tesla).  D(T) is
linear, D(T) = d0 + dd_dt * (T - t_ref).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, LabelingAmbiguityError

# Spin-1 operators, m_s = {+1, 0, -1} basis (fixed convention so matrices are
# comparable across implementations).
SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2.0)
SY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / np.sqrt(2.0)
SZ = np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex)

SZ2 = SZ @ SZ
SX2_MINUS_SY2 = SX @ SX - SY @ SY  # couples |+1> and |-1>

D0_DEFAULT = 2.87e9      # Hz
T_REF_DEFAULT = 300.0    # K
DD_DT_DEFAULT = -74e3    # Hz/K
GAMMA_DEFAULT = 28e9     # Hz/T (= 28 MHz/mT)

# Two eigenvectors whose |<0|psi>|^2 differ by less than this cannot be told
# apart; the caller is probing a level crossing.
_OVERLAP_TOL = 1e-9

# Finite-difference step of domega_dtemp (K): far below the kelvin-scale
# magnetization structure, far above double precision noise at GHz scale.
_DT_STEP = 1e-3


@dataclass(frozen=True)
class SpinSystem:
    """NV ground-state parameters plus the local magnetic field.

    field is the 3-vector magnetic field at the NV in the NV frame (tesla,
    z along the NV symmetry axis).
    """

    d0: float = D0_DEFAULT
    t_ref: float = T_REF_DEFAULT
    dd_dt: float = DD_DT_DEFAULT
    strain_e: float = 0.0
    gamma: float = GAMMA_DEFAULT
    field: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.d0 <= 0:
            raise DomainError(f"d0 must be positive, got {self.d0}")
        if self.gamma <= 0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")
        if self.strain_e < 0:
            raise DomainError(f"strain_e must be >= 0, got {self.strain_e}")
        f = tuple(float(c) for c in self.field)
        if len(f) != 3:
            raise DomainError("field must be a 3-vector")
        object.__setattr__(self, "field", f)

    def with_field(self, field) -> "SpinSystem":
        return replace(self, field=tuple(float(c) for c in field))


@dataclass(frozen=True)
class LevelSet:
    """Eigenvalues (Hz, ascending) and the two ODMR transition frequencies.

    omega_minus / omega_plus are the lower / upper transition out of the
    0-like level; in the no-crossing regime they coincide with the
    |0> <-> |-1|-like and |0> <-> |+1|-like transitions of the axial
    closed form omega_pm = D +- sqrt(E^2 + gamma^2 Bz^2).
    """

    eigenvalues: tuple
    omega_minus: float
    omega_plus: float


def d_of_t(sys: SpinSystem, temp: float) -> float:
    """Zero-field splitting D(T) in Hz; strictly linear in temperature."""
    if temp <= 0:
        raise DomainError(f"temperature must be positive, got {temp}")
    return sys.d0 + sys.dd_dt * (temp - sys.t_ref)


def build_hamiltonian(sys: SpinSystem, temp: float) -> np.ndarray:
    """3x3 Hermitian matrix (Hz) of D(T) Sz^2 + E (Sx^2 - Sy^2) - gamma S.B."""
    d = d_of_t(sys, temp)
    bx, by, bz = sys.field
    h = d * SZ2 + sys.strain_e * SX2_MINUS_SY2
    h = h - sys.gamma * (bx * SX + by * SY + bz * SZ)
    return h


def _label_levels(w, v):
    """Identify the 0-like eigenvalue by eigenvector overlap with |m_s=0>.

    Returns (e0, e_low, e_high) with the two remaining eigenvalues sorted.
    Raises LabelingAmbiguityError when the two best overlaps are degenerate.
    """
    ov0 = np.abs(v[1, :]) ** 2  # row 1 = |0> component of each eigenvector
    order = np.argsort(ov0)
    if ov0[order[2]] - ov0[order[1]] < _OVERLAP_TOL:
        raise LabelingAmbiguityError(
            "two eigenvectors overlap |m_s=0> equally "
            f"({ov0[order[2]]:.6f} vs {ov0[order[1]]:.6f}); "
            "transition labels are undefined at this field"
        )
    idx0 = order[2]
    others = sorted(w[k] for k in range(3) if k != idx0)
    return w[idx0], others[0], others[1]


def transition_frequencies(sys: SpinSystem, temp: float) -> LevelSet:
    """Diagonalize the Hamiltonian and return the two transition frequencies.

    Warns when |gamma.B| + E >= D (outside the perturbative operating
    regime; level labels may be unreliable there).
    """
    d = d_of_t(sys, temp)
    bmag = float(np.linalg.norm(sys.field))
    if sys.gamma * bmag + sys.strain_e >= d:
        warnings.warn(
            "operating regime |gamma B| + E < D violated "
            f"({sys.gamma * bmag + sys.strain_e:.3e} Hz vs D = {d:.3e} Hz)",
            stacklevel=2,
        )
    h = build_hamiltonian(sys, temp)
    w, v = np.linalg.eigh(h)
    e0, e_low, e_high = _label_levels(w, v)
    return LevelSet(
        eigenvalues=tuple(float(x) for x in w),
        omega_minus=float(e_low - e0),
        omega_plus=float(e_high - e0),
    )


def transition_pair_batch(d, strain_e, gamma, fields):
    """omega_minus/omega_plus for many NV sites at once.

    d: scalar D(T) in Hz; strain_e: (n,) per-site strain; fields: (n, 3)
    NV-frame fields in tesla.  Returns two (n,) arrays.  Matrix elements are
    written out explicitly (independent of the operator-matrix construction
    in build_hamiltonian).
    """
    fields = np.asarray(fields, dtype=float)
    strain_e = np.broadcast_to(np.asarray(strain_e, dtype=float), (fields.shape[0],))
    n = fields.shape[0]
    bx, by, bz = fields[:, 0], fields[:, 1], fields[:, 2]

    h = np.zeros((n, 3, 3), dtype=complex)
    h[:, 0, 0] = d - gamma * bz
    h[:, 2, 2] = d + gamma * bz
    h[:, 0, 2] = strain_e
    h[:, 2, 0] = strain_e
    trans = -gamma * (bx - 1j * by) / np.sqrt(2.0)
    h[:, 0, 1] = trans
    h[:, 1, 2] = trans
    h[:, 1, 0] = np.conj(trans)
    h[:, 2, 1] = np.conj(trans)

    w, v = np.linalg.eigh(h)
    ov0 = np.abs(v[:, 1, :]) ** 2            # (n, 3): |<0|psi_k>|^2
    order = np.argsort(ov0, axis=1)
    best = np.take_along_axis(ov0, order[:, 2:3], axis=1)[:, 0]
    second = np.take_along_axis(ov0, order[:, 1:2], axis=1)[:, 0]
    if np.any(best - second < _OVERLAP_TOL):
        raise LabelingAmbiguityError(
            "degenerate |m_s=0> overlap for at least one site"
        )
    idx0 = order[:, 2]
    e0 = np.take_along_axis(w, idx0[:, None], axis=1)[:, 0]
    mask = np.ones((n, 3), dtype=bool)
    np.put_along_axis(mask, idx0[:, None], False, axis=1)
    others = w[mask].reshape(n, 2)           # ascending because w is ascending
    return others[:, 0] - e0, others[:, 1] - e0


def domega_dtemp(sys: SpinSystem, magnet_field_fn, temp: float):
    """Central finite difference of the transition frequencies vs temperature.

    magnet_field_fn maps temperature (K) to the NV-frame field 3-vector
    (tesla); it is evaluated at temp +- _DT_STEP so the magnet's own
    temperature dependence is included.  Returns (domega_minus/dT,
    domega_plus/dT) in Hz/K.
    """
    lo = transition_frequencies(sys.with_field(magnet_field_fn(temp - _DT_STEP)),
                                temp - _DT_STEP)
    hi = transition_frequencies(sys.with_field(magnet_field_fn(temp + _DT_STEP)),
                                temp + _DT_STEP)
    return (
        (hi.omega_minus - lo.omega_minus) / (2.0 * _DT_STEP),
        (hi.omega_plus - lo.omega_plus) / (2.0 * _DT_STEP),
    )
