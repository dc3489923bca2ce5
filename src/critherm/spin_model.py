"""NV ground-state spin-1 Hamiltonian: D(T) and the ODMR transition
frequencies of many sites in closed form (transition_pairs).  The explicit
matrix (build_hamiltonian) and its eigh diagonalization
(transition_frequencies) stay as the named oracle for transition_pairs; the
forward model reaches neither.

The Hamiltonian is  H = D(T) Sz^2 + E (Sx^2 - Sy^2) - gamma S.B  in the
m_s = {+1, 0, -1} basis, with every term in Hz (fields in tesla).  D(T) is
linear, D(T) = d0 + dd_dt * (T - t_ref).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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


def d_of_t(sys: SpinSystem, temp):
    """Zero-field splitting D(T) in Hz; strictly linear in (array) temp."""
    t = np.asarray(temp, dtype=float)
    if np.any(t <= 0):
        raise DomainError(f"temperature must be positive, got {t[t <= 0][0]}")
    return sys.d0 + sys.dd_dt * (temp - sys.t_ref)


def build_hamiltonian(sys: SpinSystem, temp: float) -> np.ndarray:
    """3x3 Hermitian matrix (Hz) of D(T) Sz^2 + E (Sx^2 - Sy^2) - gamma S.B."""
    d = d_of_t(sys, temp)
    bx, by, bz = sys.field
    h = d * SZ2 + sys.strain_e * SX2_MINUS_SY2
    h = h - sys.gamma * (bx * SX + by * SY + bz * SZ)
    return h


def _label_levels(w, ov0):
    """(omega_minus, omega_plus) from ascending eigenvalues w (n, 3) and each
    level's |<0|psi>|^2 ov0 (n, 3): from the 0-like (largest-overlap) level
    to the other two.  Degenerate (or NaN) top overlaps raise."""
    top = np.sort(ov0, axis=1)
    if not np.all(top[:, 2] - top[:, 1] >= _OVERLAP_TOL):
        raise LabelingAmbiguityError("two levels overlap |m_s=0> equally; "
                                     "transition labels are undefined here")
    idx0 = np.argmax(ov0, axis=1)
    e0 = np.take_along_axis(w, idx0[:, None], axis=1)[:, 0]
    others = w[np.arange(3) != idx0[:, None]].reshape(-1, 2)   # ascending
    return others[:, 0] - e0, others[:, 1] - e0


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
    w, v = np.linalg.eigh(build_hamiltonian(sys, temp))
    om, op = _label_levels(w[None], np.abs(v[1:2, :]) ** 2)   # row 1 = <0|
    return LevelSet(eigenvalues=tuple(float(x) for x in w),
                    omega_minus=float(om[0]), omega_plus=float(op[0]))


def transition_pairs(d: float, strain_e, gamma: float, fields):
    """omega_minus/omega_plus for many NV sites at once, in closed form.

    d: scalar D(T) in Hz; strain_e: (n,) per-site strain; fields: (n, 3)
    NV-frame fields in tesla.  Returns two (n,) arrays.  With no transverse
    field |0> is an eigenvector of eigenvalue 0 and the lines are exactly
    the eigenvalues D -+ sqrt(E^2 + gamma^2 Bz^2) of the +-1 block.  Else the
    eigenvalues are the trigonometric roots of the cubic of H - (2D/3) I
    (Kopp, arXiv physics/0610206), and each level's |<0|psi>|^2 follows from
    the eigenvector-eigenvalue identity (Denton, Parke, Tao, Zhang,
    arXiv:1908.03795) with the +-1 block as the minor.
    """
    fields = np.asarray(fields, dtype=float)
    strain_e = np.broadcast_to(np.asarray(strain_e, dtype=float), fields.shape[:1])
    axial = np.sqrt(strain_e ** 2 + (gamma * fields[:, 2]) ** 2)
    om, op = d - axial, d + axial
    c = (fields[:, 0] != 0.0) | (fields[:, 1] != 0.0)
    if np.any(c):
        (bx, by, bz), e = fields[c].T, strain_e[c]
        g_perp2, g_z2 = gamma ** 2 * (bx * bx + by * by), (gamma * bz) ** 2
        p = np.sqrt(d * d / 9.0 + (g_perp2 + g_z2 + e * e) / 3.0)
        half_det = (-d ** 3 / 27.0 + d / 3.0 * (g_z2 - 0.5 * g_perp2 + e * e)
                    + 0.5 * e * gamma ** 2 * (bx * bx - by * by))
        phi = np.arccos(np.clip(half_det / p ** 3, -1.0, 1.0)) / 3.0
        w = np.sort(2.0 * d / 3.0 + 2.0 * p[:, None] * np.cos(
            phi[:, None] + np.array([0.0, 2.0, 4.0]) * np.pi / 3.0), axis=1)
        ov0 = ((w - om[c, None]) * (w - op[c, None])
               / ((w - np.roll(w, 1, axis=1)) * (w - np.roll(w, 2, axis=1))))
        om[c], op[c] = _label_levels(w, ov0)
    return om, op

