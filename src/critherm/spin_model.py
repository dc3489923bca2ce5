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

# Two eigenvectors whose |<0|psi>|^2 differ by less than this cannot be told
# apart; the caller is probing a level crossing.
_OVERLAP_TOL = 1e-9


@dataclass(frozen=True)
class SpinSystem:
    """NV ground-state parameters plus the local magnetic field.

    field is the 3-vector magnetic field at the NV in the NV frame (tesla,
    z along the NV symmetry axis).
    """

    d0: float = 2.87e9           # Hz
    t_ref: float = 300.0         # K
    dd_dt: float = -74e3         # Hz/K
    strain_e: float = 0.0        # Hz
    gamma: float = 28e9          # Hz/T (= 28 MHz/mT)
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


def _label_levels(w, ov):
    """(omega_minus, omega_plus) from the ascending eigenvalue columns
    w = (w0, w1, w2) and each level's |<0|psi>|^2 ov = (ov0, ov1, ov2): from
    the 0-like (largest-overlap) level to the other two.  Degenerate (or NaN)
    top overlaps raise."""
    lo, hi = np.minimum(ov[0], ov[1]), np.maximum(ov[0], ov[1])
    top, second = np.maximum(hi, ov[2]), np.maximum(lo, np.minimum(hi, ov[2]))
    if not np.all(top - second >= _OVERLAP_TOL):
        raise LabelingAmbiguityError("two levels overlap |m_s=0> equally; "
                                     "transition labels are undefined here")
    first, last = ov[0] == top, ov[2] == top
    e0 = np.where(first, w[0], np.where(last, w[2], w[1]))
    return np.where(first, w[1], w[0]) - e0, np.where(last, w[1], w[2]) - e0


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
    om, op = _label_levels(w, np.abs(v[1]) ** 2)   # row 1 = <0|
    return LevelSet(eigenvalues=tuple(float(x) for x in w),
                    omega_minus=float(om), omega_plus=float(op))


def transition_pairs(d, strain_e, gamma: float, fields):
    """omega_minus/omega_plus for many NV sites at once, in closed form.

    d: D(T) in Hz, a scalar or one per row; strain_e: (sites,) strains;
    fields: (sites, 3) or (rows, sites, 3) NV-frame fields in tesla.  Returns
    two arrays of shape fields.shape[:-1].  With no transverse field |0> is
    an eigenvector of eigenvalue 0 and the lines are exactly the eigenvalues
    D -+ sqrt(E^2 + gamma^2 Bz^2) of the +-1 block.  Else the eigenvalues are
    three columns, the trigonometric roots of the cubic of H - (2D/3) I (Kopp,
    arXiv physics/0610206) put in order by a sorting network, and each level's
    |<0|psi>|^2 follows from the eigenvector-eigenvalue identity (Denton,
    Parke, Tao, Zhang, arXiv:1908.03795) with the +-1 block as the minor.
    """
    fields = np.asarray(fields, dtype=float)
    d = np.asarray(d, dtype=float)[..., None]   # one D per row of sites
    strain_e = np.broadcast_to(np.asarray(strain_e, dtype=float), fields.shape[:-1])
    axial = np.sqrt(strain_e ** 2 + (gamma * fields[..., 2]) ** 2)
    om, op = d - axial, d + axial
    c = (fields[..., 0] != 0.0) | (fields[..., 1] != 0.0)
    if np.any(c):
        # D^3 per row by libm's pow, as Python's float pow: numpy's array
        # ** 3 (a SIMD path) can differ from it in the last bit
        d3 = np.float_power(d, 3)
        (bx, by, bz), e = (fields[..., i][c] for i in range(3)), strain_e[c]
        d, d3, om_c, op_c = (np.broadcast_to(a, c.shape)[c] for a in (d, d3, om, op))
        g_perp2, g_z2 = gamma ** 2 * (bx * bx + by * by), (gamma * bz) ** 2
        p = np.sqrt(d * d / 9.0 + (g_perp2 + g_z2 + e * e) / 3.0)
        half_det = (-d3 / 27.0 + d / 3.0 * (g_z2 - 0.5 * g_perp2 + e * e)
                    + 0.5 * e * gamma ** 2 * (bx * bx - by * by))
        phi = np.arccos(np.clip(half_det / p ** 3, -1.0, 1.0)) / 3.0
        w0, w1, w2 = (2.0 * d / 3.0 + 2.0 * p * np.cos(phi + k * np.pi / 3.0)
                      for k in (0.0, 2.0, 4.0))
        w0, w1 = np.minimum(w0, w1), np.maximum(w0, w1)
        w1, w2 = np.minimum(w1, w2), np.maximum(w1, w2)
        w0, w1 = np.minimum(w0, w1), np.maximum(w0, w1)
        ov = [(w - om_c) * (w - op_c) / ((w - u) * (w - v))
              for w, u, v in ((w0, w2, w1), (w1, w0, w2), (w2, w1, w0))]
        om[c], op[c] = _label_levels((w0, w1, w2), ov)
    return om, op
