from dataclasses import replace

import numpy as np
import pytest

from critherm.ensemble_spectrum import line_centers, nv_frame, sample_ensemble
from critherm.errors import DomainError, LabelingAmbiguityError
from critherm.magnet_model import dipole_field, magnetic_moment
from critherm.presets import (
    cuni_design_assembly,
    cuni_tracking_assembly,
    single_nv_pillar_assembly,
)
from critherm.spin_model import (
    _OVERLAP_TOL,
    SpinSystem,
    build_hamiltonian,
    d_of_t,
    domega_dtemp,
    transition_frequencies,
    transition_pairs,
)

D0 = 2.87e9
GAMMA = 28e9


# Independent oracle: build the Hamiltonian from ladder operators
# (S+-, a different algebra than the Sx/Sy matrices in the module) and label
# the 0-like level from the eigenvector overlaps by hand.
def oracle_transitions(d, e, gamma, field):
    sp = np.array([[0, np.sqrt(2), 0], [0, 0, np.sqrt(2)], [0, 0, 0]],
                  dtype=complex)  # S+ in the {+1, 0, -1} basis
    sm = sp.conj().T
    sx = (sp + sm) / 2.0
    sy = (sp - sm) / 2.0j
    sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    bx, by, bz = field
    h = d * sz @ sz + e * (sx @ sx - sy @ sy)
    h -= gamma * (bx * sx + by * sy + bz * sz)
    w, v = np.linalg.eigh(h)
    idx0 = int(np.argmax(np.abs(v[1, :]) ** 2))
    others = sorted(w[k] for k in range(3) if k != idx0)
    return others[0] - w[idx0], others[1] - w[idx0]


def transition_pair_batch(d, strain_e, gamma, fields):
    """Oracle for transition_pairs: omega_minus/omega_plus for many NV sites
    from complex eigh of the explicitly written 3x3 matrices (independent of
    the operator-matrix construction in build_hamiltonian)."""
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


class TestDOfT:
    def test_identity_at_reference(self):
        assert d_of_t(SpinSystem(), 300.0) == pytest.approx(2.87e9)

    def test_slope_plus_10k(self):
        # dD/dT = -74 kHz/K
        assert d_of_t(SpinSystem(), 310.0) == pytest.approx(2.87e9 - 0.74e6)

    def test_sign_symmetry(self):
        assert d_of_t(SpinSystem(), 299.0) == pytest.approx(2.87e9 + 74e3)

    def test_nonpositive_temperature(self):
        with pytest.raises(DomainError):
            d_of_t(SpinSystem(), 0.0)
        with pytest.raises(DomainError):
            d_of_t(SpinSystem(), -5.0)


class TestBuildHamiltonian:
    def test_zero_field_diagonal(self):
        h = build_hamiltonian(SpinSystem(), 300.0)
        assert np.allclose(h, np.diag([D0, 0.0, D0]))

    def test_axial_zeeman_diagonal(self):
        bz = 1e-3
        h = build_hamiltonian(SpinSystem(field=(0, 0, bz)), 300.0)
        assert np.allclose(np.diag(h), [D0 - GAMMA * bz, 0.0, D0 + GAMMA * bz])
        assert np.allclose(h, np.diag(np.diag(h)))

    def test_hermitian_generic(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            sys = SpinSystem(strain_e=float(rng.uniform(0, 10e6)),
                             field=tuple(rng.uniform(-2e-3, 2e-3, 3)))
            h = build_hamiltonian(sys, 295.0)
            assert np.linalg.norm(h - h.conj().T) == 0.0

    def test_invalid_system(self):
        with pytest.raises(DomainError):
            SpinSystem(d0=-1.0)
        with pytest.raises(DomainError):
            SpinSystem(strain_e=-1.0)
        with pytest.raises(DomainError):
            SpinSystem(field=(1.0, 2.0))


class TestTransitionFrequencies:
    def test_axial_1mt(self):
        lev = transition_frequencies(SpinSystem(field=(0, 0, 1e-3)), 300.0)
        assert lev.omega_minus == pytest.approx(D0 - 28e6, rel=1e-12)
        assert lev.omega_plus == pytest.approx(D0 + 28e6, rel=1e-12)

    def test_strain_splitting_zero_field(self):
        e = 5e6
        lev = transition_frequencies(SpinSystem(strain_e=e), 300.0)
        assert lev.omega_minus == pytest.approx(D0 - e, rel=1e-12)
        assert lev.omega_plus == pytest.approx(D0 + e, rel=1e-12)

    def test_transverse_field_matches_oracle(self):
        sys = SpinSystem(field=(0.5e-3, 0.0, 0.0))
        lev = transition_frequencies(sys, 300.0)
        om, op = oracle_transitions(d_of_t(sys, 300.0), 0.0, GAMMA, sys.field)
        assert lev.omega_minus == pytest.approx(om, rel=1e-9)
        assert lev.omega_plus == pytest.approx(op, rel=1e-9)

    def test_generic_fields_match_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            sys = SpinSystem(strain_e=float(rng.uniform(0, 10e6)),
                             field=tuple(rng.uniform(-2e-3, 2e-3, 3)))
            lev = transition_frequencies(sys, 290.0)
            om, op = oracle_transitions(d_of_t(sys, 290.0), sys.strain_e,
                                        GAMMA, sys.field)
            assert lev.omega_minus == pytest.approx(om, rel=1e-9)
            assert lev.omega_plus == pytest.approx(op, rel=1e-9)

    def test_trace_identity_1000_draws(self):
        # sum of eigenvalues = 2 D(T): strain and Zeeman terms are traceless
        rng = np.random.default_rng(1)
        sys0 = SpinSystem()
        for _ in range(1000):
            sys = SpinSystem(strain_e=float(rng.uniform(0, 20e6)),
                             field=tuple(rng.uniform(-3e-3, 3e-3, 3)))
            temp = float(rng.uniform(200.0, 600.0))
            lev = transition_frequencies(sys, temp)
            assert sum(lev.eigenvalues) == pytest.approx(
                2.0 * d_of_t(sys0, temp), rel=1e-9)

    def test_axial_closed_form_1000_draws(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            e = float(rng.uniform(0, 20e6))
            bz = float(rng.uniform(-3e-3, 3e-3))
            lev = transition_frequencies(
                SpinSystem(strain_e=e, field=(0.0, 0.0, bz)), 300.0)
            split = np.sqrt(e ** 2 + (GAMMA * bz) ** 2)
            assert lev.omega_minus == pytest.approx(D0 - split, rel=1e-10)
            assert lev.omega_plus == pytest.approx(D0 + split, rel=1e-10)

    def test_ordering_in_regime(self):
        # omega_plus >= omega_minus >= 0 whenever |gamma B| + E < D
        rng = np.random.default_rng(8)
        for _ in range(300):
            e = float(rng.uniform(0, 20e6))
            field = rng.uniform(-1, 1, 3)
            field *= rng.uniform(0, (D0 / GAMMA - e / GAMMA) * 0.9) / np.linalg.norm(field)
            lev = transition_frequencies(
                SpinSystem(strain_e=e, field=tuple(field)), 300.0)
            assert lev.omega_plus >= lev.omega_minus >= 0.0

    def test_zeeman_splitting_linear_in_bz(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            bz = float(rng.uniform(-3e-3, 3e-3))
            lev = transition_frequencies(SpinSystem(field=(0, 0, bz)), 300.0)
            assert (lev.omega_plus - lev.omega_minus
                    == pytest.approx(2 * GAMMA * abs(bz), rel=1e-12))

    def test_labeling_ambiguity_raises(self):
        # D ~ 0 with a purely transverse field: the Sx eigenstates overlap
        # |0> fifty-fifty, so no 0-like level exists
        sys = SpinSystem(d0=1e-6, t_ref=300.0, dd_dt=0.0, field=(1e-3, 0, 0))
        with pytest.raises(LabelingAmbiguityError), pytest.warns(UserWarning):
            transition_frequencies(sys, 300.0)

    def test_warns_outside_regime(self):
        with pytest.warns(UserWarning, match="operating regime"):
            transition_frequencies(SpinSystem(field=(0, 0, 0.2)), 300.0)


class TestBatchTransitions:
    def test_matches_single_path(self):
        rng = np.random.default_rng(11)
        fields = rng.uniform(-2e-3, 2e-3, (64, 3))
        strains = rng.uniform(0, 10e6, 64)
        om, op = transition_pair_batch(D0, strains, GAMMA, fields)
        for i in range(64):
            lev = transition_frequencies(
                SpinSystem(strain_e=float(strains[i]), field=tuple(fields[i])),
                300.0)
            assert om[i] == pytest.approx(lev.omega_minus, rel=1e-12)
            assert op[i] == pytest.approx(lev.omega_plus, rel=1e-12)


def rotated_bias_assembly():
    """Tracking assembly on a rotated crystal (all four lab-frame NV axes off
    the <111> set) with a uniform bias field on top of the dipole field."""
    axis = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    rot = np.eye(3) + np.sin(0.7) * k + (1.0 - np.cos(0.7)) * k @ k
    return replace(cuni_tracking_assembly(seed=3),
                   crystal_orientation=tuple(map(tuple, rot)),
                   bias_field=(1.0e-3, -2.0e-3, 1.5e-3))


def oracle_fields(asm, sites, temp):
    """NV-frame fields per site from the scalar dipole field of the full
    moment, one site at a time."""
    moment = magnetic_moment(asm.magnet, temp)
    return np.array([
        nv_frame(frame[2]) @ (dipole_field(moment, asm.magnet.center, position,
                                           min_distance=asm.magnet.radius)
                              + np.asarray(asm.bias_field))
        for position, frame in zip(sites.positions, sites.frames)])


class TestClosedForm:
    @pytest.mark.parametrize("make", [
        lambda: cuni_design_assembly(seed=5),
        lambda: single_nv_pillar_assembly(seed=1),
        rotated_bias_assembly,
    ], ids=["design", "pillar", "rotated_bias"])
    def test_matches_eigh_oracle_on_assemblies(self, make):
        asm = make()
        sites = sample_ensemble(asm)
        tc = asm.magnet.tc
        temps = np.array([tc - 30.0, tc - 3.0, tc - 0.5, tc - 0.01, tc + 1.0])
        om_all, op_all = line_centers(asm, temps, sites)
        for k, temp in enumerate(temps):
            fields = oracle_fields(asm, sites, temp)
            d = d_of_t(asm.spin, temp)
            om_ref, op_ref = transition_pair_batch(d, sites.strains, GAMMA, fields)
            om, op = transition_pairs(d, sites.strains, GAMMA, fields)
            np.testing.assert_allclose(om, om_ref, rtol=1e-12, atol=0)
            np.testing.assert_allclose(op, op_ref, rtol=1e-12, atol=0)
            np.testing.assert_allclose(om_all[k], om_ref, rtol=1e-12, atol=0)
            np.testing.assert_allclose(op_all[k], op_ref, rtol=1e-12, atol=0)

    def test_matches_eigh_oracle_random_fields(self):
        rng = np.random.default_rng(13)
        strains = np.concatenate([rng.uniform(0, 20e6, 1500), np.zeros(500)])
        fields = rng.uniform(-3e-3, 3e-3, (2000, 3))
        for d in (D0, 2.5e9):
            om, op = transition_pairs(d, strains, GAMMA, fields)
            om_ref, op_ref = transition_pair_batch(d, strains, GAMMA, fields)
            np.testing.assert_allclose(om, om_ref, rtol=1e-12, atol=0)
            np.testing.assert_allclose(op, op_ref, rtol=1e-12, atol=0)

    def test_bare_nv_rows_exact(self):
        # zero strain and zero field: both lines sit exactly at D, where the
        # eigenvector-eigenvalue identity would divide 0 by 0
        om, op = transition_pairs(D0, 0.0, GAMMA, np.zeros((3, 3)))
        assert np.all(om == D0) and np.all(op == D0)
        om, op = transition_pairs(D0, [5e6, 0.0], GAMMA, [[0, 0, 0], [0, 0, 1e-3]])
        assert om.tolist() == [D0 - 5e6, D0 - GAMMA * 1e-3]
        assert op.tolist() == [D0 + 5e6, D0 + GAMMA * 1e-3]

    def test_labeling_ambiguity_at_crossing(self):
        # D ~ 0 with a purely transverse field, as for transition_frequencies
        with pytest.raises(LabelingAmbiguityError):
            transition_pairs(1e-6, 0.0, GAMMA, [[1e-3, 0.0, 0.0]])
        with pytest.raises(LabelingAmbiguityError):
            transition_pair_batch(1e-6, 0.0, GAMMA, [[1e-3, 0.0, 0.0]])

    def test_nan_overlap_raises(self):
        with pytest.raises(LabelingAmbiguityError):
            transition_pairs(D0, 0.0, GAMMA, [[np.nan, 0.0, 0.0]])


class TestDomegaDtemp:
    def test_constant_field_is_bare_slope(self):
        field_fn = lambda t: (0.0, 0.0, 1e-3)
        dm, dp = domega_dtemp(SpinSystem(), field_fn, 300.0)
        assert dm == pytest.approx(-74e3, rel=1e-6)
        assert dp == pytest.approx(-74e3, rel=1e-6)

    def test_axial_chain_rule(self):
        # dB/dT = 0.5 mT/K: domega/dT = dD/dT -+/+- gamma dB/dT = -74 kHz -+ 14 MHz
        db_dt = 0.5e-3
        field_fn = lambda t: (0.0, 0.0, 1e-3 + db_dt * (t - 300.0))
        dm, dp = domega_dtemp(SpinSystem(), field_fn, 300.0)
        assert dm == pytest.approx(-74e3 - GAMMA * db_dt, rel=1e-6)
        assert dp == pytest.approx(-74e3 + GAMMA * db_dt, rel=1e-6)

    def test_propagates_field_errors(self):
        def field_fn(t):
            if t > 300.0:
                raise RuntimeError("not evaluable")
            return (0.0, 0.0, 0.0)

        with pytest.raises(RuntimeError):
            domega_dtemp(SpinSystem(), field_fn, 300.0)
