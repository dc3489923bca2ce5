import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from critherm.ensemble_spectrum import (
    _PASS_SITES,
    Ensemble,
    SensorAssembly,
    domega_dtemp,
    line_centers,
    nv_frame,
    nv_site,
    sample_ensemble,
)
from critherm.errors import DomainError, LabelingAmbiguityError
from critherm.magnet_model import (
    _DT_STEP,
    dipole_field,
    dipole_field_many,
    dm_dtemp,
    magnetic_moment,
    solve_magnetization,
)
from critherm.presets import (
    cuni_design_assembly,
    cuni_tracking_assembly,
    gd_bulk_demo,
    single_nv_pillar_assembly,
)
from critherm.sensitivity import representative_domega_dt
from critherm.spin_model import (
    _OVERLAP_TOL,
    SpinSystem,
    build_hamiltonian,
    d_of_t,
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


def transition_pairs_n3(d, strain_e, gamma, fields):
    """Bitwise oracle for transition_pairs at one scalar D: the same closed
    form with the three roots as one (n, 3) array, put in order by np.sort,
    their overlaps paired by np.roll and the 0-like level found by
    np.argmax."""
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
        top = np.sort(ov0, axis=1)
        if not np.all(top[:, 2] - top[:, 1] >= _OVERLAP_TOL):
            raise LabelingAmbiguityError("degenerate |m_s=0> overlap")
        idx0 = np.argmax(ov0, axis=1)
        e0 = np.take_along_axis(w, idx0[:, None], axis=1)[:, 0]
        others = w[np.arange(3) != idx0[:, None]].reshape(-1, 2)   # ascending
        om[c], op[c] = others[:, 0] - e0, others[:, 1] - e0
    return om, op


def line_centers_by_row(asm, temps, sites):
    """Oracle for line_centers: the same NV-frame fields, one temperature
    row at a time through transition_pairs_n3 at that row's scalar D."""
    temps = np.asarray(temps, dtype=float)
    d = d_of_t(asm.spin, temps)
    bias_nv = sites.frames @ np.asarray(asm.bias_field)
    m, g_nv = np.zeros_like(temps), np.zeros_like(bias_nv)
    if asm.magnet is not None:
        mag = asm.magnet
        g_nv = np.einsum("nij,nj->ni", sites.frames, dipole_field_many(
            mag.m_sat * mag.volume * np.asarray(mag.easy_axis), mag.center,
            sites.positions, min_distance=mag.radius))
        m = solve_magnetization(mag, temps)
    rows = [transition_pairs_n3(d[k], sites.strains, asm.spin.gamma,
                                bias_nv + m[k] * g_nv) for k in range(temps.size)]
    return np.array([om for om, _ in rows]), np.array([op for _, op in rows])


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

    def test_nonpositive_row_named(self):
        # the first offending row, not the whole array
        with pytest.raises(DomainError, match=r"got -0\.005$"):
            d_of_t(SpinSystem(), np.array([0.005, 0.015, -0.005, -1.0]))


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


def rotated_bias_case():
    """Tracking assembly with a uniform bias field on top of the dipole
    field, and its ensemble on a rotated crystal: every frame built on the
    rotated NV axis, so all four lab-frame axes are off the <111> set."""
    axis = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    rot = np.eye(3) + np.sin(0.7) * k + (1.0 - np.cos(0.7)) * k @ k
    asm = replace(cuni_tracking_assembly(seed=3),
                  bias_field=(1.0e-3, -2.0e-3, 1.5e-3))
    sites = sample_ensemble(asm)
    return asm, Ensemble(positions=sites.positions, strains=sites.strains,
                         frames=np.array([nv_frame(rot @ f[2]) for f in sites.frames]))


def sampled(asm):
    return asm, sample_ensemble(asm)


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
        lambda: sampled(cuni_design_assembly(seed=5)),
        lambda: sampled(single_nv_pillar_assembly(seed=1)),
        rotated_bias_case,
    ], ids=["design", "pillar", "rotated_bias"])
    def test_matches_eigh_oracle_on_assemblies(self, make):
        asm, sites = make()
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


def mixed_axis_sites():
    """Design ensemble in which every third NV sits on the magnet's easy
    axis with its own axis along it: those feel no transverse field."""
    sites = sample_ensemble(cuni_design_assembly(seed=9))
    positions, frames = sites.positions.copy(), sites.frames.copy()
    positions[::3, :2] = 0.0
    frames[::3] = nv_frame((0.0, 0.0, 1.0))
    return Ensemble(positions=positions, frames=frames, strains=sites.strains)


class TestLineCenterPasses:
    """line_centers solves its rows _PASS_SITES row-sites at a time with one
    D per row; each row is bitwise transition_pairs_n3 at that row's D."""

    @staticmethod
    def assert_rows_bitwise(asm, temps, sites):
        got, want = line_centers(asm, temps, sites), line_centers_by_row(asm, temps, sites)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_design_assembly(self):
        # 27 rows of 500 sites: three full passes of 8 rows and one of 3
        asm = cuni_design_assembly(seed=5)
        tc = asm.magnet.tc
        temps = np.stack([t + np.array([0.0, 0.01, -0.01])
                          for t in tc - np.array([0.3, 0.7, 1.2, 2, 3, 5, 8, 12, 20])])
        assert temps.size % (_PASS_SITES // 500) != 0
        self.assert_rows_bitwise(asm, temps.ravel(), sample_ensemble(asm))

    def test_one_site_rows_past_one_pass(self):
        # 5003 distinct D values below Tc, so all in the cubic branch: D^3
        # taken as an array power differs from the scalar one in the last
        # bit on some of them
        asm = cuni_design_assembly(seed=5)
        site = nv_site(asm.fnd_center, (1.0, 1.0, 1.0), asm.strain_mean)
        temps = np.linspace(asm.magnet.tc - 40.0, asm.magnet.tc - 0.01, _PASS_SITES + 907)
        assert np.unique(d_of_t(asm.spin, temps)).size == temps.size
        self.assert_rows_bitwise(asm, temps, site)

    def test_axial_and_transverse_sites_mixed(self):
        asm, sites = cuni_design_assembly(seed=9), mixed_axis_sites()
        fields = oracle_fields(asm, sites, asm.magnet.tc - 2.0)
        transverse = (fields[:, 0] != 0.0) | (fields[:, 1] != 0.0)
        assert transverse.any() and not transverse.all()
        self.assert_rows_bitwise(asm, asm.magnet.tc - np.linspace(0.1, 9.0, 21), sites)

    def test_per_row_d_is_each_row_alone(self):
        rng = np.random.default_rng(17)
        fields = rng.uniform(-3e-3, 3e-3, (5, 64, 3))
        fields[:, ::4, :2] = 0.0
        strains, d = rng.uniform(0, 10e6, 64), D0 + rng.uniform(-1e6, 1e6, 5)
        om, op = transition_pairs(d, strains, GAMMA, fields)
        for k in range(5):
            om_k, op_k = transition_pairs_n3(d[k], strains, GAMMA, fields[k])
            assert np.array_equal(om[k], om_k) and np.array_equal(op[k], op_k)

    def test_memory_of_2000_rows(self):
        # beside the (2, rows, sites) output (16 MB) the solve holds the
        # temporaries of one pass (about 1.2 MB here), not of every row
        asm = cuni_design_assembly(seed=5)
        sites = sample_ensemble(asm)
        temps = asm.magnet.tc - np.linspace(0.1, 30.0, 2000)
        tracemalloc.start()
        try:
            line_centers(asm, temps, sites)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * temps.size * len(sites) * 8 + 2 * 2 ** 20


def nv_field_fn(magnet, position, axis, bias=(0.0, 0.0, 0.0)):
    """Oracle field: temperature -> scalar dipole field of the full moment
    of `magnet` at `position` plus a uniform `bias`, in the frame of an NV
    whose symmetry axis is `axis` (tesla)."""
    frame = nv_frame(axis)
    return lambda temp: frame @ (dipole_field(
        magnetic_moment(magnet, temp), magnet.center, position,
        min_distance=magnet.radius) + np.asarray(bias))


def scalar_domega_dtemp(sys: SpinSystem, magnet_field_fn, temp: float):
    """Oracle for domega_dtemp: the same central difference of the complex
    eigh transition frequencies, one NV and one temperature at a time.

    magnet_field_fn maps temperature (K) to the NV-frame field 3-vector
    (tesla); it is evaluated at temp +- _DT_STEP so the magnet's own
    temperature dependence is included.  Returns (domega_minus/dT,
    domega_plus/dT) in Hz/K.
    """
    lo, hi = (transition_frequencies(replace(sys, field=magnet_field_fn(t)), t)
              for t in (temp - _DT_STEP, temp + _DT_STEP))
    return (
        (hi.omega_minus - lo.omega_minus) / (2.0 * _DT_STEP),
        (hi.omega_plus - lo.omega_plus) / (2.0 * _DT_STEP),
    )


def gd_demo_nv():
    """The Gd demo's single NV: its assembly (a point-like FND at the NV)
    and one-site ensemble."""
    demo = gd_bulk_demo()
    asm = SensorAssembly(magnet=demo.magnet, fnd_center=demo.nv_position,
                         fnd_radius=1e-9, n_nv=1, spin=demo.spin)
    return demo, asm, nv_site(demo.nv_position, demo.nv_axis, demo.spin.strain_e)


def assert_matches_oracle(asm, sites, temps, bias=(0.0, 0.0, 0.0)):
    dm, dp = domega_dtemp(asm, temps, sites)
    assert dm.shape == dp.shape == (len(temps), len(sites))
    for j, (position, frame, strain) in enumerate(
            zip(sites.positions, sites.frames, sites.strains)):
        sys = replace(asm.spin, strain_e=float(strain))
        field_fn = nv_field_fn(asm.magnet, position, frame[2], bias)
        for k, temp in enumerate(temps):
            ref_m, ref_p = scalar_domega_dtemp(sys, field_fn, float(temp))
            assert dm[k, j] == pytest.approx(ref_m, rel=1e-8)
            assert dp[k, j] == pytest.approx(ref_p, rel=1e-8)


class TestDomegaDtemp:
    def test_constant_field_is_bare_slope(self):
        asm = SensorAssembly(magnet=None, bias_field=(0.0, 0.0, 1e-3))
        dm, dp = domega_dtemp(asm, [300.0], nv_site((0, 0, 0), (0, 0, 1), 0.0))
        assert dm[0, 0] == pytest.approx(-74e3, rel=1e-6)
        assert dp[0, 0] == pytest.approx(-74e3, rel=1e-6)

    def test_axial_chain_rule(self):
        # on the easy axis Bz = g m(T), g the field of the saturated sphere:
        # domega/dT = dD/dT -+ gamma g dm/dT
        demo, asm, site = gd_demo_nv()
        mag, r = demo.magnet, demo.nv_position[2]
        g = 2.0 / 3.0 * 4e-7 * np.pi * mag.m_sat * (mag.radius / r) ** 3
        temps = np.array([285.0, 290.0])
        dm, dp = domega_dtemp(asm, temps, site)
        chain = GAMMA * g * dm_dtemp(mag, temps)
        np.testing.assert_allclose(dm[:, 0], -74e3 - chain, rtol=1e-6)
        np.testing.assert_allclose(dp[:, 0], -74e3 + chain, rtol=1e-6)

    def test_gd_scan_matches_eigh_oracle(self):
        demo, asm, site = gd_demo_nv()
        assert_matches_oracle(asm, site, demo.scan_temps)

    def test_off_axis_strained_nvs_match_eigh_oracle(self):
        # two NVs whose axes are tilted off the field (the cubic branch),
        # with strain, in one two-site call
        demo, asm, _ = gd_demo_nv()
        frames = np.stack([nv_frame((1.0, 1.0, 1.0)), nv_frame((1.0, -1.0, 0.5))])
        sites = Ensemble(positions=np.array([[1.5e-3, 0.0, 5.0e-3],
                                             [-1.0e-3, 2.0e-3, 4.0e-3]]),
                         frames=frames, strains=np.array([5e6, 2e6]))
        assert_matches_oracle(asm, sites, np.array([280.0, 288.0, 291.0]))

    def test_representative_nv_feels_transverse_bias(self):
        bias = (2e-3, 0.0, 0.0)
        asm = replace(cuni_design_assembly(seed=5), bias_field=bias)
        temps = asm.magnet.tc - np.array([8.0, 2.0, 0.5])
        site = nv_site(asm.fnd_center, asm.magnet.easy_axis, asm.strain_mean)
        assert_matches_oracle(asm, site, temps, bias)
        sys = replace(asm.spin, strain_e=asm.strain_mean)
        field_fn = nv_field_fn(asm.magnet, asm.fnd_center, asm.magnet.easy_axis, bias)
        for temp in temps:
            ref = max(abs(v) for v in scalar_domega_dtemp(sys, field_fn, float(temp)))
            assert representative_domega_dt(asm, float(temp)) == pytest.approx(ref, rel=1e-8)
            unbiased = representative_domega_dt(replace(asm, bias_field=(0, 0, 0)),
                                                float(temp))
            assert abs(unbiased / ref - 1.0) > 1e-6

    def test_warns_outside_regime(self):
        asm = SensorAssembly(magnet=None, bias_field=(0.0, 0.0, 0.2))
        with pytest.warns(UserWarning, match="operating regime"):
            domega_dtemp(asm, [300.0], nv_site((0, 0, 0), (0, 0, 1), 0.0))

    @pytest.mark.parametrize("scale", [0.98, 1.02])
    def test_warns_exactly_when_eigh_oracle_does(self, scale):
        # |gamma B| + E on either side of D, field tilted off the NV axis
        e, axis = 5e6, np.array([0.1, 0.0, 1.0]) / np.sqrt(1.01)
        field = scale * (D0 - e) / GAMMA * axis
        asm = SensorAssembly(magnet=None, bias_field=tuple(field),
                             spin=SpinSystem(dd_dt=0.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            domega_dtemp(asm, [300.0], nv_site((0, 0, 0), (0, 0, 1), e))
            new = len(caught)
            transition_frequencies(SpinSystem(strain_e=e, field=tuple(field)), 300.0)
        assert new == len(caught) - new == (scale > 1.0)

    def test_gd_demo_silent(self):
        demo, asm, site = gd_demo_nv()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            domega_dtemp(asm, demo.scan_temps, site)
