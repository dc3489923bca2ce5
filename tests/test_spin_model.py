import numpy as np
import pytest

from critherm.errors import DomainError, LabelingAmbiguityError
from critherm.spin_model import (
    SpinSystem,
    build_hamiltonian,
    d_of_t,
    domega_dtemp,
    transition_frequencies,
    transition_pair_batch,
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
