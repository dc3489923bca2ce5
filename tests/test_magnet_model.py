import numpy as np
import pytest

from critherm import magnet_model
from critherm.errors import DomainError, GeometryError, SolverError
from critherm.magnet_model import (
    MU0,
    Magnet,
    brillouin,
    curie_temperature,
    dipole_field,
    dipole_field_many,
    dm_dtemp,
    magnetic_moment,
    solve_magnetization,
)


def tanh_bisect(t, iters=300):
    """Independent oracle for the J = 1/2 fixed point m = tanh(m/t)."""
    lo, hi = 1e-12, 1.0
    f = lambda m: m - np.tanh(m / t)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def solve_magnetization_scalar(mag, temp):
    """Oracle for solve_magnetization: the fixed-schedule bisection for one
    temperature, written as a scalar loop."""
    if temp >= mag.tc:
        return 0.0
    j = mag.spin_j
    coef = 3.0 * j / (j + 1.0) * mag.tc / temp
    f = lambda m: m - brillouin(j, coef * m)
    lo, hi = 1e-12, 1.0
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
        if hi - lo < 1e-10:
            return 0.5 * (lo + hi)
    raise AssertionError("oracle did not converge")


def dm_dtemp_scalar(mag, temp, step=1e-3):
    """Oracle for dm_dtemp on top of solve_magnetization_scalar."""
    if temp > mag.tc:
        return 0.0
    if temp + step > mag.tc:
        return (solve_magnetization_scalar(mag, temp)
                - solve_magnetization_scalar(mag, temp - step)) / step
    return (solve_magnetization_scalar(mag, temp + step)
            - solve_magnetization_scalar(mag, temp - step)) / (2.0 * step)


def make_magnet(tc=292.0, j=0.5, radius=1e-3, m_sat=2.1e6):
    return Magnet(m_sat=m_sat, radius=radius, tc=tc, spin_j=j)


class TestCurieTemperature:
    def test_anchors(self):
        assert curie_temperature(1.00) == pytest.approx(637.0)
        assert curie_temperature(0.45) == pytest.approx(0.0, abs=1e-12)

    def test_composition_074(self):
        # hand evaluation 637 * (0.74 - 0.45) / 0.55
        tc = curie_temperature(0.74)
        assert tc == pytest.approx(637.0 * 0.29 / 0.55, rel=1e-12)
        assert abs(tc - 340.0) < 10.0

    def test_below_threshold_warns(self):
        with pytest.warns(UserWarning):
            assert curie_temperature(0.30) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            curie_temperature(-0.1)
        with pytest.raises(DomainError):
            curie_temperature(1.2)


class TestBrillouin:
    def test_half_spin_is_tanh(self):
        x = np.linspace(-3, 3, 41)
        assert np.allclose(brillouin(0.5, x), np.tanh(x), atol=1e-12)

    def test_saturates_to_one(self):
        assert brillouin(1.5, 50.0) == pytest.approx(1.0, rel=1e-10)

    def test_half_spin_is_tanh_to_rounding_at_small_x(self):
        # the coth difference cancels to eps / x^2 relative: a two-term
        # series below |x| = 1e-3 left it 2.4e-10 off just above the switch;
        # three terms up to |x| = 0.016 measured 8.6e-13 on this grid
        x = np.logspace(-12, 0, 2001)
        assert np.max(np.abs(brillouin(0.5, x) / np.tanh(x) - 1.0)) < 1e-12

    def test_small_x_slope(self):
        # B_J'(0) = (J+1)/(3J)
        for j in (0.5, 1.0, 3.5):
            x = 1e-10
            assert brillouin(j, x) / x == pytest.approx((j + 1) / (3 * j), rel=1e-6)


class TestSolveMagnetization:
    def test_saturation_at_low_t(self):
        mag = make_magnet()
        assert solve_magnetization(mag, 1e-3 * mag.tc) == pytest.approx(1.0, abs=1e-9)

    def test_zero_above_tc(self):
        mag = make_magnet()
        assert solve_magnetization(mag, mag.tc) == 0.0
        assert solve_magnetization(mag, mag.tc + 50.0) == 0.0

    def test_fixed_point_against_oracle(self):
        mag = make_magnet()
        m = solve_magnetization(mag, 0.9 * mag.tc)
        assert m == pytest.approx(tanh_bisect(0.9), abs=1e-6)
        # frozen oracle value
        assert m == pytest.approx(0.5254295, abs=1e-6)

    def test_general_j_self_consistency(self):
        for j in (1.0, 3.5):
            mag = make_magnet(j=j)
            for frac in (0.3, 0.7, 0.95):
                temp = frac * mag.tc
                m = solve_magnetization(mag, temp)
                coef = 3 * j / (j + 1) * mag.tc / temp
                assert m == pytest.approx(brillouin(j, coef * m), abs=1e-9)

    def test_critical_exponent(self):
        mag = make_magnet()
        ts = np.linspace(0.95, 0.999, 50)
        ms = [solve_magnetization(mag, t * mag.tc) for t in ts]
        beta, _ = np.polyfit(np.log(1.0 - ts), np.log(ms), 1)
        assert abs(beta - 0.5) < 0.025

    def test_critical_amplitude(self):
        mag = make_magnet()
        t = 0.999
        m = solve_magnetization(mag, t * mag.tc)
        assert m / np.sqrt(3 * (1 - t)) == pytest.approx(1.0, abs=0.02)

    def test_deterministic(self):
        mag = make_magnet()
        a = solve_magnetization(mag, 250.0)
        b = solve_magnetization(mag, 250.0)
        assert a == b  # bit-identical, fixed iteration schedule

    def test_nonpositive_temperature(self):
        with pytest.raises(DomainError):
            solve_magnetization(make_magnet(), -1.0)

    def test_saturated_at_millikelvin(self):
        # coef * 1e-12 is about 1.3e-8 here: with the coth form of B_J down
        # to 1e-8, f(1e-12) > 0 at some of these and the bracket failed
        temps = np.linspace(0.02, 0.027, 2001)
        assert np.all(np.abs(solve_magnetization(make_magnet(), temps) - 1.0) < 1e-9)


class TestLockstepSolver:
    @pytest.mark.parametrize("j", [0.5, 3.5])
    def test_bitwise_equal_to_scalar_loop(self, j):
        mag = make_magnet(j=j)
        temps = np.concatenate([np.linspace(0.01, 1.2, 150) * mag.tc,
                                [mag.tc, mag.tc - 5e-4, mag.tc + 1e-9]])
        want = [solve_magnetization_scalar(mag, t) for t in temps.tolist()]
        got = solve_magnetization(mag, temps)
        assert got.shape == temps.shape
        assert np.array_equal(got, want)
        assert [solve_magnetization(mag, t) for t in temps.tolist()] == want
        assert np.array_equal(solve_magnetization(mag, temps.reshape(3, 51)),
                              np.reshape(want, (3, 51)))

    @pytest.mark.parametrize("j", [0.5, 3.5])
    def test_per_temperature_magnets_bitwise_equal_to_each_alone(self, j):
        # the design sweep's batch: one solve for the rows of every
        # composition, each row as if its magnet were solved alone
        mags = [make_magnet(tc=tc, j=j, m_sat=2.1e6 * tc / 637.0)
                for tc in (11.6, 57.9, 347.5, 637.0)]
        temps = [np.concatenate([np.linspace(0.01, 1.2, 40) * mag.tc,
                                 [mag.tc, mag.tc - 5e-4, mag.tc + 1e-9]])
                 for mag in mags]
        rows = [mag for mag, t in zip(mags, temps) for _ in t]
        got = solve_magnetization(rows, np.concatenate(temps))
        want = np.concatenate([solve_magnetization(mag, t)
                               for mag, t in zip(mags, temps)])
        assert np.array_equal(got, want)
        assert np.array_equal(solve_magnetization(rows[::-1],
                                                  np.concatenate(temps)[::-1]),
                              want[::-1])

    def test_per_temperature_magnets_share_one_spin(self):
        with pytest.raises(DomainError, match="one spin_j"):
            solve_magnetization([make_magnet(j=0.5), make_magnet(j=3.5)],
                                [100.0, 100.0])
        with pytest.raises(DomainError, match="one magnet per temperature"):
            solve_magnetization([make_magnet()], [100.0, 200.0])

    def test_scalar_returns_float(self):
        mag = make_magnet()
        assert type(solve_magnetization(mag, 250.0)) is float
        assert type(solve_magnetization(mag, mag.tc + 1.0)) is float
        assert type(dm_dtemp(mag, 250.0)) is float

    def test_dm_dtemp_bitwise_equal_to_scalar_loop(self):
        mag = make_magnet()
        temps = np.array([10.0, 0.5 * mag.tc, mag.tc - 2e-3, mag.tc - 5e-4,
                          mag.tc, mag.tc + 5e-4, mag.tc + 1.0])
        want = [dm_dtemp_scalar(mag, t) for t in temps.tolist()]
        assert np.array_equal(dm_dtemp(mag, temps), want)

    @pytest.mark.parametrize("knob, value, match", [
        # m(T) > 0.9 up to about 0.5 Tc, so [0.9, 1] first misses the root
        # at 0.9 Tc
        ("_BISECT_LO", 0.9, "not bracketed at T = 262.8 K"),
    ])
    def test_solver_error_names_first_failing_temperature(self, monkeypatch,
                                                          knob, value, match):
        monkeypatch.setattr(magnet_model, knob, value)
        mag = make_magnet()
        temps = np.array([300.0, 29.2, 0.5 * mag.tc, 0.9 * mag.tc, 0.95 * mag.tc])
        with pytest.raises(SolverError, match=match):
            solve_magnetization(mag, temps)

    def test_nonpositive_temperature_in_array(self):
        with pytest.raises(DomainError, match="got -1.0"):
            solve_magnetization(make_magnet(), np.array([100.0, -1.0, 0.0]))


class TestDmDtemp:
    def test_zero_above_tc(self):
        mag = make_magnet()
        assert dm_dtemp(mag, mag.tc + 1.0) == 0.0

    def test_plateau_deep_ferromagnet(self):
        mag = make_magnet()
        assert abs(dm_dtemp(mag, 0.1 * mag.tc)) < 1e-3 / mag.tc * 1e3  # tiny slope

    def test_criticality_peak_ordering(self):
        mag = make_magnet()
        assert abs(dm_dtemp(mag, 0.999 * mag.tc)) > abs(dm_dtemp(mag, 0.9 * mag.tc))

    def test_one_sided_at_tc(self):
        mag = make_magnet()
        # within one step of Tc the backward difference keeps the peak finite
        val = dm_dtemp(mag, mag.tc - 5e-4)
        assert val < 0.0 and np.isfinite(val)

    def test_curve_invariants(self):
        mag = make_magnet()
        temps = np.linspace(10.0, mag.tc + 10.0, 80)
        m = solve_magnetization(mag, temps)
        assert np.all(np.diff(m) <= 1e-12)                    # non-increasing
        assert np.all(m[temps >= mag.tc] == 0.0)
        assert m[0] > 0.999999                                # saturated at T -> 0


class TestMagneticMoment:
    def test_zero_above_tc(self):
        mag = make_magnet()
        assert np.allclose(magnetic_moment(mag, mag.tc + 1.0), 0.0)

    def test_volume_scaling(self):
        small = make_magnet(radius=50e-9, m_sat=2.4e5)
        big = make_magnet(radius=100e-9, m_sat=2.4e5)
        temp = 0.8 * small.tc
        assert np.allclose(magnetic_moment(big, temp),
                           8.0 * magnetic_moment(small, temp))

    def test_hand_product(self):
        # |m| = m_sat * m * (4/3) pi r^3 with m pinned by temperature choice
        mag = make_magnet(radius=100e-9, m_sat=2.4e5)
        temp = 0.9 * mag.tc
        m_red = solve_magnetization(mag, temp)
        expect = 2.4e5 * m_red * (4.0 / 3.0) * np.pi * (100e-9) ** 3
        assert np.linalg.norm(magnetic_moment(mag, temp)) == pytest.approx(expect)

    def test_along_easy_axis(self):
        mag = Magnet(m_sat=1e5, radius=1e-7, tc=300.0, easy_axis=(1.0, 1.0, 0.0))
        vec = magnetic_moment(mag, 150.0)
        assert vec[2] == 0.0 and vec[0] == pytest.approx(vec[1])


class TestDipoleField:
    def test_on_axis(self):
        m = np.array([0.0, 0.0, 1e-15])
        r = 100e-9
        b = dipole_field(m, (0, 0, 0), (0, 0, r))
        assert b[2] == pytest.approx(MU0 * 1e-15 / (2 * np.pi * r ** 3), rel=1e-12)
        assert abs(b[0]) < 1e-30 and abs(b[1]) < 1e-30

    def test_equatorial(self):
        m = np.array([0.0, 0.0, 1e-15])
        r = 100e-9
        b = dipole_field(m, (0, 0, 0), (r, 0, 0))
        assert b[2] == pytest.approx(-MU0 * 1e-15 / (4 * np.pi * r ** 3), rel=1e-12)

    def test_inverse_cube(self):
        m = np.array([0.0, 0.0, 3e-16])
        b1 = dipole_field(m, (0, 0, 0), (0, 0, 200e-9))
        b2 = dipole_field(m, (0, 0, 0), (0, 0, 400e-9))
        assert np.allclose(b1, 8.0 * b2)

    def test_linear_in_moment(self):
        m = np.array([1e-16, -2e-16, 5e-17])
        obs = (3e-7, -1e-7, 2e-7)
        assert np.array_equal(dipole_field(2 * m, (0, 0, 0), obs),
                              2 * dipole_field(m, (0, 0, 0), obs))

    def test_divergence_free(self):
        rng = np.random.default_rng(5)
        m = np.array([2e-16, 1e-16, -3e-16])
        h = 1e-11
        for _ in range(30):
            p = rng.uniform(-1, 1, 3) * 300e-9
            r = np.linalg.norm(p)
            if r < 50e-9:
                continue
            div = 0.0
            for k in range(3):
                dp = np.zeros(3)
                dp[k] = h
                div += (dipole_field(m, (0, 0, 0), p + dp)[k]
                        - dipole_field(m, (0, 0, 0), p - dp)[k]) / (2 * h)
            bmag = np.linalg.norm(dipole_field(m, (0, 0, 0), p))
            assert abs(div) < 1e-6 * bmag / r

    def test_geometry_error(self):
        with pytest.raises(GeometryError):
            dipole_field((0, 0, 1e-15), (0, 0, 0), (0, 0, 50e-9),
                         min_distance=100e-9)
        with pytest.raises(GeometryError):
            dipole_field((0, 0, 1e-15), (0, 0, 0), (0, 0, 0))

    def test_many_matches_single(self):
        rng = np.random.default_rng(6)
        m = rng.uniform(-1, 1, 3) * 1e-16
        pts = rng.uniform(-1, 1, (20, 3)) * 400e-9
        pts = pts[np.linalg.norm(pts, axis=1) > 100e-9]
        batch = dipole_field_many(m, (0, 0, 0), pts)
        for i, p in enumerate(pts):
            assert np.allclose(batch[i], dipole_field(m, (0, 0, 0), p))


class TestMagnetType:
    @pytest.mark.parametrize("kw, message", [
        ({"radius": 0.0}, "radius must be positive, got 0.0"),
        # the axis norm overflows to inf, with numpy's overflow warning
        pytest.param({"easy_axis": (1e300,) * 3}, "easy_axis must be a nonzero 3-vector",
                     marks=pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")),
    ], ids=["zero-radius", "overflowing-axis"])
    def test_invalid_field_named(self, kw, message):
        with pytest.raises(DomainError) as exc:
            Magnet(**dict(dict(m_sat=1.0, radius=1.0, tc=1.0), **kw))
        assert str(exc.value) == message

    def test_easy_axis_normalized_bitwise(self):
        axis = (0.3, -1.7, 2.9)
        mag = Magnet(m_sat=1.0, radius=1.0, tc=1.0, easy_axis=axis)
        assert mag.easy_axis == tuple(np.asarray(axis) / np.linalg.norm(axis))

    def test_easy_axis_normalized(self):
        mag = Magnet(m_sat=1e5, radius=1e-7, tc=300.0, easy_axis=(0.0, 0.0, 10.0))
        assert np.linalg.norm(mag.easy_axis) == pytest.approx(1.0, abs=1e-12)

    def test_invalid(self):
        with pytest.raises(DomainError):
            Magnet(m_sat=-1.0, radius=1e-7, tc=300.0)
        with pytest.raises(DomainError):
            Magnet(m_sat=1e5, radius=1e-7, tc=-5.0)
        with pytest.raises(DomainError):
            Magnet(m_sat=1e5, radius=1e-7, tc=300.0, easy_axis=(0, 0, 0))

