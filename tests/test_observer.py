import numpy as np
import pytest

from airnav import dynamics, geometry, observer
from airnav.config import default_config
from airnav.dynamics import TrajectorySpec, truth_inputs, truth_state
from airnav.exceptions import MissingPayloadError, SingularInnovationError
from airnav.observer import (
    AirDataObserver,
    Innovation,
    ObserverState,
    RiccatiWeights,
    STACK_ORDER,
    additive_weight,
    cre_rhs,
    innovation_from_gain,
    observer_step_state,
    observer_tick,
    output_matrix,
    residual,
    riccati_predict,
    riccati_update,
    state_matrix_ct,
    state_matrix_dt,
)
from airnav.sensors import MagReference, ProbeSet, SensorKind

G = 9.81
M_I = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)


@pytest.fixture
def probes():
    return ProbeSet.from_axes([[1.0, 0.0, 0.0]])


@pytest.fixture
def mag_ref():
    return MagReference(m_I=M_I)


@pytest.fixture
def weights():
    return default_config().weights


def truth_observer_state(spec, t, p=None):
    s = truth_state(spec, t)
    return ObserverState(Rhat=s.R.copy(), Vahat=s.Va.copy(), hhat=s.h,
                         P=np.eye(7) if p is None else p)


class TestStateMatrices:
    def test_ct_blocks(self):
        a = np.array([0.0, 0.0, -9.81])
        m = state_matrix_ct(np.eye(3), a)
        np.testing.assert_allclose(
            m[3:6, 0:3], [[0, -9.81, 0], [9.81, 0, 0], [0, 0, 0]])
        np.testing.assert_allclose(m[6], [0, 0, 0, 0, 0, 1, 0])
        np.testing.assert_allclose(m[:, 6], np.zeros(7))
        np.testing.assert_allclose(m[0:3], np.zeros((3, 7)))

    def test_ct_zero_acceleration(self):
        m = state_matrix_ct(np.eye(3), np.zeros(3))
        expected = np.zeros((7, 7))
        expected[6, 5] = 1.0
        np.testing.assert_allclose(m, expected)

    def test_dt_example(self):
        a = np.array([0.0, 0.0, -9.81])
        m = state_matrix_dt(np.eye(3), a, 0.005)
        np.testing.assert_allclose(
            m[3:6, 0:3],
            [[0, -0.04905, 0], [0.04905, 0, 0], [0, 0, 0]], atol=1e-15)
        np.testing.assert_allclose(m[6], [0, 0, 0, 0, 0, 0.005, 1])

    def test_dt_tends_to_identity(self):
        a = np.array([1.0, -2.0, 3.0])
        m = state_matrix_dt(np.eye(3), a, 1e-12)
        np.testing.assert_allclose(m, np.eye(7), atol=1e-11)

    def test_dt_is_identity_plus_t_times_ct(self):
        rng = np.random.default_rng(0)
        rhat = geometry.exp_so3(rng.standard_normal(3))
        a = rng.standard_normal(3)
        t = 0.005
        lhs = state_matrix_dt(rhat, a, t)
        rhs = np.eye(7) + t * state_matrix_ct(rhat, a)
        np.testing.assert_array_equal(lhs, rhs)


class TestOutputMatrix:
    def test_baro_row(self, probes, mag_ref):
        c = output_matrix(np.eye(3), np.zeros(3), probes, mag_ref,
                          (SensorKind.BARO,))
        np.testing.assert_allclose(c, [[0, 0, 0, 0, 0, 0, 1]])

    def test_mag_rows(self, probes, mag_ref):
        c = output_matrix(np.eye(3), np.zeros(3), probes, mag_ref,
                          (SensorKind.MAG,))
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(
            c[:, 0:3], [[0, s, 0], [-s, 0, s], [0, -s, 0]], atol=1e-15)
        np.testing.assert_allclose(c[:, 3:], np.zeros((3, 4)))

    def test_pitot_row(self, probes, mag_ref):
        c = output_matrix(np.eye(3), np.array([10.0, 0, 0]), probes, mag_ref,
                          (SensorKind.PITOT,))
        np.testing.assert_allclose(c, [[0, 0, 0, 1, 0, 0, 0]], atol=1e-15)

    def test_stack_order_fixed(self, probes, mag_ref):
        c = output_matrix(np.eye(3), np.array([10.0, 0, 0]), probes, mag_ref,
                          (SensorKind.BARO, SensorKind.PITOT, SensorKind.MAG))
        assert c.shape == (5, 7)
        np.testing.assert_allclose(c[0], [0, 0, 0, 1, 0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(c[4], [0, 0, 0, 0, 0, 0, 1])

    def test_empty_subset_rejected(self, probes, mag_ref):
        with pytest.raises(ValueError):
            output_matrix(np.eye(3), np.zeros(3), probes, mag_ref, ())


class TestResidual:
    def test_zero_for_perfect_estimate(self, probes, mag_ref):
        spec = TrajectorySpec.paper()
        t = 1.3
        s = truth_state(spec, t)
        est = truth_observer_state(spec, t)
        payloads = {
            SensorKind.PITOT: probes.B.T @ s.Va,
            SensorKind.MAG: s.R.T @ M_I,
            SensorKind.BARO: s.h,
        }
        y = residual(payloads, est, probes, mag_ref, STACK_ORDER)
        np.testing.assert_allclose(y, np.zeros(5), atol=1e-12)

    def test_baro_offset(self, probes, mag_ref):
        spec = TrajectorySpec.paper()
        s = truth_state(spec, 0.5)
        est = truth_observer_state(spec, 0.5)
        est.hhat = s.h - 2.0
        y = residual({SensorKind.BARO: s.h}, est, probes, mag_ref,
                     (SensorKind.BARO,))
        np.testing.assert_allclose(y, [2.0])

    def test_mag_linearization(self, probes, mag_ref):
        rng = np.random.default_rng(1)
        spec = TrajectorySpec.paper()
        s = truth_state(spec, 2.0)
        for _ in range(20):
            lam = 1e-3 * rng.standard_normal(3)
            rhat = geometry.rot_from_small_angle(lam).T @ s.R
            est = ObserverState(Rhat=rhat, Vahat=s.Va.copy(), hhat=s.h,
                                P=np.eye(7))
            y = residual({SensorKind.MAG: s.R.T @ M_I}, est, probes, mag_ref,
                         (SensorKind.MAG,))
            np.testing.assert_allclose(y, -geometry.skew(M_I) @ lam,
                                       atol=5 * np.dot(lam, lam))

    def test_missing_payload(self, probes, mag_ref):
        est = truth_observer_state(TrajectorySpec.paper(), 0.0)
        with pytest.raises(MissingPayloadError):
            residual({}, est, probes, mag_ref, (SensorKind.BARO,))


class TestRiccatiPredict:
    def test_identity_transition_no_noise(self):
        p = np.diag([1.0, 2, 3, 4, 5, 6, 7])
        out = riccati_predict(p, np.eye(7), np.zeros((7, 7)), 0.005)
        np.testing.assert_allclose(out, p)

    def test_structural(self):
        a_d = state_matrix_dt(np.eye(3), np.array([0, 0, -G]), 0.005)
        out = riccati_predict(np.eye(7), a_d, np.zeros((7, 7)), 0.005)
        np.testing.assert_allclose(out, a_d @ a_d.T)

    def test_reference_weights_give_spd(self, weights):
        a_d = state_matrix_dt(np.eye(3), np.array([0, 0, -G]), 0.005)
        out = riccati_predict(weights.P0, a_d, weights.S, 0.005)
        np.linalg.cholesky(out)


class TestRiccatiUpdate:
    def test_no_information(self):
        p = np.diag([1.0, 2, 3, 4, 5, 6, 7])
        k, p_new = riccati_update(p, np.zeros((1, 7)), np.array([[1.0]]))
        np.testing.assert_allclose(k, np.zeros((7, 1)))
        np.testing.assert_allclose(p_new, p)

    def test_scalar_baro_update(self):
        c = np.zeros((1, 7))
        c[0, 6] = 1.0
        k, p_new = riccati_update(np.eye(7), c, np.array([[1.0]]))
        expected_k = np.zeros((7, 1))
        expected_k[6, 0] = 0.5
        np.testing.assert_allclose(k, expected_k)
        np.testing.assert_allclose(p_new, np.diag([1, 1, 1, 1, 1, 1, 0.5]))

    def test_postconditions(self, probes, mag_ref, weights):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((7, 7))
        p = m @ m.T + 0.1 * np.eye(7)
        c = output_matrix(geometry.exp_so3(rng.standard_normal(3)),
                          rng.standard_normal(3) * 5, probes, mag_ref,
                          STACK_ORDER)
        q = np.diag(rng.uniform(0.1, 2.0, 5))
        _, p_new = riccati_update(p, c, q)
        assert np.linalg.norm(p_new - p_new.T) <= 1e-12
        assert np.linalg.eigvalsh(p_new)[0] > 0.0

    def test_singular_innovation_raises(self):
        c = np.zeros((1, 7))
        with pytest.raises(SingularInnovationError):
            riccati_update(np.eye(7), c, np.array([[-1.0]]))


    @pytest.mark.parametrize("row", ["baro", "pitot", "random"])
    def test_one_row_matches_cholesky_path(self, row, probes, mag_ref):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((7, 7))
        p = m @ m.T + 0.1 * np.eye(7)
        if row == "baro":
            c = np.zeros((1, 7))
            c[0, 6] = 1.0
        elif row == "pitot":
            c = output_matrix(geometry.exp_so3(rng.standard_normal(3)),
                              5.0 * rng.standard_normal(3), probes, mag_ref,
                              (SensorKind.PITOT,))
        else:
            c = rng.standard_normal((1, 7))
        q = np.array([[0.7]])
        k1, p1 = riccati_update(p, c, q)
        k2, p2 = observer._update_cholesky(p, c, q)
        assert k1.shape == k2.shape == (7, 1)
        np.testing.assert_allclose(k1, k2, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(p1, p2, rtol=1e-12, atol=1e-12)
        assert np.array_equal(p1, p1.T)

    def test_singular_stacked_innovation_raises(self):
        c = np.zeros((2, 7))
        with pytest.raises(SingularInnovationError):
            riccati_update(np.eye(7), c, -np.eye(2))

    def test_nan_covariance_raises(self):
        c = np.zeros((1, 7))
        c[0, 6] = 1.0
        with pytest.raises(SingularInnovationError):
            riccati_update(np.full((7, 7), np.nan), c, np.array([[1.0]]))


class TestInnovation:
    def test_zero_residual(self):
        innov = innovation_from_gain(np.ones((7, 5)), np.zeros(5))
        np.testing.assert_allclose(innov.as_vector(), np.zeros(7))

    def test_baro_row_gain(self):
        k = np.zeros((7, 1))
        k[6, 0] = 1.0
        innov = innovation_from_gain(k, np.array([2.0]))
        assert innov.delta_h == pytest.approx(-2.0)
        np.testing.assert_allclose(innov.delta_R, np.zeros(3))
        np.testing.assert_allclose(innov.delta_v, np.zeros(3))

    def test_partition_identity(self):
        rng = np.random.default_rng(3)
        k = rng.standard_normal((7, 5))
        y = rng.standard_normal(5)
        innov = innovation_from_gain(k, y)
        np.testing.assert_array_equal(innov.as_vector(), -k @ y)


class TestObserverStepState:
    def test_equilibrium_is_frozen(self):
        rhat = geometry.exp_so3(np.array([0.2, -0.1, 0.4]))
        est = ObserverState(Rhat=rhat, Vahat=np.zeros(3), hhat=5.0,
                            P=np.eye(7))
        a = -G * (rhat.T @ geometry.E3)
        r_new, va_new, h_new = observer_step_state(
            est, np.zeros(3), a, G, Innovation.zero(), 0.005)
        np.testing.assert_allclose(r_new, rhat, atol=1e-15)
        np.testing.assert_allclose(va_new, np.zeros(3), atol=1e-15)
        assert h_new == pytest.approx(5.0)

    def test_zero_innovation_matches_rk4_to_second_order(self):
        spec = TrajectorySpec.paper()
        s0 = truth_state(spec, 0.0)
        inp = truth_inputs(spec, 0.0)

        def one_step_error(T):
            est = truth_observer_state(spec, 0.0)
            _, va_new, _ = observer_step_state(est, inp.omega, inp.a, G,
                                               Innovation.zero(), T)
            ref = dynamics.propagate_truth(s0,
                                           lambda t: truth_inputs(spec, t),
                                           dt=T / 200.0, steps=200, gravity=G)
            return np.linalg.norm(va_new - ref.Va)

        err_full = one_step_error(0.01)
        err_half = one_step_error(0.005)
        assert err_full / err_half == pytest.approx(4.0, rel=0.5)

    def test_altitude_innovation_full_strength(self):
        # the gain-weighted correction enters unscaled by the tick period
        rhat = np.eye(3)
        est = ObserverState(Rhat=rhat, Vahat=np.array([3.0, 0.0, 0.0]),
                            hhat=10.0, P=np.eye(7))
        innov = Innovation(delta_R=np.zeros(3), delta_v=np.zeros(3),
                           delta_h=1.0)
        _, _, h_new = observer_step_state(est, np.zeros(3), np.zeros(3), G,
                                          innov, 0.005)
        assert h_new == pytest.approx(9.0)

    def test_attitude_innovation_composition(self):
        # the error rotation composes as R_err <- R_err exp(delta_R^x), the
        # discrete realization of the error dynamics d(lam)/dt = delta_R
        spec = TrajectorySpec.hover()
        s = truth_state(spec, 0.0)
        lam = np.array([0.0, 0.0, 0.2])
        rhat = geometry.rot_from_small_angle(lam).T @ s.R
        est = ObserverState(Rhat=rhat, Vahat=s.Va.copy(), hhat=s.h,
                            P=np.eye(7))
        innov = Innovation(delta_R=np.array([0.0, 0.0, 0.1]),
                           delta_v=np.zeros(3), delta_h=0.0)
        r_new, _, _ = observer_step_state(est, np.zeros(3),
                                          -G * (rhat.T @ geometry.E3), G,
                                          innov, 0.005)
        new_lam = geometry.small_angle(geometry.rot_to_quat(s.R @ r_new.T))
        np.testing.assert_allclose(new_lam, [0, 0, 0.3], atol=1e-3)


class TestObserverTick:
    def test_requires_imu(self, probes, mag_ref, weights):
        est = truth_observer_state(TrajectorySpec.paper(), 0.0)
        with pytest.raises(MissingPayloadError):
            observer_tick(est, {}, weights, probes, mag_ref, G, 0.005)

    def test_imu_only_grows_covariance(self, probes, mag_ref, weights):
        spec = TrajectorySpec.paper()
        est = truth_observer_state(spec, 0.0, p=weights.P0.copy())
        inp = truth_inputs(spec, 0.0)
        out = observer_tick(est, {SensorKind.IMU: (inp.omega, inp.a)},
                            weights, probes, mag_ref, G, 0.005)
        assert np.trace(out.P) > np.trace(est.P)
        r_ref, va_ref, h_ref = observer_step_state(
            est, inp.omega, inp.a, G, Innovation.zero(), 0.005)
        np.testing.assert_allclose(out.Rhat, r_ref)
        np.testing.assert_allclose(out.Vahat, va_ref)
        assert out.hhat == pytest.approx(h_ref)

    def test_truth_estimate_gets_tiny_innovation(self, probes, mag_ref,
                                                 weights):
        spec = TrajectorySpec.paper()
        t = 0.4
        s = truth_state(spec, t)
        inp = truth_inputs(spec, t)
        est = truth_observer_state(spec, t, p=weights.P0.copy())
        payloads = {
            SensorKind.IMU: (inp.omega, inp.a),
            SensorKind.PITOT: probes.B.T @ s.Va,
            SensorKind.MAG: s.R.T @ M_I,
            SensorKind.BARO: s.h,
        }
        out = observer_tick(est, payloads, weights, probes, mag_ref, G,
                            0.005)
        prediction = observer_step_state(est, inp.omega, inp.a, G,
                                         Innovation.zero(), 0.005)
        np.testing.assert_allclose(out.Vahat, prediction[1], atol=1e-9)
        assert abs(out.hhat - prediction[2]) < 1e-9

    def test_symmetry_and_pd_over_short_run(self, probes, mag_ref, weights):
        spec = TrajectorySpec.paper()
        est = truth_observer_state(spec, 0.0, p=weights.P0.copy())
        obs = AirDataObserver(est, weights, probes, mag_ref, dt=0.005,
                              gravity=G)
        rng = np.random.default_rng(4)
        for i in range(400):
            t = i * 0.005
            s = truth_state(spec, t)
            inp = truth_inputs(spec, t)
            payloads = {SensorKind.IMU: (inp.omega + 0.05 * rng.standard_normal(3),
                                         inp.a + 0.05 * rng.standard_normal(3))}
            if i % 4 == 0:
                payloads[SensorKind.PITOT] = probes.B.T @ s.Va
                payloads[SensorKind.MAG] = s.R.T @ M_I
            if i % 40 == 0:
                payloads[SensorKind.BARO] = s.h
            state = obs.tick(payloads)
            assert np.linalg.norm(state.P - state.P.T) <= 1e-12
            np.linalg.cholesky(state.P)


class TestCopyOfDynamics:
    def test_error_stays_below_euler_drift_bound(self):
        # zero noise, zero initial error, no aiding: drift is pure
        # first-order integration truncation, which scales with the tick
        # period (measured coefficient ~12 on the reference trajectory)
        spec = TrajectorySpec.paper()
        weights = default_config().weights
        probes = ProbeSet.from_axes([[1.0, 0.0, 0.0]])
        mag_ref = MagReference(m_I=M_I)
        T = 0.005
        est = truth_observer_state(spec, 0.0, p=weights.P0.copy())
        obs = AirDataObserver(est, weights, probes, mag_ref, dt=T, gravity=G,
                              integrator="euler")
        n = int(10.0 / T)
        for i in range(n):
            inp = truth_inputs(spec, i * T)
            obs.tick({SensorKind.IMU: (inp.omega, inp.a)})
        truth = truth_state(spec, n * T)
        err = dynamics.error_state(truth, obs.state)
        assert np.linalg.norm(err.v_tilde) <= 30.0 * T
        assert np.linalg.norm(err.lam) <= 1e-3
        assert abs(err.h_tilde) <= 0.1

    def test_ab2_tracks_tighter_than_euler(self):
        spec = TrajectorySpec.paper()
        weights = default_config().weights
        probes = ProbeSet.from_axes([[1.0, 0.0, 0.0]])
        mag_ref = MagReference(m_I=M_I)
        T = 0.005
        errs = {}
        for integ in ("euler", "ab2"):
            est = truth_observer_state(spec, 0.0, p=weights.P0.copy())
            obs = AirDataObserver(est, weights, probes, mag_ref, dt=T,
                                  gravity=G, integrator=integ)
            for i in range(int(10.0 / T)):
                inp = truth_inputs(spec, i * T)
                obs.tick({SensorKind.IMU: (inp.omega, inp.a)})
            err = dynamics.error_state(truth_state(spec, 10.0), obs.state)
            errs[integ] = np.linalg.norm(err.v_tilde)
        assert errs["ab2"] < 0.1 * errs["euler"]


class TestCreRhs:
    def test_zero_covariance(self):
        s = np.diag(np.arange(1.0, 8.0))
        out = cre_rhs(np.zeros((7, 7)), np.zeros((7, 7)), np.zeros((1, 7)),
                      np.array([[1.0]]), s)
        np.testing.assert_allclose(out, s)

    def test_no_dynamics_no_output(self):
        p = np.eye(7)
        s = 0.3 * np.eye(7)
        out = cre_rhs(p, np.zeros((7, 7)), np.zeros((1, 7)),
                      np.array([[2.0]]), s)
        np.testing.assert_allclose(out, s)

    def test_scalar_riccati_value(self):
        # 1-state analogue embedded in the (7,7) corner
        p = np.zeros((7, 7))
        p[6, 6] = 2.0
        a = np.zeros((7, 7))
        a[6, 6] = -1.0
        c = np.zeros((1, 7))
        c[0, 6] = 1.0
        q = np.array([[0.5]])
        s = np.zeros((7, 7))
        s[6, 6] = 0.1
        out = cre_rhs(p, a, c, q, s)
        assert out[6, 6] == pytest.approx(2 * (-1.0) * 2.0 - 0.5 * 4.0 + 0.1)


class TestWeightsValidation:
    def test_rejects_non_spd(self):
        with pytest.raises(ValueError):
            RiccatiWeights(Qp=np.array([[-1.0]]), Qm=np.eye(3), Qb=1.0,
                           S=np.eye(7), P0=np.eye(7))

    def test_rejects_asymmetric(self):
        s = np.eye(7)
        s[0, 1] = 0.5
        with pytest.raises(ValueError):
            RiccatiWeights(Qp=np.array([[1.0]]), Qm=np.eye(3), Qb=1.0,
                           S=s, P0=np.eye(7))


class TestCreDiscreteSchemeGap:
    def test_first_order_transition_gap_on_excited_trajectory(self):
        # On the yaw-excited trajectory the first-order A_d = I + T A
        # recursion deviates from the continuous flow at O(T |A|^2); the
        # measured gap at 200 Hz is a few tenths of a percent and this
        # regression pins its scale
        from airnav.config import default_config
        from airnav.observer import (STACK_ORDER, additive_weight,
                                     integrate_cre, riccati_predict,
                                     riccati_update)
        cfg = default_config()
        spec = TrajectorySpec.paper(duration=2.0)
        T = cfg.imu_period
        r_d = additive_weight(cfg.weights, STACK_ORDER, cfg.q_convention)
        q_cre = np.linalg.inv(r_d) / T

        def a_star(t):
            return state_matrix_ct(dynamics.attitude(spec, t),
                                   truth_inputs(spec, t).a)

        def c_star(t):
            s = truth_state(spec, t)
            return output_matrix(s.R, s.Va, cfg.probes, cfg.mag_ref,
                                 STACK_ORDER)

        p = cfg.weights.P0.copy()
        for k in range(200):
            t = k * T
            a_d = state_matrix_dt(dynamics.attitude(spec, t),
                                  truth_inputs(spec, t).a, T)
            p = riccati_predict(p, a_d, cfg.weights.S, T)
            _, p = riccati_update(p, c_star(t), r_d)
        p_cont = integrate_cre(cfg.weights.P0, a_star, c_star, q_cre,
                               cfg.weights.S, 0.0, 1.0, T, substeps=50)
        rel = np.linalg.norm(p - p_cont) / np.linalg.norm(p_cont)
        assert rel < 1e-2


class TestOutputRemainderBound:
    def test_residual_matches_linear_model_to_quadratic_order(self):
        # nonlinear residuals differ from C x by a remainder bounded by a
        # quadratic form in the error magnitude
        spec = TrajectorySpec.paper()
        probes = ProbeSet.from_axes([[1.0, 0.0, 0.0]])
        mag_ref = MagReference(m_I=M_I)
        rng = np.random.default_rng(11)
        for scale in (1e-3, 1e-2, 1e-1):
            for _ in range(20):
                t = rng.uniform(0.5, 50.0)
                truth = truth_state(spec, t)
                lam = scale * rng.standard_normal(3)
                v_tilde = scale * rng.standard_normal(3)
                h_tilde = scale * rng.standard_normal()
                x = np.concatenate((lam, v_tilde, [h_tilde]))
                r_err = geometry.rot_from_small_angle(lam)
                rhat = r_err.T @ truth.R
                vahat = rhat.T @ (truth.R @ truth.Va - v_tilde)
                est = ObserverState(Rhat=rhat, Vahat=vahat,
                                    hhat=truth.h - h_tilde, P=np.eye(7))
                payloads = {
                    SensorKind.PITOT: probes.B.T @ truth.Va,
                    SensorKind.MAG: truth.R.T @ M_I,
                    SensorKind.BARO: truth.h,
                }
                y = residual(payloads, est, probes, mag_ref, STACK_ORDER)
                c = output_matrix(est.Rhat, est.Vahat, probes, mag_ref,
                                  STACK_ORDER)
                bound = 3.0 * (np.linalg.norm(truth.Va) + 2.0) * (x @ x)
                assert np.linalg.norm(y - c @ x) <= bound


class TestTickAgainstPublicPieces:
    """The merged tick equals the cycle composed from the public pieces."""

    @pytest.mark.parametrize("kinds", [
        (),
        (SensorKind.BARO,),
        (SensorKind.MAG, SensorKind.PITOT),
        (SensorKind.PITOT, SensorKind.MAG, SensorKind.BARO),
    ])
    def test_one_tick(self, kinds, probes, mag_ref, weights):
        spec = TrajectorySpec.paper()
        T = 0.005
        s = truth_state(spec, 0.3)
        inp = truth_inputs(spec, 0.3)
        rng = np.random.default_rng(13)
        est = ObserverState(
            Rhat=geometry.exp_so3(0.1 * rng.standard_normal(3)) @ s.R,
            Vahat=s.Va + rng.standard_normal(3), hhat=s.h + 0.5,
            P=weights.P0.copy())
        measured = {SensorKind.PITOT: probes.B.T @ s.Va + 0.1,
                    SensorKind.MAG: s.R.T @ M_I,
                    SensorKind.BARO: s.h - 0.2}
        payloads = {SensorKind.IMU: (inp.omega, inp.a)}
        payloads.update((kind, measured[kind]) for kind in kinds)
        out = observer_tick(est, payloads, weights, probes, mag_ref, G, T)

        p = riccati_predict(est.P, state_matrix_dt(est.Rhat, inp.a, T),
                            weights.S, T)
        if len(kinds) == 3:
            subsets = [STACK_ORDER]
        else:
            subsets = [(kind,) for kind in (SensorKind.BARO, SensorKind.MAG,
                                            SensorKind.PITOT)
                       if kind in kinds]
        u = np.zeros(7)
        for subset in subsets:
            y = residual(payloads, est, probes, mag_ref, subset)
            c = output_matrix(est.Rhat, est.Vahat, probes, mag_ref, subset)
            k, p = riccati_update(p, c, additive_weight(weights, subset,
                                                        "covariance"))
            u += innovation_from_gain(k, y).as_vector()
        innov = Innovation(delta_R=u[0:3], delta_v=u[3:6], delta_h=u[6])
        r_ref, va_ref, h_ref = observer_step_state(est, inp.omega, inp.a, G,
                                                   innov, T)
        np.testing.assert_allclose(out.P, p, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(out.Rhat, r_ref, rtol=0, atol=1e-14)
        np.testing.assert_allclose(out.Vahat, va_ref, rtol=1e-12, atol=1e-14)
        assert out.hhat == pytest.approx(h_ref, rel=1e-12)


class TestObserverTickEventList:
    def test_accepts_sensor_event_batch(self):
        from airnav.sensors import SensorEvent
        from airnav.config import default_config
        cfg = default_config()
        spec = cfg.trajectory
        s = truth_state(spec, 0.0)
        inp = truth_inputs(spec, 0.0)
        est = ObserverState(Rhat=s.R.copy(), Vahat=s.Va.copy(), hhat=s.h,
                            P=cfg.weights.P0.copy())
        events = [
            SensorEvent(t=0.0, kind=SensorKind.IMU,
                        payload=(inp.omega, inp.a)),
            SensorEvent(t=0.0, kind=SensorKind.BARO, payload=s.h),
        ]
        out = observer_tick(est, events, cfg.weights, cfg.probes,
                            cfg.mag_ref, cfg.gravity, cfg.imu_period)
        payload_dict = {SensorKind.IMU: (inp.omega, inp.a),
                        SensorKind.BARO: s.h}
        ref = observer_tick(est, payload_dict, cfg.weights, cfg.probes,
                            cfg.mag_ref, cfg.gravity, cfg.imu_period)
        np.testing.assert_array_equal(out.Vahat, ref.Vahat)
        np.testing.assert_array_equal(out.P, ref.P)
