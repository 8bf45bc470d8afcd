import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from airnav import geometry, observer
from airnav.config import default_config
from airnav.dynamics import TrajectorySpec
from airnav.exceptions import DivergenceError, SingularInnovationError
from airnav.observer import (
    RUN_FAILURES,
    AirDataObserver,
    ObserverState,
    Q_CONVENTIONS,
    RiccatiWeights,
    riccati_update,
)
from airnav.sensors import STACK_ORDER, MagReference, ProbeSet, SensorKind

from oracles import (
    E3,
    MissingPayloadError,
    additive_weight,
    attitude,
    cre_rhs,
    error_state,
    integrate_cre,
    output_matrix,
    propagate_truth,
    quat_to_rot,
    residual,
    riccati_predict,
    rot_from_small_angle,
    rot_to_quat,
    rotation_defect,
    small_angle,
    state_matrix_ct,
    state_matrix_dt,
    tick,
    truth_inputs,
    truth_state,
)

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


def _random_spd(rng, n=7):
    m = rng.standard_normal((n, n))
    return m @ m.T + 0.1 * np.eye(n)


def _dense_update(p, c, q):
    """Gain and corrected covariance from the block formula, inverted."""
    k = p @ c.T @ np.linalg.inv(c @ p @ c.T + q)
    return k, p - k @ c @ p


# Sensor subsets and weights of the kernel cases: probe count, whether Qp
# and Qm are non-diagonal, and the q_convention.
_CASES = {
    "baro": ((SensorKind.BARO,), 1, False, "covariance"),
    "pitot": ((SensorKind.PITOT,), 1, False, "covariance"),
    "pitot2": ((SensorKind.PITOT,), 2, False, "covariance"),
    "pitot3": ((SensorKind.PITOT,), 3, False, "covariance"),
    "mag": ((SensorKind.MAG,), 1, False, "covariance"),
    "stacked": (STACK_ORDER, 3, False, "covariance"),
    "mag_non_diagonal": ((SensorKind.MAG,), 1, True, "covariance"),
    "pitot_non_diagonal": ((SensorKind.PITOT,), 3, True, "covariance"),
    "mag_and_pitot": ((SensorKind.PITOT, SensorKind.MAG), 2, True,
                      "covariance"),
    "precision": (STACK_ORDER, 2, True, "precision"),
}


def _case_setup(case, rng):
    """Probes, weights and q_convention of one kernel case."""
    subset, m, non_diagonal, q_convention = _CASES[case]
    axes = [[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.6, 0.0, 0.8]][:m]
    qp, qm = np.diag(rng.uniform(0.5, 2.0, m)), np.diag(rng.uniform(
        0.01, 0.1, 3))
    if non_diagonal:
        qp, qm = (_random_spd(rng, len(b)) * b.max() for b in (qp, qm))
    w = RiccatiWeights(Qp=qp, Qm=qm, Qb=0.3, S=0.01 * _random_spd(rng),
                       P0=_random_spd(rng))
    return subset, ProbeSet.from_axes(axes), w, q_convention


def _sensor_case(case, rng):
    """Subset, output rows and additive term of one kernel case."""
    subset, probes, w, q_convention = _case_setup(case, rng)
    c = output_matrix(geometry.exp_so3(rng.standard_normal(3)),
                      5.0 * rng.standard_normal(3), probes,
                      MagReference(m_I=M_I), subset)
    return subset, c, additive_weight(w, subset, q_convention)


def truth_observer_state(spec, t, p=None):
    s = truth_state(spec, t)
    return ObserverState(Rhat=s.R.copy(), Vahat=s.Va.copy(), hhat=s.h,
                         P=np.eye(7) if p is None else p)


def tick_once(est, payloads, weights, probes, mag_ref, T=0.005):
    """State after one tick of a fresh Euler observer started at ``est``."""
    obs = AirDataObserver(est, weights, probes, mag_ref, dt=T, gravity=G,
                          q_convention="covariance", integrator="euler")
    return tick(obs, payloads)


def euler_step(est, omega, a, u, T):
    """Euler state step of the discrete algorithm, written out independently.

    ``u = [dR, dv, dh]`` is the gain-weighted innovation ``-sum K y``; it
    enters at full strength, the IMU-driven kinematics scale with ``T``::

        Rhat+  = Rhat exp((T omega - Rhat^T dR)^x)
        Vahat+ = Vahat + T (Vahat x omega + g Rhat^T e3 + a)
                 + (Rhat^T dR) x Vahat - Rhat^T dv
        hhat+  = hhat + T e3^T Rhat Vahat - dh
    """
    rhat, vahat = est.Rhat, est.Vahat
    d_r, d_v, d_h = u[0:3], u[3:6], u[6]
    r_new = rhat @ geometry.exp_so3(T * omega - rhat.T @ d_r)
    va_new = (vahat + T * (np.cross(vahat, omega) + G * rhat.T @ E3
                           + a)
              + np.cross(rhat.T @ d_r, vahat) - rhat.T @ d_v)
    h_new = est.hhat + T * (rhat @ vahat)[2] - d_h
    return r_new, va_new, h_new


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
            rhat = rot_from_small_angle(lam).T @ s.R
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


@pytest.mark.parametrize("q_convention", Q_CONVENTIONS)
def test_additive_weight_matches_scipy_block_diag(q_convention):
    rng = np.random.default_rng(5)
    qp, qm = (x @ x.T + np.eye(len(x)) for x in
              (rng.standard_normal((2, 2)), rng.standard_normal((3, 3))))
    w = RiccatiWeights(Qp=qp, Qm=qm, Qb=0.3, S=np.eye(7), P0=np.eye(7))
    blocks = {SensorKind.PITOT: qp, SensorKind.MAG: qm,
              SensorKind.BARO: np.array([[0.3]])}
    for n in (1, 2, 3):
        for subset in itertools.combinations(STACK_ORDER, n):
            parts = [blocks[kind] for kind in subset]
            if q_convention == "precision":
                parts = [np.linalg.inv(b) for b in parts]
            assert np.array_equal(additive_weight(w, subset, q_convention),
                                  block_diag(*parts))


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


    @pytest.mark.parametrize("case", ["random", *_CASES])
    def test_matches_dense_formula(self, case):
        # the row-by-row kernel against P C^T (C P C^T + Q)^-1 written out
        rng = np.random.default_rng(12)
        p = _random_spd(rng)
        if case == "random":
            c, q = rng.standard_normal((1, 7)), np.array([[0.7]])
        else:
            subset, c, q = _sensor_case(case, rng)
        y = rng.standard_normal(c.shape[0])
        k, p_new = riccati_update(p, c, q)
        k_ref, p_ref = _dense_update(p, c, q)
        assert k.shape == (7, c.shape[0])
        np.testing.assert_allclose(k, k_ref, rtol=1e-11, atol=1e-13)
        np.testing.assert_allclose(k @ y, k_ref @ y, rtol=1e-11, atol=1e-13)
        np.testing.assert_allclose(p_new, p_ref, rtol=1e-11, atol=1e-13)
        assert np.array_equal(p_new, p_new.T)

    def test_singular_stacked_innovation_raises(self):
        c = np.zeros((2, 7))
        with pytest.raises(SingularInnovationError):
            riccati_update(np.eye(7), c, -np.eye(2))

    def test_nan_covariance_raises(self):
        c = np.zeros((1, 7))
        c[0, 6] = 1.0
        with pytest.raises(SingularInnovationError):
            riccati_update(np.full((7, 7), np.nan), c, np.array([[1.0]]))


class TestObserverStepState:
    def test_equilibrium_is_frozen(self, probes, mag_ref, weights):
        rhat = geometry.exp_so3(np.array([0.2, -0.1, 0.4]))
        est = ObserverState(Rhat=rhat, Vahat=np.zeros(3), hhat=5.0,
                            P=np.eye(7))
        a = -G * (rhat.T @ E3)
        out = tick_once(est, {SensorKind.IMU: (np.zeros(3), a)}, weights,
                        probes, mag_ref)
        np.testing.assert_allclose(out.Rhat, rhat, atol=1e-15)
        np.testing.assert_allclose(out.Vahat, np.zeros(3), atol=1e-15)
        assert out.hhat == pytest.approx(5.0)

    def test_zero_innovation_matches_rk4_to_second_order(self, probes,
                                                         mag_ref, weights):
        spec = TrajectorySpec.paper()
        s0 = truth_state(spec, 0.0)
        inp = truth_inputs(spec, 0.0)

        def one_step_error(T):
            est = truth_observer_state(spec, 0.0)
            out = tick_once(est, {SensorKind.IMU: (inp.omega, inp.a)},
                            weights, probes, mag_ref, T)
            ref = propagate_truth(s0,
                                  lambda t: truth_inputs(spec, t),
                                  dt=T / 200.0, steps=200, gravity=G)
            return np.linalg.norm(out.Vahat - ref.Va)

        err_full = one_step_error(0.01)
        err_half = one_step_error(0.005)
        assert err_full / err_half == pytest.approx(4.0, rel=0.5)

    def test_altitude_innovation_full_strength(self, probes, mag_ref,
                                               weights):
        # the gain-weighted correction enters unscaled by the tick period
        T = 0.005
        est = ObserverState(Rhat=np.eye(3), Vahat=np.array([3.0, 0.0, 0.0]),
                            hhat=10.0, P=np.eye(7))
        baro_only = (SensorKind.BARO,)
        p = riccati_predict(est.P, state_matrix_dt(est.Rhat, np.zeros(3), T),
                            weights.S, T)
        k, _ = riccati_update(
            p, output_matrix(est.Rhat, est.Vahat, probes, mag_ref, baro_only),
            additive_weight(weights, baro_only, "covariance"))
        # a barometer residual y with K_h y = -1 makes the correction dh = 1
        payloads = {SensorKind.IMU: (np.zeros(3), np.zeros(3)),
                    SensorKind.BARO: 10.0 - 1.0 / k[6, 0]}
        h_new = tick_once(est, payloads, weights, probes, mag_ref, T).hhat
        assert h_new == pytest.approx(9.0)

    def test_attitude_innovation_composition(self):
        # the error rotation composes as R_err <- R_err exp(delta_R^x), the
        # discrete realization of the error dynamics d(lam)/dt = delta_R;
        # with omega = 0 the tick's attitude step is Rhat exp(-Rhat^T dR)
        spec = TrajectorySpec.hover()
        s = truth_state(spec, 0.0)
        lam = np.array([0.0, 0.0, 0.2])
        rhat = rot_from_small_angle(lam).T @ s.R
        theta = -rhat.T @ np.array([0.0, 0.0, 0.1])
        r_new, _ = observer._rotate(rhat.ravel().tolist(), *theta.tolist())
        r_new = np.array(r_new).reshape(3, 3)
        new_lam = small_angle(rot_to_quat(s.R @ r_new.T))
        np.testing.assert_allclose(new_lam, [0, 0, 0.3], atol=1e-3)


class TestObserverTick:
    def test_requires_imu(self, probes, mag_ref, weights):
        est = truth_observer_state(TrajectorySpec.paper(), 0.0)
        with pytest.raises(MissingPayloadError):
            tick_once(est, {}, weights, probes, mag_ref)

    def test_imu_only_grows_covariance(self, probes, mag_ref, weights):
        spec = TrajectorySpec.paper()
        est = truth_observer_state(spec, 0.0, p=weights.P0.copy())
        inp = truth_inputs(spec, 0.0)
        out = tick_once(est, {SensorKind.IMU: (inp.omega, inp.a)}, weights,
                        probes, mag_ref)
        assert np.trace(out.P) > np.trace(est.P)
        r_ref, va_ref, h_ref = euler_step(est, inp.omega, inp.a, np.zeros(7),
                                          0.005)
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
        imu = {SensorKind.IMU: (inp.omega, inp.a)}
        payloads = dict(imu)
        payloads.update({
            SensorKind.PITOT: probes.B.T @ s.Va,
            SensorKind.MAG: s.R.T @ M_I,
            SensorKind.BARO: s.h,
        })
        out = tick_once(est, payloads, weights, probes, mag_ref)
        prediction = tick_once(est, imu, weights, probes, mag_ref)
        np.testing.assert_allclose(out.Vahat, prediction.Vahat, atol=1e-9)
        assert abs(out.hhat - prediction.hhat) < 1e-9

    @pytest.mark.parametrize("n_probes, non_diagonal", [
        (1, False), (3, False), (3, True)])
    @pytest.mark.parametrize("extra", [-1, 2], ids=["short", "long"])
    def test_pitot_reading_count_must_match_probes(self, n_probes,
                                                   non_diagonal, extra,
                                                   mag_ref, weights):
        # a wrong-length Pitot list is refused, not cut to the probe count;
        # the good tick before it in the block stands
        rng = np.random.default_rng(8)
        qp = (_random_spd(rng, n_probes) if non_diagonal
              else np.eye(n_probes))
        w = RiccatiWeights(Qp=qp, Qm=weights.Qm, Qb=weights.Qb, S=weights.S,
                           P0=weights.P0)
        probes = ProbeSet.from_axes(
            [[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.6, 0.0, 0.8]][:n_probes])
        spec = TrajectorySpec.paper()
        inp = truth_inputs(spec, 0.0)
        omega, a = inp.omega.tolist(), inp.a.tolist()
        good = (probes.B.T @ truth_state(spec, 0.0).Va).tolist()
        bad = [1.0] * (n_probes + extra)

        def observer():
            return AirDataObserver(truth_observer_state(spec, 0.0, p=w.P0), w,
                                   probes, mag_ref, dt=0.005, gravity=G,
                                   q_convention="covariance",
                                   integrator="euler")

        def advance(obs, pitots):
            n = len(pitots)
            return obs.advance([omega] * n, [a] * n, pitots, [None] * n,
                               [None] * n)

        obs, refused = observer(), observer()
        assert advance(obs, [good]) == (1, None)
        with pytest.raises(ValueError,
                           match=f"^{n_probes + extra} Pitot readings for "
                                 f"{n_probes} probes$"):
            advance(refused, [good, bad])
        for field in ("Rhat", "Vahat", "hhat", "P"):
            np.testing.assert_array_equal(getattr(refused.state, field),
                                          getattr(obs.state, field))

    @pytest.mark.parametrize("count", [2, 4])
    def test_mag_reading_count_must_be_three(self, probes, mag_ref, weights,
                                             count):
        # named for the sensor, not left to a tuple unpacking error; the
        # good tick before it in the block stands
        spec = TrajectorySpec.paper()
        inp = truth_inputs(spec, 0.0)
        omega, a = inp.omega.tolist(), inp.a.tolist()
        good = (truth_state(spec, 0.0).R.T @ mag_ref.m_I).tolist()

        def advance(obs, mags):
            n = len(mags)
            return obs.advance([omega] * n, [a] * n, [None] * n, mags,
                               [None] * n)

        obs, refused = (
            AirDataObserver(truth_observer_state(spec, 0.0, p=weights.P0),
                            weights, probes, mag_ref, dt=0.005, gravity=G,
                            q_convention="covariance", integrator="euler")
            for _ in range(2))
        assert advance(obs, [good]) == (1, None)
        with pytest.raises(ValueError,
                           match=f"^{count} magnetometer readings, not 3$"):
            advance(refused, [good, [1.0] * count])
        for field in ("Rhat", "Vahat", "hhat", "P"):
            np.testing.assert_array_equal(getattr(refused.state, field),
                                          getattr(obs.state, field))

    @pytest.mark.parametrize("size", [1, 3])
    def test_qp_size_must_be_the_probe_count(self, mag_ref, weights, size):
        # the fold zips the probe rows with Qp's variances: a smaller Qp
        # would drop the last probes' readings, a larger one go unnoticed
        probes = ProbeSet.from_axes([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0]])
        w = RiccatiWeights(Qp=np.eye(size), Qm=weights.Qm, Qb=weights.Qb,
                           S=weights.S, P0=weights.P0)
        with pytest.raises(ValueError,
                           match=rf"^Qp is \({size}, {size}\) for 2 probes$"):
            AirDataObserver(
                truth_observer_state(TrajectorySpec.paper(), 0.0, p=w.P0),
                w, probes, mag_ref, dt=0.005, gravity=G,
                q_convention="covariance", integrator="euler")

    def test_failed_tick_leaves_the_rate_history(self, probes, mag_ref,
                                                 weights):
        # a tick that fails the divergence floor keeps the estimate, so its
        # rates must not enter the next tick's two-step blend either
        spec = TrajectorySpec.paper()
        est = truth_observer_state(spec, 0.0, p=weights.P0.copy())
        inp = truth_inputs(spec, 0.0)
        good = {SensorKind.IMU: (inp.omega, inp.a)}
        bad = {SensorKind.IMU: (inp.omega + 1.0, inp.a + 1.0),
               SensorKind.BARO: 1e300}

        def observer_ab2():
            return AirDataObserver(est, weights, probes, mag_ref, dt=0.005,
                                   gravity=G, integrator="ab2",
                                   q_convention="covariance")

        obs = observer_ab2()
        with pytest.raises(DivergenceError):
            tick(obs, bad)
        after = tick(obs, good)
        alone = tick(observer_ab2(), good)
        for field in ("Rhat", "Vahat", "hhat", "P"):
            np.testing.assert_array_equal(getattr(after, field),
                                          getattr(alone, field))

    def test_symmetry_and_pd_over_short_run(self, probes, mag_ref, weights):
        spec = TrajectorySpec.paper()
        est = truth_observer_state(spec, 0.0, p=weights.P0.copy())
        obs = AirDataObserver(est, weights, probes, mag_ref, dt=0.005,
                              gravity=G, q_convention="covariance",
                              integrator="euler")
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
            state = tick(obs, payloads)
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
                              integrator="euler", q_convention="covariance")
        n = int(10.0 / T)
        for i in range(n):
            inp = truth_inputs(spec, i * T)
            tick(obs, {SensorKind.IMU: (inp.omega, inp.a)})
        truth = truth_state(spec, n * T)
        err = error_state(truth, obs.state)
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
                                  gravity=G, integrator=integ,
                                  q_convention="covariance")
            for i in range(int(10.0 / T)):
                inp = truth_inputs(spec, i * T)
                tick(obs, {SensorKind.IMU: (inp.omega, inp.a)})
            err = error_state(truth_state(spec, 10.0), obs.state)
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
        cfg = default_config()
        spec = TrajectorySpec.paper()
        T = cfg.imu_period
        r_d = additive_weight(cfg.weights, STACK_ORDER, cfg.q_convention)
        q_cre = np.linalg.inv(r_d) / T

        def a_star(t):
            return state_matrix_ct(attitude(spec, t),
                                   truth_inputs(spec, t).a)

        def c_star(t):
            s = truth_state(spec, t)
            return output_matrix(s.R, s.Va, cfg.probes, cfg.mag_ref,
                                 STACK_ORDER)

        p = cfg.weights.P0.copy()
        for k in range(200):
            t = k * T
            a_d = state_matrix_dt(attitude(spec, t),
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
                r_err = rot_from_small_angle(lam)
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


class TestPackedKernels:
    """The tick's float kernels against the dense reference forms."""

    @pytest.mark.parametrize("seed", range(5))
    def test_predict_matches_riccati_predict(self, seed):
        rng = np.random.default_rng(seed)
        p, s = _random_spd(rng), _random_spd(rng)
        rhat = geometry.exp_so3(rng.standard_normal(3))
        a = 10.0 * rng.standard_normal(3)
        T = 0.005
        k0, k1, k2 = (-T * rhat @ a).tolist()
        out = observer._predict_packed(observer._pack(p), k0, k1, k2, T,
                                       observer._pack(s * T))
        ref = riccati_predict(p, state_matrix_dt(rhat, a, T), s, T)
        np.testing.assert_allclose(observer._unpack(out), ref, rtol=1e-13,
                                   atol=1e-14)

    @pytest.mark.parametrize("case", list(_CASES))
    def test_tick_matches_dense_formula(self, case):
        # predict, then the block formula per sensor (raw residuals) or once
        # over the stacked rows, then the Euler state step
        rng = np.random.default_rng(21)
        subset, probes, w, q_convention = _case_setup(case, rng)
        mag_ref = MagReference(m_I=M_I)
        spec = TrajectorySpec.paper()
        T = 0.005
        s = truth_state(spec, 0.3)
        inp = truth_inputs(spec, 0.3)
        est = ObserverState(
            Rhat=geometry.exp_so3(0.1 * rng.standard_normal(3)) @ s.R,
            Vahat=s.Va + rng.standard_normal(3), hhat=s.h + 0.5, P=w.P0)
        measured = {SensorKind.PITOT: probes.B.T @ s.Va + 0.1,
                    SensorKind.MAG: s.R.T @ M_I + 0.01,
                    SensorKind.BARO: s.h - 0.2}
        payloads = {SensorKind.IMU: (inp.omega, inp.a)}
        payloads.update((kind, measured[kind]) for kind in subset)
        obs = AirDataObserver(est, w, probes, mag_ref, dt=T, gravity=G,
                              q_convention=q_convention, integrator="euler")
        out = tick(obs, payloads)

        p = riccati_predict(est.P, state_matrix_dt(est.Rhat, inp.a, T), w.S,
                            T)
        groups = ([subset] if len(subset) == 3 else
                  [(kind,) for kind in (SensorKind.BARO, SensorKind.MAG,
                                        SensorKind.PITOT) if kind in subset])
        u = np.zeros(7)
        for group in groups:
            c = output_matrix(est.Rhat, est.Vahat, probes, mag_ref, group)
            k, p = _dense_update(p, c, additive_weight(w, group, q_convention))
            u -= k @ residual(payloads, est, probes, mag_ref, group)
        r_ref, va_ref, h_ref = euler_step(est, inp.omega, inp.a, u, T)
        assert np.array_equal(out.P, out.P.T)
        np.testing.assert_allclose(out.P, p, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(out.Rhat, r_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.Vahat, va_ref, rtol=1e-10, atol=1e-12)
        assert out.hhat == pytest.approx(h_ref, rel=1e-10)

    @pytest.mark.parametrize("case", ["stacked", "precision",
                                      "mag_and_pitot"])
    def test_tick_makes_no_linalg_call(self, case, monkeypatch):
        rng = np.random.default_rng(3)
        subset, probes, w, q_convention = _case_setup(case, rng)
        spec = TrajectorySpec.paper()
        obs = AirDataObserver(truth_observer_state(spec, 0.0, p=w.P0), w,
                              probes, MagReference(m_I=M_I), dt=0.005,
                              q_convention=q_convention, gravity=G,
                              integrator="euler")

        def forbidden(*args, **kwargs):
            raise AssertionError("numpy.linalg called in the tick")

        for name in ("cholesky", "inv", "solve", "svd", "det", "eigh",
                     "eigvalsh", "norm"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        for i in range(20):
            s = truth_state(spec, 0.005 * i)
            inp = truth_inputs(spec, 0.005 * i)
            payloads = {SensorKind.IMU: (inp.omega, inp.a),
                        SensorKind.PITOT: probes.B.T @ s.Va,
                        SensorKind.MAG: s.R.T @ M_I,
                        SensorKind.BARO: s.h}
            tick(obs, {kind: payloads[kind]
                       for kind in (SensorKind.IMU, *subset)})

    def test_nan_covariance_raises_and_keeps_state(self, probes, mag_ref,
                                                   weights):
        est = truth_observer_state(TrajectorySpec.paper(), 0.0,
                                   p=np.full((7, 7), np.nan))
        obs = AirDataObserver(est, weights, probes, mag_ref, dt=0.005,
                              gravity=G, q_convention="covariance",
                              integrator="euler")
        before = obs.state
        with pytest.raises(SingularInnovationError):
            tick(obs, {SensorKind.IMU: (np.zeros(3), np.zeros(3)),
                       SensorKind.BARO: 1.0})
        assert obs.state is before


# Every non-empty subset of the aiding sensors, in the fold's order.
_FOLD_SUBSETS = [subset for n in (1, 2, 3) for subset in
                 itertools.combinations(("baro", "mag", "pitot"), n)]


def _fold_by_rows(p, baro, mag, pitot, r, v, rv, rows):
    """What the fold computes, from _update_row on the full rows: sensor by
    sensor (barometer, magnetometer, Pitot), with the stacked correction
    running on over every row and the sequential ones summed.  The two
    magnetometer rows have unit variance."""
    q_baro, mag_rows, axes, q_pitot = rows
    blocks = []
    if baro is not None:
        blocks.append(([[0.0] * 6 + [1.0]], [baro], [q_baro]))
    if mag is not None:
        blocks.append(([c + [0.0] * 4 for c in mag_rows], mag, [1.0, 1.0]))
    if pitot is not None:
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = r
        v0, v1, v2 = v
        rv0, rv1, rv2 = rv
        pitot_rows, ys = [], []
        for (b0, b1, b2), meas in zip(axes, pitot):
            x0 = r00 * b0 + r01 * b1 + r02 * b2
            x1 = r10 * b0 + r11 * b1 + r12 * b2
            x2 = r20 * b0 + r21 * b1 + r22 * b2
            pitot_rows.append([x1 * rv2 - x2 * rv1, x2 * rv0 - x0 * rv2,
                               x0 * rv1 - x1 * rv0, x0, x1, x2, 0.0])
            ys.append(meas - (b0 * v0 + b1 * v1 + b2 * v2))
        blocks.append((pitot_rows, ys, q_pitot))
    stacked = len(blocks) == 3
    zero = (0.0,) * 7
    u = zero
    for cs, ys, qs in blocks:
        d = u if stacked else zero
        for c, y, q in zip(cs, ys, qs):
            p, d = observer._update_row(p, c, q, y, d)
        u = d if stacked else tuple(a + b for a, b in zip(u, d))
    return p, u


class TestRowKernels:
    """The tick's fold of the rows with known zeros against the dense
    kernel."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_FOLD_SUBSETS), st.integers(1, 3),
           st.integers(0, 2**32 - 1), st.floats(-6.0, 6.0),
           st.lists(st.floats(1e-9, 1e6), min_size=4, max_size=4),
           st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6))
    def test_matches_update_row(self, subset, n_probes, seed, log_scale,
                                qs, ys):
        rng = np.random.default_rng(seed)
        p = observer._pack(10.0**log_scale * _random_spd(rng))
        rhat = geometry.exp_so3(rng.standard_normal(3))
        vahat = 5.0 * rng.standard_normal(3)
        r, v, rv = (rhat.ravel().tolist(), tuple(vahat.tolist()),
                    tuple((rhat @ vahat).tolist()))
        rows = (qs[0], rng.standard_normal((2, 3)).tolist(),
                rng.standard_normal((n_probes, 3)).tolist(),
                qs[1:1 + n_probes])
        baro = ys[0] if "baro" in subset else None
        mag = ys[1:3] if "mag" in subset else None
        pitot = ys[3:3 + n_probes] if "pitot" in subset else None
        assert (observer._fold(p, baro, mag, pitot, r, v, rv, rows)
                == _fold_by_rows(p, baro, mag, pitot, r, v, rv, rows))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["diagonal", "non_diagonal", "precision"]),
           st.integers(0, 2**32 - 1))
    def test_two_mag_rows_match_three_whitened_rows(self, case, seed):
        # The observer's two magnetometer rows and residual map against the
        # three rows -(m_I)^x and residuals m_I - Rhat m, whitened to unit
        # variance by the Cholesky factor of the additive term: the block
        # update is the same for any invertible map of rows and residuals.
        rng = np.random.default_rng(seed)
        if case == "diagonal":
            qm = np.diag(rng.uniform(0.01, 0.1, 3))
        else:
            qm = 0.05 * _random_spd(rng, 3)
        q_convention = "precision" if case == "precision" else "covariance"
        m_i = rng.standard_normal(3)
        m_i /= np.linalg.norm(m_i)
        w = RiccatiWeights(Qp=np.eye(1), Qm=qm, Qb=1.0, S=np.eye(7),
                           P0=np.eye(7))
        obs = AirDataObserver(
            ObserverState(np.eye(3), np.zeros(3), 0.0, np.eye(7)), w,
            ProbeSet.from_axes([[1.0, 0.0, 0.0]]), MagReference(m_I=m_i),
            dt=0.005, q_convention=q_convention, gravity=G, integrator="euler")
        p = observer._pack(_random_spd(rng))
        rhat = geometry.exp_so3(rng.standard_normal(3))
        vahat = 5.0 * rng.standard_normal(3)
        r, v, rv = (rhat.ravel().tolist(), tuple(vahat.tolist()),
                    tuple((rhat @ vahat).tolist()))
        y = m_i - rhat @ (rhat.T @ m_i + 0.1 * rng.standard_normal(3))
        mag = np.array(obs._mag[1]).reshape(2, 3) @ y
        p2, u2 = observer._fold(p, None, mag.tolist(), None, r, v, rv,
                                obs._rows)

        q = np.linalg.inv(qm) if case == "precision" else qm
        unit = np.linalg.inv(np.linalg.cholesky(q))
        p3, u3 = p, (0.0,) * 7
        for c, y_j in zip((unit @ -geometry.skew(m_i)).tolist(),
                          (unit @ y).tolist()):
            p3, u3 = observer._update_row(p3, c + [0.0] * 4, 1.0, y_j, u3)
        np.testing.assert_allclose(p2, p3, rtol=0, atol=1e-12)
        np.testing.assert_allclose(u2, u3, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind, entry", [
        (SensorKind.MAG, (3, 3)),
        (SensorKind.BARO, (0, 0)),
    ], ids=["mag", "baro"])
    def test_nan_off_the_support_fails_the_tick(self, kind, entry, probes,
                                                mag_ref, weights):
        # the fold never reads the NaN, so s stays finite; the NaN lands
        # in the updated P and the divergence floor catches it
        spec = TrajectorySpec.paper()
        p = weights.P0.copy()
        p[entry] = np.nan
        obs = AirDataObserver(truth_observer_state(spec, 0.0, p=p), weights,
                              probes, mag_ref, dt=0.005, gravity=G,
                              q_convention="covariance", integrator="euler")
        before = obs.state
        inp = truth_inputs(spec, 0.0)
        s = truth_state(spec, 0.0)
        payload = s.R.T @ M_I if kind == SensorKind.MAG else s.h
        with pytest.raises(RUN_FAILURES):
            tick(obs, {SensorKind.IMU: (inp.omega, inp.a), kind: payload})
        assert obs.state is before


class TestTickAgainstPublicPieces:
    """The merged tick equals the cycle composed from the dense forms."""

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
        out = tick_once(est, payloads, weights, probes, mag_ref, T)

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
            u -= k @ y
        r_ref, va_ref, h_ref = euler_step(est, inp.omega, inp.a, u, T)
        np.testing.assert_allclose(out.P, p, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(out.Rhat, r_ref, rtol=0, atol=1e-14)
        np.testing.assert_allclose(out.Vahat, va_ref, rtol=1e-12, atol=1e-14)
        assert out.hhat == pytest.approx(h_ref, rel=1e-12)



_unit_vector = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(
    np.array).filter(lambda v: np.linalg.norm(v) > 0.1).map(
    lambda v: v / np.linalg.norm(v))
_quaternion = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).map(
    np.array).filter(lambda q: np.linalg.norm(q) > 0.1).map(
    lambda q: q / np.linalg.norm(q))
_angle = st.one_of(
    st.floats(0.0, 0.999e-6),                             # Taylor branch
    st.floats(1e-6, 3.0),                                 # ordinary angles
    st.floats(np.pi - 1e-6, np.pi + 1e-6),                # near pi
)


class TestRotateHelper:
    """The tick's float Rodrigues product against the numpy geometry."""

    @settings(max_examples=500, deadline=None)
    @given(_quaternion, _unit_vector, _angle,
           st.sampled_from([0.0, 1e-8, 1e-3]), st.integers(0, 2**32 - 1))
    def test_matches_exp_so3_and_rotation_defect(self, q, axis, angle,
                                                 drift, seed):
        # drift > 0 leaves SO(3) so that the defect is not only roundoff
        noise = np.random.default_rng(seed).standard_normal((3, 3))
        r = quat_to_rot(q) + drift * noise
        theta = angle * axis
        out, defect = observer._rotate(r.ravel().tolist(), *theta.tolist())
        out = np.array(out).reshape(3, 3)
        np.testing.assert_allclose(out, r @ geometry.exp_so3(theta),
                                   rtol=0, atol=1e-14)
        assert defect == pytest.approx(rotation_defect(out),
                                       rel=1e-12, abs=1e-14)

    def test_non_finite_angle_gives_nan(self):
        out, defect = observer._rotate(np.eye(3).ravel().tolist(),
                                       np.inf, 0.0, 0.0)
        assert np.all(np.isnan(out)) and np.isnan(defect)
