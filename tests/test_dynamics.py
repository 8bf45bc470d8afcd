import numpy as np
import pytest

from airnav import dynamics, geometry
from airnav.dynamics import TrajectorySpec
from airnav.observer import ObserverState

from oracles import (
    E3,
    OutOfRangeError,
    attitude,
    error_state,
    propagate_truth,
    rotation_defect,
    truth_inputs,
    truth_state,
)

G = 9.81


@pytest.fixture
def paper():
    return TrajectorySpec.paper(duration=60.0, gravity=G)


@pytest.fixture
def hover():
    return TrajectorySpec.hover(duration=60.0, gravity=G, h0=3.0)


class TestTruthState:
    def test_paper_initial_point(self, paper):
        s = truth_state(paper, 0.0)
        np.testing.assert_allclose(s.v, [0.0, 3.0, -15.0 * np.sqrt(3) / 4],
                                   atol=1e-12)
        assert s.h == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(s.R, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(s.Va, s.R.T @ s.v, atol=1e-12)

    def test_hover_is_static(self, hover):
        for t in (0.0, 1.7, 42.0):
            s = truth_state(hover, t)
            np.testing.assert_allclose(s.v, np.zeros(3))
            assert s.h == pytest.approx(3.0)
            np.testing.assert_allclose(s.R, np.eye(3))

    def test_altitude_closed_form_at_full_period(self, paper):
        s = truth_state(paper, 2.0 * np.pi / 3.0)
        assert s.h == pytest.approx(-5 * np.sqrt(3) / 4 * np.sin(2 * np.pi),
                                    abs=1e-12)

    def test_out_of_range(self, paper):
        with pytest.raises(OutOfRangeError):
            truth_state(paper, -0.5)
        with pytest.raises(OutOfRangeError):
            truth_state(paper, paper.duration + 0.5)

    def test_yaw_angle_closed_form(self, paper):
        t = 2.3
        psi = float(dynamics.yaw_angle(paper, t))
        assert psi == pytest.approx((0.7 / 1.6) * (1 - np.cos(1.6 * t)),
                                    rel=1e-12)


class TestTruthInputs:
    def test_paper_initial_inputs(self, paper):
        inp = truth_inputs(paper, 0.0)
        np.testing.assert_allclose(inp.omega, np.zeros(3), atol=1e-15)
        s = truth_state(paper, 0.0)
        np.testing.assert_allclose(s.R @ inp.a, [-2.25, 0.0, -G], atol=1e-12)

    def test_hover_inputs(self, hover):
        inp = truth_inputs(hover, 5.0)
        s = truth_state(hover, 5.0)
        np.testing.assert_allclose(inp.omega, np.zeros(3))
        np.testing.assert_allclose(inp.a, s.R.T @ (-G * E3))

    @pytest.mark.parametrize("t", [0.7, 3.1, 12.4])
    def test_velocity_derivative_oracle(self, paper, t):
        # central difference of v(t) against R a + g e3
        dt = 1e-4
        dv = (truth_state(paper, t + dt).v - truth_state(paper, t - dt).v) / (2 * dt)
        s = truth_state(paper, t)
        inp = truth_inputs(paper, t)
        np.testing.assert_allclose(dv, s.R @ inp.a + G * E3,
                                   atol=1e-6)

    @pytest.mark.parametrize("t", [0.5, 4.2, 9.9])
    def test_altitude_rate_consistency(self, paper, t):
        dt = 1e-4
        dh = (truth_state(paper, t + dt).h - truth_state(paper, t - dt).h) / (2 * dt)
        s = truth_state(paper, t)
        assert dh == pytest.approx(float(E3 @ (s.R @ s.Va)),
                                   abs=1e-6)

    @pytest.mark.parametrize("t", [0.5, 4.2, 9.9])
    def test_attitude_rate_consistency(self, paper, t):
        dt = 1e-4
        dr = (truth_state(paper, t + dt).R - truth_state(paper, t - dt).R) / (2 * dt)
        s = truth_state(paper, t)
        om = truth_inputs(paper, t).omega
        np.testing.assert_allclose(dr, s.R @ geometry.skew(om), atol=1e-6)


class TestPropagateTruth:
    def test_hover_equilibrium(self, hover):
        state = truth_state(hover, 0.0)
        out = propagate_truth(state, lambda t: truth_inputs(hover, t),
                              dt=1e-3, steps=1000, gravity=G)
        np.testing.assert_allclose(out.Va, state.Va, atol=1e-12)
        assert out.h == pytest.approx(state.h, abs=1e-12)

    def test_matches_closed_form(self, paper):
        state = truth_state(paper, 0.0)
        out = propagate_truth(state, lambda t: truth_inputs(paper, t),
                              dt=1e-4, steps=10000, gravity=G)
        ref = truth_state(paper, 1.0)
        np.testing.assert_allclose(out.R, ref.R, atol=1e-6)
        np.testing.assert_allclose(out.Va, ref.Va, atol=1e-6)
        assert out.h == pytest.approx(ref.h, abs=1e-6)
        np.testing.assert_allclose(out.v, ref.v, atol=1e-6)

    def test_single_step_consistency(self, paper):
        state = truth_state(paper, 0.0)
        dt = 1e-5
        out = propagate_truth(state, lambda t: truth_inputs(paper, t),
                              dt=dt, steps=1, gravity=G)
        inp = truth_inputs(paper, 0.0)
        rhs = (-np.cross(inp.omega, state.Va)
               + G * (state.R.T @ E3) + inp.a)
        np.testing.assert_allclose((out.Va - state.Va) / dt, rhs, atol=1e-3)

    def test_rotation_defect_stays_small(self, paper):
        state = truth_state(paper, 0.0)
        out = propagate_truth(state, lambda t: truth_inputs(paper, t),
                              dt=1e-3, steps=60000, gravity=G)
        assert rotation_defect(out.R) < 1e-7


class TestErrorState:
    def test_zero_for_identical_states(self, paper):
        s = truth_state(paper, 2.0)
        est = ObserverState(Rhat=s.R.copy(), Vahat=s.Va.copy(), hhat=s.h,
                            P=np.eye(7))
        err = error_state(s, est)
        np.testing.assert_allclose(err.as_vector(), np.zeros(7))

    def test_small_yaw_error(self, paper):
        s = truth_state(paper, 1.0)
        rhat = s.R @ geometry.exp_so3(np.array([0, 0, 0.01])).T
        est = ObserverState(Rhat=rhat, Vahat=s.Va.copy(), hhat=s.h,
                            P=np.eye(7))
        err = error_state(s, est)
        np.testing.assert_allclose(err.lam, [0, 0, 0.01], atol=1e-6)
        assert np.linalg.norm(err.v_tilde) > 0.0
        np.testing.assert_allclose(err.v_tilde,
                                   s.R @ s.Va - rhat @ s.Va, atol=1e-14)

    def test_altitude_error_sign(self, paper):
        s = truth_state(paper, 1.0)
        est = ObserverState(Rhat=s.R.copy(), Vahat=s.Va.copy(), hhat=s.h - 2.0,
                            P=np.eye(7))
        assert error_state(s, est).h_tilde == pytest.approx(2.0)


class TestTrajectorySpecValidation:
    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            TrajectorySpec.hover(duration=0.0)

    def test_rejects_bad_gravity(self):
        with pytest.raises(ValueError):
            TrajectorySpec.hover(gravity=-1.0)


class TestBatchHelpers:
    def test_attitude_batch_matches_scalar(self, paper):
        ts = np.array([0.0, 0.4, 1.1, 7.7])
        batch = dynamics.attitude_batch(paper, ts)
        for i, t in enumerate(ts):
            np.testing.assert_allclose(batch[i], attitude(paper, t))

    def test_specific_force_matches_inputs(self, paper):
        t = 3.3
        w = dynamics.inertial_specific_force(paper, t)
        s = truth_state(paper, t)
        inp = truth_inputs(paper, t)
        np.testing.assert_allclose(w, s.R @ inp.a, atol=1e-12)

    def test_displacement_integrates_velocity(self):
        # the y axis has zero frequency: a constant velocity
        spec = TrajectorySpec(vel_amp=[1.5, -2.0, 0.8], vel_freq=[1.5, 0.0, 3.0],
                              vel_phase=[0.3, 0.4, 0.0], h0=5.0)
        ts = np.linspace(0.0, 7.3, 7301)
        v = dynamics.velocity(spec, ts)
        # trapezoid running integral; its error at step 1e-3 is below 1e-6
        ref = np.concatenate((np.zeros((1, 3)), np.cumsum(
            0.5 * (v[1:] + v[:-1]) * np.diff(ts)[:, None], axis=0)))
        p = dynamics.displacement(spec, ts)
        assert p.shape == (7301, 3)
        np.testing.assert_allclose(p, ref, atol=1e-6)
        np.testing.assert_array_equal(p[0], 0.0)
        np.testing.assert_allclose(p[:, 2], dynamics.altitude(spec, ts) - 5.0,
                                   atol=1e-12)
        # a scalar time gives one 3-vector
        np.testing.assert_allclose(dynamics.displacement(spec, ts[2500]),
                                   p[2500], rtol=1e-14)

    def test_horizontal_motion_matches_displacement_and_acceleration(self):
        # the y axis has zero frequency: a constant velocity
        spec = TrajectorySpec(vel_amp=[1.5, -2.0, 0.8], vel_freq=[1.5, 0.0, 3.0],
                              vel_phase=[0.3, 0.4, 0.0])
        ts = np.linspace(0.0, 7.3, 731).reshape(17, 43)
        p, a = dynamics.horizontal_motion(spec, ts)
        assert p.shape == a.shape == (2, 17, 43)
        np.testing.assert_allclose(np.moveaxis(p, 0, -1),
                                   dynamics.displacement(spec, ts)[..., :2],
                                   rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(np.moveaxis(a, 0, -1),
                                   dynamics.velocity_dot(spec, ts)[..., :2],
                                   rtol=1e-15, atol=1e-15)
        np.testing.assert_array_equal(a[1], 0.0)
