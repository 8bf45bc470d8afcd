"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines; the whole suite takes about a minute, dominated by the 20-run
Monte Carlo reproduction.
"""

import time

import numpy as np

from airnav import cli, geometry, harness, observability
from airnav.config import default_config, parse_config_text
from airnav.dynamics import TrajectorySpec
from airnav.observer import AirDataObserver, ObserverState, riccati_update
from airnav.sensors import (
    STACK_ORDER,
    STREAM_IDS,
    MagReference,
    ProbeSet,
    SensorKind,
    sample_baro,
    sample_imu,
    sample_mag,
    sample_pitot,
    substream,
)

from oracles import (
    NavState,
    additive_weight,
    attitude,
    error_state,
    integrate_cre,
    integrate_phi,
    make_schedule,
    output_matrix,
    propagate_truth,
    quat_to_rot,
    residual,
    riccati_predict,
    rot_from_small_angle,
    rot_to_quat,
    rotation_defect,
    state_matrix_ct,
    state_matrix_dt,
    tick,
    truth_inputs,
    truth_state,
    unskew,
)

G = 9.81

NOISE_FREE_OVERRIDES = """
duration = 40
sigma_gyro = 0
sigma_acc = 0
sigma_pitot = [0]
sigma_mag = [0, 0, 0]
sigma_baro = 0
q_pitot = [[25.0]]
q_mag = [[0.01, 0, 0], [0, 0.01, 0], [0, 0, 0.01]]
q_baro = 0.25
"""


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_montecarlo_reproduction():
    """Reference Monte Carlo: 20 runs, 60 s, published tuning and init."""
    cfg = default_config()
    summary, _ = harness.run_montecarlo(cfg)
    fa = summary.final_means["err_att"]
    fv = summary.final_means["err_v_body"]
    converged = (fa <= 0.05) & (fv <= 0.5)
    med_att = summary.median_at_times["err_att"]
    med_v = summary.median_at_times["err_v_body"]
    mono = bool(med_att[0] > med_att[1] > med_att[2]
                and med_v[0] > med_v[1] > med_v[2])
    ok = (summary.divergence_count == 0 and int(converged.sum()) >= 19
          and mono)
    report("criterion 1 (Monte Carlo reproduction)", ok,
           f"divergences={summary.divergence_count}, "
           f"converged={int(converged.sum())}/20, "
           f"median err_att@(5,15,30)="
           f"({med_att[0]:.2e},{med_att[1]:.2e},{med_att[2]:.2e}), "
           f"median err_v@(5,15,30)="
           f"({med_v[0]:.2e},{med_v[1]:.2e},{med_v[2]:.2e})")
    assert summary.divergence_count == 0
    assert int(converged.sum()) >= 19
    assert mono


def _noise_free_initial_state(cfg):
    truth0 = truth_state(cfg.trajectory, 0.0)
    theta = np.arccos(0.85)  # trace(I - R_err) = 0.3
    axis = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    rhat = geometry.exp_so3(theta * axis).T @ truth0.R
    vahat = truth0.Va + 5.0 * np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0)
    return ObserverState(Rhat=rhat, Vahat=vahat, hhat=truth0.h + 3.0,
                         P=cfg.weights.P0.copy())


def test_criterion_2_noise_free_convergence():
    """Noise-free run with moderate initial errors decays exponentially."""
    cfg = parse_config_text(NOISE_FREE_OVERRIDES)
    state0 = _noise_free_initial_state(cfg)
    m = harness.run_single(cfg, 0, initial_state=state0)
    late = m.t >= 30.0
    att_ok = float(m.err_att[late].max()) <= 1e-3
    v_ok = float(m.err_v_body[late].max()) <= 1e-2
    err_total = np.sqrt(np.maximum(m.err_att, 0.0)) + m.err_v_inertial + m.err_h
    fit = (m.t >= 5.0) & (m.t <= 25.0) & (err_total > 1e-11)
    gamma = -np.polyfit(m.t[fit], np.log(err_total[fit]), 1)[0]
    ok = att_ok and v_ok and gamma > 0.1
    report("criterion 2 (noise-free convergence)", ok,
           f"max err_att[30,40]={m.err_att[late].max():.2e}, "
           f"max err_v[30,40]={m.err_v_body[late].max():.2e}, "
           f"gamma={gamma:.3f} 1/s")
    assert att_ok
    assert v_ok
    assert gamma > 0.1


def test_criterion_3_observability_suite():
    """PE margins and Gramian spectra across the positive and negative cases."""
    probes1 = ProbeSet.from_axes([[1.0, 0.0, 0.0]])
    probes2 = ProbeSet.from_axes([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    mag_ref = MagReference(m_I=np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0))
    paper = TrajectorySpec.paper(duration=60.0, gravity=G)
    hover = TrajectorySpec.hover(duration=60.0, gravity=G)

    # (a) reference configuration, every 4-s window in [0, 60]
    report_a, rows = observability.observability_verdict(
        paper, probes1, mag_ref, delta=4.0, duration=60.0)
    ok_a = (report_a.verdict and report_a.mu_pi > 1e-3
            and report_a.mu_api > 1e-3)

    # (b) hover + single probe: degenerate
    mu_pi_h, mu_api_h = observability.pe_margins(hover, probes1, 0.0, 4.0)
    w_h = observability.gramian(hover, probes1, mag_ref, 0.0, 4.0)
    eig_h = np.linalg.eigvalsh(w_h)
    ok_b = (abs(mu_pi_h) <= 1e-12 and abs(mu_api_h) <= 1e-12
            and eig_h[0] <= 1e-10 * eig_h[-1])

    # (c) static attitude, two probes with independent horizontal projections
    mu_pi_2, _ = observability.pe_margins(hover, probes2, 0.0, 4.0)
    ok_c = mu_pi_2 >= 0.9

    ok = ok_a and ok_b and ok_c
    report("criterion 3 (observability suite)", ok,
           f"(a) min lam_min={report_a.lam_min:.3e} over {len(rows)} windows, "
           f"mu_pi={report_a.mu_pi:.3e}, mu_api={report_a.mu_api:.3e}; "
           f"(b) hover margins=({mu_pi_h:.1e},{mu_api_h:.1e}), "
           f"lam_min/lam_max={eig_h[0] / eig_h[-1]:.1e}; "
           f"(c) static two-probe mu_pi={mu_pi_2:.3f}")
    assert ok_a
    assert ok_b
    assert ok_c


def test_criterion_4_transition_matrix_cross_check():
    """Closed-form transition blocks against RK4 integration, all windows."""
    spec = TrajectorySpec.paper(duration=60.0, gravity=G)
    t0 = time.time()
    worst = 0.0
    starts = np.arange(0.0, 56.0 + 1e-9, 2.0)
    for start in starts:
        phi = observability.phi_blocks(spec, start + 4.0, start)
        phi_ode = integrate_phi(spec, start + 4.0, start,
                                step=1e-3)
        rel = (np.linalg.norm(phi - phi_ode)
               / np.linalg.norm(phi_ode))
        worst = max(worst, rel)
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed <= 5.0
    report("criterion 4 (transition-matrix cross-check)", ok,
           f"worst relative error={worst:.2e} over {len(starts)} windows, "
           f"runtime={elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed <= 5.0


def _estimate_from_error(truth, lam, v_tilde, h_tilde, p):
    r_err = rot_from_small_angle(lam)
    rhat = r_err.T @ truth.R
    vahat = rhat.T @ (truth.R @ truth.Va - v_tilde)
    return ObserverState(Rhat=rhat, Vahat=vahat,
                         hhat=float(truth.h) - float(h_tilde), P=p)


def _error_rate_via_fd(spec, t, lam, v_tilde, h_tilde, dt):
    """Error-state time derivative by central differences of the propagated
    nonlinear truth/estimate pair (zero innovation), evaluated at t + dt."""
    truth = truth_state(spec, t)
    est = _estimate_from_error(truth, lam, v_tilde, h_tilde, np.eye(7))
    est_nav = NavState(R=est.Rhat, Va=est.Vahat, h=est.hhat,
                       v=est.Rhat @ est.Vahat)
    inputs = lambda s: truth_inputs(spec, s)  # noqa: E731
    xs = []
    nav = est_nav
    for k in range(3):
        tk = t + k * dt
        err = error_state(
            truth_state(spec, tk),
            ObserverState(Rhat=nav.R, Vahat=nav.Va, hhat=nav.h, P=np.eye(7)))
        xs.append(err.as_vector())
        if k < 2:
            nav = propagate_truth(nav, inputs, dt=dt, steps=1,
                                  gravity=spec.gravity, t0=tk)
    rate = (xs[2] - xs[0]) / (2.0 * dt)
    return rate, xs[1]


def test_criterion_5_linearization_suite():
    """State and output matrices against finite differences of the nonlinear
    error dynamics and measurement residuals at 100 random small errors."""
    spec = TrajectorySpec.paper(duration=60.0, gravity=G)
    probes = ProbeSet.from_axes([[1.0, 0.0, 0.0]])
    mag_ref = MagReference(m_I=np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0))
    rng = np.random.default_rng(42)
    dt = 5e-4
    worst_a = 0.0
    worst_c = 0.0
    for _ in range(100):
        t = rng.uniform(1.0, 50.0)
        lam = 1e-3 * rng.uniform(0.2, 1.0) * _unit(rng)
        v_tilde = 1e-3 * rng.uniform(0.2, 1.0) * _unit(rng)
        h_tilde = 1e-3 * rng.uniform(-1.0, 1.0)

        # state matrix: odd part of the FD rate cancels the quadratic
        # remainder, leaving A x up to third order
        rate_p, x_p = _error_rate_via_fd(spec, t, lam, v_tilde, h_tilde, dt)
        rate_m, x_m = _error_rate_via_fd(spec, t, -lam, -v_tilde, -h_tilde,
                                         dt)
        truth_mid = truth_state(spec, t + dt)
        inp_mid = truth_inputs(spec, t + dt)
        a_ct = state_matrix_ct(truth_mid.R, inp_mid.a)
        fd_odd = 0.5 * (rate_p - rate_m)
        x_odd = 0.5 * (x_p - x_m)
        ref = a_ct @ x_odd
        worst_a = max(worst_a,
                      np.linalg.norm(fd_odd - ref) / np.linalg.norm(ref))

        # output matrix: same odd-difference treatment of the residuals
        truth = truth_state(spec, t)
        payloads = {
            SensorKind.PITOT: probes.B.T @ truth.Va,
            SensorKind.MAG: truth.R.T @ mag_ref.m_I,
            SensorKind.BARO: truth.h,
        }
        x = np.concatenate((lam, v_tilde, [h_tilde]))
        est_p = _estimate_from_error(truth, lam, v_tilde, h_tilde, np.eye(7))
        est_m = _estimate_from_error(truth, -lam, -v_tilde, -h_tilde,
                                     np.eye(7))
        y_p = residual(payloads, est_p, probes, mag_ref, STACK_ORDER)
        y_m = residual(payloads, est_m, probes, mag_ref, STACK_ORDER)
        c = output_matrix(truth.R, truth.Va, probes, mag_ref, STACK_ORDER)
        ref_y = c @ x
        worst_c = max(worst_c,
                      np.linalg.norm(0.5 * (y_p - y_m) - ref_y)
                      / np.linalg.norm(ref_y))
    ok = worst_a <= 1e-4 and worst_c <= 1e-4
    report("criterion 5 (linearization suite)", ok,
           f"worst relative error: state={worst_a:.2e}, output={worst_c:.2e} "
           f"(100 points)")
    assert worst_a <= 1e-4
    assert worst_c <= 1e-4


def _unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def test_criterion_6_riccati_properties():
    """P stays symmetric positive definite over a full run; the discrete
    recursion matches the RK4-integrated continuous equation."""
    cfg = default_config()
    spec = cfg.trajectory
    rngs = {kind: substream(cfg.base_seed, 0, sid)
            for kind, sid in STREAM_IDS.items()}
    obs = AirDataObserver(harness.init_estimates(cfg, 0), cfg.weights,
                          cfg.probes, cfg.mag_ref, dt=cfg.imu_period,
                          gravity=cfg.gravity,
                          q_convention=cfg.q_convention,
                          integrator=cfg.integrator)
    worst_asym = 0.0
    spd_ok = True
    for slot in make_schedule(cfg.rates, cfg.duration)[:-1]:
        truth = truth_state(spec, slot.t)
        inputs = truth_inputs(spec, slot.t)
        payloads = {SensorKind.IMU: sample_imu(inputs.omega, inputs.a,
                                               cfg.noise,
                                               rngs[SensorKind.IMU])}
        if SensorKind.PITOT in slot.kinds:
            payloads[SensorKind.PITOT] = sample_pitot(
                truth.Va, cfg.probes, cfg.noise, rngs[SensorKind.PITOT])
        if SensorKind.MAG in slot.kinds:
            payloads[SensorKind.MAG] = sample_mag(
                truth.R, cfg.mag_ref, cfg.noise, rngs[SensorKind.MAG])
        if SensorKind.BARO in slot.kinds:
            payloads[SensorKind.BARO] = sample_baro(truth.h, cfg.noise,
                                                    rngs[SensorKind.BARO])
        state = tick(obs, payloads)
        worst_asym = max(worst_asym,
                         float(np.linalg.norm(state.P - state.P.T)))
        try:
            np.linalg.cholesky(state.P)
        except np.linalg.LinAlgError:
            spd_ok = False
            break

    # continuous/discrete cross-validation at 200 Hz aiding over 1 s, with
    # identical (hover) inputs on both paths and the two weight roles
    # representing the same filter: the discrete recursion takes the
    # additive term R_d, the continuous equation the rate-consistent weight
    # (R_d T)^-1.  Hover inputs keep the first-order state-transition
    # truncation of the discrete path well below the tolerance, so the
    # comparison validates the recursions rather than the scheme gap.
    T = cfg.imu_period
    cre_spec = TrajectorySpec.hover(duration=2.0, gravity=cfg.gravity)
    r_d = additive_weight(cfg.weights, STACK_ORDER, cfg.q_convention)
    q_cre = np.linalg.inv(r_d) / T

    def a_star(t):
        return state_matrix_ct(attitude(cre_spec, t),
                               truth_inputs(cre_spec, t).a)

    def c_star(t):
        s = truth_state(cre_spec, t)
        return output_matrix(s.R, s.Va, cfg.probes, cfg.mag_ref, STACK_ORDER)

    p_disc = cfg.weights.P0.copy()
    for k in range(200):
        t = k * T
        a_d = state_matrix_dt(attitude(cre_spec, t),
                              truth_inputs(cre_spec, t).a, T)
        p_disc = riccati_predict(p_disc, a_d, cfg.weights.S, T)
        _, p_disc = riccati_update(p_disc, c_star(t), r_d)
    p_cont = integrate_cre(cfg.weights.P0, a_star, c_star, q_cre,
                           cfg.weights.S, 0.0, 1.0, T, substeps=50)
    rel = np.linalg.norm(p_disc - p_cont) / np.linalg.norm(p_cont)

    ok = spd_ok and worst_asym <= 1e-12 and rel <= 1e-3
    report("criterion 6 (Riccati properties)", ok,
           f"max asymmetry={worst_asym:.2e}, SPD={'yes' if spd_ok else 'NO'}, "
           f"CRE-vs-discrete rel={rel:.2e}")
    assert spd_ok
    assert worst_asym <= 1e-12
    assert rel <= 1e-3


def test_criterion_7_geometry_property_suite():
    """1000 randomized cases per property, within the runtime budget."""
    rng = np.random.default_rng(7)
    t0 = time.time()
    for _ in range(1000):
        u = rng.standard_normal(3)
        np.testing.assert_allclose(unskew(geometry.skew(u)), u,
                                   atol=1e-12)
    for _ in range(1000):
        theta = rng.uniform(0, np.pi) * _unit(rng)
        r = geometry.exp_so3(theta)
        assert rotation_defect(r) <= 1e-12
        np.testing.assert_allclose(geometry.exp_so3(-theta), r.T, atol=1e-12)
    for _ in range(1000):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        r = quat_to_rot(q)
        np.testing.assert_allclose(quat_to_rot(rot_to_quat(r)),
                                   r, atol=1e-9)
    for _ in range(1000):
        lam = rng.uniform(0, 0.1) * _unit(rng)
        defect = np.linalg.norm(geometry.exp_so3(lam)
                                - (np.eye(3) + geometry.skew(lam)))
        assert defect <= lam @ lam + 1e-16
    elapsed = time.time() - t0
    ok = elapsed <= 1.0
    report("criterion 7 (geometry property suite)", ok,
           f"4x1000 randomized cases in {elapsed:.2f}s")
    assert elapsed <= 1.0


def test_criterion_8_determinism(tmp_path):
    """Two identical Monte Carlo invocations produce byte-identical CSVs."""
    cfg_path = tmp_path / "sim.cfg"
    cfg_path.write_text("duration = 2\nruns = 3\n", encoding="utf-8")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["montecarlo", "--config", str(cfg_path), "--out",
                     str(out1)]) == 0
    assert cli.main(["montecarlo", "--config", str(cfg_path), "--out",
                     str(out2)]) == 0
    names = ["run_000.csv", "run_001.csv", "run_002.csv", "summary.csv"]
    identical = all((out1 / n).read_bytes() == (out2 / n).read_bytes()
                    for n in names)
    report("criterion 8 (determinism)", identical,
           f"{len(names)} files byte-compared")
    assert identical
