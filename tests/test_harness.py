import csv

import numpy as np
import pytest

from airnav import cli, dynamics, geometry, harness
from airnav.config import default_config, parse_config_text, with_overrides
from airnav.exceptions import DivergenceError, SingularInnovationError
from airnav.harness import (
    TRACE_COLUMNS,
    RunMetrics,
    init_estimates,
    read_trace_csv,
    run_montecarlo,
    run_single,
    write_observability_csv,
    write_summary_csv,
    write_trace_csv,
)
from airnav.observability import WindowRow
from airnav.observer import AirDataObserver, ObserverState
from airnav.sensors import (
    STREAM_IDS,
    SensorKind,
    make_schedule,
    sample_baro,
    sample_imu,
    sample_mag,
    sample_pitot,
    substream,
)


@pytest.fixture
def short_config():
    return parse_config_text("duration = 2\nruns = 2\n")


NOISE_FREE = """
duration = 5
sigma_gyro = 0
sigma_acc = 0
sigma_pitot = [0]
sigma_mag = [0, 0, 0]
sigma_baro = 0
q_pitot = [[25.0]]
q_mag = [[0.01, 0, 0], [0, 0.01, 0], [0, 0, 0.01]]
q_baro = 0.25
"""


class TestInitEstimates:
    def test_zero_std_gives_means(self):
        cfg = parse_config_text(
            "init_std_v = 0\ninit_std_h = 0\ninit_std_angle = 0\n")
        st = init_estimates(cfg, 0)
        np.testing.assert_allclose(st.Vahat, cfg.init.va0)
        assert st.hhat == pytest.approx(cfg.init.h0)
        roll, pitch, yaw = cfg.init.angles0
        np.testing.assert_allclose(st.Rhat,
                                   geometry.euler_zyx_to_rot(roll, pitch, yaw),
                                   atol=1e-15)
        np.testing.assert_allclose(st.P, cfg.weights.P0)

    def test_deterministic_per_run(self):
        cfg = default_config()
        a = init_estimates(cfg, 3)
        b = init_estimates(cfg, 3)
        np.testing.assert_array_equal(a.Vahat, b.Vahat)
        np.testing.assert_array_equal(a.Rhat, b.Rhat)
        c = init_estimates(cfg, 4)
        assert not np.allclose(a.Vahat, c.Vahat)

    def test_velocity_draw_statistics(self):
        cfg = default_config()
        draws = np.array([init_estimates(cfg, k).Vahat
                          for k in range(10_000)])
        stds = draws.std(axis=0)
        assert np.all(stds >= 1.9) and np.all(stds <= 2.1)
        np.testing.assert_allclose(draws.mean(axis=0), cfg.init.va0,
                                   atol=0.1)


class TestRunSingle:
    def test_noiseless_zero_error_stays_at_integration_floor(self):
        # starting exactly at truth with no noise, the only residual error
        # is integration truncation (measured floor: err_v ~ 2.8e-3 over
        # 60 s with the two-step scheme)
        cfg = parse_config_text(NOISE_FREE.replace("duration = 5",
                                                   "duration = 60"))
        truth0 = dynamics.truth_state(cfg.trajectory, 0.0)
        st = ObserverState(Rhat=truth0.R.copy(), Vahat=truth0.Va.copy(),
                           hhat=truth0.h, P=cfg.weights.P0.copy())
        m = run_single(cfg, 0, initial_state=st)
        assert not m.diverged
        assert m.err_att.max() <= 1e-3
        assert m.err_v_body.max() <= 1e-2
        assert m.err_h.max() <= 1e-2

    def test_unobservable_case_does_not_converge(self):
        # hover with one forward probe is not uniformly observable: a large
        # initial attitude error about m_I leaks into the statically
        # unobservable velocity directions and never drains, while the same
        # setup with zero initial error stays at the noise floor
        text = NOISE_FREE.replace("duration = 5", "duration = 20")
        cfg = parse_config_text(text + "trajectory = hover\n")
        truth0 = dynamics.truth_state(cfg.trajectory, 0.0)
        rhat = geometry.exp_so3(0.5 * cfg.mag_ref.m_I).T @ truth0.R
        st = ObserverState(Rhat=rhat, Vahat=truth0.Va.copy(), hhat=truth0.h,
                           P=cfg.weights.P0.copy())
        m = run_single(cfg, 0, initial_state=st)
        assert m.err_v_body[-1] > 1.0

    def test_metric_columns_shapes(self, short_config):
        m = run_single(short_config, 0)
        n = m.t.shape[0]
        assert n == 401
        assert m.euler.shape == (n, 3)
        assert m.va_hat.shape == (n, 3)
        assert np.all(m.err_att >= -1e-12) and np.all(m.err_att <= 4.0 + 1e-12)
        assert np.all(m.err_v_body >= 0) and np.all(m.err_h >= 0)

    def test_divergence_truncates_series(self, short_config, monkeypatch):
        ticks = {"n": 0}
        orig = AirDataObserver.tick

        def failing_tick(self, payloads):
            ticks["n"] += 1
            if ticks["n"] >= 10:
                raise DivergenceError("forced for test")
            return orig(self, payloads)

        monkeypatch.setattr(AirDataObserver, "tick", failing_tick)
        m = run_single(short_config, 0)
        assert m.diverged
        assert m.t.shape[0] == 10
        assert m.divergence_time == pytest.approx(m.t[-1])


    @pytest.mark.parametrize("integrator", ["ab2", "euler"])
    def test_matches_per_tick_reference_loop(self, integrator):
        # one sample_* call per sensor and tick, truth from the scalar
        # closed form, one AirDataObserver.tick per schedule slot
        cfg = parse_config_text(f"duration = 2\nruns = 1\n"
                                f"integrator = {integrator}\n")
        spec = cfg.trajectory
        rngs = {kind: substream(cfg.base_seed, 0, sid)
                for kind, sid in STREAM_IDS.items()}
        obs = AirDataObserver(init_estimates(cfg, 0), cfg.weights,
                              cfg.probes, cfg.mag_ref, dt=cfg.imu_period,
                              gravity=cfg.gravity,
                              q_convention=cfg.q_convention,
                              integrator=cfg.integrator)
        states = [obs.state]
        for slot in make_schedule(cfg.rates, cfg.duration)[:-1]:
            truth = dynamics.truth_state(spec, slot.t)
            inputs = dynamics.truth_inputs(spec, slot.t)
            payloads = {SensorKind.IMU: sample_imu(inputs, cfg.noise,
                                                   rngs[SensorKind.IMU])}
            if SensorKind.PITOT in slot.kinds:
                payloads[SensorKind.PITOT] = sample_pitot(
                    truth, cfg.probes, cfg.noise, rngs[SensorKind.PITOT])
            if SensorKind.MAG in slot.kinds:
                payloads[SensorKind.MAG] = sample_mag(
                    truth, cfg.mag_ref, cfg.noise, rngs[SensorKind.MAG])
            if SensorKind.BARO in slot.kinds:
                payloads[SensorKind.BARO] = sample_baro(
                    truth, cfg.noise, rngs[SensorKind.BARO])
            states.append(obs.tick(payloads))

        m = run_single(cfg, 0)
        assert m.t.shape[0] == len(states)
        np.testing.assert_allclose(m.va_hat, [s.Vahat for s in states],
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(m.h_hat, [s.hhat for s in states],
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            m.lam_max_p, [np.linalg.eigvalsh(s.P)[-1] for s in states],
            rtol=1e-9)
        r_ref = np.array([s.Rhat for s in states])
        np.testing.assert_allclose(
            m.euler_hat, harness._euler_zyx_batch(r_ref), rtol=1e-9,
            atol=1e-12)

    def test_singular_innovation_truncates_series(self, short_config,
                                                  monkeypatch):
        def failing_tick(self, payloads):
            raise SingularInnovationError("forced for test")

        monkeypatch.setattr(AirDataObserver, "tick", failing_tick)
        m = run_single(short_config, 0)
        assert m.diverged
        assert m.t.shape[0] == 1
        assert m.divergence_time == 0.0


class TestMonteCarlo:
    def test_single_run_summary_matches_run(self, short_config):
        cfg = with_overrides(short_config, runs=1)
        summary, all_metrics = run_montecarlo(cfg)
        assert summary.runs == 1
        assert summary.divergence_count == 0
        m = all_metrics[0]
        expected = m.window_mean("err_att", cfg.duration - 5.0)
        assert summary.final_means["err_att"][0] == pytest.approx(expected)

    def test_determinism(self, short_config):
        s1, m1 = run_montecarlo(short_config)
        s2, m2 = run_montecarlo(short_config)
        for a, b in zip(m1, m2):
            np.testing.assert_array_equal(a.va_hat, b.va_hat)
            np.testing.assert_array_equal(a.err_att, b.err_att)
        for key in harness.METRIC_KEYS:
            np.testing.assert_array_equal(s1.final_means[key],
                                          s2.final_means[key])

    def test_sample_times_clipped_to_duration(self, short_config):
        summary, _ = run_montecarlo(short_config)
        assert summary.sample_times == ()

    def test_partial_results_preserved_on_divergence(self, short_config,
                                                     monkeypatch):
        calls = {"n": 0}
        orig = AirDataObserver.tick

        def sometimes_failing(self, payloads):
            calls["n"] += 1
            if calls["n"] == 50:
                raise DivergenceError("forced for test")
            return orig(self, payloads)

        monkeypatch.setattr(AirDataObserver, "tick", sometimes_failing)
        summary, all_metrics = run_montecarlo(short_config)
        assert summary.divergence_count == 1
        assert all_metrics[0].diverged
        assert not all_metrics[1].diverged
        assert np.isnan(summary.final_means["err_att"][0])
        assert np.isfinite(summary.final_means["err_att"][1])

    def test_singular_innovation_in_one_run_spares_the_batch(
            self, short_config, monkeypatch):
        intact = run_single(short_config, 1)
        calls = {"n": 0}
        orig = AirDataObserver.tick

        def failing_in_run_0(self, payloads):
            calls["n"] += 1
            if calls["n"] == 50:
                raise SingularInnovationError("forced for test")
            return orig(self, payloads)

        monkeypatch.setattr(AirDataObserver, "tick", failing_in_run_0)
        summary, all_metrics = run_montecarlo(short_config)
        assert summary.divergence_count == 1
        assert all_metrics[0].diverged
        assert all_metrics[0].t.shape[0] == 50
        run_1 = all_metrics[1]
        assert not run_1.diverged
        np.testing.assert_array_equal(run_1.va_hat, intact.va_hat)
        np.testing.assert_array_equal(run_1.err_att, intact.err_att)


def _trace_oracle(path, m: RunMetrics) -> None:
    """Row-by-row csv.writer rendering of a trace, kept as a byte oracle."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for i in range(m.t.shape[0]):
            row = [m.t[i], *m.euler[i], *m.euler_hat[i], *m.va[i],
                   *m.va_hat[i], m.h[i], m.h_hat[i], m.err_v_body[i],
                   m.err_v_inertial[i], m.err_att[i], m.err_h[i],
                   m.lam_min_p[i], m.lam_max_p[i]]
            writer.writerow(["%.17g" % x for x in row])


class TestCsvPersistence:
    def test_trace_round_trip_exact(self, short_config, tmp_path):
        m = run_single(short_config, 0)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, m)
        back = read_trace_csv(path)
        assert tuple(back.keys()) == TRACE_COLUMNS
        np.testing.assert_array_equal(back["t"], m.t)
        np.testing.assert_array_equal(back["Va1_hat"], m.va_hat[:, 0])
        np.testing.assert_array_equal(back["err_v_body"], m.err_v_body)
        np.testing.assert_array_equal(back["err_att"], m.err_att)
        np.testing.assert_array_equal(back["lam_min_P"], m.lam_min_p)

    def test_trace_bytes_match_csv_writer(self, short_config, tmp_path):
        m = run_single(short_config, 0)
        # odd values exercise every branch of the float formatting
        m.err_h[:6] = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308]
        write_trace_csv(tmp_path / "fast.csv", m)
        _trace_oracle(tmp_path / "oracle.csv", m)
        assert ((tmp_path / "fast.csv").read_bytes()
                == (tmp_path / "oracle.csv").read_bytes())

    def test_trace_of_one_row(self, short_config, tmp_path, monkeypatch):
        def failing_tick(self, payloads):
            raise DivergenceError("forced for test")

        monkeypatch.setattr(AirDataObserver, "tick", failing_tick)
        m = run_single(short_config, 0)
        write_trace_csv(tmp_path / "fast.csv", m)
        _trace_oracle(tmp_path / "oracle.csv", m)
        assert ((tmp_path / "fast.csv").read_bytes()
                == (tmp_path / "oracle.csv").read_bytes())
        assert read_trace_csv(tmp_path / "fast.csv")["t"].shape == (1,)

    def test_trace_column_order(self, short_config, tmp_path):
        m = run_single(short_config, 0)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, m)
        header = path.read_text().splitlines()[0]
        assert header == ("t,roll,pitch,yaw,roll_hat,pitch_hat,yaw_hat,"
                          "Va1,Va2,Va3,Va1_hat,Va2_hat,Va3_hat,h,h_hat,"
                          "err_v_body,err_v_inertial,err_att,err_h,"
                          "lam_min_P,lam_max_P")

    def test_summary_csv(self, short_config, tmp_path):
        summary, _ = run_montecarlo(short_config)
        path = tmp_path / "summary.csv"
        write_summary_csv(path, summary)
        lines = path.read_text().splitlines()
        assert lines[0] == "stat,metric,label,value"
        assert lines[1] == "runs,,,2"
        assert lines[2] == "divergences,,,0"

    def test_observability_csv(self, tmp_path):
        rows = [WindowRow(t_start=0.0, lam_min=1e-3, lam_max=2.0,
                          mu_pi=0.1, mu_api=0.5, verdict=True)]
        path = tmp_path / "obs.csv"
        write_observability_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == ("t_window_start,lam_min_W,lam_max_W,mu_pi,"
                            "mu_api,verdict")
        assert lines[1].endswith("true")


class TestCli:
    def _write_config(self, tmp_path, text=""):
        path = tmp_path / "sim.cfg"
        path.write_text("duration = 2\nruns = 2\n" + text, encoding="utf-8")
        return path

    def test_simulate(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--run-index", "1"])
        assert code == 0
        assert (out / "run_001.csv").exists()

    def test_montecarlo_and_determinism(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["montecarlo", "--config", str(cfg), "--out",
                         str(out1)]) == 0
        assert cli.main(["montecarlo", "--config", str(cfg), "--out",
                         str(out2)]) == 0
        for name in ("run_000.csv", "run_001.csv", "summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_montecarlo_seed_changes_output(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["montecarlo", "--config", str(cfg), "--out", str(out1)])
        cli.main(["montecarlo", "--config", str(cfg), "--seed", "99",
                  "--out", str(out2)])
        assert ((out1 / "run_000.csv").read_bytes()
                != (out2 / "run_000.csv").read_bytes())

    def test_observability(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, "duration = 8\n")
        out = tmp_path / "obs"
        code = cli.main(["observability", "--config", str(cfg), "--window",
                         "4", "--out", str(out)])
        assert code == 0
        assert (out / "observability.csv").exists()
        assert "overall verdict" in capsys.readouterr().out

    def test_invalid_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("runs = 0\n", encoding="utf-8")
        assert cli.main(["simulate", "--config", str(path)]) == 2

    def test_unknown_key_exits_2(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("mystery = 1\n", encoding="utf-8")
        assert cli.main(["montecarlo", "--config", str(path)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert cli.main(["simulate", "--config",
                         str(tmp_path / "nope.cfg")]) == 2

    def test_divergence_exits_3(self, tmp_path, monkeypatch):
        cfg = self._write_config(tmp_path)

        def fail_tick(self, payloads):
            raise DivergenceError("forced for test")

        monkeypatch.setattr(AirDataObserver, "tick", fail_tick)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out",
                         str(out)]) == 3


class TestDivergenceFloor:
    def test_huge_residual_trips_floor(self):
        from airnav.observer import observer_tick
        cfg = default_config()
        spec = cfg.trajectory
        truth0 = dynamics.truth_state(spec, 0.0)
        inp = dynamics.truth_inputs(spec, 0.0)
        est = ObserverState(Rhat=truth0.R.copy(), Vahat=truth0.Va.copy(),
                            hhat=truth0.h, P=cfg.weights.P0.copy())
        with pytest.raises(DivergenceError):
            observer_tick(est, {SensorKind.IMU: (inp.omega, inp.a),
                                SensorKind.BARO: 1e13},
                          cfg.weights, cfg.probes, cfg.mag_ref,
                          cfg.gravity, cfg.imu_period)
