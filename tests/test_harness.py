import contextlib
import csv
import io
import math
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from airnav import _fork, cli, geometry, harness, observability, observer
from airnav.config import (
    _DEFAULTS,
    _STRING_KEYS,
    default_config,
    parse_config_text,
)
from airnav.exceptions import (
    DivergenceError,
    SingularInnovationError,
)
from airnav.harness import (
    TRACE_COLUMNS,
    RunMetrics,
    init_estimates,
    read_trace_csv,
    run_montecarlo,
    run_single,
    write_observability_csv,
    write_summary_csv,
)
from airnav.observability import WindowRow
from airnav.observer import AirDataObserver, ObserverState
from airnav.sensors import (
    STREAM_IDS,
    SensorKind,
    sample_baro,
    sample_imu,
    sample_mag,
    sample_pitot,
    substream,
)

from oracles import (
    OutOfRangeError,
    format_rows,
    make_schedule,
    tick,
    truth_inputs,
    truth_state,
)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the fork start method is missing")


def _pin_cpus(monkeypatch, cpus):
    """Let the harness see ``cpus`` CPUs: with 1, a batch's runs and every
    trace writer run in process; with 2, a batch forks a worker for each
    half of its runs, and a lone run forks its writer."""
    monkeypatch.setattr(_fork, "cpu_count", lambda: cpus)


def _assert_no_child():
    # waitpid(-1) fails when this process has no child left, zombie or not
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _note_pids(monkeypatch, owner, name, path):
    """Make ``owner.name`` append its process id to ``path`` on each call."""
    orig = getattr(owner, name)

    def noting(*args, **kwargs):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, noting)


def _pids(path) -> set[int]:
    return {int(pid) for pid in Path(path).read_text().split()}


def _assert_reaped(pid):
    # waitpid on a pid that is no longer a child of this process fails
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


@pytest.fixture
def short_config():
    return parse_config_text("duration = 2\nruns = 2\n")


def _trace_va_hat(trace) -> np.ndarray:
    """The estimated air velocity of a trace read by ``read_trace_csv``."""
    return np.column_stack([trace[f"Va{i}_hat"] for i in (1, 2, 3)])


def _assert_trace_matches(out, run_index, metrics) -> None:
    """The written trace of ``run_index`` holds ``metrics``' series."""
    trace = read_trace_csv(harness.trace_path(out, run_index))
    np.testing.assert_array_equal(_trace_va_hat(trace), metrics.va_hat)
    np.testing.assert_array_equal(trace["err_att"], metrics.err_att)


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

    def test_overflowing_attitude_draw_fails_the_run_on_tick_0(self):
        # the draw is not re-checked: its non-finite Rhat is the run's
        # numerical failure, flagged by the observer on tick 0
        cfg = parse_config_text("duration = 0.5\ninit_std_angle = 1e200\n")
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.all(np.isfinite(init_estimates(cfg, 0).Rhat))
        m = run_single(cfg, 0)
        assert m.diverged and m.divergence_time == 0.0
        assert m.t.shape == (1,)


def _fail_tick(monkeypatch, at):
    """Make the ``at``-th tick from now raise SingularInnovationError; the
    state step's Rodrigues product runs once per tick."""
    calls = {"n": 0}
    orig = observer._rotate

    def failing_rotate(*args):
        calls["n"] += 1
        if calls["n"] == at:
            raise SingularInnovationError("forced for test")
        return orig(*args)

    monkeypatch.setattr(observer, "_rotate", failing_rotate)


def _assert_run_matches_tick_loop(cfg, monkeypatch=None, fail_at=None):
    """run_single equals one AirDataObserver.tick per schedule slot.

    The reference draws with one sample_* call per sensor and tick and
    takes truth from the scalar closed form.  With ``fail_at``, tick
    ``fail_at`` (counted from 1) of each fails, and the run must stop where
    the loop does.
    """
    spec = cfg.trajectory
    rngs = {kind: substream(cfg.base_seed, 0, sid)
            for kind, sid in STREAM_IDS.items()}
    obs = AirDataObserver(init_estimates(cfg, 0), cfg.weights,
                          cfg.probes, cfg.mag_ref, dt=cfg.imu_period,
                          gravity=cfg.gravity,
                          q_convention=cfg.q_convention,
                          integrator=cfg.integrator)
    if fail_at is not None:
        _fail_tick(monkeypatch, fail_at)
    states = [obs.state]
    failure = (None, None)
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
            payloads[SensorKind.BARO] = sample_baro(
                truth.h, cfg.noise, rngs[SensorKind.BARO])
        try:
            states.append(tick(obs, payloads))
        except SingularInnovationError as exc:
            failure = (slot.t, type(exc).__name__)
            break

    if fail_at is not None:
        _fail_tick(monkeypatch, fail_at)
    m = run_single(cfg, 0)
    assert m.diverged == (fail_at is not None)
    assert (m.divergence_time, m.divergence_cause) == failure
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
        m.euler_hat, geometry.rot_to_euler_zyx(r_ref), rtol=1e-9,
        atol=1e-12)


class TestRunSingle:
    def test_noiseless_zero_error_stays_at_integration_floor(self):
        # starting exactly at truth with no noise, the only residual error
        # is integration truncation (measured floor: err_v ~ 2.8e-3 over
        # 60 s with the two-step scheme)
        cfg = parse_config_text(NOISE_FREE.replace("duration = 5",
                                                   "duration = 60"))
        truth0 = truth_state(cfg.trajectory, 0.0)
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
        truth0 = truth_state(cfg.trajectory, 0.0)
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

    def test_gimbal_locked_estimate_gives_nan_euler_row(self, short_config):
        st = init_estimates(short_config, 0)
        st.Rhat = geometry.euler_zyx_to_rot(0.0, np.pi / 2.0, 0.0)
        m = run_single(short_config, 0, initial_state=st)
        assert m.t.shape[0] == 401
        assert np.all(np.isnan(m.euler_hat[0]))
        assert np.all(np.isfinite(m.euler))

    def test_divergence_truncates_series(self, short_config, monkeypatch):
        ticks = {"n": 0}
        orig = observer._rotate

        def failing_rotate(*args):
            ticks["n"] += 1
            if ticks["n"] >= 10:
                raise DivergenceError("forced for test")
            return orig(*args)

        monkeypatch.setattr(observer, "_rotate", failing_rotate)
        m = run_single(short_config, 0)
        assert m.diverged
        assert m.t.shape[0] == 10
        assert m.divergence_time == pytest.approx(m.t[-1])


    @pytest.mark.parametrize("integrator", ["ab2", "euler"])
    def test_matches_per_tick_reference_loop(self, integrator):
        cfg = parse_config_text(f"duration = 2\nruns = 1\n"
                                f"integrator = {integrator}\n")
        _assert_run_matches_tick_loop(cfg)

    @pytest.mark.parametrize("extra", [
        "",
        "q_convention = precision\n",
        "probes = [[1, 0, 0], [0.6, 0.8, 0]]\nsigma_pitot = [0.5, 0.5]\n"
        "q_pitot = [[25, 10], [10, 30]]\nf_baro = 50\n",
    ], ids=["covariance", "precision", "pitot_and_stacked"])
    def test_non_diagonal_weights_match_per_tick_loop(self, extra):
        # whitened rows in run_single against the public tick, on the
        # sequential and (with f_baro = 50) the stacked path
        cfg = parse_config_text(
            "duration = 2\nruns = 1\n"
            "q_mag = [[0.01, 0.004, 0], [0.004, 0.02, -0.003], "
            "[0, -0.003, 0.015]]\n" + extra)
        assert np.any(cfg.weights.Qm != np.diag(np.diag(cfg.weights.Qm)))
        _assert_run_matches_tick_loop(cfg)

    @pytest.mark.parametrize("fail_at", [None, 1100])
    def test_long_run_matches_per_tick_loop(self, monkeypatch, fail_at):
        # more than one block of ticks, a barometer decimation (40) that
        # does not divide the block, and a failure in the second block
        cfg = parse_config_text("duration = 6\nruns = 1\nf_baro = 5\n")
        assert cfg.duration * cfg.rates.f_imu > harness.EIG_BLOCK_ROWS
        assert harness.EIG_BLOCK_ROWS % cfg.rates.decimation(
            SensorKind.BARO) != 0
        _assert_run_matches_tick_loop(cfg, monkeypatch, fail_at)

    @pytest.mark.parametrize("steps", [2 * harness.EIG_BLOCK_ROWS,
                                       2 * harness.EIG_BLOCK_ROWS + 500])
    @pytest.mark.parametrize("dec", [1, 3, 40, 1500])
    @pytest.mark.parametrize("width", [None, 3])
    def test_block_samples_match_per_tick_rows(self, steps, dec, width):
        # run_single's blockwise float lists against one row per tick
        rows = -(-steps // dec)
        meas = np.arange(float(rows * (width or 1))).reshape(
            (rows, width) if width else (rows,))
        got = []
        for start in range(0, steps + 1, harness.EIG_BLOCK_ROWS):
            stop = min(start + harness.EIG_BLOCK_ROWS, steps)
            got += harness._samples(meas, dec, start, stop)
        assert got == [meas[i // dec].tolist() if i % dec == 0 else None
                       for i in range(steps)]

    def test_tick_returns_the_state(self, short_config):
        cfg = short_config
        obs = AirDataObserver(init_estimates(cfg, 0), cfg.weights,
                              cfg.probes, cfg.mag_ref, dt=cfg.imu_period,
                              gravity=9.81, q_convention="covariance",
                              integrator="euler")
        inp = truth_inputs(cfg.trajectory, 0.0)
        state = tick(obs, {SensorKind.IMU: (inp.omega, inp.a),
                           SensorKind.BARO: 10.0})
        assert state is obs.state
        np.testing.assert_array_equal(state.P, state.P.T)

    def test_singular_innovation_truncates_series(self, short_config,
                                                  monkeypatch):
        def failing_rotate(*args):
            raise SingularInnovationError("forced for test")

        monkeypatch.setattr(observer, "_rotate", failing_rotate)
        m = run_single(short_config, 0)
        assert m.diverged
        assert m.t.shape[0] == 1
        assert m.divergence_time == 0.0
        assert m.divergence_cause == "SingularInnovationError"


class TestMonteCarlo:
    def test_single_run_summary_matches_run(self, short_config):
        cfg = replace(short_config, runs=1)
        summary, _ = run_montecarlo(cfg)
        assert summary.runs == 1
        assert summary.divergence_count == 0
        m = run_single(cfg, 0)
        expected = m.window_mean("err_att", cfg.duration - 5.0)
        assert summary.final_means["err_att"][0] == pytest.approx(expected)

    def test_determinism(self, short_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        out1.mkdir()
        out2.mkdir()
        s1, r1 = run_montecarlo(short_config, out1)
        s2, r2 = run_montecarlo(short_config, out2)
        for k in range(short_config.runs):
            a = read_trace_csv(harness.trace_path(out1, k))
            b = read_trace_csv(harness.trace_path(out2, k))
            np.testing.assert_array_equal(_trace_va_hat(a), _trace_va_hat(b))
            np.testing.assert_array_equal(a["err_att"], b["err_att"])
        assert r1 == r2
        for key in harness.METRIC_KEYS:
            np.testing.assert_array_equal(s1.final_means[key],
                                          s2.final_means[key])

    def test_pickled_record_is_small(self):
        # a record, not the run's series, is what a worker sends back
        cfg = parse_config_text("duration = 31\nruns = 1\n")
        _, records = run_montecarlo(cfg)
        assert len(pickle.dumps(records[0])) < 1024

    @pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=needs_fork)])
    def test_records_match_run_single(self, cpus, monkeypatch):
        _pin_cpus(monkeypatch, cpus)
        cfg = parse_config_text("duration = 31\nruns = 2\n")
        _, records = run_montecarlo(cfg)
        assert [r.run_index for r in records] == [0, 1]
        for record in records:
            m = run_single(cfg, record.run_index)
            assert record.status == harness.OK
            assert record.cause == ""
            assert not record.diverged
            assert record.divergence_time is None
            for key in harness.METRIC_KEYS:
                assert record.final_means[key] == m.window_mean(key, 26.0)
                assert record.at_times[key] == tuple(
                    m.at_time(key, t) for t in (5.0, 15.0, 30.0))

    @pytest.mark.parametrize("error", [DivergenceError,
                                       SingularInnovationError])
    def test_forced_failure_names_its_class(self, short_config, monkeypatch,
                                            error):
        _pin_cpus(monkeypatch, 1)

        def failing_rotate(*args):
            raise error("forced for test")

        monkeypatch.setattr(observer, "_rotate", failing_rotate)
        summary, records = run_montecarlo(short_config)
        assert summary.divergence_count == 2
        assert summary.unconverged_count == 0
        for record in records:
            assert record.status == harness.DIVERGED
            assert record.diverged
            assert record.divergence_time == 0.0
            assert record.cause == f"{error.__name__} at t=0 s"

    def test_basin_run_is_unconverged(self):
        # run 0 of base_seed 21 settles with the attitude off about m_I
        cfg = replace(default_config(), base_seed=21, runs=1)
        summary, (record,) = run_montecarlo(cfg)
        assert summary.divergence_count == 0
        assert summary.unconverged_count == 1
        assert record.status == harness.UNCONVERGED
        assert record.final_means["err_att"] > harness.CONVERGED_ERR_ATT
        assert record.final_means["err_v_body"] > harness.CONVERGED_ERR_V_BODY
        assert record.cause.startswith("final-5s err_att=")
        assert "err_v_body=" in record.cause

    def test_sample_times_clipped_to_duration(self, short_config):
        summary, _ = run_montecarlo(short_config)
        assert summary.sample_times == ()

    def test_partial_results_preserved_on_divergence(self, short_config,
                                                     monkeypatch):
        # the tick counter spans runs, so the runs must share one process
        _pin_cpus(monkeypatch, 1)
        calls = {"n": 0}
        orig = observer._rotate

        def sometimes_failing(*args):
            calls["n"] += 1
            if calls["n"] == 50:
                raise DivergenceError("forced for test")
            return orig(*args)

        monkeypatch.setattr(observer, "_rotate", sometimes_failing)
        summary, records = run_montecarlo(short_config)
        assert summary.divergence_count == 1
        assert records[0].diverged
        assert not records[1].diverged
        assert np.isnan(summary.final_means["err_att"][0])
        assert np.isfinite(summary.final_means["err_att"][1])

    def test_singular_innovation_in_one_run_spares_the_batch(
            self, short_config, monkeypatch, tmp_path):
        # the tick counter spans runs, so the runs must share one process
        _pin_cpus(monkeypatch, 1)
        intact = run_single(short_config, 1)
        calls = {"n": 0}
        orig = observer._rotate

        def failing_in_run_0(*args):
            calls["n"] += 1
            if calls["n"] == 50:
                raise SingularInnovationError("forced for test")
            return orig(*args)

        monkeypatch.setattr(observer, "_rotate", failing_in_run_0)
        summary, records = run_montecarlo(short_config, tmp_path)
        assert summary.divergence_count == 1
        assert records[0].diverged
        assert read_trace_csv(harness.trace_path(tmp_path, 0))["t"].shape[0] \
            == 50
        assert not records[1].diverged
        _assert_trace_matches(tmp_path, 1, intact)

    @needs_fork
    def test_singular_innovation_in_one_forked_run_spares_the_batch(
            self, short_config, monkeypatch, tmp_path):
        # forked workers inherit the patched run_single; the fault is keyed
        # on the run index because each worker counts its own ticks
        _pin_cpus(monkeypatch, 2)
        cfg = replace(short_config, runs=3)
        intact = [run_single(cfg, k) for k in (1, 2)]
        orig = harness.run_single

        def run_single_failing_in_run_0(config, run_index=0,
                                        initial_state=None, trace=None):
            if run_index != 0:
                return orig(config, run_index, initial_state, trace)
            calls = {"n": 0}
            rotate = observer._rotate

            def failing_rotate(*args):
                calls["n"] += 1
                if calls["n"] == 50:
                    raise SingularInnovationError("forced for test")
                return rotate(*args)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(observer, "_rotate", failing_rotate)
                return orig(config, run_index, initial_state, trace)

        monkeypatch.setattr(harness, "run_single", run_single_failing_in_run_0)
        summary, records = run_montecarlo(cfg, tmp_path)
        assert summary.divergence_count == 1
        assert records[0].diverged
        assert read_trace_csv(harness.trace_path(tmp_path, 0))["t"].shape[0] \
            == 50
        for run, ref in zip(records[1:], intact):
            assert not run.diverged
            _assert_trace_matches(tmp_path, run.run_index, ref)

    @needs_fork
    def test_forked_outputs_match_in_process(self, short_config, tmp_path,
                                             monkeypatch):
        cfg = replace(short_config, runs=3)
        outputs = {}
        for workers in (1, 2):
            _pin_cpus(monkeypatch, workers)
            out = tmp_path / f"workers_{workers}"
            out.mkdir()
            summary, _ = run_montecarlo(cfg, out)
            write_summary_csv(out / "summary.csv", summary)
            outputs[workers] = {path.name: path.read_bytes()
                                for path in sorted(out.iterdir())}
        assert sorted(outputs[2]) == ["run_000.csv", "run_001.csv",
                                      "run_002.csv", "summary.csv"]
        assert outputs[2] == outputs[1]

    @needs_fork
    def test_forked_runs_go_elsewhere_and_leave_no_process(
            self, short_config, monkeypatch, tmp_path):
        _pin_cpus(monkeypatch, 2)
        orig = harness.run_single

        def run_single_noting_pid(config, run_index=0, initial_state=None,
                                  trace=None):
            pid_path = tmp_path / f"run_{run_index:03d}.pid"
            pid_path.write_text(str(os.getpid()))
            return orig(config, run_index, initial_state, trace)

        monkeypatch.setattr(harness, "run_single", run_single_noting_pid)
        _, records = run_montecarlo(replace(short_config, runs=3), tmp_path)
        assert [r.run_index for r in records] == [0, 1, 2]
        pids = {int((tmp_path / f"run_{k:03d}.pid").read_text())
                for k in range(3)}
        assert os.getpid() not in pids
        assert len(pids) == 2   # runs [0] and [1, 2]: one worker per chunk
        _assert_no_child()

    @needs_fork
    def test_other_error_in_forked_run_reaches_caller(self, short_config,
                                                      monkeypatch):
        _pin_cpus(monkeypatch, 2)
        orig = harness.run_single

        def run_single_failing_in_run_1(config, run_index=0,
                                        initial_state=None, trace=None):
            if run_index == 1:
                raise OutOfRangeError("forced for test")
            return orig(config, run_index, initial_state, trace)

        monkeypatch.setattr(harness, "run_single", run_single_failing_in_run_1)
        with pytest.raises(OutOfRangeError, match="forced for test"):
            run_montecarlo(replace(short_config, runs=4))
        _assert_no_child()

    @needs_fork
    def test_killed_worker_reaches_caller(self, short_config, monkeypatch,
                                          tmp_path):
        # run 2 is in the second of two chunks; the first still finishes
        _pin_cpus(monkeypatch, 2)
        orig = harness.run_single

        def run_single_killed_in_run_2(config, run_index=0,
                                       initial_state=None, trace=None):
            if run_index == 2:
                os.kill(os.getpid(), signal.SIGKILL)
            return orig(config, run_index, initial_state, trace)

        monkeypatch.setattr(harness, "run_single", run_single_killed_in_run_2)
        with pytest.raises(RuntimeError,
                           match="^Monte Carlo worker killed by signal "
                                 f"{int(signal.SIGKILL)}$"):
            run_montecarlo(replace(short_config, runs=3), tmp_path)
        assert harness.trace_path(tmp_path, 0).exists()
        _assert_no_child()


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


def _tie(k: int, q: int) -> float:
    """``q / 2**(k + 1)`` for odd ``q``: ``x 10**k`` is then the 17-digit
    integer ``(q 5**k - 1) / 2`` plus one half, a tie to round to even."""
    return math.ldexp(q, -(k + 1))


# powers of ten, their doubles' neighbours (1e-6 and 1e16 bound the
# vectorized range; 1e-14 is among the doubles whose 17 digits round up to
# the next power) and exact 17-digit ties at every scale of the range
_POWERS = [float(f"1e{j}") for j in range(-16, 24)]
_EDGE_VALUES = st.sampled_from(
    _POWERS + [math.nextafter(p, d) for p in _POWERS for d in (0, math.inf)]
    + [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
       2.2250738585072014e-308, 1.7976931348623157e308])
_TIES = st.integers(1, 22).flatmap(lambda k: st.integers(
    -(-2 * 10**16 // 5**k), min(2 * 10**17 // 5**k, 2**53 - 1)).map(
        lambda q: _tie(k, q | 1)))
_VALUES = st.builds(
    math.copysign, st.one_of(
        st.floats(width=64), _EDGE_VALUES, _TIES,
        _TIES.map(lambda x: math.nextafter(x, math.inf)),
        st.floats(1e-7, 1e17)),
    st.sampled_from([1.0, -1.0]))


class TestFormatRows:
    """The vectorized trace formatter against the ``%`` join."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([(40, 1), (8, 21)]).flatmap(
        lambda shape: arrays(np.float64, st.tuples(
            st.integers(1, shape[0]), st.just(shape[1])), elements=_VALUES)))
    def test_matches_percent_format(self, table):
        assert harness._format_rows(table) == format_rows(table)

    def test_ties_round_half_to_even(self):
        # 1e15 + 0.25 and + 0.75 end in a 5 at the 18th digit
        table = np.array([[1e15 + 0.25, 1e15 + 0.75, _tie(22, 9)]])
        assert harness._format_rows(table) == (
            "1000000000000000.2,1000000000000000.8,"
            "1.0728836059570312e-06\n")
        assert harness._format_rows(table) == format_rows(table)

    def test_each_value_takes_its_path(self, monkeypatch):
        # only the values outside 10**-6 <= |x| < 10**16 that are not
        # zeros are formatted by %; a marked format shows which
        monkeypatch.setattr(harness, "FLOAT_FORMAT", "<%.17g>")
        table = np.array([[0.1, -2.5e-5, 1e15, 0.0, -0.0, np.nan, -np.inf,
                           1e-6, 1e16, 5e-324]])
        assert harness._format_rows(table) == (
            "0.10000000000000001,-2.5000000000000001e-05,1000000000000000,"
            "0,-0,<nan>,<-inf>,<9.9999999999999995e-07>,<10000000000000000>,"
            "<4.9406564584124654e-324>\n")


class TestCsvPersistence:
    def test_trace_round_trip_exact(self, short_config, tmp_path):
        path = tmp_path / "trace.csv"
        m = run_single(short_config, 0, trace=path)
        back = read_trace_csv(path)
        assert tuple(back.keys()) == TRACE_COLUMNS
        np.testing.assert_array_equal(back["t"], m.t)
        np.testing.assert_array_equal(back["Va1_hat"], m.va_hat[:, 0])
        np.testing.assert_array_equal(back["err_v_body"], m.err_v_body)
        np.testing.assert_array_equal(back["err_att"], m.err_att)
        np.testing.assert_array_equal(back["lam_min_P"], m.lam_min_p)

    def test_trace_bytes_match_csv_writer(self, short_config, tmp_path):
        m = run_single(short_config, 0, trace=tmp_path / "fast.csv")
        _trace_oracle(tmp_path / "oracle.csv", m)
        assert ((tmp_path / "fast.csv").read_bytes()
                == (tmp_path / "oracle.csv").read_bytes())
        # odd values exercise every branch of the float formatting
        m.err_h[:6] = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308]
        table = np.column_stack((
            m.t, m.euler, m.euler_hat, m.va, m.va_hat, m.h, m.h_hat,
            m.err_v_body, m.err_v_inertial, m.err_att, m.err_h, m.lam_min_p,
            m.lam_max_p))
        _trace_oracle(tmp_path / "oracle.csv", m)
        assert ((",".join(TRACE_COLUMNS) + "\n"
                 + harness._format_rows(table)).encode()
                == (tmp_path / "oracle.csv").read_bytes())

    def test_trace_of_one_row(self, short_config, tmp_path, monkeypatch):
        def failing_rotate(*args):
            raise DivergenceError("forced for test")

        monkeypatch.setattr(observer, "_rotate", failing_rotate)
        m = run_single(short_config, 0, trace=tmp_path / "fast.csv")
        _trace_oracle(tmp_path / "oracle.csv", m)
        assert ((tmp_path / "fast.csv").read_bytes()
                == (tmp_path / "oracle.csv").read_bytes())
        assert read_trace_csv(tmp_path / "fast.csv")["t"].shape == (1,)

    def test_trace_column_order(self, short_config, tmp_path):
        path = tmp_path / "trace.csv"
        run_single(short_config, 0, trace=path)
        header = path.read_text().splitlines()[0]
        assert header == ("t,roll,pitch,yaw,roll_hat,pitch_hat,yaw_hat,"
                          "Va1,Va2,Va3,Va1_hat,Va2_hat,Va3_hat,h,h_hat,"
                          "err_v_body,err_v_inertial,err_att,err_h,"
                          "lam_min_P,lam_max_P")

    def test_header_only_trace_has_no_rows(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(",".join(TRACE_COLUMNS) + "\n")
        back = read_trace_csv(path)
        assert tuple(back.keys()) == TRACE_COLUMNS
        assert all(col.shape == (0,) for col in back.values())

    @pytest.mark.parametrize("body, match", [
        ("", "not a trace file: empty"),
        (",".join(TRACE_COLUMNS) + "\n" + ",".join(["1"] * 21) + "\n"
         + ",".join(["1"] * 20) + "\n",
         "not a trace file: line 3 has 20 fields, not 21"),
        (",".join(TRACE_COLUMNS) + "\n" + ",".join(["1"] * 22) + "\n",
         "not a trace file: line 2 has 22 fields, not 21"),
        (",".join(TRACE_COLUMNS) + "\n" + ",".join(["1"] * 5) + "\n"
         + ",".join(["1"] * 5) + "\n",
         "not a trace file: line 2 has 5 fields, not 21"),
    ], ids=["empty", "short_row", "long_row", "uniform_short_rows"])
    def test_malformed_trace_is_a_value_error(self, tmp_path, body, match):
        path = tmp_path / "trace.csv"
        path.write_text(body)
        with pytest.raises(ValueError, match=f"^{match}$"):
            read_trace_csv(path)

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

    def test_observability_csv_has_the_bytes_of_csv_writer(self, tmp_path):
        special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, 1e300, 2.0]
        rows = [WindowRow(*(special[(i + k) % len(special)]
                            for k in range(5)), verdict=i % 2 == 0)
                for i in range(len(special))]
        path = tmp_path / "obs.csv"
        write_observability_csv(path, rows)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["t_window_start", "lam_min_W", "lam_max_W",
                             "mu_pi", "mu_api", "verdict"])
            for row in rows:
                writer.writerow([harness.FLOAT_FORMAT % x for x in (
                    row.t_start, row.lam_min, row.lam_max, row.mu_pi,
                    row.mu_api)] + ["true" if row.verdict else "false"])
        assert path.read_bytes() == ref.read_bytes()
        assert {"nan", "inf", "-inf", "-0", "4.9406564584124654e-324",
                "true", "false"} <= set(path.read_text().replace(
                    "\n", ",").split(","))


# Rates of the two perfbench filter configs, shortened to 8 s (1601 rows):
# sequential updates (mc_reference) and stacked ones (single_dense).
_SEQUENTIAL_8S = ("duration = 8\nruns = 1\nf_pitot = 50\nf_mag = 50\n"
                  "f_baro = 5\nintegrator = ab2\n")
_STACKED_8S = ("duration = 8\nruns = 1\nf_pitot = 200\nf_mag = 200\n"
               "f_baro = 200\nprobes = [[1, 0, 0], [0.6, 0.8, 0], "
               "[0.6, 0, 0.8]]\nsigma_pitot = [0.5, 0.5, 0.5]\n"
               "integrator = euler\n")


class TestDeriveRows:
    @pytest.mark.parametrize("text", [_SEQUENTIAL_8S, _STACKED_8S],
                             ids=["sequential", "stacked"])
    def test_partition_leaves_every_byte(self, text, monkeypatch):
        # a forked writer derives a block at a time and an in-process one
        # every row at once: both must fill the same bytes
        calls = []
        orig = harness._derive_rows

        def noting(table, rows, truth, start, stop):
            calls.append((table, rows, truth, start, stop))
            orig(table, rows, truth, start, stop)

        monkeypatch.setattr(harness, "_derive_rows", noting)
        run_single(parse_config_text(text), 0)
        ((table, rows, truth, start, stop),) = calls
        n = rows.shape[0]
        assert (start, stop) == (0, n) and n == 1601
        for size in (1, 7, harness.EIG_BLOCK_ROWS, n):
            part = np.full_like(table, -1.0)
            for first in range(0, n, size):
                orig(part, rows, truth, first, min(first + size, n))
            assert part.tobytes() == table.tobytes(), size


@needs_fork
class TestTraceWriter:
    @pytest.fixture
    def config(self):
        # 8 s at 200 Hz: 1601 rows, more than one block of EIG_BLOCK_ROWS
        cfg = parse_config_text("duration = 8\nruns = 2\n")
        assert harness.EIG_BLOCK_ROWS < 1601 < 2 * harness.EIG_BLOCK_ROWS
        return cfg

    @pytest.mark.parametrize("cpus, runs, forks", [
        (1, 1, False), (2, 1, True), (2, 2, False), (4, 2, False)])
    def test_writer_forks_only_with_a_spare_cpu(self, short_config, tmp_path,
                                                monkeypatch, cpus, runs,
                                                forks):
        # a lone run forks given two CPUs; runs in forked workers never do
        _pin_cpus(monkeypatch, cpus)
        _note_pids(monkeypatch, harness, "run_single", tmp_path / "runs")
        _note_pids(monkeypatch, harness, "_format_rows", tmp_path / "writers")
        out = tmp_path / "out"
        out.mkdir()
        run_montecarlo(replace(short_config, runs=runs), out)
        run_pids, writer_pids = _pids(tmp_path / "runs"), _pids(
            tmp_path / "writers")
        assert len(writer_pids) == runs
        assert writer_pids.isdisjoint(run_pids) == forks
        assert (os.getpid() in run_pids) == (runs == 1)

    def test_streamed_trace_matches_in_process(self, config, tmp_path,
                                               monkeypatch):
        traces, metrics = {}, {}
        for cpus in (1, 2):
            _pin_cpus(monkeypatch, cpus)
            pids = tmp_path / f"writers_{cpus}"
            _note_pids(monkeypatch, harness, "_format_rows", pids)
            path = tmp_path / f"cpus_{cpus}.csv"
            metrics[cpus] = run_single(config, 0, trace=path)
            traces[cpus] = path.read_bytes()
            assert (_pids(pids) == {os.getpid()}) == (cpus == 1)
            monkeypatch.undo()
        _trace_oracle(tmp_path / "oracle.csv", metrics[2])
        assert traces[2] == traces[1] == (tmp_path / "oracle.csv").read_bytes()
        assert len(read_trace_csv(tmp_path / "cpus_2.csv")["t"]) == 1601
        for field in ("t", "euler", "euler_hat", "va", "va_hat", "h",
                      "h_hat", "err_v_body", "err_v_inertial", "err_att",
                      "err_h", "lam_min_p", "lam_max_p"):
            np.testing.assert_array_equal(getattr(metrics[2], field),
                                          getattr(metrics[1], field))

    @pytest.mark.parametrize("fail_at", [50, 1100])
    def test_singular_innovation_truncates_both_traces_alike(
            self, config, tmp_path, monkeypatch, fail_at):
        traces = {}
        for cpus in (1, 2):
            _pin_cpus(monkeypatch, cpus)
            calls = {"n": 0}
            orig = observer._rotate

            def failing_rotate(*args):
                calls["n"] += 1
                if calls["n"] == fail_at:
                    raise SingularInnovationError("forced for test")
                return orig(*args)

            monkeypatch.setattr(observer, "_rotate", failing_rotate)
            path = tmp_path / f"cpus_{cpus}.csv"
            m = run_single(config, 0, trace=path)
            assert m.divergence_cause == "SingularInnovationError"
            assert m.t.shape[0] == fail_at
            traces[cpus] = path.read_bytes()
            monkeypatch.undo()
        assert traces[2] == traces[1]
        assert len(read_trace_csv(tmp_path / "cpus_2.csv")["t"]) == fail_at

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_unwritable_trace_fails_before_ticking(self, short_config,
                                                   tmp_path, monkeypatch,
                                                   cpus):
        _pin_cpus(monkeypatch, cpus)

        def no_rotate(*args):
            raise AssertionError("ticked with an unwritable trace")

        monkeypatch.setattr(observer, "_rotate", no_rotate)
        with pytest.raises(IsADirectoryError):
            run_single(short_config, 0, trace=tmp_path)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_writer_error_reaches_caller(self, config, tmp_path,
                                         monkeypatch, cpus):
        _pin_cpus(monkeypatch, cpus)
        pids = tmp_path / "writers"

        def failing_format(table):
            pids.write_text(str(os.getpid()))
            raise ValueError("forced for test")

        monkeypatch.setattr(harness, "_format_rows", failing_format)
        with pytest.raises(ValueError, match="forced for test"):
            run_single(config, 0, trace=tmp_path / "trace.csv")
        assert not (tmp_path / "trace.csv").exists()
        (pid,) = _pids(pids)
        if cpus == 1:
            assert pid == os.getpid()
        else:
            _assert_reaped(pid)

    def test_killed_writer_reaches_caller(self, config, tmp_path,
                                          monkeypatch):
        _pin_cpus(monkeypatch, 2)

        def killed_format(table):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(harness, "_format_rows", killed_format)
        with pytest.raises(RuntimeError,
                           match=f"killed by signal {int(signal.SIGKILL)}$"):
            run_single(config, 0, trace=tmp_path / "trace.csv")
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_other_error_in_loop_reaches_caller_and_leaves_no_process(
            self, config, tmp_path, monkeypatch, cpus):
        _pin_cpus(monkeypatch, cpus)
        pids = tmp_path / "writers"
        _note_pids(monkeypatch, harness, "_format_rows", pids)
        calls = {"n": 0}
        orig = observer._rotate

        def failing_rotate(*args):
            # after the first block went to the writer
            calls["n"] += 1
            if calls["n"] == 1100:
                raise OutOfRangeError("forced for test")
            return orig(*args)

        monkeypatch.setattr(observer, "_rotate", failing_rotate)
        with pytest.raises(OutOfRangeError, match="forced for test"):
            run_single(config, 0, trace=tmp_path / "trace.csv")
        assert not (tmp_path / "trace.csv").exists()
        if cpus == 1:  # the writer would have run after the loop
            assert not pids.exists()
        else:
            (pid,) = _pids(pids)
            assert pid != os.getpid()
            _assert_reaped(pid)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="no /proc/self/fd to count descriptors")
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_runs_leave_no_descriptor_open(self, config, tmp_path,
                                           monkeypatch, cpus):
        # the pipes to a forked writer are raw descriptors, which no
        # ResourceWarning reports when leaked
        _pin_cpus(monkeypatch, cpus)
        before = sorted(os.listdir("/proc/self/fd"))
        run_single(config, 0, trace=tmp_path / "ok.csv")

        def failing_format(table):
            raise ValueError("forced for test")

        monkeypatch.setattr(harness, "_format_rows", failing_format)
        with pytest.raises(ValueError, match="forced for test"):
            run_single(config, 0, trace=tmp_path / "failed.csv")
        assert sorted(os.listdir("/proc/self/fd")) == before

    def test_failed_fork_keeps_the_writer_in_process(self, short_config,
                                                     tmp_path, monkeypatch):
        _pin_cpus(monkeypatch, 2)
        run_single(short_config, 0, trace=tmp_path / "forked.csv")

        def no_fork():
            raise BlockingIOError("forced for test")

        monkeypatch.setattr(os, "fork", no_fork)
        run_single(short_config, 0, trace=tmp_path / "in_process.csv")
        assert ((tmp_path / "in_process.csv").read_bytes()
                == (tmp_path / "forked.csv").read_bytes())


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

    def test_montecarlo_and_determinism(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["montecarlo", "--config", str(cfg), "--out",
                         str(out1)]) == 0
        # 2 s is too short to converge; that is reported, not an error
        assert ("\ndivergences: 0/2\nunconverged: 2/2\n"
                in capsys.readouterr().out)
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

    @pytest.mark.parametrize("window, code", [("4", 0), ("0", 2), ("-1", 2),
                                              ("nan", 2), ("9", 2)])
    def test_module_entry_window_exit_codes(self, tmp_path, window, code):
        cfg = self._write_config(tmp_path, "duration = 8\n")
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "airnav", "observability", "--config",
             str(cfg), f"--window={window}", "--out", str(tmp_path / "obs")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        if code == 2:
            assert proc.stderr.startswith("window error: ")
            assert proc.stderr.count("\n") == 1

    def test_sweep_fault_is_not_a_window_error(self, tmp_path, monkeypatch):
        # only the verdict's input checks make a window error; a
        # ValueError from inside the sweep is a fault and propagates
        def failing_block(*args):
            raise ValueError("forced for test")

        monkeypatch.setattr(observability, "_block", failing_block)
        cfg = self._write_config(tmp_path, "duration = 8\n")
        with pytest.raises(ValueError, match="^forced for test$"):
            cli.main(["observability", "--config", str(cfg), "--window", "4",
                      "--out", str(tmp_path / "obs")])

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

    @pytest.mark.parametrize("kind", ["directory", "utf16"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, kind):
        path = tmp_path / "cfg"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xferuns = 1\n")
        assert cli.main(["simulate", "--config", str(path), "--out",
                         str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("run_index", ["-1", "x"])
    def test_bad_run_index_exits_2(self, tmp_path, capsys, run_index):
        cfg = self._write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--config", str(cfg), "--out",
                      str(tmp_path / "out"), "--run-index", run_index])
        assert exc.value.code == 2
        assert "expected a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, out", [("simulate", "file"),
                                              ("observability", "file"),
                                              ("montecarlo", "file/x")])
    def test_unusable_out_exits_2(self, tmp_path, capsys, command, out):
        cfg = self._write_config(tmp_path)
        (tmp_path / "file").write_text("", encoding="utf-8")
        assert cli.main([command, "--config", str(cfg), "--out",
                         str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["simulate", "montecarlo"])
    def test_unwritable_trace_exits_2_before_ticking(self, tmp_path, capsys,
                                                     monkeypatch, command):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        for k in range(2):
            harness.trace_path(out, k).mkdir(parents=True)

        def no_rotate(*args):
            raise AssertionError("ticked with an unwritable trace")

        monkeypatch.setattr(observer, "_rotate", no_rotate)
        assert cli.main([command, "--config", str(cfg), "--out",
                         str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("output error: ")
        assert "run_000.csv" in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_closed_stdout_is_not_an_output_error(self, tmp_path,
                                                  monkeypatch):
        cfg = self._write_config(tmp_path)

        def closed_stdout(*args, file=None, **kwargs):
            if file is None:
                raise BrokenPipeError("forced for test")
            print(*args, file=file, **kwargs)

        monkeypatch.setattr(cli, "print", closed_stdout, raising=False)
        with pytest.raises(BrokenPipeError):
            cli.main(["simulate", "--config", str(cfg), "--out",
                      str(tmp_path / "out")])

    def test_divergence_exits_3(self, tmp_path, monkeypatch):
        cfg = self._write_config(tmp_path)

        def fail_rotate(*args):
            raise DivergenceError("forced for test")

        monkeypatch.setattr(observer, "_rotate", fail_rotate)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out",
                         str(out)]) == 3

    @staticmethod
    def _airnav(*args) -> subprocess.CompletedProcess:
        """``python -m airnav *args`` in a fresh interpreter."""
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "airnav", *args],
                              env=env, capture_output=True, text=True,
                              timeout=120)

    def test_all_diverged_batch_exits_3_without_warnings(self, tmp_path):
        # a numerical failure is flagged and nothing else is printed
        cfg = self._write_config(tmp_path, "s_vel = 1e12\n")
        proc = self._airnav("montecarlo", "--config", str(cfg), "--out",
                            str(tmp_path / "mc"))
        assert proc.returncode == 3, proc.stderr
        assert "divergences: 2/2\nunconverged: 0/2\n" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr, proc.stderr
        for key in ("err_att", "err_v_body"):
            assert (f"final-5s mean {key}: n/a (every run diverged)"
                    in proc.stdout)

    @pytest.mark.parametrize("text", [
        "sigma_gyro = 1e308\n",
        "sigma_acc = 1e308\n",
        "init_va = [1e308, 1e308, 1e308]\ninit_std_v = 1e200\n",
        "init_std_angle = 1e200\n",
    ])
    def test_overflow_before_the_loop_exits_3_without_warnings(
            self, tmp_path, text):
        # the noise draw, the initial velocity's norm in the trace or the
        # initial attitude's exponential overflows before the tick loop
        # flags the run on tick 0; that flag is all that is printed, by a
        # lone run (its writer forked where a CPU is spare) and by a
        # batch's workers
        cfg = self._write_config(tmp_path, text)
        proc = self._airnav("simulate", "--config", str(cfg), "--out",
                            str(tmp_path / "sim"))
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == "run diverged at t=0 s\n"
        proc = self._airnav("montecarlo", "--config", str(cfg), "--out",
                            str(tmp_path / "mc"))
        assert proc.returncode == 3, proc.stderr
        assert "divergences: 2/2\n" in proc.stdout
        assert proc.stderr == ""


# Every numeric config key, and the shape of its value; q_pitot, q_mag and
# q_baro default to None, which derives them from the noise.
_NUMERIC_SHAPES = {key: np.shape(value) for key, value in _DEFAULTS.items()
                   if key not in _STRING_KEYS}
_NUMERIC_SHAPES.update(q_pitot=(1, 1), q_mag=(3, 3), q_baro=())


def _filled(shape, number: float) -> str:
    """Config text of a value of ``shape`` whose every element is
    ``number``."""
    if not shape:
        return repr(number)
    return "[" + ", ".join([_filled(shape[1:], number)] * shape[0]) + "]"


class TestHostileConfigs:
    """One numeric key at an extreme finite value: the command succeeds,
    refuses the config or flags the run, and prints nothing else."""

    @settings(max_examples=1000, deadline=None, suppress_health_check=[
        HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(sorted(_NUMERIC_SHAPES)),
           number=st.sampled_from([0.0, 1e-300, -1e-300, 1e-30, -1e-30,
                                   1e30, -1e30, 1e300, -1e300]),
           command=st.sampled_from(["simulate", "observability"]))
    def test_exits_0_2_or_3_and_prints_only_its_verdict(
            self, monkeypatch, key, number, command):
        _pin_cpus(monkeypatch, 1)  # the run's writer stays in process
        value = _filled(_NUMERIC_SHAPES[key], number)
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "hostile.cfg"
            cfg.write_text(f"duration = 0.5\n{key} = {value}\n",
                           encoding="utf-8")
            args = [command, "--config", str(cfg), "--out",
                    str(Path(tmp) / "out")]
            if command == "observability":
                args += ["--window", "0.25"]
            stdout, stderr = io.StringIO(), io.StringIO()
            with (warnings.catch_warnings(record=True) as caught,
                  contextlib.redirect_stdout(stdout),
                  contextlib.redirect_stderr(stderr)):
                warnings.simplefilter("always")
                code = cli.main(args)
        assert code in (0, 2, 3), stderr.getvalue()
        assert [str(w.message) for w in caught] == []
        if code == 2:
            assert stderr.getvalue().count("\n") == 1, stderr.getvalue()


class TestDivergenceFloor:
    def test_huge_residual_trips_floor(self):
        cfg = default_config()
        spec = cfg.trajectory
        truth0 = truth_state(spec, 0.0)
        inp = truth_inputs(spec, 0.0)
        est = ObserverState(Rhat=truth0.R.copy(), Vahat=truth0.Va.copy(),
                            hhat=truth0.h, P=cfg.weights.P0.copy())
        obs = AirDataObserver(est, cfg.weights, cfg.probes, cfg.mag_ref,
                              dt=cfg.imu_period, gravity=cfg.gravity,
                              q_convention="covariance", integrator="euler")
        with pytest.raises(DivergenceError):
            tick(obs, {SensorKind.IMU: (inp.omega, inp.a),
                       SensorKind.BARO: 1e13})

    def test_non_finite_attitude_truncates_series(self, short_config,
                                                  monkeypatch):
        # from the tenth tick on the attitude step turns NaN while Vahat,
        # hhat and P stay finite; only the attitude check can catch it
        calls = {"n": 0}
        orig = observer._rotate

        def rotate(r, t0, t1, t2):
            calls["n"] += 1
            return orig(r, t0 if calls["n"] < 10 else np.nan, t1, t2)

        monkeypatch.setattr(observer, "_rotate", rotate)
        m = run_single(short_config, 0)
        assert m.diverged
        assert m.t.shape[0] == 10
        assert m.divergence_time == pytest.approx(m.t[-1])
        assert np.all(np.isfinite(m.euler_hat))

    def test_failed_tick_keeps_last_valid_state(self, monkeypatch):
        cfg = default_config()
        inp = truth_inputs(cfg.trajectory, 0.0)
        obs = AirDataObserver(init_estimates(cfg, 0), cfg.weights,
                              cfg.probes, cfg.mag_ref, dt=cfg.imu_period,
                              gravity=cfg.gravity, q_convention="covariance",
                              integrator="euler")
        before = obs.state
        monkeypatch.setattr(observer, "_rotate",
                            lambda r, t0, t1, t2: ([np.nan] * 9, np.nan))
        with pytest.raises(DivergenceError):
            tick(obs, {SensorKind.IMU: (inp.omega, inp.a)})
        assert obs.state is before

    @pytest.mark.parametrize("va, h", [([1.0, np.nan, 0.0], 5.0),
                                       ([1.0, 0.0, 0.0], np.nan)])
    def test_nan_after_a_finite_component_trips_floor(self, va, h):
        # a NaN that is not the first of Vahat, hhat must not slip through
        cfg = default_config()
        est = ObserverState(Rhat=np.eye(3), Vahat=np.array(va), hhat=h,
                            P=cfg.weights.P0.copy())
        obs = AirDataObserver(est, cfg.weights, cfg.probes, cfg.mag_ref,
                              dt=cfg.imu_period, gravity=cfg.gravity,
                              q_convention="covariance", integrator="euler")
        with pytest.raises(DivergenceError):
            tick(obs, {SensorKind.IMU: (np.zeros(3),
                                        np.array([0.0, 0.0, -cfg.gravity]))})
