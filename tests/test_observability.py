import dataclasses
import itertools
import math
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, simpson

from airnav import _fork, dynamics, geometry, observability
from airnav.config import parse_config_text
from airnav.dynamics import TrajectorySpec
from airnav.geometry import skew
from airnav.harness import run_single
from airnav.observability import (
    gramian,
    observability_verdict,
    pe_margins,
    phi_blocks,
)
from airnav.observer import ObserverState
from airnav.sensors import STACK_ORDER, MagReference, ProbeSet, SensorKind

from oracles import _batch_skew, error_state, integrate_phi, truth_state

G = 9.81
M_I = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
J_HORIZONTAL = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the fork start method is missing")


def _pin_cpus(monkeypatch, cpus):
    """Let the code under test see ``cpus`` CPUs."""
    monkeypatch.setattr(_fork, "cpu_count", lambda: cpus)


def _count_forks(monkeypatch):
    """Count the calls of ``os.fork``; returns the list that grows by one
    per call."""
    calls, fork = [], os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def _sweep_bits(rows) -> bytes:
    """Every float of a sweep's rows, with the verdicts."""
    floats = [x for r in rows for x in (
        r.t_start, r.lam_min, r.lam_max, r.mu_pi, r.mu_api)]
    flags = [r.verdict for r in rows]
    return np.array(floats).tobytes() + np.array(flags).tobytes()


@pytest.fixture
def paper():
    return TrajectorySpec.paper(gravity=G)


@pytest.fixture
def hover():
    return TrajectorySpec.hover(gravity=G)


@pytest.fixture
def single_probe():
    return ProbeSet.from_axes([[1.0, 0.0, 0.0]])


@pytest.fixture
def two_probes():
    return ProbeSet.from_axes([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


@pytest.fixture
def mag_ref():
    return MagReference(m_I=M_I)


def random_spec(rng):
    return TrajectorySpec(
        gravity=G,
        vel_amp=rng.uniform(-5, 5, 3),
        vel_freq=rng.uniform(0.5, 3.0, 3),
        vel_phase=rng.uniform(0, 2 * np.pi, 3),
        yaw_amp=rng.uniform(0.2, 1.0),
        yaw_freq=rng.uniform(0.5, 2.5),
    )


def _oracle_output_rows(spec, probes, mag_ref, s, sensors):
    """True-trajectory output matrix C*(s) for all grid times."""
    n = s.shape[0]
    rot = dynamics.attitude_batch(spec, s)
    blocks = []
    for kind in STACK_ORDER:
        if kind not in sensors:
            continue
        if kind is SensorKind.PITOT:
            va_inertial = dynamics.velocity(spec, s) - spec.wind
            bt_rt = np.einsum("ij,njk->nik", probes.B.T,
                              np.transpose(rot, (0, 2, 1)))
            block = np.zeros((n, probes.m, 7))
            block[:, :, 0:3] = np.einsum("nij,njk->nik", bt_rt,
                                         _batch_skew(va_inertial))
            block[:, :, 3:6] = bt_rt
        elif kind is SensorKind.MAG:
            block = np.zeros((n, 3, 7))
            block[:, :, 0:3] = -skew(mag_ref.m_I)
        else:
            block = np.zeros((n, 1, 7))
            block[:, 0, 6] = 1.0
        blocks.append(block)
    if not blocks:
        return np.zeros((n, 0, 7))
    return np.concatenate(blocks, axis=1)


def _oracle_grid(t, delta, step):
    """Uniform grid over [t, t + delta]: an even interval count, each
    interval at most ``step``."""
    n = 2 * max(1, math.ceil(delta / (2.0 * step)))
    return np.linspace(t, t + delta, n + 1)


def _oracle_transition(s, g1, g2, t0):
    """Phi*(s, t0) for every time of ``s`` from the running integrals of
    R a from ``t0``, shape (n, 7, 7)."""
    phi = np.tile(np.eye(7), (s.shape[0], 1, 1))
    phi[:, 3:6, 0:3] = -_batch_skew(g1)
    phi[:, 6, 0] = g2[:, 1]
    phi[:, 6, 1] = -g2[:, 0]
    phi[:, 6, 5] = s - t0
    return phi


# Simpson's rule over consecutive pieces of an even interval count, sharing
# their end points, sums to the rule over the whole grid; the oracles form
# their (n, 7, 7) integrands this many intervals at a time.
_ORACLE_PIECE = 2000


def _pieces(n_points):
    """Index slices of consecutive grid pieces sharing their end points."""
    return [slice(a, min(a + _ORACLE_PIECE, n_points - 1) + 1)
            for a in range(0, n_points - 1, _ORACLE_PIECE)]


def oracle_gramian(spec, probes, mag_ref, t, delta, step=1e-4,
                   sensors=STACK_ORDER):
    """Per-point C* Phi* products and Simpson over the (n, 7, 7) integrand,
    with ``g1``, ``g2`` by cumulative Simpson of ``R a`` on the grid."""
    s = _oracle_grid(t, delta, step)
    w = dynamics.inertial_specific_force(spec, s)
    g1 = cumulative_simpson(w, x=s, axis=0, initial=0.0)
    g2 = cumulative_simpson(g1, x=s, axis=0, initial=0.0)
    total = np.zeros((7, 7))
    for piece in _pieces(s.shape[0]):
        sp = s[piece]
        c = _oracle_output_rows(spec, probes, mag_ref, sp, sensors)
        phi = _oracle_transition(sp, g1[piece], g2[piece], s[0])
        m = np.einsum("nij,njk->nik", c, phi)
        integrand = np.einsum("nri,nrj->nij", m, m)
        total += simpson(integrand, x=sp, axis=0)
    w = total / delta
    return 0.5 * (w + w.T)


def oracle_pe_grams(spec, probes, t, delta, step=1e-4):
    """The two PE Gram matrices by per-point einsums and Simpson."""
    s = _oracle_grid(t, delta, step)
    gram_pi, gram_api = np.zeros((2, 2)), np.zeros((2, 2))
    for piece in _pieces(s.shape[0]):
        sp = s[piece]
        rot = dynamics.attitude_batch(spec, sp)
        pi = np.einsum("ij,njk,kl->nil", probes.B.T, rot, J_HORIZONTAL)
        gram_pi += simpson(np.einsum("nij,nik->njk", pi, pi), x=sp, axis=0)
        w = dynamics.inertial_specific_force(spec, sp)
        a_pi = np.stack((-w[:, 1], w[:, 0]), axis=-1)[:, None, :]
        gram_api += simpson(np.einsum("nij,nik->njk", a_pi, a_pi),
                            x=sp, axis=0)
    return gram_pi / delta, gram_api / delta


PROBE_SETS = {
    1: [[1.0, 0.0, 0.0]],
    2: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    3: [[0.8, 0.6, 0.0], [0.0, 1.0, 0.0], [0.0, 0.6, 0.8]],
}

# single_dense.cfg's probes: the third has a vertical component (b_z != 0)
DENSE_PROBES = [[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.6, 0.0, 0.8]]

SENSOR_SUBSETS = [subset for r in range(len(STACK_ORDER) + 1)
                  for subset in itertools.combinations(STACK_ORDER, r)]


def _trajectory(name):
    if name == "paper":
        return TrajectorySpec.paper(gravity=G)
    if name == "hover":
        return TrajectorySpec.hover(gravity=G)
    if name == "fast":
        # omega = 2 * 30 + 2 * (1 + 20) = 102 rad/s: panels of 10/102 s
        return TrajectorySpec(gravity=G,
                              vel_amp=[4.0, -3.0, 2.0],
                              vel_freq=[30.0, 17.0, 25.0],
                              vel_phase=[0.3, 1.1, 2.0],
                              yaw_amp=1.0, yaw_freq=20.0)
    return random_spec(np.random.default_rng(7))


class TestPhiBlocks:
    def test_initial_condition(self, paper):
        np.testing.assert_allclose(phi_blocks(paper, 3.0, 3.0), np.eye(7))

    def test_hover_analytic(self, hover):
        # constant R a = -g e3: the single integral is -(t-tau)(-g e3)^x and
        # the altitude row reduces to (0,0,0, 0,0,t-tau)
        t, tau = 5.0, 2.0
        phi = phi_blocks(hover, t, tau)
        e3x = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0.0]])
        np.testing.assert_allclose(phi[3:6, 0:3], (t - tau) * G * e3x,
                                   atol=1e-9)
        np.testing.assert_allclose(phi[0:3, 0:3], np.eye(3))
        np.testing.assert_allclose(phi[6], [0, 0, 0, 0, 0, t - tau, 1],
                                   atol=1e-9)

    def test_matches_ode_oracle_on_paper_trajectory(self, paper):
        for t0 in (0.0, 7.0):
            phi_ode = integrate_phi(paper, t0 + 4.0, t0, step=1e-3)
            np.testing.assert_allclose(phi_blocks(paper, t0 + 4.0, t0),
                                       phi_ode, atol=1e-6)

    def test_matches_ode_oracle_on_random_specs(self):
        rng = np.random.default_rng(0)
        for _ in range(3):
            spec = random_spec(rng)
            phi_ode = integrate_phi(spec, 3.5, 1.0, step=1e-3)
            err = np.linalg.norm(phi_blocks(spec, 3.5, 1.0) - phi_ode)
            assert err / np.linalg.norm(phi_ode) < 1e-6

    def test_rejects_reversed_window(self, paper):
        with pytest.raises(ValueError):
            phi_blocks(paper, 1.0, 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_times(self, paper, bad):
        with pytest.raises(ValueError, match="^t must be finite"):
            phi_blocks(paper, bad, 0.0)
        with pytest.raises(ValueError, match="^tau must be finite"):
            phi_blocks(paper, 1.0, bad)


class TestGramian:
    def test_no_sensors_gives_zero(self, paper, single_probe, mag_ref):
        w = gramian(paper, single_probe, mag_ref, 0.0, 4.0, sensors=())
        np.testing.assert_allclose(w, np.zeros((7, 7)))

    def test_baro_only_hover_is_rank_deficient(self, hover, single_probe,
                                               mag_ref):
        w = gramian(hover, single_probe, mag_ref, 0.0, 4.0,
                    sensors=(SensorKind.BARO,))
        eig = np.linalg.eigvalsh(w)
        rank = int(np.sum(eig > 1e-10 * eig[-1]))
        assert rank <= 3

    def test_paper_configuration_positive(self, paper, single_probe, mag_ref):
        w = gramian(paper, single_probe, mag_ref, 0.0, 4.0)
        eig = np.linalg.eigvalsh(w)
        assert eig[0] > 1e-6
        # regression baseline for the reference window (recorded value)
        assert eig[0] == pytest.approx(0.02334, rel=0.05)

    def test_symmetric_psd(self, paper, single_probe, mag_ref):
        w = gramian(paper, single_probe, mag_ref, 2.0, 4.0)
        np.testing.assert_allclose(w, w.T, atol=1e-14)
        assert np.linalg.eigvalsh(w)[0] >= -1e-10

    def test_monotone_in_sensing(self, paper, single_probe, mag_ref):
        subsets = [
            (SensorKind.BARO,),
            (SensorKind.MAG, SensorKind.BARO),
            (SensorKind.PITOT, SensorKind.MAG, SensorKind.BARO),
        ]
        mins = []
        for subset in subsets:
            w = gramian(paper, single_probe, mag_ref, 0.0, 4.0,
                        sensors=subset)
            mins.append(np.linalg.eigvalsh(w)[0])
        assert mins[0] <= mins[1] + 1e-12
        assert mins[1] <= mins[2] + 1e-12

    def test_quad_step_guard(self, paper, single_probe, mag_ref):
        # the panels follow from the spec, so no step can be passed; the
        # 0.1-s floor that the step's guard enforced still holds
        with pytest.raises(TypeError, match="quad_step"):
            gramian(paper, single_probe, mag_ref, 0.0, 4.0, quad_step=0.1)
        with pytest.raises(ValueError, match="^window must be finite"):
            gramian(paper, single_probe, mag_ref, 0.0, 0.05)

    @pytest.mark.parametrize("traj", ["paper", "hover", "random"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_einsum_oracle(self, traj, m, mag_ref):
        spec = _trajectory(traj)
        probes = ProbeSet.from_axes(PROBE_SETS[m])
        for subset in SENSOR_SUBSETS:
            w = gramian(spec, probes, mag_ref, 1.5, 2.0, sensors=subset)
            ref = oracle_gramian(spec, probes, mag_ref, 1.5, 2.0,
                                 sensors=subset)
            np.testing.assert_allclose(
                w, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max(),
                err_msg=str(subset))


    @pytest.mark.parametrize("delta", [4.0, 12.0, 40.0])
    @pytest.mark.parametrize("m", [1, 3])
    def test_fast_trajectory_matches_oracle(self, delta, m, mag_ref):
        # many panels per window on a trajectory whose integrands oscillate
        # at up to ~100 rad/s; the oracle's own Simpson error at step 1e-4
        # is below 1e-12 here (at 1e-3 it is about 5e-9)
        spec = _trajectory("fast")
        probes = ProbeSet.from_axes(PROBE_SETS[m])
        w = gramian(spec, probes, mag_ref, 1.5, delta)
        ref = oracle_gramian(spec, probes, mag_ref, 1.5, delta, step=1e-4)
        np.testing.assert_allclose(w, ref, rtol=1e-10,
                                   atol=1e-10 * np.abs(ref).max())
        mu = pe_margins(spec, probes, 1.5, delta)
        for value, gram in zip(mu, oracle_pe_grams(spec, probes, 1.5, delta,
                                                   step=1e-4)):
            assert value == pytest.approx(np.linalg.eigvalsh(gram)[0],
                                          rel=1e-10,
                                          abs=1e-10 * np.abs(gram).max())


class TestQuadratureRule:
    def test_nodes_and_weights_match_numpy(self):
        from numpy.polynomial.legendre import leggauss
        x, w = leggauss(12)
        nodes, weights = observability._gauss_legendre()
        np.testing.assert_allclose(nodes, 0.5 * (1.0 + x), rtol=0,
                                   atol=1e-15)
        np.testing.assert_allclose(weights, 0.5 * w, rtol=1e-14)

    @pytest.mark.parametrize("traj, delta, panels", [
        ("hover", 4.0, 4),     # omega = 0: 1-s panels
        ("hover", 0.1, 1),     # the shortest window
        ("paper", 4.0, 5),     # omega = 10.6: panels of at most 0.943 s
        ("fast", 4.0, 41),     # omega = 102
        ("fast", 40.0, 408),
    ])
    def test_panels_follow_the_spec(self, traj, delta, panels):
        assert observability._panels(_trajectory(traj), delta) == panels


class TestPeMargins:
    def test_hover_single_probe_degenerate(self, hover, single_probe):
        mu_pi, mu_api = pe_margins(hover, single_probe, 0.0, 4.0)
        assert abs(mu_pi) <= 1e-12
        assert abs(mu_api) <= 1e-12

    def test_static_two_probes_full_rank(self, hover, two_probes):
        mu_pi, mu_api = pe_margins(hover, two_probes, 0.0, 4.0)
        assert mu_pi >= 0.9
        assert abs(mu_api) <= 1e-12

    def test_paper_trajectory_excited(self, paper, single_probe):
        mu_pi, mu_api = pe_margins(paper, single_probe, 0.0, 4.0)
        assert mu_pi > 1e-3
        assert mu_api > 1e-3

    def test_lemma_direction_on_built_ins(self, paper, single_probe,
                                          mag_ref):
        # whenever both margins clear 1e-3, the Gramian must be positive
        for t0 in (0.0, 10.0, 31.0):
            mu_pi, mu_api = pe_margins(paper, single_probe, t0, 4.0)
            if mu_pi > 1e-3 and mu_api > 1e-3:
                w = gramian(paper, single_probe, mag_ref, t0, 4.0)
                assert np.linalg.eigvalsh(w)[0] > 0.0


@pytest.mark.parametrize("traj", ["paper", "hover", "random"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_pe_margins_match_einsum_oracle(traj, m):
    spec = _trajectory(traj)
    probes = ProbeSet.from_axes(PROBE_SETS[m])
    for t0 in (0.0, 9.0):
        mu = pe_margins(spec, probes, t0, 4.0)
        for value, gram in zip(mu, oracle_pe_grams(spec, probes, t0, 4.0)):
            ref = np.linalg.eigvalsh(gram)[0]
            assert value == pytest.approx(
                ref, rel=1e-12, abs=1e-12 * np.abs(gram).max())


class TestVerdict:
    def test_paper_configuration_true(self, paper, single_probe, mag_ref):
        rows = observability_verdict(
            paper, single_probe, mag_ref, delta=4.0, duration=20.0)
        assert all(r.verdict for r in rows)
        assert min(r.mu_pi for r in rows) > 1e-3
        assert min(r.mu_api for r in rows) > 1e-3

    def test_hover_single_probe_false(self, hover, single_probe, mag_ref):
        rows = observability_verdict(
            hover, single_probe, mag_ref, delta=4.0, duration=12.0)
        assert not all(r.verdict for r in rows)
        worst = min(rows, key=lambda r: r.lam_min)
        assert worst.lam_min <= 1e-10 * max(worst.lam_max, 1e-30)

    def test_collinear_reference_degrades(self, paper, single_probe,
                                          mag_ref):
        # MagReference refuses a vertical field; the Gramian reads only m_I
        collinear = SimpleNamespace(m_I=np.array([0.0, 0.0, 1.0]))
        w_good = gramian(paper, single_probe, mag_ref, 0.0, 4.0)
        w_bad = gramian(paper, single_probe, collinear, 0.0, 4.0)
        assert (np.linalg.eigvalsh(w_bad)[0]
                < 0.1 * np.linalg.eigvalsh(w_good)[0])

    def test_static_two_probe_experiment_recorded(self, hover, two_probes,
                                                  mag_ref):
        # sufficiency-only case: margins fail in hover even though two
        # probes span the horizontal plane; record the spectrum without
        # asserting a verdict either way
        w = gramian(hover, two_probes, mag_ref, 0.0, 4.0)
        eig = np.linalg.eigvalsh(w)
        assert eig[0] >= -1e-10
        mu_pi, mu_api = pe_margins(hover, two_probes, 0.0, 4.0)
        assert mu_pi >= 0.9 and abs(mu_api) <= 1e-12

    def test_sweep_matches_oracle_row_by_row(self, paper, single_probe,
                                             mag_ref):
        rows = observability_verdict(paper, single_probe, mag_ref,
                                     delta=4.0, duration=60.0)
        assert [r.t_start for r in rows] == [2.0 * k for k in range(29)]
        for row in rows:
            eig = np.linalg.eigvalsh(oracle_gramian(
                paper, single_probe, mag_ref, row.t_start, 4.0))
            mu = [np.linalg.eigvalsh(g)[0] for g in
                  oracle_pe_grams(paper, single_probe, row.t_start, 4.0)]
            assert row.lam_min == pytest.approx(eig[0], rel=1e-10)
            assert row.lam_max == pytest.approx(eig[-1], rel=1e-12)
            assert row.mu_pi == pytest.approx(mu[0], rel=1e-12)
            assert row.mu_api == pytest.approx(mu[1], rel=1e-12)
            assert row.verdict == bool(eig[0] >= 1e-6)

    @pytest.mark.parametrize("traj", ["paper", "hover"])
    def test_three_probe_sweep_matches_oracle_row_by_row(self, traj,
                                                         mag_ref):
        # hover has yaw_freq = 0
        spec, probes = _trajectory(traj), ProbeSet.from_axes(DENSE_PROBES)
        rows = observability_verdict(spec, probes, mag_ref, delta=4.0,
                                     duration=12.0)
        assert [r.t_start for r in rows] == [0.0, 2.0, 4.0, 6.0, 8.0]
        for row in rows:
            eig = np.linalg.eigvalsh(oracle_gramian(
                spec, probes, mag_ref, row.t_start, 4.0))
            mu = [np.linalg.eigvalsh(g)[0] for g in
                  oracle_pe_grams(spec, probes, row.t_start, 4.0)]
            assert row.lam_min == pytest.approx(eig[0], rel=1e-10)
            assert row.lam_max == pytest.approx(eig[-1], rel=1e-12)
            assert row.mu_pi == pytest.approx(mu[0], rel=1e-12)
            assert row.mu_api == pytest.approx(mu[1], rel=1e-12)
            assert row.verdict == bool(eig[0] >= 1e-6)

    def test_last_window_clamped_to_duration(self, paper, single_probe,
                                             mag_ref):
        duration = 3.0 - 5e-10
        rows = observability_verdict(paper, single_probe, mag_ref,
                                     delta=1.0, duration=duration)
        assert [r.t_start for r in rows[:-1]] == [0.0, 0.5, 1.0, 1.5]
        assert rows[-1].t_start == duration - 1.0

    def test_tail_off_the_half_window_grid_gets_a_last_window(
            self, paper, single_probe, mag_ref):
        # 13 - 4 is not a multiple of 2: the window [9, 13] covers the
        # last second, which the windows starting at 2 k leave out
        rows = observability_verdict(paper, single_probe, mag_ref,
                                     delta=4.0, duration=13.0)
        assert [r.t_start for r in rows] == [0.0, 2.0, 4.0, 6.0, 8.0, 9.0]
        w, mu_pi, mu_api = observability._one_window(
            paper, single_probe, mag_ref, 9.0, 4.0, STACK_ORDER)
        eig = np.linalg.eigvalsh(w)
        assert (rows[-1].lam_min, rows[-1].lam_max) == (eig[0], eig[-1])
        assert (rows[-1].mu_pi, rows[-1].mu_api) == (mu_pi, mu_api)

    @pytest.mark.parametrize("duration", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_duration(self, paper, single_probe, mag_ref,
                                         duration):
        with pytest.raises(ValueError, match="^duration must be finite"):
            observability_verdict(paper, single_probe, mag_ref, delta=4.0,
                                  duration=duration)

    def test_sweep_evaluates_blocks_of_at_most_1024_nodes(
            self, monkeypatch, paper, single_probe, mag_ref):
        # the sweep evaluates the attitude at its nodes through the yaw
        # angle, and at nothing else
        sizes, orig = [], dynamics.yaw_angle

        def counted(spec, t):
            sizes.append(np.size(t))
            return orig(spec, t)

        monkeypatch.setattr(dynamics, "yaw_angle", counted)
        # each node is evaluated once: a 2-s half takes 3 panels of 12 nodes,
        # and the windows on the grid share their halves.  Over 60 s the 29
        # windows take the 30 halves at 2 k; over 13 s the window clamped to
        # [9, 13] is off the grid and takes two more halves after the 6 on it
        for duration, windows, halves in ((60.0, 29, 30), (13.0, 6, 6 + 2)):
            sizes.clear()
            rows = observability_verdict(paper, single_probe, mag_ref,
                                         delta=4.0, duration=duration)
            assert len(rows) == windows
            assert sum(sizes) == halves * 3 * 12
            assert 1 < len(sizes) and max(sizes) <= 1024

    def test_sweep_memory_does_not_grow_with_the_window_count(
            self, single_probe, mag_ref):
        # 149, 1,499 and 5,999 windows; the rows the sweep returns grow
        # with the count, the memory it needs beyond them must not
        above_rows = []
        for duration, delta, windows in ((300.0, 4.0, 149),
                                         (3000.0, 4.0, 1499),
                                         (300.0, 0.1, 5999)):
            spec = TrajectorySpec.paper(gravity=G)
            tracemalloc.start()
            try:
                rows = observability_verdict(spec, single_probe, mag_ref,
                                             delta=delta, duration=duration)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(rows) == windows
            above_rows.append(peak - held)
        assert max(above_rows) <= 1.1 * min(above_rows), above_rows

    def test_sweep_rows_are_the_single_window_results(self, paper,
                                                      single_probe, mag_ref):
        # one code path, and a window's panels are summed in order however
        # they fall into blocks: the same bits as one window on its own
        rows = observability_verdict(paper, single_probe, mag_ref,
                                     delta=4.0, duration=60.0)
        for row in rows[::4] + [rows[-1]]:
            eig = np.linalg.eigvalsh(
                gramian(paper, single_probe, mag_ref, row.t_start, 4.0))
            assert (row.lam_min, row.lam_max) == (eig[0], eig[-1])
            assert (row.mu_pi, row.mu_api) == pe_margins(
                paper, single_probe, row.t_start, 4.0)

    # Zero and negative windows are checked through the CLI in a subprocess
    # with a timeout (tests/test_harness.py), so a regression that loops
    # cannot hang the suite.
    @pytest.mark.parametrize("delta", [np.nan, np.inf, 12.5, 0.05])
    def test_rejects_bad_window(self, paper, single_probe, mag_ref, delta):
        with pytest.raises(ValueError):
            observability_verdict(paper, single_probe, mag_ref, delta=delta,
                                  duration=12.0)


class TestHalfWindowComposition:
    def test_clamped_off_grid_window_matches_oracle_row_by_row(
            self, paper, single_probe, mag_ref):
        duration = 3.0 - 5e-10
        rows = observability_verdict(paper, single_probe, mag_ref,
                                     delta=1.0, duration=duration)
        assert rows[-1].t_start == duration - 1.0
        for row in rows:
            eig = np.linalg.eigvalsh(oracle_gramian(
                paper, single_probe, mag_ref, row.t_start, 1.0))
            mu = [np.linalg.eigvalsh(g)[0] for g in
                  oracle_pe_grams(paper, single_probe, row.t_start, 1.0)]
            assert row.lam_min == pytest.approx(eig[0], rel=1e-10)
            assert row.lam_max == pytest.approx(eig[-1], rel=1e-12)
            assert row.mu_pi == pytest.approx(mu[0], rel=1e-12)
            assert row.mu_api == pytest.approx(mu[1], rel=1e-12)

    @pytest.mark.parametrize("traj", ["paper", "random"])
    def test_window_off_the_old_grid_rule_matches_oracle(self, traj,
                                                         mag_ref):
        # 1.25 s: two panels of 0.625 s on the paper trajectory
        spec = _trajectory(traj)
        probes = ProbeSet.from_axes(PROBE_SETS[2])
        w = gramian(spec, probes, mag_ref, 0.5, 1.25)
        ref = oracle_gramian(spec, probes, mag_ref, 0.5, 1.25)
        np.testing.assert_allclose(w, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())
        mu = pe_margins(spec, probes, 0.5, 1.25)
        for value, gram in zip(mu, oracle_pe_grams(spec, probes, 0.5, 1.25)):
            assert value == pytest.approx(np.linalg.eigvalsh(gram)[0],
                                          rel=1e-12,
                                          abs=1e-12 * np.abs(gram).max())

    @pytest.mark.parametrize("yaw", [0.003, 0.01, 1.0])
    @pytest.mark.parametrize("vel", [0.0, 1.0])
    def test_minimally_excited_family_matches_oracle(self, mag_ref, yaw,
                                                     vel):
        # the paper trajectory with its yaw amplitude and horizontal
        # velocity amplitudes scaled: lam_min(W) falls as yaw_amp^2 down to
        # about 5e-8, the verdict holds in none, some or all windows, and
        # mu_api is 0 without horizontal motion
        paper = TrajectorySpec.paper(gravity=G)
        spec = dataclasses.replace(
            paper, yaw_amp=yaw * paper.yaw_amp,
            vel_amp=paper.vel_amp * [vel, vel, 1.0])
        probes = ProbeSet.from_axes(PROBE_SETS[1])
        rows = observability_verdict(spec, probes, mag_ref, delta=4.0,
                                     duration=60.0)
        assert len(rows) == 29
        # every verdict; a 2-ms oracle step moves lam_min by less than 1e-8
        # relative here, and no window's lam_min lies within 2% of the
        # threshold
        for row in rows:
            eig = np.linalg.eigvalsh(oracle_gramian(
                spec, probes, mag_ref, row.t_start, 4.0, step=2e-3))
            assert row.verdict == bool(eig[0] >= 1e-6), row
        # the least observable window, at the oracle's default step
        row = min(rows, key=lambda r: r.lam_min)
        ref = oracle_gramian(spec, probes, mag_ref, row.t_start, 4.0)
        eig, atol = np.linalg.eigvalsh(ref), 1e-12 * np.abs(ref).max()
        assert row.lam_min == pytest.approx(eig[0], rel=1e-10, abs=atol)
        assert row.lam_max == pytest.approx(eig[-1], rel=1e-12, abs=atol)
        for value, gram in zip((row.mu_pi, row.mu_api),
                               oracle_pe_grams(spec, probes, row.t_start,
                                               4.0)):
            assert value == pytest.approx(np.linalg.eigvalsh(gram)[0],
                                          rel=1e-12,
                                          abs=1e-12 * np.abs(gram).max())

    def test_halves_longer_than_one_evaluation(self, single_probe, mag_ref):
        # 100-s halves take 106 panels each, more than the 85 evaluated at a
        # time, so every half is summed over two evaluations and carried
        # over to the next window on its own
        spec = TrajectorySpec.paper(gravity=G)
        rows = observability_verdict(spec, single_probe, mag_ref,
                                     delta=200.0, duration=400.0)
        assert [r.t_start for r in rows] == [0.0, 100.0, 200.0]
        for row in rows:
            eig = np.linalg.eigvalsh(
                gramian(spec, single_probe, mag_ref, row.t_start, 200.0))
            assert (row.lam_min, row.lam_max) == (eig[0], eig[-1])
            assert (row.mu_pi, row.mu_api) == pe_margins(
                spec, single_probe, row.t_start, 200.0)
        # a 1-ms oracle step is within 1e-13 of the 0.5-ms one here
        ref = oracle_gramian(spec, single_probe, mag_ref, 100.0, 200.0,
                             step=1e-3)
        eig = np.linalg.eigvalsh(ref)
        assert rows[1].lam_min == pytest.approx(eig[0], rel=1e-10)
        assert rows[1].lam_max == pytest.approx(eig[-1], rel=1e-12)
        for value, gram in zip((rows[1].mu_pi, rows[1].mu_api),
                               oracle_pe_grams(spec, single_probe, 100.0,
                                               200.0, step=1e-3)):
            assert value == pytest.approx(np.linalg.eigvalsh(gram)[0],
                                          rel=1e-12)

    @pytest.mark.parametrize("delta", [np.inf, -np.inf, np.nan, 0.0, -4.0])
    def test_gramian_and_pe_margins_reject_bad_window(self, paper,
                                                      single_probe, mag_ref,
                                                      delta):
        with pytest.raises(ValueError):
            gramian(paper, single_probe, mag_ref, 0.0, delta)
        with pytest.raises(ValueError):
            pe_margins(paper, single_probe, 0.0, delta)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_gramian_and_pe_margins_reject_non_finite_start(
            self, paper, single_probe, mag_ref, bad):
        with pytest.raises(ValueError, match="^t must be finite"):
            gramian(paper, single_probe, mag_ref, bad, 4.0)
        with pytest.raises(ValueError, match="^t must be finite"):
            pe_margins(paper, single_probe, bad, 4.0)

    @pytest.mark.parametrize("quad_step", [1.0, 0.05, 0.0, -1e-3, np.nan])
    def test_gramian_and_pe_margins_reject_bad_quad_step(
            self, paper, single_probe, mag_ref, quad_step):
        # no step is taken any more, good or bad: none is silently ignored
        with pytest.raises(TypeError, match="quad_step"):
            gramian(paper, single_probe, mag_ref, 0.0, 4.0,
                    quad_step=quad_step)
        with pytest.raises(TypeError, match="quad_step"):
            pe_margins(paper, single_probe, 0.0, 4.0, quad_step=quad_step)


@needs_fork
class TestForkedSweep:
    """The sweep runs in this process, however many CPUs it may use.  Run
    in a forked child, as a Monte Carlo batch runs its work, it gives the
    same bits."""

    @pytest.mark.parametrize("duration, delta, windows", [
        (60.0, 4.0, 29),        # the paper sweep
        (3.0 - 5e-10, 1.0, 5),  # a clamped last window
        (4.0, 4.0, 1),          # a single window
        (10.0, 4.0, 4),         # aligned windows
    ])
    def test_forked_sweep_is_bit_identical_to_in_process(
            self, monkeypatch, paper, single_probe, mag_ref, duration, delta,
            windows):
        _pin_cpus(monkeypatch, 2)

        def sweep():
            return observability_verdict(paper, single_probe, mag_ref,
                                         delta=delta, duration=duration)

        def cold_sweep():
            # the child builds the Gauss-Legendre rule for itself
            observability._gauss_legendre.cache_clear()
            return _sweep_bits(sweep())

        child = _fork.start(cold_sweep)
        assert child is not None
        forked, error = _fork.reap(*child, "sweep child")
        assert error is None
        forks = _count_forks(monkeypatch)
        rows = sweep()
        assert forks == []
        assert len(rows) == windows
        assert forked == _sweep_bits(rows)

    @pytest.mark.parametrize("bad", [
        {"delta": np.nan}, {"delta": 12.5}, {"duration": np.inf},
        {"duration": np.nan}, {"delta": 0.05}])
    def test_bad_input_is_refused_before_any_fork(self, monkeypatch, paper,
                                                  single_probe, mag_ref,
                                                  bad):
        _pin_cpus(monkeypatch, 2)
        forks = _count_forks(monkeypatch)
        nodes = []
        monkeypatch.setattr(dynamics, "yaw_angle",
                            lambda spec, t: nodes.append(t))
        with pytest.raises(ValueError):
            observability_verdict(paper, single_probe, mag_ref,
                                  **{"delta": 4.0, "duration": 12.0, **bad})
        assert forks == [] and nodes == []

    def test_gramian_and_pe_margins_never_fork(self, monkeypatch, paper,
                                               single_probe, mag_ref):
        _pin_cpus(monkeypatch, 2)
        forks = _count_forks(monkeypatch)
        observability_verdict(paper, single_probe, mag_ref, delta=4.0,
                              duration=20.0)
        gramian(paper, single_probe, mag_ref, 0.0, 4.0)
        pe_margins(paper, single_probe, 0.0, 4.0)
        assert forks == []


class TestVerdictAgainstObserver:
    def test_rejected_hover_keeps_its_null_space_error(self):
        # Noise-free hover with one forward probe, which the verdict
        # rejects.  The 4-s Gramian's null space holds inertial v_y and the
        # attitude about m_I.  The run starts 0.1 rad off in pitch, which
        # is observable, 1 m/s off in v_y and 1 m off in altitude.
        cfg = parse_config_text(
            "duration = 40\ntrajectory = hover\nsigma_gyro = 0\n"
            "sigma_acc = 0\nsigma_pitot = [0]\nsigma_mag = [0, 0, 0]\n"
            "sigma_baro = 0\nq_pitot = [[25.0]]\n"
            "q_mag = [[0.01, 0, 0], [0, 0.01, 0], [0, 0, 0.01]]\n"
            "q_baro = 0.25\n")
        spec = cfg.trajectory
        rows = observability_verdict(spec, cfg.probes, cfg.mag_ref,
                                     delta=4.0, duration=40.0)
        assert not all(r.verdict for r in rows)
        eig, vec = np.linalg.eigh(
            gramian(spec, cfg.probes, cfg.mag_ref, 0.0, 4.0))
        null = vec[:, eig <= 1e-10 * eig[-1]]
        assert null.shape[1] == 2
        observable = np.eye(7) - null @ null.T

        truth0 = truth_state(spec, 0.0)
        rhat = geometry.exp_so3(np.array([0.0, 0.1, 0.0])).T @ truth0.R
        vahat = rhat.T @ (truth0.R @ truth0.Va - np.array([0.0, 1.0, 0.0]))
        m = run_single(cfg, 0, initial_state=ObserverState(
            Rhat=rhat, Vahat=vahat, hhat=truth0.h - 1.0,
            P=cfg.weights.P0.copy()))
        assert not m.diverged

        def error(i):
            est = SimpleNamespace(
                Rhat=geometry.euler_zyx_to_rot(*m.euler_hat[i]),
                Vahat=m.va_hat[i], hhat=m.h_hat[i])
            return error_state(truth_state(spec, float(m.t[i])),
                               est).as_vector()

        e0, e_mid, e_end = error(0), error(m.t.shape[0] // 2), error(-1)
        norm = np.linalg.norm
        # the error in the null space does not decay ...
        assert norm(null.T @ e_end) >= 0.5 * norm(null.T @ e0)
        assert norm(null.T @ e_end) >= 0.9 * norm(null.T @ e_mid)
        # ... while the attitude, altitude and observable errors do
        assert norm(e_end[0:3]) < 0.01 * norm(e0[0:3])
        assert abs(e_end[6]) < 0.01 * abs(e0[6])
        assert norm(observable @ e_end) < 0.01 * norm(observable @ e0)
