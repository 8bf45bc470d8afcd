from dataclasses import replace

import numpy as np
import pytest

from airnav.config import default_config
from airnav.dynamics import TrajectorySpec
from airnav.exceptions import RateMismatchError
from airnav.geometry import exp_so3
from airnav.sensors import (
    STREAM_IDS,
    MagReference,
    NoiseSpec,
    ProbeSet,
    RateSpec,
    SensorKind,
    sample_baro,
    sample_imu,
    sample_mag,
    sample_pitot,
    substream,
    tick_times,
)

from oracles import make_schedule, truth_state

# The reference setup's rates (200/50/50/5 Hz) and noise.
RATES = default_config().rates
NOISE = default_config().noise


def noiseless(m=1):
    return NoiseSpec(sigma_gyro=0.0, sigma_acc=0.0, sigma_p=np.zeros(m),
                     sigma_m=np.zeros(3), sigma_b=0.0)


@pytest.fixture
def rng():
    return np.random.default_rng(123)


class TestSampleImu:
    def test_noiseless_exact(self, rng):
        omega_in = np.array([0.1, -0.2, 0.3])
        a_in = np.array([1.0, 2.0, -9.0])
        omega, a = sample_imu(omega_in, a_in, noiseless(), rng)
        np.testing.assert_array_equal(omega, omega_in)
        np.testing.assert_array_equal(a, a_in)

    def test_noise_std(self):
        rng = substream(0, 0, STREAM_IDS[SensorKind.IMU])
        noise = replace(NOISE, sigma_gyro=0.05, sigma_acc=0.05)
        draws = np.array([np.concatenate(sample_imu(np.zeros(3), np.zeros(3),
                                                    noise, rng))
                          for _ in range(100_000)])
        stds = draws.std(axis=0)
        assert np.all(stds >= 0.048) and np.all(stds <= 0.052)

    def test_fixed_seed_reproducible(self):
        noise = NOISE
        a = [sample_imu(np.zeros(3), np.zeros(3), noise, substream(7, 3, 0))
             for _ in range(2)]
        np.testing.assert_array_equal(a[0][0], a[1][0])
        np.testing.assert_array_equal(a[0][1], a[1][1])


class TestSamplePitot:
    def test_single_probe(self, rng):
        probes = ProbeSet.from_axes([[1, 0, 0]])
        y = sample_pitot(np.array([12.0, 0.0, 0.0]), probes, noiseless(), rng)
        np.testing.assert_allclose(y, [12.0])

    def test_two_probes(self, rng):
        probes = ProbeSet.from_axes([[1, 0, 0], [0, 1, 0]])
        y = sample_pitot(np.array([3.0, -1.0, 5.0]), probes, noiseless(2),
                         rng)
        np.testing.assert_allclose(y, [3.0, -1.0])

    def test_paper_trajectory_initial_sample(self, rng):
        spec = TrajectorySpec.paper()
        probes = ProbeSet.from_axes([[1, 0, 0]])
        y = sample_pitot(truth_state(spec, 0.0).Va, probes, noiseless(), rng)
        assert y[0] == pytest.approx(0.0, abs=1e-12)

    def test_sigma_length_mismatch(self, rng):
        probes = ProbeSet.from_axes([[1, 0, 0], [0, 1, 0]])
        with pytest.raises(ValueError):
            sample_pitot(np.zeros(3), probes, noiseless(1), rng)


class TestSampleBaro:
    def test_noiseless(self, rng):
        assert sample_baro(17.5, noiseless(), rng) == 17.5

    def test_mean_unbiased(self):
        rng = substream(0, 0, STREAM_IDS[SensorKind.BARO])
        noise = replace(NOISE, sigma_b=0.05)
        draws = np.array([sample_baro(0.0, noise, rng)
                          for _ in range(100_000)])
        assert abs(draws.mean()) <= 3 * 0.0005


class TestSampleMag:
    M_I = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)

    def test_identity_attitude(self, rng):
        ref = MagReference(m_I=self.M_I)
        y = sample_mag(np.eye(3), ref, noiseless(), rng)
        np.testing.assert_allclose(y, self.M_I)

    def test_quarter_turn(self, rng):
        ref = MagReference(m_I=self.M_I)
        r = exp_so3(np.array([0, 0, np.pi / 2]))
        y = sample_mag(r, ref, noiseless(), rng)
        np.testing.assert_allclose(y, [0.0, -1 / np.sqrt(2), 1 / np.sqrt(2)],
                                   atol=1e-15)

    def test_noise_std(self):
        rng = substream(0, 0, STREAM_IDS[SensorKind.MAG])
        ref = MagReference(m_I=self.M_I)
        noise = replace(NOISE, sigma_m=np.full(3, 0.01))
        draws = np.array([sample_mag(np.eye(3), ref, noise, rng)
                          for _ in range(100_000)])
        stds = (draws - self.M_I).std(axis=0)
        assert np.all(stds >= 0.0096) and np.all(stds <= 0.0104)


class TestBatchedSampling:
    """One call over n ticks draws exactly what n single-tick calls draw."""

    N = 64
    SEED = (7, 2)

    def _rng(self, kind):
        return substream(*self.SEED, STREAM_IDS[kind])

    def _truths(self):
        gen = np.random.default_rng(9)
        r = np.array([exp_so3(v) for v in gen.standard_normal((self.N, 3))])
        va = 10.0 * gen.standard_normal((self.N, 3))
        h = 50.0 * gen.standard_normal(self.N)
        return r, va, h

    def test_imu(self):
        gen = np.random.default_rng(10)
        omega = gen.standard_normal((self.N, 3))
        a = gen.standard_normal((self.N, 3))
        noise = NOISE
        omega_b, a_b = sample_imu(omega, a, noise, self._rng(SensorKind.IMU))
        rng = self._rng(SensorKind.IMU)
        single = [sample_imu(omega[i], a[i], noise, rng)
                  for i in range(self.N)]
        assert np.array_equal(omega_b, np.array([s[0] for s in single]))
        assert np.array_equal(a_b, np.array([s[1] for s in single]))

    @pytest.mark.parametrize("axes", [
        [[1, 0, 0]],
        [[1, 0, 0], [0.6, 0.8, 0], [0.6, 0, 0.8]],
    ])
    def test_pitot(self, axes):
        probes = ProbeSet.from_axes(axes)
        noise = replace(NOISE, sigma_p=np.full(probes.m, 0.5))
        _, va, _ = self._truths()
        batched = sample_pitot(va, probes, noise, self._rng(SensorKind.PITOT))
        rng = self._rng(SensorKind.PITOT)
        single = [sample_pitot(va[i], probes, noise, rng)
                  for i in range(self.N)]
        assert batched.shape == (self.N, probes.m)
        assert np.array_equal(batched, np.array(single))

    def test_mag(self):
        ref = MagReference(m_I=np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0))
        noise = NOISE
        r, _, _ = self._truths()
        batched = sample_mag(r, ref, noise, self._rng(SensorKind.MAG))
        rng = self._rng(SensorKind.MAG)
        single = [sample_mag(r[i], ref, noise, rng) for i in range(self.N)]
        assert np.array_equal(batched, np.array(single))

    def test_baro(self):
        noise = NOISE
        _, _, h = self._truths()
        batched = sample_baro(h, noise, self._rng(SensorKind.BARO))
        rng = self._rng(SensorKind.BARO)
        single = [sample_baro(h[i], noise, rng) for i in range(self.N)]
        assert batched.shape == (self.N,)
        assert all(np.shape(x) == () for x in single)
        assert np.array_equal(batched, np.array(single))


class TestReferenceValidation:
    def test_collinear_rejected(self):
        with pytest.raises(ValueError):
            MagReference(m_I=np.array([0.0, 0.0, 1.0]))

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            MagReference(m_I=np.array([1.0, 0.0, 1.0]))

    def test_probe_axes_must_be_unit(self):
        with pytest.raises(ValueError):
            ProbeSet.from_axes([[1.0, 1.0, 0.0]])

    def test_probe_count_bounds(self):
        with pytest.raises(ValueError):
            ProbeSet(B=np.zeros((3, 0)))


class TestRates:
    def test_divisibility_enforced(self):
        with pytest.raises(RateMismatchError):
            RateSpec(f_imu=200.0, f_pitot=60.0, f_mag=50.0, f_baro=5.0)

    def test_slower_than_imu_enforced(self):
        with pytest.raises(RateMismatchError):
            RateSpec(f_imu=200.0, f_pitot=400.0, f_mag=50.0, f_baro=5.0)

    def test_decimation(self):
        rates = RATES
        assert rates.decimation(SensorKind.PITOT) == 4
        assert rates.decimation(SensorKind.BARO) == 40


class TestSchedule:
    def test_counts_and_coincidence(self):
        rates = RateSpec(f_imu=200.0, f_pitot=50.0, f_mag=50.0, f_baro=5.0)
        slots = make_schedule(rates, 1.0)
        assert len(slots) == 201
        baro_slots = [s for s in slots if SensorKind.BARO in s.kinds]
        assert len(baro_slots) == 6
        np.testing.assert_allclose([s.t for s in baro_slots],
                                   [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])

    def test_zero_duration(self):
        slots = make_schedule(RATES, 0.0)
        assert len(slots) == 1
        assert slots[0].t == 0.0
        assert SensorKind.IMU in slots[0].kinds

    def test_paper_rates_at_20ms(self):
        slots = make_schedule(RATES, 1.0)
        tick = slots[4]
        assert tick.t == pytest.approx(0.02)
        assert SensorKind.IMU in tick.kinds
        assert SensorKind.PITOT in tick.kinds
        assert SensorKind.MAG in tick.kinds
        assert SensorKind.BARO not in tick.kinds

    def test_slots_sit_on_tick_grid(self):
        rates = RATES
        slots = make_schedule(rates, 1.0)
        assert [s.t for s in slots] == tick_times(rates, 1.0).tolist()

    def test_sorted_and_gap_free(self):
        slots = make_schedule(RATES, 2.0)
        ts = np.array([s.t for s in slots])
        np.testing.assert_allclose(np.diff(ts), 1.0 / 200.0, atol=1e-12)
        assert all(SensorKind.IMU in s.kinds for s in slots)


class TestSubstreams:
    def test_streams_are_independent(self):
        # consuming extra baro draws must not perturb the IMU stream
        imu_a = substream(0, 0, 0).standard_normal(10)
        baro = substream(0, 0, 3)
        baro.standard_normal(1000)
        imu_b = substream(0, 0, 0).standard_normal(10)
        np.testing.assert_array_equal(imu_a, imu_b)

    def test_runs_differ(self):
        a = substream(0, 0, 0).standard_normal(4)
        b = substream(0, 1, 0).standard_normal(4)
        assert not np.allclose(a, b)
