from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airnav import cli
from airnav.config import (
    _DEFAULTS,
    _STRING_KEYS,
    default_config,
    load_config,
    parse_config_text,
)
from airnav.dynamics import TrajectorySpec
from airnav.exceptions import ConfigParseError, ConfigValidationError


class TestDefaults:
    def test_empty_file_gives_reference_setup(self):
        cfg = parse_config_text("")
        paper = TrajectorySpec.paper()
        np.testing.assert_array_equal(cfg.trajectory.vel_amp, paper.vel_amp)
        assert cfg.trajectory.yaw_amp == paper.yaw_amp
        assert cfg.duration == 60.0
        assert cfg.runs == 20
        assert cfg.rates.f_imu == 200.0
        assert cfg.rates.f_pitot == 50.0
        assert cfg.rates.f_mag == 50.0
        assert cfg.rates.f_baro == 5.0
        np.testing.assert_allclose(cfg.weights.Qp, [[25.0]])
        np.testing.assert_allclose(cfg.weights.Qm, 0.01 * np.eye(3))
        assert cfg.weights.Qb == pytest.approx(0.25)
        np.testing.assert_allclose(
            cfg.weights.S, np.diag([0.01] * 3 + [0.1] * 3 + [0.01]))
        np.testing.assert_allclose(
            cfg.weights.P0, np.diag([0.1] * 3 + [0.25] * 3 + [1.0]))
        np.testing.assert_allclose(cfg.probes.B, [[1], [0], [0.0]])
        np.testing.assert_allclose(
            cfg.mag_ref.m_I, [1 / np.sqrt(2), 0, 1 / np.sqrt(2)])
        assert cfg.noise.sigma_gyro == 0.05
        assert cfg.noise.sigma_acc == 0.05
        np.testing.assert_allclose(cfg.noise.sigma_p, [0.5])
        np.testing.assert_allclose(cfg.noise.sigma_m, [0.01] * 3)
        assert cfg.noise.sigma_b == 0.05
        np.testing.assert_allclose(cfg.init.va0, [10.0, -2.0, 8.0])
        assert cfg.init.h0 == 10.0
        np.testing.assert_allclose(
            cfg.init.angles0, [np.pi / 20, -np.pi / 20, np.pi / 6])
        assert cfg.init.std_v == 2.0
        assert cfg.init.std_h == 1.0
        assert cfg.init.std_angle == pytest.approx(np.pi / 12)

    def test_default_config_equals_empty_file(self):
        a, b = default_config(), parse_config_text("")
        np.testing.assert_allclose(a.weights.P0, b.weights.P0)
        assert a.base_seed == b.base_seed
        assert a.q_convention == b.q_convention
        assert a.integrator == b.integrator


class TestParsing:
    def test_duration_override_keeps_rest(self):
        cfg = parse_config_text("duration = 40\n")
        assert cfg.duration == 40.0
        assert cfg.runs == 20

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text(
            "# full-line comment\n\nruns = 5  # trailing comment\n")
        assert cfg.runs == 5

    def test_vector_and_matrix_values(self):
        cfg = parse_config_text(
            "probes = [[1, 0, 0], [0, 1, 0]]\n"
            "sigma_pitot = [0.5, 0.4]\n"
            "q_pitot = [[2.0, 0.0], [0.0, 3.0]]\n")
        assert cfg.probes.m == 2
        np.testing.assert_allclose(cfg.weights.Qp, [[2, 0], [0, 3.0]])

    def test_string_keys(self):
        cfg = parse_config_text("trajectory = hover\nq_convention = precision\n"
                                "integrator = euler\n")
        np.testing.assert_array_equal(cfg.trajectory.vel_amp,
                                      TrajectorySpec.hover().vel_amp)
        assert cfg.trajectory.yaw_amp == 0.0
        assert cfg.q_convention == "precision"
        assert cfg.integrator == "euler"

    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config_text("runs = 3\nbogus_key = 1\n")
        assert err.value.line_no == 2

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigParseError):
            parse_config_text("runs 3\n")

    def test_malformed_vector_rejected(self):
        with pytest.raises(ConfigParseError):
            parse_config_text("sigma_mag = [0.01, oops]\n")

    def test_non_integer_runs_rejected(self):
        with pytest.raises(ConfigParseError):
            parse_config_text("runs = 2.5\n")

    def test_load_config_reads_file(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("duration = 10\nruns = 2\n", encoding="utf-8")
        cfg = load_config(path)
        assert cfg.duration == 10.0
        assert cfg.runs == 2


class TestValidation:
    def test_zero_runs_rejected(self):
        with pytest.raises(ConfigValidationError):
            parse_config_text("runs = 0\n")

    def test_bad_rate_rejected(self):
        with pytest.raises(ConfigValidationError):
            parse_config_text("f_pitot = 60\n")

    def test_bad_trajectory_rejected(self):
        with pytest.raises(ConfigValidationError):
            parse_config_text("trajectory = spiral\n")

    def test_bad_q_convention_rejected(self):
        with pytest.raises(ConfigValidationError):
            parse_config_text("q_convention = magic\n")

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigValidationError):
            parse_config_text("sigma_baro = -0.1\n")

    def test_collinear_mag_reference_rejected(self):
        with pytest.raises(ConfigValidationError):
            parse_config_text("mag_reference = [0, 0, 1]\n")

    def test_probe_sigma_length_mismatch(self):
        with pytest.raises(ConfigValidationError):
            parse_config_text("probes = [[1,0,0],[0,1,0]]\n")

    def test_non_positive_duration_rejected(self):
        # SimConfig holds the only copy of the run length
        for text in ("duration = 0\n", "duration = -1\n"):
            with pytest.raises(ConfigValidationError,
                               match="^duration must be positive"):
                parse_config_text(text)

    def test_negative_base_seed_rejected(self):
        with pytest.raises(ConfigValidationError):
            parse_config_text("base_seed = -1\n")

    @pytest.mark.parametrize("gravity", ["0", "1001", "1e160"])
    def test_gravity_outside_physical_range_rejected(self, gravity):
        with pytest.raises(ConfigValidationError, match="gravity"):
            parse_config_text(f"gravity = {gravity}\n")

    def test_with_overrides_validates(self):
        cfg = default_config()
        with pytest.raises(ConfigValidationError):
            replace(cfg, runs=0)


class TestNonFiniteInput:
    @pytest.mark.parametrize("text", [
        "duration = nan",
        "sigma_gyro = nan",
        "s_att = inf",
        "q_scale = nan",
        "runs = 1e400",
        "f_imu = inf",
        "init_h = -inf",
        "sigma_mag = [1e400, 0.01, 0.01]",
        "probes = [[1" + "0" * 400 + ", 0, 0]]",
    ])
    def test_rejected_at_parse(self, text):
        with pytest.raises(ConfigParseError) as err:
            parse_config_text(text + "\n")
        assert err.value.line_no == 1

    def test_rate_ratio_overflow_rejected(self):
        with pytest.raises(ConfigValidationError):
            parse_config_text("f_imu = 1e300\nf_pitot = 1e-300\n")

    def test_overflowing_weight_rejected(self):
        # finite inputs whose default Qp = q_scale * sigma^2 overflows
        for text in ("sigma_pitot = [1e200]", "q_scale = 1e300\n"
                     "sigma_baro = 1e10"):
            with pytest.raises(ConfigValidationError):
                parse_config_text(text + "\n")

    def test_vector_for_integer_key_rejected(self):
        with pytest.raises(ConfigParseError):
            parse_config_text("runs = [3]\n")

    @pytest.mark.parametrize("text", ["duration = 1e300", "duration = 5e16",
                                      "f_imu = 1e300\nf_pitot = 1e300\n"
                                      "f_mag = 1e300\nf_baro = 1e300"])
    def test_tick_grid_beyond_index_range_rejected(self, text):
        # floor(duration * f_imu) + 1 ticks cannot be indexed by np.intp
        with pytest.raises(ConfigValidationError):
            parse_config_text(text + "\n")

    @pytest.mark.parametrize("text", ["runs = 1e400", "f_imu = inf",
                                      "duration = 1e300", "duration = 1e15",
                                      "runs = 1e300"])
    def test_cli_exits_2(self, text, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(text + "\n", encoding="utf-8")
        assert cli.main(["simulate", "--config", str(path),
                         "--out", str(tmp_path)]) == 2

    def test_huge_gravity_exits_2_before_the_sweep(self, tmp_path, capsys):
        # at 1e160 the Gramian's entries overflow and eigvalsh fails
        path = tmp_path / "bad.cfg"
        path.write_text("gravity = 1e160\n", encoding="utf-8")
        assert cli.main(["observability", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: gravity ")
        assert err.count("\n") == 1


_NUMERIC_KEYS = sorted(k for k in _DEFAULTS if k not in _STRING_KEYS)

_number = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(min_value=-10**400, max_value=10**400).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "1e-400",
                     "0", "-0.0", "1e308", "5e-324"]),
)
_vector = st.lists(_number, max_size=4).map(
    lambda xs: "[" + ", ".join(xs) + "]")
_matrix = st.lists(st.lists(_number, min_size=1, max_size=3), min_size=1,
                   max_size=3).map(
    lambda rows: "[" + ", ".join("[" + ", ".join(r) + "]" for r in rows)
    + "]")


class TestFuzzedNumbers:
    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.sampled_from(_NUMERIC_KEYS),
                           st.one_of(_number, _vector, _matrix),
                           min_size=1, max_size=4))
    def test_only_config_errors_escape(self, assignments):
        text = "".join(f"{k} = {v}\n" for k, v in assignments.items())
        try:
            cfg = parse_config_text(text)
        except (ConfigParseError, ConfigValidationError):
            return
        w = cfg.weights
        assert np.isfinite(cfg.duration)
        for m in (w.Qp, w.Qm, w.Qb, w.S, w.P0):
            assert np.all(np.isfinite(m))
