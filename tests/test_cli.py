"""Tests for scenario parsing, the CLI commands, and their exit codes."""

from __future__ import annotations

import dataclasses
import json
import math
import re
import warnings

import pytest
from click.testing import CliRunner

from _support import TWO_PI
from kerrcat.cli import ScenarioError, default_config, main, parse_scenario, serialize_scenario
from kerrcat import cli, montecarlo
from kerrcat.loss import ForceSpec, LossParams, momentum_kick_stats, reference_loss_params
from kerrcat.montecarlo import ExperimentConfig
from kerrcat.protocol import ProtocolParams
from kerrcat.validation import validation_rows

IDEAL_SCENARIO = """\
[protocol]
alpha0 = 2.0
delta = 0.01
apply_offset = true

[run]
shots = 2000
seed = 7
engine = analytic
"""

LOSSY_SCENARIO = """\
[protocol]
alpha0 = 1.5
delta = 0.0
apply_offset = true

[loss]
kappa = 100e3
gamma = 10
g = 500e3
omega_m = 10e6
lambda_kerr = 7e6
temp = 0.0

[run]
shots = 1000
seed = 3
"""

OVERDAMPED_SCENARIO = """\
[protocol]
alpha0 = 1.0

[loss]
kappa = 500e3
gamma = 10
g = 100e3
omega_m = 10e6
lambda_kerr = 7e6
"""

SAMPLED_FORCE = LOSSY_SCENARIO + "[force]\nshape = custom-samples\namplitude = 1\n"


class TestParseScenario:
    def test_ideal_scenario_fields(self):
        cfg = parse_scenario(IDEAL_SCENARIO)
        assert cfg.protocol == ProtocolParams(alpha0=2.0, delta=0.01, apply_offset=True)
        assert cfg.loss is None
        assert cfg.force_spec is None
        assert cfg.shots == 2000
        assert cfg.seed == 7
        assert cfg.engine == "analytic"

    def test_rates_converted_from_hz_once(self):
        cfg = parse_scenario(LOSSY_SCENARIO)
        assert cfg.loss is not None
        assert cfg.loss.kappa == pytest.approx(TWO_PI * 100e3, rel=1e-15)
        assert cfg.loss.gamma == pytest.approx(TWO_PI * 10.0, rel=1e-15)
        assert cfg.loss.g == pytest.approx(TWO_PI * 500e3, rel=1e-15)
        assert cfg.loss.omega_m == pytest.approx(TWO_PI * 10e6, rel=1e-15)
        assert cfg.loss.lambda_kerr == pytest.approx(TWO_PI * 7e6, rel=1e-15)

    def test_complex_alpha0(self):
        cfg = parse_scenario("[protocol]\nalpha0 = 1.5+0.25j\n")
        assert cfg.protocol.alpha0 == 1.5 + 0.25j

    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioError, match="unknown section"):
            parse_scenario(IDEAL_SCENARIO + "\n[extras]\nfoo = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            parse_scenario("[protocol]\nalpha0 = 1\ndetuning = 0.1\n")

    def test_missing_protocol_rejected(self):
        with pytest.raises(ScenarioError, match="protocol"):
            parse_scenario("[run]\nshots = 10\n")

    def test_missing_loss_key_rejected(self):
        bad = LOSSY_SCENARIO.replace("g = 500e3\n", "")
        with pytest.raises(ScenarioError, match="'g'"):
            parse_scenario(bad)

    def test_force_requires_loss(self):
        text = IDEAL_SCENARIO + "\n[force]\nshape = constant\namplitude = 1.0\n"
        with pytest.raises(ScenarioError, match="loss"):
            parse_scenario(text)

    def test_negative_rate_rejected(self):
        bad = LOSSY_SCENARIO.replace("gamma = 10", "gamma = -10")
        with pytest.raises(ScenarioError, match="non-negative"):
            parse_scenario(bad)

    def test_truncation_below_two_rejected(self):
        with pytest.raises(ScenarioError, match="truncation must be an integer of at least 2"):
            parse_scenario(IDEAL_SCENARIO.replace("alpha0 = 2.0", "alpha0 = 2.0\ntruncation = 1"))

    def test_bad_number_rejected(self):
        with pytest.raises(ScenarioError, match="parse"):
            parse_scenario("[protocol]\nalpha0 = two\n")

    def test_bad_ini_rejected(self):
        with pytest.raises(ScenarioError, match="INI"):
            parse_scenario("alpha0 = 2.0 with no section header\n")

    def test_force_section_parsed(self):
        text = LOSSY_SCENARIO + "\n[force]\nshape = resonant-cosine\namplitude = 2.5\nphase = 0.1\n"
        cfg = parse_scenario(text)
        assert cfg.force_spec == ForceSpec(shape="resonant-cosine", amplitude=2.5, phase=0.1)

    def test_custom_samples_parsed(self):
        text = (
            LOSSY_SCENARIO
            + "\n[force]\nshape = custom-samples\namplitude = 1.0\nsamples = 0:0, 1e-7:2.5, 2e-7:0\n"
        )
        cfg = parse_scenario(text)
        assert cfg.force_spec.samples == ((0.0, 0.0), (1e-7, 2.5), (2e-7, 0.0))

    def test_schema_keys_are_the_dataclass_fields(self):
        # A new dataclass field cannot be left out of scenario files.
        def keys(cls, exclude=()):
            fields = [f for f in dataclasses.fields(cls) if f.init and f.name not in exclude]
            no_default = dataclasses.MISSING
            required = {f.name for f in fields if f.default is no_default and f.default_factory is no_default}
            return required, {f.name for f in fields}

        expected = {
            "protocol": keys(ProtocolParams),
            "loss": keys(LossParams),
            "force": keys(ForceSpec),
            "run": keys(ExperimentConfig, exclude=("protocol", "loss", "force_spec")),
        }
        assert {name: (required, set(codecs)) for name, (required, codecs) in cli._SCHEMA.items()} == expected

    @pytest.mark.parametrize(
        "text, where",
        [
            (SAMPLED_FORCE + "samples = ,\n", "[force]"),
            (SAMPLED_FORCE + "samples = 0:0, 1\n", "[force] samples"),
            (IDEAL_SCENARIO.replace("= true", "= maybe"), "[protocol] apply_offset"),
            (LOSSY_SCENARIO + "[force]\nshape = constant\n", "[force]"),
            (LOSSY_SCENARIO.replace("temp = 0.0", "temp = -1"), "[loss]"),
            (IDEAL_SCENARIO.replace("delta", "truncation = 2.5\ndelta"), "[protocol] truncation"),
        ],
        ids=["empty-samples", "sample-without-colon", "bad-boolean", "missing-amplitude", "negative-temp",
             "fractional-truncation"],
    )
    def test_malformed_value_names_its_section(self, text, where):
        with pytest.raises(ScenarioError, match=re.escape(where)):
            parse_scenario(text)


class TestSerializeScenario:
    def test_round_trip_ideal(self):
        cfg = parse_scenario(IDEAL_SCENARIO)
        assert parse_scenario(serialize_scenario(cfg)) == cfg

    def test_round_trip_lossy(self):
        cfg = parse_scenario(LOSSY_SCENARIO)
        assert parse_scenario(serialize_scenario(cfg)) == cfg

    def test_round_trip_with_force_and_truncation(self):
        text = (
            LOSSY_SCENARIO.replace("alpha0 = 1.5", "alpha0 = 1.5+0.1j\ntruncation = 40")
            + "\n[force]\nshape = custom-samples\namplitude = 1.5\nsamples = 0:0,1e-7:1\n"
        )
        cfg = parse_scenario(text)
        again = parse_scenario(serialize_scenario(cfg))
        assert again == cfg

    def test_round_trip_programmatic_config(self):
        cfg = ExperimentConfig(
            protocol=ProtocolParams(alpha0=1.25, delta=-0.02, apply_offset=True),
            loss=reference_loss_params(),
            shots=123,
            seed=9,
            engine="brute-force",
        )
        assert parse_scenario(serialize_scenario(cfg)) == cfg

    def test_serialization_idempotent(self):
        cfg = parse_scenario(LOSSY_SCENARIO)
        text = serialize_scenario(cfg)
        assert serialize_scenario(parse_scenario(text)) == text


class TestValidationRows:
    def test_default_scenario_all_pass(self):
        rows = validation_rows(default_config())
        assert rows
        assert all(row.passed for row in rows)

    def test_lossy_rows_present_and_pass(self):
        cfg = parse_scenario(LOSSY_SCENARIO)
        rows = validation_rows(cfg)
        names = [row.name for row in rows]
        assert any("lossy_mean" in name for name in names)
        assert any("peak_contraction" in name for name in names)
        assert all(row.passed for row in rows), [r.name for r in rows if not r.passed]

    def test_zero_tolerance_fails_some_row(self):
        rows = validation_rows(default_config(), tolerance=0.0)
        assert any(not row.passed for row in rows)

    @staticmethod
    def kick_variance_row():
        rows = validation_rows(parse_scenario(LOSSY_SCENARIO))
        return next(row for row in rows if row.name.startswith("kick_variance"))

    def test_kick_variance_row_catches_a_relative_error_of_1e_9(self, monkeypatch):
        def scaled(force, lp):
            stats = momentum_kick_stats(force, lp)
            return dataclasses.replace(stats, variance=stats.variance * (1.0 + 1e-9))

        monkeypatch.setattr("kerrcat.validation.momentum_kick_stats", scaled)
        assert not self.kick_variance_row().passed

    def test_kick_variance_row_fails_when_its_quadrature_does_not_converge(self, monkeypatch):
        import scipy.integrate

        quad = scipy.integrate.quad

        def unconverged_qawo(*args, **kwargs):
            if "weight" in kwargs:
                return 0.0, 1.0, {}, "The maximum number of subdivisions (50) has been achieved."
            return quad(*args, **kwargs)

        monkeypatch.setattr(scipy.integrate, "quad", unconverged_qawo)
        assert not self.kick_variance_row().passed


class TestCommands:
    def setup_method(self):
        self.runner = CliRunner()

    def test_validate_default_passes(self):
        result = self.runner.invoke(main, ["validate"])
        assert result.exit_code == 0, result.output
        assert "PASS" in result.output
        assert "FAIL" not in result.output

    def test_validate_zero_tolerance_exits_one(self):
        result = self.runner.invoke(main, ["validate", "--tolerance", "0"])
        assert result.exit_code == 1
        assert "FAIL" in result.output

    def test_validate_lossy_scenario(self, tmp_path):
        path = tmp_path / "lossy.ini"
        path.write_text(LOSSY_SCENARIO)
        result = self.runner.invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 0, result.output
        assert "lossy_mean" in result.output

    def test_overdamped_scenario_exits_three(self, tmp_path):
        path = tmp_path / "overdamped.ini"
        path.write_text(OVERDAMPED_SCENARIO)
        result = self.runner.invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 3
        assert "physical precondition" in result.output

    def test_validate_strong_transfer_loss_passes(self, tmp_path):
        # At g = 40 kHz the transfer keeps xi ~ 0.08, so the no-emission peak
        # sits at x ~ -0.12, inside the -0.2 < x < 0 band.
        path = tmp_path / "weak_coupling.ini"
        path.write_text(LOSSY_SCENARIO.replace("g = 500e3", "g = 40e3").replace("temp = 0.0", "temp = 0.05"))
        result = self.runner.invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output

    @pytest.mark.parametrize(
        "g, alpha0", [("40e3", "0.5"), ("32e3", "1.5"), ("26e3", "0.5"), ("25.5e3", "0.5")]
    )
    def test_validate_small_density_peak_passes(self, tmp_path, g, alpha0):
        # The peak targets xi*eta^2*alpha run from 0.040 down to 7.6e-8; the row holds them to 1e-12 relative.
        path = tmp_path / "small_peak.ini"
        path.write_text(LOSSY_SCENARIO.replace("g = 500e3", f"g = {g}").replace("alpha0 = 1.5", f"alpha0 = {alpha0}"))
        result = self.runner.invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output

    @pytest.mark.parametrize("force", ["", "[force]\nshape = resonant-cosine\namplitude = 1e5\nphase = 0.3\n"])
    @pytest.mark.parametrize("g", ["26e3", "25.5e3"])
    def test_shots_near_the_overdamped_edge(self, tmp_path, g, force):
        # The swap lasts ~700 mechanical periods; the kick statistics still converge.
        path = tmp_path / "edge.ini"
        text = LOSSY_SCENARIO.replace("g = 500e3", f"g = {g}").replace("alpha0 = 1.5", "alpha0 = 0.5")
        path.write_text(text.replace("temp = 0.0", "temp = 0.05") + force)
        result = self.runner.invoke(main, ["shots", "--config", str(path)])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize(
        "g, force",
        [
            (
                "500e3",
                "[force]\nshape = custom-samples\namplitude = 1e5\nsamples = "
                + ",".join(f"{t!r}:{math.sin(3e7 * t)!r}" for t in (1.2e-6 * i / 39 for i in range(40)))
                + "\n",
            ),
            ("27e3", "[force]\nshape = constant\namplitude = 8e4\n"),
        ],
        ids=["forty-sample-sine", "constant-at-27kHz"],
    )
    def test_shots_with_a_force_adaptive_quadrature_could_not_integrate(self, tmp_path, g, force):
        # Both exited 1 while the kick mean was an adaptive quadrature that reported round-off.
        path = tmp_path / "forced.ini"
        path.write_text(LOSSY_SCENARIO.replace("g = 500e3", f"g = {g}").replace("temp = 0.0", "temp = 0.05") + force)
        result = self.runner.invoke(main, ["shots", "--config", str(path)])
        assert result.exit_code == 0, result.output
        assert re.search(r"m_counts\s*=\s*\d+", result.output)

    def test_shots_with_a_phase_on_a_constant_force_exits_two(self, tmp_path):
        path = tmp_path / "phased.ini"
        path.write_text(LOSSY_SCENARIO + "[force]\nshape = constant\namplitude = 8e4\nphase = 0.3\n")
        result = self.runner.invoke(main, ["shots", "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert "phase is only meaningful for resonant-cosine" in result.output

    @pytest.mark.parametrize("tolerance", ["inf", "nan", "-1"])
    def test_validate_bad_tolerance_exits_two(self, tolerance):
        result = self.runner.invoke(main, ["validate", "--tolerance", tolerance])
        assert result.exit_code == 2, result.output
        assert "tolerance must be finite and non-negative" in result.output
        assert "checks passed" not in result.output

    def test_validate_value_error_exits_two(self, monkeypatch):
        # validate shares the other commands' exit-code mapping: a ValueError
        # from the library is a usage error with its message, not a traceback.
        def fail(config, tolerance):
            raise ValueError("no such regime")

        monkeypatch.setattr("kerrcat.cli.validation_rows", fail)
        result = self.runner.invoke(main, ["validate"])
        assert result.exit_code == 2
        assert "no such regime" in result.output

    def test_unknown_key_exits_two(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[protocol]\nalpha0 = 1\nwhat = 2\n")
        result = self.runner.invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 2

    def test_missing_config_file_exits_two(self):
        result = self.runner.invoke(main, ["validate", "--config", "/no/such/file.ini"])
        assert result.exit_code == 2

    def test_sweep_csv_output(self, tmp_path):
        out = tmp_path / "sweep.csv"
        args = [
            "sweep",
            "--axis",
            "delta",
            "--values",
            "-0.01,0,0.01",
            "--out",
            str(out),
            "--shots",
            "500",
        ]
        result = self.runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        raw = out.read_bytes()
        text = raw.decode("utf-8")
        lines = text.strip().split("\r\n")
        assert lines[0] == "axis_value,m_counts,M,S,sigma_S,S_analytic,P_emission,seed"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == -0.01
        assert int(first[2]) == 500
        # reruns are byte-identical
        out2 = tmp_path / "sweep2.csv"
        args2 = args[:-4] + ["--out", str(out2), "--shots", "500"]
        result2 = self.runner.invoke(main, args2)
        assert result2.exit_code == 0
        assert out2.read_bytes() == raw

    def test_sweep_json_output(self, tmp_path):
        out = tmp_path / "sweep.json"
        result = self.runner.invoke(
            main,
            ["sweep", "--axis", "alpha", "--values", "1,2", "--out", str(out), "--format", "json", "--shots", "200"],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["columns"][0] == "axis_value"
        assert len(payload["rows"]) == 2
        assert payload["rows"][0]["axis_value"] == 1.0
        assert payload["rows"][0]["M"] == 200
        assert payload["rows"][1]["seed"] == payload["rows"][0]["seed"] + 1

    def test_sweep_rate_axis_values_are_hz(self, tmp_path):
        # Sweeping kappa over the INI's own Hz value must reproduce the
        # unmodified configuration: CLI rate values are Hz, not rad/s.
        from kerrcat.loss import emission_probability

        cfg = tmp_path / "lossy.ini"
        cfg.write_text(LOSSY_SCENARIO)
        out = tmp_path / "kappa.json"
        result = self.runner.invoke(
            main,
            [
                "sweep",
                "--config",
                str(cfg),
                "--axis",
                "kappa",
                "--values",
                "100e3",
                "--out",
                str(out),
                "--format",
                "json",
                "--shots",
                "100",
            ],
        )
        assert result.exit_code == 0, result.output
        row = json.loads(out.read_text())["rows"][0]
        assert row["axis_value"] == 100e3  # echoed back in Hz
        params = parse_scenario(LOSSY_SCENARIO).loss
        assert params.kappa == pytest.approx(TWO_PI * 100e3, rel=1e-15)
        assert row["P_emission"] == pytest.approx(
            emission_probability(1.5, params), rel=1e-12
        )

    def test_sweep_cell_emission_warning_reported_once(self, tmp_path):
        # kappa = 500 kHz puts the emission probability at ~0.505. The cell's
        # run and its prediction both reach the same warning; under the
        # "default" filter it must be shown once, not once per caller.
        cfg = tmp_path / "lossy.ini"
        cfg.write_text(LOSSY_SCENARIO)
        args = ["sweep", "--config", str(cfg), "--axis", "kappa", "--values", "500e3"]
        args += ["--out", str(tmp_path / "kappa.csv"), "--shots", "100"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            result = self.runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        emission = [w for w in caught if "emission probability exceeds 0.5" in str(w.message)]
        assert len(emission) == 1

    def test_sweep_empty_values_exits_two(self, tmp_path):
        out = tmp_path / "never.csv"
        result = self.runner.invoke(
            main, ["sweep", "--axis", "delta", "--values", " , ", "--out", str(out)]
        )
        assert result.exit_code == 2
        assert not out.exists()

    def test_sweep_invalid_axis_exits_two(self, tmp_path):
        result = self.runner.invoke(
            main,
            ["sweep", "--axis", "detuning", "--values", "1", "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2

    def test_sweep_loss_axis_without_loss_exits_two(self, tmp_path):
        result = self.runner.invoke(
            main,
            ["sweep", "--axis", "kappa", "--values", "1e5", "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2

    def test_sweep_unwritable_path_exits_two(self):
        result = self.runner.invoke(
            main,
            ["sweep", "--axis", "delta", "--values", "0", "--out", "/no/such/dir/x.csv", "--shots", "10"],
        )
        assert result.exit_code == 2

    def test_shots_command_reports_estimate(self, tmp_path):
        path = tmp_path / "ideal.ini"
        path.write_text(IDEAL_SCENARIO)
        result = self.runner.invoke(main, ["shots", "--config", str(path), "--shots", "400", "--seed", "11"])
        assert result.exit_code == 0, result.output
        fields = dict(
            line.split("=", 1) for line in result.output.strip().splitlines() if "=" in line
        )
        fields = {key.strip(): value.strip() for key, value in fields.items()}
        assert int(fields["M"]) == 400
        assert int(fields["seed"]) == 11
        m = int(fields["m_counts"])
        assert abs(float(fields["S"]) - (m / 400.0 - 0.5)) < 1e-12
        assert float(fields["sigma_S"]) == pytest.approx(1.0 / math.sqrt(1600.0), rel=1e-12)
        assert abs(float(fields["S_analytic"])) < 0.5
        assert float(fields["P_emission"]) == 0.0

    def test_shots_lossy_runs_the_kick_quadrature_once(self, tmp_path, monkeypatch):
        calls = []

        def spy(force, lp):
            calls.append(lp.temp)
            return momentum_kick_stats(force, lp)

        monkeypatch.setattr(montecarlo, "momentum_kick_stats", spy)
        path = tmp_path / "lossy.ini"
        path.write_text(LOSSY_SCENARIO)
        result = self.runner.invoke(main, ["shots", "--config", str(path), "--shots", "200"])
        assert result.exit_code == 0, result.output
        assert calls == [0.0]

    def test_shots_below_the_float_range_of_the_occupation(self, tmp_path):
        # At 1e-7 K exp(hbar*omega/(k*T)) overflows; the occupation is 0, as at 0 K.
        counts = []
        for temp in ("0.0", "1e-7"):
            path = tmp_path / f"cold_{temp}.ini"
            path.write_text(LOSSY_SCENARIO.replace("temp = 0.0", f"temp = {temp}"))
            result = self.runner.invoke(main, ["shots", "--config", str(path), "--shots", "500"])
            assert result.exit_code == 0, result.output
            counts.append(re.search(r"m_counts\s*=\s*(\d+)", result.output).group(1))
        assert counts[0] == counts[1]

    def test_temperature_beyond_the_float_range_of_the_occupation_exits_two(self, tmp_path):
        path = tmp_path / "hot.ini"
        path.write_text(LOSSY_SCENARIO.replace("temp = 0.0", "temp = 1e306"))
        result = self.runner.invoke(main, ["shots", "--config", str(path), "--shots", "500"])
        assert result.exit_code == 2, result.output
        assert "thermal occupation" in result.output

    def test_offset_without_kerr_stage_survival_exits_two(self, tmp_path):
        # lambda_kerr = 50 Hz at kappa = 100 kHz makes eta underflow to 0, so the offset is undefined.
        path = tmp_path / "slow_kerr.ini"
        path.write_text(LOSSY_SCENARIO.replace("lambda_kerr = 7e6", "lambda_kerr = 50"))
        with pytest.warns(UserWarning, match="emission probability"):
            result = self.runner.invoke(main, ["shots", "--config", str(path), "--shots", "100"])
        assert result.exit_code == 2, result.output
        assert "offset is undefined" in result.output

    def test_sweep_non_integral_shots_exits_two(self, tmp_path):
        out = tmp_path / "shots.csv"
        result = self.runner.invoke(
            main, ["sweep", "--axis", "shots", "--values", "1000.7,50.2", "--out", str(out)]
        )
        assert result.exit_code == 2
        assert "shots must be a whole number" in result.output
        assert not out.exists()

    def test_brute_force_kick_beyond_the_cap_exits_two(self, tmp_path):
        path = tmp_path / "kicked.ini"
        path.write_text(IDEAL_SCENARIO.replace("delta = 0.01", "delta = 100"))
        result = self.runner.invoke(main, ["shots", "--config", str(path), "--engine", "brute-force"])
        assert result.exit_code == 2
        assert "truncation <= 160" in result.output
        assert "Traceback" not in result.output

    def test_shots_deterministic_output(self):
        first = self.runner.invoke(main, ["shots", "--shots", "300", "--seed", "5"])
        second = self.runner.invoke(main, ["shots", "--shots", "300", "--seed", "5"])
        assert first.exit_code == 0
        assert first.output == second.output

    def test_shots_invalid_override_exits_two(self):
        # A bad value passed via --shots must become a usage error, not a
        # traceback: the override path shares the INI path's exit contract.
        result = self.runner.invoke(main, ["shots", "--shots", "-5"])
        assert result.exit_code == 2
        assert "shots must be at least 1" in result.output
        assert "Traceback" not in result.output

    def test_oversized_seed_exits_two(self):
        result = self.runner.invoke(main, ["shots", "--shots", "10", "--seed", str(10**400)])
        assert result.exit_code == 2, result.output
        assert "seed must be a 64-bit unsigned integer" in result.output

    def test_oversized_shots_in_scenario_exits_two(self, tmp_path):
        path = tmp_path / "huge.ini"
        path.write_text(IDEAL_SCENARIO.replace("shots = 2000", f"shots = {10**400}"))
        result = self.runner.invoke(main, ["shots", "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert "shots must be below 2**63" in result.output


class TestParamsCommand:
    def setup_method(self):
        self.runner = CliRunner()
        result = self.runner.invoke(main, ["params"])
        assert result.exit_code == 0, result.output
        self.rows = {}
        for line in result.output.strip().splitlines():
            parts = line.split()
            if len(parts) >= 2:
                self.rows[parts[0]] = float(parts[1])

    def test_reference_rates_echoed(self):
        assert self.rows["omega_m/2pi"] == pytest.approx(10e6, rel=1e-12)
        assert self.rows["kappa/2pi"] == pytest.approx(100e3, rel=1e-12)
        assert self.rows["gamma/2pi"] == pytest.approx(10.0, rel=1e-12)
        assert self.rows["g/2pi"] == pytest.approx(500e3, rel=1e-12)
        assert self.rows["lambda_kerr/2pi"] == pytest.approx(7e6, rel=1e-12)

    def test_derived_swap_quantities(self):
        g = TWO_PI * 500e3
        gamma_tot = (TWO_PI * 100e3 + TWO_PI * 10.0) / 4.0
        nu = math.sqrt(g * g - gamma_tot * gamma_tot)
        assert self.rows["nu/2pi"] == pytest.approx(nu / TWO_PI, rel=1e-12)
        assert self.rows["T_swap"] == pytest.approx(math.pi / nu, rel=1e-12)
        assert self.rows["Gamma*T_swap"] == pytest.approx(0.15729, abs=1e-4)
        assert self.rows["xi"] == pytest.approx(0.854456, abs=1e-5)
        assert self.rows["eta"] == pytest.approx(0.988843, abs=1e-5)

    def test_emission_probability_row(self):
        assert self.rows["P(alpha=1.5)"] == pytest.approx(0.101, abs=1e-3)

    def test_mechanical_decoherence_is_negligible(self):
        # gamma*T_swap at the reference rates is of order 1e-4.
        value = self.rows["gamma*T_swap"]
        assert 1e-5 < value < 1e-3
        assert value == pytest.approx(6.291e-5, abs=1e-7)

    def test_thermal_row_inverts_occupation(self):
        assert self.rows["n_bar(temp)"] == pytest.approx(50.0, rel=1e-9)
        assert 0.020 < self.rows["temp(n_bar=50)"] < 0.030
