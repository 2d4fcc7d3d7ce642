"""Command-line interface: scenario files, sweeps, tables.

The module is I/O only. Scenario files are INI documents with sections
``[protocol]``, ``[loss]``, ``[force]``, and ``[run]`` whose keys mirror the
corresponding dataclass fields. Rates in ``[loss]`` are entered in Hz
(ordinary frequency, the way instrument settings are quoted) and converted to
angular rates exactly once at parse time. The presence of a ``[loss]``
section selects the lossy pipeline; ``[force]`` requires ``[loss]``. The
check suite behind ``validate`` lives in :mod:`kerrcat.validation`.

The same Hz convention holds for ``sweep --values`` on the rate axes
(``kappa``, ``gamma``, ``g``, ``lambda_kerr``): values are read as Hz and
echoed back as Hz in the ``axis_value`` column of the output table.

Exit codes: 0 success, 1 validation failure, 2 usage or parse error,
3 physical-precondition error (e.g. an overdamped transfer).
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import dataclasses
import io
import json
import math
import sys

import click
import numpy as np

from kerrcat.constants import hbar, k_boltzmann
from kerrcat.loss import (
    LossParams,
    OverdampedTransferError,
    emission_probability,
    reference_loss_params,
    thermal_occupation,
)
from kerrcat.montecarlo import (
    SWEEP_AXES,
    ExperimentConfig,
    ForceSpec,
    predicted_signal,
    run_experiment,
    sweep as run_sweep,
)
from kerrcat.protocol import ProtocolParams
from kerrcat.validation import validation_rows

__all__ = ["main", "parse_scenario", "serialize_scenario", "ScenarioError"]

TWO_PI = 2.0 * math.pi

# Sweep axes whose values are quoted in Hz at the CLI (like the INI [loss]
# keys) and converted to angular rates before reaching the library.
_RATE_AXES = frozenset({"kappa", "gamma", "g", "lambda_kerr"})

_SECTION_KEYS = {
    "protocol": {"alpha0", "delta", "apply_offset", "truncation"},
    "loss": {"kappa", "gamma", "g", "omega_m", "lambda_kerr", "temp"},
    "force": {"shape", "amplitude", "phase", "samples"},
    "run": {"shots", "seed", "engine"},
}


class ScenarioError(ValueError):
    """A scenario document is malformed (unknown key, bad value, bad combo)."""


def _parse_complex(raw: str, context: str) -> complex:
    text = raw.strip().replace(" ", "")
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    try:
        return complex(text)
    except ValueError as exc:
        raise ScenarioError(f"{context}: cannot parse complex number {raw!r}") from exc


def _parse_float(raw: str, context: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ScenarioError(f"{context}: cannot parse number {raw!r}") from exc


def _parse_int(raw: str, context: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ScenarioError(f"{context}: cannot parse integer {raw!r}") from exc


def _parse_bool(raw: str, context: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    key = raw.strip().lower()
    if key not in states:
        raise ScenarioError(f"{context}: cannot parse boolean {raw!r}")
    return states[key]


def _parse_samples(raw: str, context: str) -> tuple[tuple[float, float], ...]:
    pairs = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ScenarioError(f"{context}: sample entries must look like time:value, got {chunk!r}")
        t_str, f_str = chunk.split(":", 1)
        pairs.append((_parse_float(t_str, context), _parse_float(f_str, context)))
    if not pairs:
        raise ScenarioError(f"{context}: empty samples table")
    return tuple(pairs)


def parse_scenario(text: str) -> ExperimentConfig:
    """Parse an INI scenario document into an ``ExperimentConfig``.

    Unknown sections or keys are rejected with their location. Rates in
    ``[loss]`` are Hz and converted to rad/s here, exactly once.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"scenario is not valid INI: {exc}") from exc

    for section in cp.sections():
        if section not in _SECTION_KEYS:
            raise ScenarioError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SECTION_KEYS[section]:
                raise ScenarioError(f"unknown key {key!r} in section [{section}]")

    if not cp.has_section("protocol"):
        raise ScenarioError("missing required section [protocol]")
    proto = cp["protocol"]
    if "alpha0" not in proto:
        raise ScenarioError("[protocol] is missing the required key 'alpha0'")
    truncation = None
    if "truncation" in proto:
        truncation = _parse_int(proto["truncation"], "[protocol] truncation")
        if truncation < 2:
            raise ScenarioError("[protocol] truncation must be at least 2")
    try:
        protocol = ProtocolParams(
            alpha0=_parse_complex(proto["alpha0"], "[protocol] alpha0"),
            delta=_parse_float(proto.get("delta", "0"), "[protocol] delta"),
            apply_offset=_parse_bool(proto.get("apply_offset", "false"), "[protocol] apply_offset"),
            truncation=truncation,
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"[protocol]: {exc}") from exc

    loss = None
    if cp.has_section("loss"):
        section = cp["loss"]
        values = {}
        for key in ("kappa", "gamma", "g", "omega_m", "lambda_kerr"):
            if key not in section:
                raise ScenarioError(f"[loss] is missing the required key {key!r}")
            hz = _parse_float(section[key], f"[loss] {key}")
            if hz < 0.0:
                raise ScenarioError(f"[loss] {key} must be non-negative, got {hz:g}")
            values[key] = TWO_PI * hz
        temp = _parse_float(section.get("temp", "0"), "[loss] temp")
        if temp < 0.0:
            raise ScenarioError(f"[loss] temp must be non-negative, got {temp:g}")
        try:
            loss = LossParams(temp=temp, **values)
        except OverdampedTransferError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"[loss]: {exc}") from exc

    force_spec = None
    if cp.has_section("force"):
        if loss is None:
            raise ScenarioError("[force] requires a [loss] section (the kick filter is defined by the swap)")
        section = cp["force"]
        if "shape" not in section or "amplitude" not in section:
            raise ScenarioError("[force] requires the keys 'shape' and 'amplitude'")
        samples = None
        if "samples" in section:
            samples = _parse_samples(section["samples"], "[force] samples")
        try:
            force_spec = ForceSpec(
                shape=section["shape"].strip(),
                amplitude=_parse_float(section["amplitude"], "[force] amplitude"),
                phase=_parse_float(section.get("phase", "0"), "[force] phase"),
                samples=samples,
            )
        except ValueError as exc:
            raise ScenarioError(f"[force]: {exc}") from exc

    run = cp["run"] if cp.has_section("run") else {}
    try:
        return ExperimentConfig(
            protocol=protocol,
            loss=loss,
            force_spec=force_spec,
            shots=_parse_int(run.get("shots", "10000"), "[run] shots"),
            seed=_parse_int(run.get("seed", "0"), "[run] seed"),
            engine=run.get("engine", "analytic").strip(),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"[run]: {exc}") from exc


def load_scenario(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario(text)


def _to_hz(rad_per_s: float) -> float:
    """Hz value whose parse reproduces the stored angular rate exactly."""
    hz = rad_per_s / TWO_PI
    for candidate in (hz, np.nextafter(hz, 0.0), np.nextafter(hz, math.inf)):
        if candidate * TWO_PI == rad_per_s:
            return float(candidate)
    return hz


def _fmt_complex(value: complex) -> str:
    if value.imag == 0.0:
        return repr(value.real)
    sign = "+" if value.imag >= 0 else "-"
    return f"{value.real!r}{sign}{abs(value.imag)!r}j"


def serialize_scenario(config: ExperimentConfig) -> str:
    """Render a config back into scenario INI text (inverse of parse)."""
    cp = configparser.ConfigParser()
    p = config.protocol
    cp["protocol"] = {
        "alpha0": _fmt_complex(complex(p.alpha0)),
        "delta": repr(p.delta),
        "apply_offset": "true" if p.apply_offset else "false",
    }
    if p.truncation is not None:
        cp["protocol"]["truncation"] = str(p.truncation)
    if config.loss is not None:
        lp = config.loss
        cp["loss"] = {
            "kappa": repr(_to_hz(lp.kappa)),
            "gamma": repr(_to_hz(lp.gamma)),
            "g": repr(_to_hz(lp.g)),
            "omega_m": repr(_to_hz(lp.omega_m)),
            "lambda_kerr": repr(_to_hz(lp.lambda_kerr)),
            "temp": repr(lp.temp),
        }
    if config.force_spec is not None:
        fs = config.force_spec
        cp["force"] = {"shape": fs.shape, "amplitude": repr(fs.amplitude), "phase": repr(fs.phase)}
        if fs.samples is not None:
            cp["force"]["samples"] = ",".join(f"{t!r}:{f!r}" for t, f in fs.samples)
    cp["run"] = {"shots": str(config.shots), "seed": str(config.seed), "engine": config.engine}
    out = io.StringIO()
    cp.write(out)
    return out.getvalue()


def default_config() -> ExperimentConfig:
    """Ideal working-point scenario used when no --config is given."""
    return ExperimentConfig(
        protocol=ProtocolParams(alpha0=2.0, delta=0.0, apply_offset=True),
        shots=10_000,
        seed=0,
    )


def _scenario(config_path: str | None, **overrides) -> ExperimentConfig:
    """The scenario file (or ``default_config()``) with the non-None overrides applied."""
    config = default_config() if config_path is None else load_scenario(config_path)
    for name, value in overrides.items():
        if value is not None:
            config = dataclasses.replace(config, **{name: value})
    return config


@contextlib.contextmanager
def _exit_codes():
    """Map library errors to exit codes: 3 for a physical precondition, 2 for bad input."""
    try:
        yield
    except OverdampedTransferError as exc:
        click.echo(f"physical precondition failed: {exc}", err=True)
        sys.exit(3)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


@click.group()
def main() -> None:
    """Simulator and analysis toolkit for superposition-enhanced force sensing."""


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None, help="Scenario INI file.")
@click.option("--tolerance", type=float, default=None, help="Override every row tolerance.")
@_exit_codes()
def validate(config_path: str | None, tolerance: float | None) -> None:
    """Run the analytic-vs-numeric validation suite; exit 1 on any failure."""
    rows = validation_rows(_scenario(config_path), tolerance)
    header = f"{'check':<38} {'analytic':>24} {'numeric':>24} {'|diff|':>12} {'tol':>10} {'status':>6}"
    click.echo(header)
    click.echo("-" * len(header))
    for row in rows:
        click.echo(
            f"{row.name:<38} {row.analytic:>24.17g} {row.numeric:>24.17g}"
            f" {row.diff:>12.3g} {row.tolerance:>10.3g} {'PASS' if row.passed else 'FAIL':>6}"
        )
    passed = sum(row.passed for row in rows)
    click.echo(f"{passed}/{len(rows)} checks passed")
    if passed < len(rows):
        sys.exit(1)


@main.command(name="sweep")
@click.option("--config", "config_path", type=click.Path(), default=None, help="Scenario INI file.")
@click.option("--axis", required=True, type=click.Choice(SWEEP_AXES), help="Parameter to sweep.")
@click.option(
    "--values",
    required=True,
    help="Comma-separated numeric values (rate axes kappa/gamma/g/lambda_kerr in Hz).",
)
@click.option("--out", "out_path", required=True, type=click.Path(), help="Output file path.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--seed", type=int, default=None, help="Override the master seed.")
@click.option("--shots", type=int, default=None, help="Override shots per cell.")
@click.option("--engine", type=click.Choice(["analytic", "brute-force"]), default=None)
@_exit_codes()
def sweep_cmd(config_path, axis, values, out_path, fmt, seed, shots, engine) -> None:
    """Sweep one parameter and write a plot-ready table (CSV or JSON)."""
    base = _scenario(config_path, seed=seed, shots=shots, engine=engine)
    parsed_values = [float(v) for v in values.split(",") if v.strip()]
    if not parsed_values:
        raise click.UsageError("sweep needs at least one value")
    # Rate axes are quoted in Hz at the CLI, like the INI [loss] keys.
    scale = TWO_PI if axis in _RATE_AXES else 1.0
    rows = run_sweep(axis, [scale * v for v in parsed_values], base)

    columns = ["axis_value", "m_counts", "M", "S", "sigma_S", "S_analytic", "P_emission", "seed"]
    records = [
        {
            # Echo the value as the user entered it (Hz for rate axes).
            "axis_value": user_value,
            "m_counts": row.estimate.m_counts,
            "M": row.estimate.M,
            "S": row.estimate.S,
            "sigma_S": row.estimate.sigma_S,
            "S_analytic": row.S_analytic,
            "P_emission": row.P_emission,
            "seed": row.estimate.seed,
        }
        for user_value, row in zip(parsed_values, rows)
    ]
    try:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            if fmt == "csv":
                writer = csv.writer(fh)
                writer.writerow(columns)
                for rec in records:
                    cells = [rec[name] for name in columns]
                    writer.writerow(["%.17g" % v if isinstance(v, float) else v for v in cells])
            else:
                json.dump({"columns": columns, "rows": records}, fh, indent=2)
                fh.write("\n")
    except OSError as exc:
        raise click.UsageError(f"cannot write output file {out_path}: {exc}")
    click.echo(f"wrote {len(records)} rows to {out_path}")


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None, help="Scenario INI file.")
@click.option("--seed", type=int, default=None, help="Override the master seed.")
@click.option("--shots", type=int, default=None, help="Override the shot count.")
@click.option("--engine", type=click.Choice(["analytic", "brute-force"]), default=None)
@_exit_codes()
def shots(config_path, seed, shots, engine) -> None:
    """Run one shot-level experiment and print the signal estimate."""
    config = _scenario(config_path, seed=seed, shots=shots, engine=engine)
    estimate = run_experiment(config)
    s_analytic, p_emit = predicted_signal(config)
    click.echo(f"m_counts    = {estimate.m_counts}")
    click.echo(f"M           = {estimate.M}")
    click.echo(f"S           = {estimate.S:.17g}")
    click.echo(f"sigma_S     = {estimate.sigma_S:.17g}")
    click.echo(f"S_analytic  = {s_analytic:.17g}")
    click.echo(f"P_emission  = {p_emit:.17g}")
    click.echo(f"seed        = {estimate.seed}")
    click.echo(f"digest      = {estimate.params_digest}")


@main.command()
def params() -> None:
    """Print the reference hardware rates and every derived quantity."""
    lp = reference_loss_params()
    alpha = 1.5
    temp_50 = hbar * lp.omega_m / (k_boltzmann * math.log(51.0 / 50.0))
    rows = [
        ("omega_m/2pi", lp.omega_m / TWO_PI, "Hz"),
        ("gamma/2pi", lp.gamma / TWO_PI, "Hz"),
        ("kappa/2pi", lp.kappa / TWO_PI, "Hz"),
        ("g/2pi", lp.g / TWO_PI, "Hz"),
        ("lambda_kerr/2pi", lp.lambda_kerr / TWO_PI, "Hz"),
        ("nu/2pi", lp.nu / TWO_PI, "Hz"),
        ("T_swap", lp.T_swap, "s"),
        ("tau_kerr", lp.tau_kerr, "s"),
        ("Gamma*T_swap", lp.Gamma * lp.T_swap, ""),
        ("gamma*T_swap", lp.gamma * lp.T_swap, ""),
        ("kappa*tau_kerr", lp.kappa * lp.tau_kerr, ""),
        ("xi", lp.xi, ""),
        ("eta", lp.eta, ""),
        (f"P(alpha={alpha:g})", emission_probability(alpha, lp), ""),
        ("temp(n_bar=50)", temp_50, "K"),
        ("n_bar(temp)", thermal_occupation(lp.omega_m, temp_50), ""),
    ]
    for name, value, unit in rows:
        click.echo(f"{name:<16} {value:>24.17g} {unit}")


if __name__ == "__main__":
    main()
