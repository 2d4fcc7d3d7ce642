"""Command-line interface: scenario files, sweeps, tables.

The module is I/O only. Scenario files are INI documents with sections
``[protocol]``, ``[loss]``, ``[force]``, and ``[run]`` whose keys mirror the
corresponding dataclass fields; an absent key takes the field's default, and
the dataclasses check every range. Rates in ``[loss]`` are entered in Hz
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
    ForceSpec,
    LossParams,
    OverdampedTransferError,
    emission_probability,
    reference_loss_params,
    thermal_occupation,
)
from kerrcat.montecarlo import (
    SWEEP_AXES,
    ExperimentConfig,
    sweep as run_sweep,
)
from kerrcat.protocol import ProtocolParams
from kerrcat.validation import validation_rows

__all__ = ["main", "parse_scenario", "serialize_scenario", "ScenarioError"]

TWO_PI = 2.0 * math.pi


class ScenarioError(ValueError):
    """A scenario document is malformed (unknown key, bad value, bad combo)."""


def _parse_complex(raw: str) -> complex:
    text = raw.strip().replace(" ", "")
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    return complex(text)


def _parse_bool(raw: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    key = raw.strip().lower()
    if key not in states:
        raise ValueError("not a boolean")
    return states[key]


def _parse_samples(raw: str) -> tuple[tuple[float, float], ...]:
    pairs = []
    for chunk in filter(str.strip, raw.split(",")):
        time, colon, value = chunk.partition(":")
        if not colon:
            raise ValueError(f"sample entries must look like time:value, got {chunk.strip()!r}")
        pairs.append((float(time), float(value)))
    return tuple(pairs)


def _to_hz(rad_per_s: float) -> float:
    """Hz value whose parse reproduces the stored angular rate exactly."""
    hz = rad_per_s / TWO_PI
    for candidate in (hz, np.nextafter(hz, 0.0), np.nextafter(hz, math.inf)):
        if candidate * TWO_PI == rad_per_s:
            return float(candidate)
    return hz


def _fmt_complex(value: complex) -> str:
    value = complex(value)
    if value.imag == 0.0:
        return repr(value.real)
    sign = "+" if value.imag >= 0 else "-"
    return f"{value.real!r}{sign}{abs(value.imag)!r}j"


_FLOAT = (float, repr)
_INT = (int, str)
_TEXT = (str.strip, str)
# A rate quoted in Hz (ordinary frequency) and stored in rad/s.
_HZ = (lambda raw: TWO_PI * float(raw), lambda rate: repr(_to_hz(rate)))

# The scenario format: section -> (required keys, key -> (parse, render)). The keys are the
# dataclass fields; an absent optional key takes the dataclass default, and every range check
# lives in the dataclass.
_SCHEMA = {
    "protocol": (
        {"alpha0"},
        {
            "alpha0": (_parse_complex, _fmt_complex),
            "delta": _FLOAT,
            "apply_offset": (_parse_bool, lambda flag: str(flag).lower()),
            "truncation": _INT,
        },
    ),
    "loss": (
        {"kappa", "gamma", "g", "omega_m", "lambda_kerr"},
        {"kappa": _HZ, "gamma": _HZ, "g": _HZ, "omega_m": _HZ, "lambda_kerr": _HZ, "temp": _FLOAT},
    ),
    "force": (
        {"shape", "amplitude"},
        {
            "shape": _TEXT,
            "amplitude": _FLOAT,
            "phase": _FLOAT,
            "samples": (_parse_samples, lambda samples: ",".join(f"{t!r}:{f!r}" for t, f in samples)),
        },
    ),
    "run": (set(), {"shots": _INT, "seed": _INT, "engine": _TEXT}),
}

# Keys (and so sweep axes) quoted in Hz at the CLI.
_HZ_KEYS = frozenset(key for key, codec in _SCHEMA["loss"][1].items() if codec is _HZ)


def _section(cp: configparser.ConfigParser, name: str, build, **extra):
    """``build(**extra)`` with the keys present in section ``name``, parsed by ``_SCHEMA``."""
    required, codecs = _SCHEMA[name]
    section = cp[name] if cp.has_section(name) else {}
    for key in codecs:
        if key in required and key not in section:
            raise ScenarioError(f"[{name}] is missing the required key {key!r}")
    values = {}
    for key, raw in section.items():
        try:
            values[key] = codecs[key][0](raw)
        except ValueError as exc:
            raise ScenarioError(f"[{name}] {key}: cannot parse {raw!r} ({exc})") from exc
    try:
        return build(**values, **extra)
    except OverdampedTransferError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"[{name}]: {exc}") from exc


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
        if section not in _SCHEMA:
            raise ScenarioError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section][1]:
                raise ScenarioError(f"unknown key {key!r} in section [{section}]")

    if not cp.has_section("protocol"):
        raise ScenarioError("missing required section [protocol]")
    protocol = _section(cp, "protocol", ProtocolParams)
    loss = _section(cp, "loss", LossParams) if cp.has_section("loss") else None
    force_spec = None
    if cp.has_section("force"):
        if loss is None:
            raise ScenarioError("[force] requires a [loss] section (the kick filter is defined by the swap)")
        force_spec = _section(cp, "force", ForceSpec)
    return _section(cp, "run", ExperimentConfig, protocol=protocol, loss=loss, force_spec=force_spec)


def load_scenario(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario(text)


def serialize_scenario(config: ExperimentConfig) -> str:
    """Render a config back into scenario INI text (inverse of parse)."""
    cp = configparser.ConfigParser()
    sources = {"protocol": config.protocol, "loss": config.loss, "force": config.force_spec, "run": config}
    for name, source in sources.items():
        if source is not None:
            codecs = _SCHEMA[name][1]
            values = {key: getattr(source, key) for key in codecs}
            cp[name] = {key: codecs[key][1](value) for key, value in values.items() if value is not None}
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
    entries = values.split(",")
    if not all(entry.strip() for entry in entries):
        raise click.UsageError(f"--values has an empty entry: {values!r}")
    parsed_values = [float(v) for v in entries]
    # Rate axes are quoted in Hz at the CLI, like the INI [loss] keys.
    scale = TWO_PI if axis in _HZ_KEYS else 1.0
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
    # A one-cell sweep shares the kick statistics between the run and its prediction.
    row = run_sweep("shots", [config.shots], config)[0]
    estimate = row.estimate
    click.echo(f"m_counts    = {estimate.m_counts}")
    click.echo(f"M           = {estimate.M}")
    click.echo(f"S           = {estimate.S:.17g}")
    click.echo(f"sigma_S     = {estimate.sigma_S:.17g}")
    click.echo(f"S_analytic  = {row.S_analytic:.17g}")
    click.echo(f"P_emission  = {row.P_emission:.17g}")
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
