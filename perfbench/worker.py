"""One run of one benchmark workload, in a process of its own.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH`` and the
BLAS thread count pinned in the environment. It reads the generated inputs
(a manifest and scenario files), measures its own set-up, then runs ops in a
closed loop (one client, each op starting after the previous one ended) for
the given number of seconds, checks every op's output, and writes a JSON
result file for ``run.py``.

With ``--repeat`` it runs its first op once more after the timed loop and
checks that the counts did not move. With ``--trace 1`` the first half of the
time runs untraced and the second half with the span recorder of
``spans.py`` installed.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import kerrcat  # noqa: E402
from kerrcat import cli, montecarlo  # noqa: E402

#: The exact-engine prediction ``(S, P_emission)``; it may become public.
_predicted_signal = getattr(montecarlo, "predicted_signal", None) or montecarlo._predicted_signal

#: An estimate agrees with the exact-engine prediction within this many sigma_S.
AGREEMENT_SIGMAS = 5.0

#: Columns of the sweep table, as documented in the README.
SWEEP_COLUMNS = ["axis_value", "m_counts", "M", "S", "sigma_S", "S_analytic", "P_emission", "seed"]


def _agreement(label: str, s: float, s_analytic: float, sigma: float) -> list[str]:
    if abs(s - s_analytic) <= AGREEMENT_SIGMAS * sigma:
        return []
    return [f"{label}: |S - S_analytic| = {abs(s - s_analytic):.3g} > {AGREEMENT_SIGMAS:g} sigma_S = {sigma:.3g}"]


class Workload:
    """Inputs of one workload and the ops run on them."""

    def __init__(self, manifest: dict, workdir: Path) -> None:
        self.workdir = workdir
        self.manifest = manifest
        self.paths = [str(workdir / name) for name in manifest["scenarios"]]
        self.configs = [cli.load_scenario(path) for path in self.paths]
        self.recorder = None

    def scenario(self, i: int):
        """Path and config of op ``i``; the inputs are reused cyclically."""
        j = i % len(self.paths)
        return self.paths[j], self.configs[j]

    def cli(self, args: list[str]) -> tuple[int, str]:
        """Invoke ``kerrcat <args>`` in-process; return exit code and stdout."""
        if self.recorder is not None and not self.recorder.paused:
            return self.recorder.call("cli", _invoke_cli, args)
        return _invoke_cli(args)


def _invoke_cli(args: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out):
        try:
            cli.main.main(args=args, prog_name="kerrcat", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


class BulkThermal(Workload):
    """One lossy thermal ``run_experiment`` per op; every kick is distinct."""

    def warm_up(self) -> None:
        kerrcat.run_experiment(dataclasses.replace(self.configs[0], shots=1000))

    def run_op(self, i: int):
        return kerrcat.run_experiment(self.scenario(i)[1])

    def check(self, i: int, estimate) -> tuple[list[str], list[int], int]:
        config = self.scenario(i)[1]
        problems = []
        if (estimate.M, estimate.seed) != (config.shots, config.seed):
            problems.append(f"estimate has M={estimate.M} seed={estimate.seed}, config {config.shots} {config.seed}")
        s_analytic, _ = _predicted_signal(config)
        problems += _agreement("run_experiment", estimate.S, s_analytic, estimate.sigma_S)
        return problems, [estimate.m_counts], estimate.M


class SweepIdeal(Workload):
    """One ``kerrcat sweep --axis delta`` over the ideal default scenario per op."""

    def _sweep(self, i: int, values: str, out: Path, extra: list[str]) -> tuple[int, Path]:
        args = ["sweep", "--config", self.scenario(i)[0], "--axis", "delta", "--values", values, "--out", str(out)]
        return self.cli(args + extra)[0], out

    def warm_up(self) -> None:
        code, out = self._sweep(0, "-0.02,0,0.02", self.workdir / "warm-up.csv", ["--shots", "100"])
        out.unlink(missing_ok=True)
        if code != 0:
            raise RuntimeError(f"warm-up sweep exited {code}")

    def run_op(self, i: int):
        return self._sweep(i, self.manifest["values"], self.workdir / f"sweep-{i}.csv", [])

    def check(self, i: int, outcome) -> tuple[list[str], list[int], int]:
        code, out = outcome
        if code != 0:
            return [f"sweep exited {code}"], [], 0
        with open(out, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        out.unlink()
        config = self.scenario(i)[1]
        values = [float(v) for v in self.manifest["values"].split(",")]
        problems = []
        if not table or table[0] != SWEEP_COLUMNS:
            return [f"sweep header is {table[:1]}, expected {SWEEP_COLUMNS}"], [], 0
        rows = [dict(zip(SWEEP_COLUMNS, row)) for row in table[1:]]
        if len(rows) != len(values):
            problems.append(f"sweep wrote {len(rows)} rows, expected {len(values)}")
        for cell, (row, value) in enumerate(zip(rows, values)):
            if float(row["axis_value"]) != value:
                problems.append(f"cell {cell}: axis_value {row['axis_value']}, expected {value!r}")
            if int(row["seed"]) != config.seed + cell:
                problems.append(f"cell {cell}: seed {row['seed']}, expected {config.seed + cell}")
            if int(row["M"]) != config.shots:
                problems.append(f"cell {cell}: M {row['M']}, expected {config.shots}")
            problems += _agreement(f"cell {cell}", float(row["S"]), float(row["S_analytic"]), float(row["sigma_S"]))
        return problems, [int(row["m_counts"]) for row in rows], sum(int(row["M"]) for row in rows)


class FockValidate(Workload):
    """``kerrcat validate`` then ``kerrcat shots --engine brute-force`` per op."""

    def _shots(self, i: int, shots: int) -> tuple[int, str]:
        return self.cli(["shots", "--config", self.scenario(i)[0], "--engine", "brute-force", "--shots", str(shots)])

    def warm_up(self) -> None:
        code, _ = self._shots(0, 10)
        if code != 0:
            raise RuntimeError(f"warm-up shots exited {code}")

    def run_op(self, i: int):
        validate = self.cli(["validate", "--config", self.scenario(i)[0]])
        return validate, self._shots(i, self.manifest["shots"])

    def check(self, i: int, outcome) -> tuple[list[str], list[int], int]:
        (v_code, v_text), (s_code, s_text) = outcome
        problems = []
        lines = v_text.strip().splitlines()
        rows = lines[2:-1]
        if v_code != 0:
            problems.append(f"validate exited {v_code}")
        if not rows or any(row.split()[-1] != "PASS" for row in rows):
            problems.append(f"validate rows not all PASS: {[r for r in rows if not r.endswith('PASS')][:3]}")
        if not lines or lines[-1] != f"{len(rows)}/{len(rows)} checks passed":
            problems.append(f"validate summary is {lines[-1:]}, {len(rows)} rows printed")
        if s_code != 0:
            return problems + [f"shots exited {s_code}"], [], 0
        fields = dict(line.split("=", 1) for line in s_text.strip().splitlines())
        fields = {key.strip(): value.strip() for key, value in fields.items()}
        config = self.scenario(i)[1]
        m_total = int(fields["M"])
        if (m_total, int(fields["seed"])) != (self.manifest["shots"], config.seed):
            problems.append(f"shots printed M={m_total} seed={fields['seed']}")
        problems += _agreement(
            "brute-force shots", float(fields["S"]), float(fields["S_analytic"]), float(fields["sigma_S"])
        )
        return problems, [int(fields["m_counts"])], m_total


WORKLOADS = {"bulk-thermal": BulkThermal, "sweep-ideal": SweepIdeal, "fock-validate": FockValidate}


def _check(workload: Workload, i: int, outcome, error: str | None) -> dict:
    if error is None:
        try:
            problems, m_counts, shots = workload.check(i, outcome)
        except Exception:  # a malformed output is a failed op, not a crashed run
            problems, m_counts, shots = [traceback.format_exc(limit=2)], [], 0
    else:
        problems, m_counts, shots = [error], [], 0
    return {"index": i, "problems": problems, "m_counts": m_counts, "shots": shots}


def _timed_ops(workload: Workload, first: int, seconds: float, records: list[dict]) -> list[float]:
    """Closed loop: run ops until ``seconds`` have passed; return op wall times."""
    recorder = workload.recorder
    durations = []
    deadline = time.perf_counter() + seconds
    i = first
    while True:
        start = time.perf_counter()
        error = outcome = None
        try:
            outcome = workload.run_op(i) if recorder is None else recorder.call("op", workload.run_op, i)
        except Exception:  # a failing op is counted, and the run goes on
            error = traceback.format_exc(limit=3)
        durations.append(time.perf_counter() - start)
        if recorder is not None:
            recorder.paused = True
        records.append(_check(workload, i, outcome, error))
        if recorder is not None:
            recorder.paused = False
        i += 1
        if time.perf_counter() >= deadline:
            return durations


def _check_determinism(workload: Workload, records: list[dict]) -> None:
    """Run the first op again with the same (config, seed); its counts must not move."""
    first = records[0]
    i = first["index"]
    try:
        again = _check(workload, i, workload.run_op(i), None)
    except Exception:  # counted as a failure of the op being repeated
        again = {"problems": [traceback.format_exc(limit=3)], "m_counts": None}
    if again["problems"] or again["m_counts"] != first["m_counts"]:
        first["problems"].append(f"repeat gave m_counts {again['m_counts']} {again['problems'][:1]}")


def _layer_metrics(recorder, ops: int) -> dict:
    """Per-op averages of every span and counter of the traced phase."""
    from spans import TARGETS

    metrics = {}
    for name in sorted({target[2] for target in TARGETS} | {"cli"}):
        metrics[f"{name}.s"] = recorder.total[name] / ops
        metrics[f"{name}.self_s"] = recorder.self_time(name) / ops
        metrics[f"{name}.calls"] = recorder.calls[name] / ops
    for name, value in recorder.counts.items():
        metrics[name] = value / ops
    kicks = recorder.counts["coherent.kicks"]
    metrics["coherent.distinct_kick_ratio"] = recorder.counts["coherent.distinct_kicks"] / kicks if kicks else 0.0
    metrics["op.s"] = recorder.total["op"] / ops
    for name in ("coherent.prob_x_positive", "loss.loss_channel"):
        metrics[f"{name}.share"] = recorder.total[name] / recorder.total["op"]
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path, help="directory with manifest.json")
    parser.add_argument("--result", required=True, type=Path, help="JSON file to write")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first", type=int, default=0, help="index of the first op")
    parser.add_argument("--repeat", action="store_true", help="repeat the first op to check determinism")
    args = parser.parse_args()

    src = Path(os.environ["PERFBENCH_SRC"]).resolve()
    if src not in Path(kerrcat.__file__).resolve().parents:
        print(f"kerrcat was imported from {kerrcat.__file__}, not from {src}", file=sys.stderr)
        return 2

    manifest = json.loads((args.inputs / "manifest.json").read_text())
    workload = WORKLOADS[args.workload](manifest, args.inputs)
    workload.warm_up()
    setup_s = time.perf_counter() - _STARTED
    result = {"setup_s": setup_s}
    records: list[dict] = []
    if args.trace:
        from spans import Recorder

        untraced = _timed_ops(workload, args.first, args.seconds / 2, records)
        workload.recorder = recorder = Recorder()
        recorder.install()
        if recorder.missing:
            print(f"not traced, not defined by kerrcat: {', '.join(recorder.missing)}", file=sys.stderr)
        try:
            traced = _timed_ops(workload, args.first + len(records), args.seconds / 2, records)
        finally:
            recorder.uninstall()
        workload.recorder = None
        result["layers"] = _layer_metrics(recorder, len(traced))
        result["layers"]["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        result["traced_durations"] = traced
    else:
        untraced = _timed_ops(workload, args.first, args.seconds, records)
    if args.repeat:
        _check_determinism(workload, records)

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result.update(
        durations=untraced,
        attempted=len(records),
        failed=sum(1 for r in records if r["problems"]),
        problems=[f"op {r['index']}: {p}" for r in records for p in r["problems"]][:20],
        shots=sum(r["shots"] for r in records[: len(untraced)]),
        m_counts=[[r["index"], r["m_counts"]] for r in records],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        blas=f"{blas.get('name')} {blas.get('version')}",
    )
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
