"""kerrcat benchmark: end-to-end shot metrics and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bulk-thermal --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The inputs of a run (scenario files and a manifest) are generated from
``--seed`` into a scratch directory inside the checkout, and the program gets
nothing else. Each run of a workload starts fresh worker processes, one
after another. Each worker sets up (imports kerrcat, builds the inputs, makes
one small warm-up call), then runs ops in a closed loop for its share of
``--seconds`` and checks every op's output. ``setup_s`` is the median set-up
time of the workers, the op metrics pool the ops of all workers, and
``peak_rss_mb`` is the largest worker's own peak.

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric named in ``BENCHMARK.json``; with ``--trace 1`` it
holds every per-layer metric instead. The lines before it print the same
metrics with their units, the failed-op ratio, digests of the ``m_counts``
and the run's environment. See ``perfbench/README.md`` for the workloads and
for which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: BLAS threads in every benchmark process; the reference machine has 2 cores.
BLAS_THREADS = 1
#: Worker processes per untraced run; each gives one set-up sample.
WORKERS = 3
#: Scenario files generated per run; ops reuse them cyclically after that.
SCENARIOS = 100
#: A run, set-up included, must end within this many seconds.
RUN_LIMIT_S = 170.0

WORKLOADS = ("bulk-thermal", "sweep-ideal", "fock-validate")

# Reference hardware rates of the README scenario file, in Hz.
LOSSY_RATES = """[loss]
kappa = 100e3
gamma = 10
g = 500e3
omega_m = 10e6
lambda_kerr = 7e6
temp = {temp!r}
"""


def _lossy_thermal(rng: random.Random, shots: int) -> str:
    """A lossy scenario with a thermal bath and a weak resonant force."""
    return (
        "[protocol]\nalpha0 = 1.5\ndelta = 0.0\napply_offset = true\n\n"
        + LOSSY_RATES.format(temp=rng.uniform(0.02, 0.1))
        + "\n[force]\nshape = resonant-cosine\n"
        + f"amplitude = {rng.uniform(1e4, 3e4)!r}\nphase = {rng.uniform(0.0, 2.0 * math.pi)!r}\n"
        + f"\n[run]\nshots = {shots}\nseed = {rng.randrange(2**32)}\nengine = analytic\n"
    )


def _ideal_default(rng: random.Random) -> str:
    """The CLI's default ideal scenario (alpha0 = 2, offset on, 1e4 shots), reseeded."""
    return (
        "[protocol]\nalpha0 = 2.0\ndelta = 0.0\napply_offset = true\n\n"
        f"[run]\nshots = 10000\nseed = {rng.randrange(2**32)}\nengine = analytic\n"
    )


def generate_inputs(workload: str, seed: int, directory: Path) -> None:
    """Write the scenario files and manifest of one run; same seed, same bytes."""
    rng = random.Random(f"{workload}:{seed}")
    manifest: dict = {"scenarios": [f"scenario-{i:02d}.ini" for i in range(SCENARIOS)]}
    for name in manifest["scenarios"]:
        if workload == "bulk-thermal":
            text = _lossy_thermal(rng, shots=500_000)
        elif workload == "sweep-ideal":
            text = _ideal_default(rng)
        else:
            text = _lossy_thermal(rng, shots=1000)
        (directory / name).write_text(text, encoding="utf-8")
    if workload == "sweep-ideal":
        manifest["values"] = ",".join(f"{(i - 20) / 1000:g}" for i in range(41))
    if workload == "fock-validate":
        manifest["shots"] = 1000
    (directory / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def _environment() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PERFBENCH_SRC"] = src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _worker(args: list[str], result: Path, deadline: float) -> dict:
    """Run ``worker.py`` to completion and return the JSON it wrote."""
    command = [sys.executable, str(HERE / "worker.py"), "--result", str(result), *args]
    timeout = max(deadline - time.monotonic(), 1.0)
    proc = subprocess.run(command, env=_environment(), cwd=ROOT, stdout=subprocess.DEVNULL, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {' '.join(args)}")
    return json.loads(result.read_text())


def _git_rev() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _tail(durations: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    With fewer than eleven samples no such percentile exists; the slowest
    sample is returned as the 100th percentile instead.
    """
    ordered = sorted(durations)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _digest(pairs: list) -> str:
    """SHA-256 of ``[op index, m_counts]`` pairs."""
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload; returns the metrics and the run record.

    Untraced, the measured time is split over ``WORKERS`` worker processes
    run one after another, and their ops are pooled: op times vary with each
    process's memory layout, and each worker also gives one set-up sample.
    A traced run uses a single worker, so that one recorder sees every op.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    directory = WORK / f"{workload}-{seed}-{os.getpid()}"
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    workers = 1 if trace else WORKERS
    runs = []
    try:
        generate_inputs(workload, seed, directory)
        for k in range(workers):
            args = [
                "--workload", workload, "--inputs", str(directory), "--seconds", str(seconds / workers),
                "--trace", str(trace), "--first", str(k * SCENARIOS // workers),
            ]
            if k == workers - 1:
                args.append("--repeat")
            runs.append(_worker(args, directory / f"result-{k}.json", deadline))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    run = dict(runs[-1])
    durations = [d for r in runs for d in r["durations"]]
    setups = [r["setup_s"] for r in runs]
    m_counts = [pair for r in runs for pair in r["m_counts"]]
    # Which ops a run reaches depends on timing; each worker's first op does not.
    firsts = [r["m_counts"][0] for r in runs]
    percentile, tail = _tail(durations)
    run.update(
        durations=durations,
        setup_samples=setups,
        tail_percentile=percentile,
        attempted=sum(r["attempted"] for r in runs),
        failed=sum(r["failed"] for r in runs),
        problems=[p for r in runs for p in r["problems"]],
        shots=sum(r["shots"] for r in runs),
        m_counts_digest=_digest(m_counts),
        first_ops=[index for index, _ in firsts],
        first_ops_digest=_digest(firsts),
        metrics={
            "setup_s": statistics.median(setups),
            "op_s_p50": statistics.median(durations),
            "op_s_tail": tail,
            "shots_per_s": sum(r["shots"] for r in runs) / sum(durations),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        },
    )
    return run


def _print_run(workload: str, run: dict, metric_units: dict, trace: int) -> None:
    durations = run["durations"]
    print(f"== {workload}: {run['attempted']} ops attempted, {run['failed']} failed")
    if not trace:
        notes = {
            "setup_s": f"median of {len(run['setup_samples'])} worker set-ups",
            "op_s_p50": f"median of {len(durations)} ops",
            "op_s_tail": f"p{run['tail_percentile']:.1f} of {len(durations)} ops",
            "shots_per_s": f"{run['shots']} shots in {sum(durations):.3f} s of ops",
            "peak_rss_mb": "largest worker process",
        }
        for name, unit in metric_units.items():
            print(f"  {name:<38} {run['metrics'][name]:>16.6g} {unit:<8} {notes.get(name, '')}")
    else:
        for name, unit in metric_units.items():
            note = "computed, 16*k^2*M per call" if name == "coherent.pair_bytes" else "per traced op"
            print(f"  {name:<38} {run['layers'][name]:>16.6g} {unit:<8} {note}")
    print(f"  {'ops_failed_ratio':<38} {run['failed'] / run['attempted']:>16.6g} {'ratio':<8}")
    print(f"  m_counts digest, all {run['attempted']} ops: {run['m_counts_digest']}")
    print(f"  m_counts digest, first op of each worker {run['first_ops']}: {run['first_ops_digest']}")
    for problem in run["problems"]:
        print(f"  FAILED {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "kerrcat" / "__init__.py").is_file():
        print(f"no kerrcat sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    metric_units = {m["name"]: m["unit"] for m in spec[section]}

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {}
    try:
        for workload in workloads:
            runs[workload] = run_workload(workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    first = next(iter(runs.values()))
    record = {
        "git_rev": _git_rev(),
        "numpy": first["numpy"],
        "scipy": first["scipy"],
        "blas": first["blas"],
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client, 1 process",
    }
    print("run " + json.dumps(record))
    metrics = {}
    for workload, run in runs.items():
        _print_run(workload, run, metric_units, args.trace)
        values = run["layers"] if args.trace else run["metrics"]
        prefix = f"{workload}." if len(runs) > 1 else ""
        for name, unit in metric_units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
    failed = sum(run["failed"] for run in runs.values())
    summary = {
        "correct": failed == 0,
        "attempted": sum(run["attempted"] for run in runs.values()),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
