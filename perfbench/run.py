"""Benchmark of parallel ILUT*-preconditioned GMRES, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload g0-p16-sim --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the traced run and reports the per-layer metrics.
Each metric is printed as ``<workload> <name> = <value> <unit> (n=<samples>)``
and the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the environment and, for a traced run, the spans and a Chrome
trace-event file, is written under ``perfbench/out/``.

The exit code is 0 when every correctness check passed, 1 when one failed
(each failure is printed by name) and 2 when the library's source is not
beside the benchmark, in which case no result is printed.
"""

from __future__ import annotations

import os

# Pin the BLAS/OpenMP pools before numpy is imported: the threads workload
# runs its own workers, and OpenBLAS would otherwise start up to 64 threads.
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict[str, object]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "pinned": {var: os.environ[var] for var in PINNED},
    }


def run_one(args: argparse.Namespace) -> int:
    import measure
    from tracing import Tracer
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    A, B = w.inputs(args.seed, args.tiny)
    S = measure.to_scipy(A)
    # warm-up at the self-test size: imports and first-call costs land here
    At, Bt = w.inputs(args.seed, tiny=True)
    measure.one_round(w, At, measure.to_scipy(At), Bt, measure.Ledger(), measure.Host())

    ledger = measure.Ledger()
    host = measure.Host()
    tracer: Tracer | None = None
    metrics: measure.Metrics = {}
    try:
        ref = None if w.transport == "simulator" else measure.SimulatorReference(w, A, ledger)
        if args.trace:
            metrics, tracer = measure.traced_run(w, A, S, B, args.seconds, ledger, ref)
        else:
            rounds = measure.measured_rounds(w, A, S, B, args.seconds, ledger, ref, host)
            metrics = measure.end_to_end(w, rounds, ref, host)
    except Exception as exc:  # a raising operation is a counted, named failure
        traceback.print_exc()
        ledger.record("operation", [f"raised {exc!r}"])

    env = environment(args.seed)
    print("env " + json.dumps(env))
    if host.log:
        print(f"{w.name} host probe = {statistics.fmean(p for _, p in host.log):.6g} s "
              f"(mean around {len(host.log)} operations); times scaled by {host.scale():.6g}")
    for name, (value, unit, n) in metrics.items():
        print(f"{w.name} {name} = {value:.6g} {unit} (n={n})")
    print(f"{w.name} error_rate = {ledger.failed}/{ledger.attempted} operations")
    for failure in ledger.failures:
        print(f"FAIL {w.name} {failure}")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": w.name,
        "environment": env,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "wall_and_probe_s": host.log,
        "spans": tracer.to_json() if tracer else None,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if tracer:
        stem.with_suffix(".chrome.json").write_text(json.dumps(tracer.to_chrome()))

    correct = ledger.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Each workload in its own process, so ``peak_rss_mb`` is per workload."""
    worst = 0
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1] if done.returncode in (0, 1) else lines))
        worst = max(worst, done.returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run at the self-test's tiny size (selftest.py)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
