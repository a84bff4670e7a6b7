"""Self-test of the benchmark: every workload at a tiny size.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload, also those ``BENCHMARK.json`` leaves out, it runs
``run.py --tiny`` with tracing off and on, and checks that the run exits
0, reports ``correct``, and emits exactly the end-to-end (tracing off) or
per-layer (tracing on) metrics that ``BENCHMARK.json`` names, each with
its unit.  It then copies
``BENCHMARK.json`` and the benchmark's own files, alone, into a scratch
directory under ``perfbench/out/`` and checks that the benchmark refuses
to run there: a non-zero exit and no result line.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 300


def run(cwd: Path, workload: str, trace: int, tiny: bool) -> subprocess.CompletedProcess[str]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
                          check=False)


def result_line(stdout: str) -> dict | None:
    lines = stdout.splitlines()
    try:
        out = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return out if isinstance(out, dict) and "correct" in out else None


def check_workload(bench: dict, workload: str, trace: int) -> list[str]:
    done = run(ROOT, workload, trace, tiny=True)
    where = f"{workload} --trace {trace}"
    result = result_line(done.stdout)
    if done.returncode != 0 or result is None:
        return [f"{where}: exit {done.returncode}\n{done.stdout[-2000:]}{done.stderr[-2000:]}"]
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: not correct: {result}")
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    for name, unit in wanted.items():
        if name not in got:
            problems.append(f"{where}: metric {name} missing")
        elif got[name] != unit:
            problems.append(f"{where}: metric {name} in {got[name]}, BENCHMARK.json says {unit}")
    problems += [f"{where}: metric {name} not in BENCHMARK.json" for name in got.keys() - wanted]
    return problems


def check_bare_directory(bench: dict) -> list[str]:
    """Without the library's source the benchmark must fail and print no result."""
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = run(bare, bench["workloads"][0]["name"], 0, tiny=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or result_line(done.stdout) is not None:
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-500:]!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    problems: list[str] = []
    for name in WORKLOADS:
        for trace in (0, 1):
            found = check_workload(bench, name, trace)
            print(f"{name} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    found = check_bare_directory(bench)
    print(f"bare directory refused: {'ok' if not found else 'FAILED'}")
    problems += found
    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
