"""Self-test of the benchmark: one pass per run (about a minute on two cores).

    python3 bench/selftest.py

Runs every workload untraced and the first one traced under two seeds, all
with ``--seconds 1``, so each run makes a single pass over its operations.
Checks that each result line names every metric in BENCHMARK.json with its
unit, that no operation failed its oracle, and that the seed-independent
counts of the two traced runs agree. It also checks that the benchmark
refuses to run, without printing a result, in a copy that holds only
BENCHMARK.json and the benchmark's own files. Exits nonzero on the first
mismatch.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 300
# Counts that do not depend on the seeds the simulator draws, so they must
# repeat from run to run (environment counts follow the seeds).
EXACT_COUNTS = ("simulator.passes_per_op", "bellman.probes.", "bellman.sweeps.",
                "spectral.env_rho_iterations.", "kernel.extended_precision.")


def _run(root, workload, trace, seed=1):
    argv = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, capture_output=True, text=True, timeout=TIMEOUT_S)


def _fail(message):
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def _result(proc, what):
    if proc.returncode != 0:
        _fail(f"{what} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or "info" not in json.loads(lines[-2]):
        _fail(f"{what}: no info line before the result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        _fail(f"{what}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        _fail(f"{what}: {result['failed']} of {result['attempted']} operations failed: "
              f"{proc.stderr[-2000:]}")
    return result


def _check_metrics(result, declared, what):
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        _fail(f"{what}: metrics differ from BENCHMARK.json: "
              f"{sorted(set(printed.items()) ^ set(declared.items()))}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)):
            _fail(f"{what}: {name} is not a number")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]

    for workload in workloads:
        result = _result(_run(ROOT, workload, 0), f"{workload} untraced")
        _check_metrics(result, end_to_end, f"{workload} untraced")
        if any(result["metrics"][m]["value"] <= 0 for m in end_to_end):
            _fail(f"{workload}: an end-to-end metric is not positive")
        print(f"selftest: {workload} untraced ok ({result['attempted']} operations)")

    counts = []
    for seed in (1, 2):
        what = f"{workloads[0]} traced, seed {seed}"
        result = _result(_run(ROOT, workloads[0], 1, seed), what)
        _check_metrics(result, per_layer, what)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if k.startswith(EXACT_COUNTS)})
        print(f"selftest: {what} ok ({result['attempted']} operations)")
    if counts[0] != counts[1]:
        diff = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
        _fail(f"seed-independent counts differ between traced runs: {diff}")
    if counts[0]["simulator.passes_per_op"] <= 0:
        _fail("the traced run recorded no simulator passes")

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, workloads[0], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            _fail("the benchmark ran without the program's source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest: refuses to run without the program ok")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
