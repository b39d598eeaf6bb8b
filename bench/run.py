"""The brwre benchmark: closed-loop workloads driven through the CLI.

    python3 bench/run.py --workload {standard,large} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the program is imported from ``src/`` next to this
directory, and the run fails (exit 2, no result line) when it is missing.
One process issues one operation at a time and starts the next when the
previous returns (a closed loop with one client, no worker pool). Every
operation's seed derives from ``--seed`` (see ``Runner``), and its output is
checked against an oracle in ``closed_forms.py``; a failed check or a nonzero
exit code counts as a failed operation and the run goes on.

Every run prints every end-to-end metric, so both workloads run the same
three command families (simulate, bellman, analyse) in the same fixed order,
one pass after another, for ``--seconds``. The workloads differ in problem
size: ``standard`` keeps every operation near a few tenths of a second,
``large`` grows the horizons, grids and truncation orders so that per-cell
work weighs more than per-call overhead. Per-operation metrics are medians
over the run; ``wall_s`` and the analyse totals are sums of medians, standing
for one pass. With ``--trace 1`` the first half of the time runs untraced and
the second half traced, followed by the Bellman probe set-up; the spans
become the per-layer metrics and the two halves give the tracing overhead.

The last line of standard output is the result JSON; the line before it
records the Python and numpy versions, the processor count and the commit.
Side files (run details, spans) go to ``.bench_out/`` in the checkout and
CLI outputs to a temporary directory under ``.bench_work/``, removed at exit.
"""

import argparse
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import closed_forms as cf
from closed_forms import OracleError, require
from layers import ANALYSE_PRESETS, BELLMAN_PRESETS, SINGLE_LAW_PRESETS, layer_metrics
from reference import Reference
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

FAMILIES = ("simulate", "bellman", "analyse")
VI_M = 1.2
# Executions per pass of the operations that run more than once: classify
# and rho take milliseconds, and op_p90_ms needs more than ten samples above
# it even in a large run; a simulate command's time varies with its seed by
# 15-20 % (the share of saturated or far-spreading replicates), on top of the
# host's 10 %, so its median needs more executions than the others.
REPEATS = {"classify": 2, "rho": 2, "simulate": 2}
SETUP_REPEATS = 11
BASELINE_TASKS = 3  # reference tasks timed before each set-up interpreter
# Median time of Reference.time on the development host (2 vCPUs, Python
# 3.11.7, numpy 2.4.6). End-to-end times are rescaled to this speed.
REFERENCE_S = 0.006
REFERENCE_WINDOW = 4  # reference tasks on each side of an execution set its speed
# The run fails when the reference is this many times slower during the
# operations than in the baseline, which is timed between the set-up
# interpreters, before this process imports brwre. The host alone moves it by
# up to 1.6 times between its slowest and fastest ten-second stretches, so
# this flags only a gross slowdown of the whole process; threads left running
# are caught exactly by the thread count (Python threads; the BLAS and OpenMP
# pools are pinned to one thread by THREAD_VARS).
REFERENCE_DRIFT_LIMIT = 2.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass(frozen=True)
class Sizes:
    simulate: tuple  # (preset, replicates, horizon)
    bellman_radius: int
    bellman_tol: float
    vi_radius: int
    vi_max_sweeps: int
    power_n_max: dict  # dimension -> n_max


# Operations last 0.1-1 s, so each gets about fifteen samples per run. The
# 150-step horizon lets the recurrent drift-pair-z1 saturate, each replicate
# with probability 0.79 (200 replicates). The oracle asks for saturation, and
# sixteen replicates miss it together once in 10^10; as the saturated ones
# cost most, the count also keeps the time steady. nn-z2's window
# grows quadratically, so its horizon is cut. Radius 25 at tol 0.05 keeps
# critical_m * rho inside [0.97, 1.03] on all four presets (a smaller radius
# is slower: the bisection then probes close to criticality, where sweeps
# converge slowly). Value iteration at radius 40 needs about 960 sweeps,
# above the default budget of 20 per unit radius. The 1-D n_max is past the
# point where drift-z1's return probabilities leave double range, so the
# extended-precision restart runs; the 2-D one is the smallest within 0.02
# of rho.
STANDARD = Sizes(
    simulate=(("drift-z1", 20, 150), ("drift-pair-z1", 16, 150), ("nn-z2", 15, 80)),
    bellman_radius=25, bellman_tol=0.05, vi_radius=40, vi_max_sweeps=4000,
    power_n_max={1: 1200, 2: 400},
)
# Longer horizons with fewer replicates (drift-pair-z1 keeps sixteen, for its
# saturation), 1.4 times the radii and n_max: the windows, grids and
# convolutions are two to four times the standard ones, and one pass costs
# about twice as much.
LARGE = Sizes(
    simulate=(("drift-z1", 10, 300), ("drift-pair-z1", 16, 200), ("nn-z2", 8, 120)),
    bellman_radius=35, bellman_tol=0.05, vi_radius=56, vi_max_sweeps=8000,
    power_n_max={1: 1800, 2: 560},
)
WORKLOADS = {"standard": STANDARD, "large": LARGE}


@dataclass
class Op:
    family: str
    label: str  # metric name for simulate/bellman ops, "<kind>.<preset>" for analyse
    kind: str
    preset: str
    argv: list = field(default_factory=list)
    params: dict = field(default_factory=dict)


def _die(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_program():
    """Import brwre from this checkout's src/, never from an installed copy."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    brwre = importlib.import_module("brwre")
    importlib.import_module("brwre.cli")
    if Path(brwre.__file__).resolve().parent != (SRC / "brwre").resolve():
        _die(f"brwre imported from {brwre.__file__}, not {SRC}")
    return brwre


def _write_configs(work, sizes):
    paths = {}
    for preset in ANALYSE_PRESETS:
        paths[preset] = work / f"{preset}.cfg"
        paths[preset].write_text(f"[environment]\npreset = {preset}\n")
    paths["vi"] = work / "vi-nn-z2.cfg"
    paths["vi"].write_text(f"[environment]\npreset = nn-z2\n[run]\nm = {VI_M}\n"
                           f"max_sweeps = {sizes.vi_max_sweeps}\n")
    return paths


def time_setup(configs, seed, reference):
    """Set-up and reference seconds of fresh interpreters, and a baseline.

    The baseline is reference times of this process, taken between the
    interpreters, so that it spans seconds of the host's speed; brwre is not
    imported here yet, so the program cannot have touched it.
    """
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(seed),
            *[str(p) for p in configs.values()]]
    probes, baseline = [], []
    for _ in range(SETUP_REPEATS):
        baseline.extend(reference.time() for _ in range(BASELINE_TASKS))
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            _die(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        probes.append(tuple(float(x) for x in proc.stdout.split()))
    return probes, baseline


def build_ops(sizes, configs, work):
    """Family -> operations; the runner adds ``--seed`` to each CLI argv."""
    def cli_op(family, label, kind, preset, command, config, *extra, **params):
        out = work / label
        argv = [command, "--config", str(config), "--out", str(out), *[str(x) for x in extra]]
        return Op(family, label, kind, preset, argv, dict(params, out=out))

    ops = {f: [] for f in FAMILIES}
    for preset, reps, horizon in sizes.simulate:
        exact = None
        if preset != "drift-pair-z1":
            _, sd, p_zero = cf.tally_moments(preset, horizon)
            exact = (cf.expected_frozen_tally(preset, horizon), sd, p_zero)
        ops["simulate"].append(cli_op(
            "simulate", f"simulate.{preset}_s", "simulate", preset, "simulate", configs[preset],
            "--replicates", reps, "--horizon", horizon,
            replicates=reps, horizon=horizon, exact=exact))
    for preset in BELLMAN_PRESETS:
        ops["bellman"].append(cli_op(
            "bellman", f"bellman.{preset}_s", "critical-m", preset, "bellman", configs[preset],
            "--radius", sizes.bellman_radius, "--tol", sizes.bellman_tol))
    ops["bellman"].append(cli_op(
        "bellman", "bellman.vi.nn-z2_s", "value-iteration", "nn-z2", "bellman", configs["vi"],
        "--radius", sizes.vi_radius, radius=sizes.vi_radius))
    for preset in ANALYSE_PRESETS:
        for command in ("classify", "rho"):
            ops["analyse"].append(cli_op(
                "analyse", f"{command}.{preset}", command, preset, command, configs[preset]))
    for preset in SINGLE_LAW_PRESETS:
        dim = 2 if preset == "nn-z2" else 1
        ops["analyse"].append(Op("analyse", f"power_iteration.{preset}", "power-iteration",
                                 preset, params={"n_max": sizes.power_n_max[dim]}))
    return ops


def pass_order(ops):
    """One pass: every operation once, or REPEATS[kind] times.

    The families are interleaved evenly, so that every metric's samples
    spread over the whole run: the host's speed drifts by tens of percent
    within seconds, and a metric sampled in one block would inherit whichever
    phase that block hit.
    """
    keyed = []
    for rank, family in enumerate(FAMILIES):
        sequence = [op for r in range(max(REPEATS.values())) for op in ops[family]
                    if REPEATS.get(op.kind, 1) > r]
        keyed.extend(((i + 0.5) / len(sequence), rank, op) for i, op in enumerate(sequence))
    return [op for *_, op in sorted(keyed, key=lambda k: k[:2])]


def probe_setup_ops(sizes):
    """One value_iteration(..., max_sweeps=1) per Bellman preset: labelling, seed, env_rho."""
    ops = [Op("bellman", f"probe_setup.{p}", "probe-setup", p,
              params={"radius": sizes.bellman_radius, "m": 1.0}) for p in BELLMAN_PRESETS]
    ops.append(Op("bellman", "probe_setup.vi.nn-z2", "probe-setup", "nn-z2",
                  params={"radius": sizes.vi_radius, "m": VI_M}))
    return ops


def _read_result(op):
    return json.loads((op.params["out"] / "result.json").read_text())["result"]


def check_tallies(tallies, exact):
    """The frozen tallies' mean and zero share against their exact values.

    The tally is heavy-tailed (mean near 0.5, single replicates up to 30), so
    with the exact standard error alone a 4-SE test fails about one correct
    execution in 250 (a bootstrap from 7750 drift-z1 replicates): one large
    tally moves the mean far. The sample standard deviation, computed here
    from the tallies and never taken from the program's output, grows with
    that tally, so the standard error is the larger of the two; the same
    bootstrap then failed none of 200 000 resamples. The number of zero
    tallies is binomial with an exact p, so it gets an exact test.
    """
    mean, sd, p_zero = exact
    n = len(tallies)
    sample_sd = statistics.stdev(tallies) if n > 1 else 0.0
    se = max(sd, sample_sd) / math.sqrt(n)
    observed = sum(tallies) / n
    require(abs(observed - mean) <= 4.0 * se,
            f"mean {observed} over {n} replicates vs exact {mean} +- {se}")
    zeros = sum(t == 0 for t in tallies)
    lo, hi = cf.binomial_interval(n, p_zero, 1e-6)
    require(lo <= zeros <= hi,
            f"{zeros} zero tallies of {n}, outside [{lo}, {hi}] for exact p = {p_zero}")


def check(op, value):
    """Compare one operation's output with its oracle; raise OracleError on a mismatch.

    Returns the replicate tallies of a simulate operation, for the pooled check.
    """
    p, kind = op.params, op.kind
    if kind == "simulate":
        res = _read_result(op)
        require(res["replicates"] == p["replicates"] and res["horizon"] == p["horizon"],
                f"run size {res['replicates']}x{res['horizon']} differs from the request")
        lines = (p["out"] / "replicates.jsonl").read_text().splitlines()[1:]
        tallies = [json.loads(line)["nu_observed"] for line in lines]
        n = len(tallies)
        require(n == p["replicates"], f"{n} replicate records")
        require(abs(sum(tallies) / n - res["mean"]) <= 1e-9 * max(1.0, res["mean"]),
                "replicates.jsonl disagrees with the reported mean")
        se = statistics.stdev(tallies) / math.sqrt(n) if n > 1 else 0.0
        require(abs(res["std_error"] - se) <= 1e-9 * max(1.0, se),
                f"reported std_error {res['std_error']} vs {se} from replicates.jsonl")
        if p["exact"] is None:
            require(res["mean"] > 1.0 and res["saturated_runs"] > 0,
                    f"recurrent preset: mean {res['mean']}, saturated {res['saturated_runs']}")
        else:
            check_tallies(tallies, p["exact"])
        return tallies
    elif kind == "critical-m":
        res = _read_result(op)
        product = res["critical_m"] * cf.rho(op.preset)
        require(0.97 <= product <= 1.03, f"critical_m * rho = {product}")
    elif kind == "value-iteration":
        res = _read_result(op)
        require(res["status"] == "bounded", f"value iteration {res['status']}")
        with open(p["out"] / "field.csv") as fh:
            rows = sum(1 for line in fh if line[:1] not in "#x")
        require(rows == (2 * p["radius"] + 1) ** 2, f"field.csv has {rows} sites")
    elif kind in ("classify", "rho"):
        res = _read_result(op)
        rho = cf.rho(op.preset)
        require(abs(res["rho"] - rho) <= 1e-8, f"rho {res['rho']} vs closed form {rho}")
        if kind == "classify":
            require(res["kind"] == cf.verdict_kind(op.preset), f"verdict {res['kind']}")
        else:
            require(res["zero_drift"] == cf.zero_drift(op.preset), "zero-drift flag")
    elif kind == "power-iteration":
        rho = cf.rho(op.preset)
        require(abs(value.estimate - rho) <= 0.02, f"estimate {value.estimate} vs rho {rho}")
    elif kind == "probe-setup":
        require(value.sweeps_used == 1, f"{value.sweeps_used} sweeps")
    return None


class Runner:
    """Executes operations one at a time, recording times, failures and op ids.

    The k-th execution of an operation gets seed ``seed * 10000 + k``: the
    same inputs for the same ``--seed``, while the median over a run averages
    the simulator's seed-dependent work instead of inheriting one draw's.
    Before each execution the reference task is timed; ``log`` holds
    (label, seconds, reference seconds) in execution order.
    """

    def __init__(self, brwre, seed, reference):
        self.brwre = brwre
        self.seed = seed
        self.reference = reference
        self.tracer = None
        self.ops = []  # op id -> Op, for the spans
        self.log = []
        self.executions = {}  # label -> count so far
        self.failures = []
        self.tallies = {}  # simulate op label -> replicate tallies of every execution
        self.specs = {p: brwre.presets.get_preset(p) for p in ANALYSE_PRESETS}

    def _call(self, op, seed):
        if op.argv:
            for name in ("result.json", "replicates.jsonl", "field.csv"):
                (op.params["out"] / name).unlink(missing_ok=True)
            sink = io.StringIO()
            span = self.tracer.span("cli.main") if self.tracer else nullcontext()
            with span, redirect_stdout(sink), redirect_stderr(sink):
                code = self.brwre.cli.main(op.argv + ["--seed", str(seed)])
            if code != 0:
                raise OracleError(f"exit code {code}: {sink.getvalue().strip()[-300:]}")
            return None
        spec = self.specs[op.preset]
        if op.kind == "power-iteration":
            return self.brwre.kernel.power_iteration_rho(spec.step_laws()[0], op.params["n_max"])
        return self.brwre.bellman.value_iteration(
            spec, op.params["m"], op.params["radius"], max_sweeps=1)

    def execute(self, op):
        reference_s = self.reference.time()
        k = self.executions.get(op.label, 0)
        self.executions[op.label] = k + 1
        if self.tracer:
            self.tracer.op = len(self.ops)
        self.ops.append(op)
        start = time.perf_counter()
        try:
            try:
                value = self._call(op, self.seed * 10000 + k)
            finally:
                self.log.append((op.label, time.perf_counter() - start, reference_s))
            tallies = check(op, value)
            if tallies is not None:
                self.tallies.setdefault(op.label, []).extend(tallies)
            require(threading.active_count() == 1,
                    f"{threading.active_count() - 1} threads left running")
        except Exception as exc:  # a failed operation is counted, never fatal
            detail = traceback.format_exc() if not isinstance(exc, OracleError) else str(exc)
            self._fail(op.label, detail)

    def _fail(self, label, detail):
        self.failures.append({"op": label, "error": detail})
        print(f"bench: {label} failed: {detail}", file=sys.stderr)

    def run_for(self, order, seconds):
        """Closed loop over ``order``, repeated, for ``seconds`` and at least one pass.

        Returns the slice of ``log`` this loop filled.
        """
        lo = len(self.log)
        start = time.perf_counter()
        i = 0
        while i < len(order) or time.perf_counter() - start < seconds:
            self.execute(order[i % len(order)])
            i += 1
        return lo, len(self.log)

    def samples(self, span, scaled):
        """Op label -> seconds of each execution in the ``log`` slice ``span``.

        Scaled times are at the reference host's speed: each is multiplied by
        REFERENCE_S over the median reference time of the nearest executions,
        so a change of the host's speed partway through a run is removed where
        it happened.
        """
        entries = self.log[span[0]:span[1]]
        refs = [e[2] for e in entries]
        out = {}
        for j, (label, seconds, _) in enumerate(entries):
            if scaled:
                window = refs[max(0, j - REFERENCE_WINDOW):j + REFERENCE_WINDOW + 1]
                seconds *= REFERENCE_S / statistics.median(window)
            out.setdefault(label, []).append(seconds)
        return out

    def check_reference(self, span, baseline):
        """Fail the run if the reference slowed against the baseline block.

        The rescaling divides by the reference; a program that slowed the
        whole process would slow the reference too and hide its own cost.
        The baseline is timed before brwre is imported. Returns the ratio.
        """
        during = statistics.median(e[2] for e in self.log[span[0]:span[1]])
        drift = during / statistics.median(baseline)
        if drift > REFERENCE_DRIFT_LIMIT:
            self._fail("reference", f"the reference task ran {drift:.2f} times slower during "
                       "the operations than before the program was imported")
        return drift

    def pooled_checks(self, ops):
        """One operation's tallies from all its executions (distinct seeds) together.

        A single execution has too few replicates for the mean to be a sharp
        check; the pool of a whole run has ten times as many.
        """
        for op in ops["simulate"]:
            if op.params["exact"] is not None and self.tallies.get(op.label):
                try:
                    check_tallies(self.tallies[op.label], op.params["exact"])
                except OracleError as exc:
                    self._fail(f"{op.label} (pooled)", str(exc))


def _median_sum(samples, labels):
    return sum(statistics.median(samples[label]) for label in labels)


def end_to_end_metrics(samples, ops, setup_s):
    """Per-operation medians, and sums of them standing for one pass."""
    metrics = {"setup_s": setup_s,
               "wall_s": _median_sum(samples, [op.label for f in FAMILIES for op in ops[f]])}
    for op in ops["simulate"] + ops["bellman"]:
        metrics[op.label] = statistics.median(samples[op.label])
    for kind in ("classify", "rho", "power_iteration"):
        metrics[f"{kind}_s"] = _median_sum(
            samples, [op.label for op in ops["analyse"] if op.label.startswith(kind + ".")])
    times = [t for op in ops["analyse"] if op.kind in ("classify", "rho")
             for t in samples[op.label]]
    deciles = statistics.quantiles(times, n=10)
    metrics["op_p50_ms"] = deciles[4] * 1e3
    metrics["op_p90_ms"] = deciles[8] * 1e3
    return metrics


def _unit(name):
    for suffix, unit in (("_ms", "ms"), ("_mb", "MB"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    raise ValueError(name)


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "brwre").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment_info():
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def run(workload, seed, seconds, trace):
    if not (SRC / "brwre" / "__init__.py").is_file():
        _die(f"no program source at {SRC / 'brwre'}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sizes = WORKLOADS[workload]
    WORK.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        configs = _write_configs(work, sizes)
        reference = Reference()
        probes, baseline = time_setup(configs, seed, reference)
        runner = Runner(_import_program(), seed, reference)
        ops = build_ops(sizes, configs, work)
        order = pass_order(ops)

        if trace:
            untraced = runner.run_for(order, seconds / 2)
            runner.tracer = Tracer()
            runner.tracer.install()
            try:
                traced = runner.run_for(order, seconds / 2)
                for op in probe_setup_ops(sizes):
                    runner.execute(op)
            finally:
                runner.tracer.uninstall()
            drift = runner.check_reference(untraced, baseline)
            runner.pooled_checks(ops)
            metrics = layer_metrics(runner.tracer.spans, runner.ops)
            labels = [op.label for f in FAMILIES for op in ops[f]]
            before = _median_sum(runner.samples(untraced, True), labels)
            overhead = _median_sum(runner.samples(traced, True), labels) - before
            metrics["trace.overhead_s"] = (overhead, "s")
            metrics["trace.overhead_share"] = (overhead / before, "ratio")
            runner.tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
            phases = {"untraced": untraced, "traced": traced}
            details = {}
        else:
            untraced = runner.run_for(order, seconds)
            drift = runner.check_reference(untraced, baseline)
            runner.pooled_checks(ops)
            raw = end_to_end_metrics(runner.samples(untraced, False), ops,
                                     statistics.median(t for t, _ in probes))
            scaled = end_to_end_metrics(runner.samples(untraced, True), ops,
                                        statistics.median(t / r for t, r in probes) * REFERENCE_S)
            metrics = {k: (v, _unit(k)) for k, v in scaled.items()}
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
            phases = {"untraced": untraced}
            details = {"unscaled_metrics": raw}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = environment_info()
    info.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                setup_probes_s=probes,
                baseline_reference_s=statistics.median(baseline),
                reference_drift=drift,
                executions={name: (span[1] - span[0]) for name, span in phases.items()})
    details["log"] = {name: runner.log[span[0]:span[1]] for name, span in phases.items()}
    side = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    side.write_text(json.dumps({"info": info, "failures": runner.failures, **details}, indent=1))
    failed = len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": len(runner.ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    return info, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    info, result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
