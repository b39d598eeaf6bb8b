"""Per-layer metrics from a traced run's spans.

"Per pass" means summed over a family's operations of the mean over each
operation's executions, so a run that ends mid-pass still reports one whole
pass. Bisection counts are per ``critical_m`` call and repeat exactly from run
to run; times are span durations or self times. Every metric is printed on
every workload, with 0 where the layer did no such work.
"""

import statistics
from collections import defaultdict

from tracing import END, INFO, NAME, OP, PARENT, START, self_times

SIMULATE_PRESETS = ("drift-z1", "drift-pair-z1", "nn-z2")
BELLMAN_PRESETS = ("drift-z1", "drift-pair-z1", "zero-drift-pair", "nn-z2")
ANALYSE_PRESETS = ("drift-z1", "symmetric-z1", "recurrent-z1", "zero-drift-pair",
                   "drift-pair-z1", "nn-z2")
MULTI_LAW_PRESETS = ("zero-drift-pair", "drift-pair-z1")
SINGLE_LAW_PRESETS = ("drift-z1", "symmetric-z1", "recurrent-z1", "nn-z2")


def _ratio(num, den):
    return num / den if den else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans, ops):
    """Map metric name -> (value, unit).

    ``ops[i]`` is the Op that ran under op id i; ops that left no span ran
    untraced and are ignored.
    """
    selfs = self_times(spans)
    dur = [s[END] - s[START] for s in spans]
    named = defaultdict(list)
    children = defaultdict(list)
    by_op = defaultdict(list)
    for i, s in enumerate(spans):
        named[s[NAME]].append(i)
        by_op[s[OP]].append(i)
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)
    executions = defaultdict(list)  # label -> traced op ids
    for op_id in by_op:
        executions[ops[op_id].label].append(op_id)

    def op_of(i):
        return ops[spans[i][OP]]

    def where(name, **match):
        return [i for i in named[name]
                if all(getattr(op_of(i), k) == v for k, v in match.items())]

    def per_pass(family, measure):
        """Sum over the family's operations of measure(span ids of one execution), averaged."""
        return sum(_mean([measure(by_op[op_id]) for op_id in ids])
                   for ids in executions.values()
                   if ops[ids[0]].family == family and ops[ids[0]].kind != "probe-setup")

    def total(name, keep=lambda i: True):
        return lambda ids: sum(dur[i] for i in ids if spans[i][NAME] == name and keep(i))

    m = {}

    # simulator: both passes over the replicates (replicate_records, estimate_nu)
    sim_ops = [ops[op_id] for op_id in by_op if ops[op_id].kind == "simulate"]
    sim_spans = named["simulator.replicate_records"] + named["simulator.estimate_nu"]
    m["simulator.passes_per_op"] = (_ratio(len(sim_spans), len(sim_ops)), "count")
    for preset in SIMULATE_PRESETS:
        steps = sum(op.params["replicates"] * op.params["horizon"]
                    for op in sim_ops if op.preset == preset)
        busy = sum(dur[i] for i in sim_spans if op_of(i).preset == preset)
        m[f"simulator.us_per_replicate_step.{preset}"] = (_ratio(busy, steps) * 1e6, "us")
    for name in ("replicate_records", "estimate_nu"):
        m[f"simulator.{name}_s"] = (per_pass("simulate", total(f"simulator.{name}")), "s")

    # environment: law lookups that hash sites (multi-law supports only)
    def hashes(i):
        return spans[i][NAME].startswith("environment.") and spans[i][INFO] is not None \
            and spans[i][INFO]["sites"] > 0

    hashing = [i for i in range(len(spans)) if hashes(i)]
    sites = sum(spans[i][INFO]["sites"] for i in hashing)
    hash_time = sum(dur[i] for i in hashing)
    sim_time = sum(dur[i] for i in where("cli.main", kind="simulate"))
    m["environment.calls"] = (per_pass("simulate", lambda ids: sum(map(hashes, ids))), "count")
    m["environment.sites_hashed"] = (per_pass(
        "simulate", lambda ids: sum(spans[i][INFO]["sites"] for i in ids if hashes(i))), "count")
    m["environment.ns_per_site"] = (_ratio(hash_time, sites) * 1e9, "ns")
    m["environment.hash_share"] = (_ratio(hash_time, sim_time), "ratio")

    # bellman: bisection probes, sweeps, and the env_rho calls the sweep layer makes
    for preset in BELLMAN_PRESETS:
        calls = where("bellman.critical_m", preset=preset)
        probes = [c for i in calls for c in children[i]
                  if spans[c][NAME] == "bellman.value_iteration"]
        sweeps = sum(spans[c][INFO]["sweeps"] for c in probes)
        m[f"bellman.probes.{preset}"] = (_ratio(len(probes), len(calls)), "count")
        m[f"bellman.sweeps.{preset}"] = (_ratio(sweeps, len(calls)), "count")
        m[f"bellman.us_per_sweep.{preset}"] = (
            _ratio(sum(selfs[c] for c in probes), sweeps) * 1e6, "us")
    vi = where("bellman.value_iteration", kind="value-iteration")
    m["bellman.us_per_sweep.vi.nn-z2"] = (
        _ratio(sum(selfs[i] for i in vi), sum(spans[i][INFO]["sweeps"] for i in vi)) * 1e6, "us")

    def from_sweep_layer(i):
        return spans[i][PARENT] is not None and spans[spans[i][PARENT]][NAME].startswith("bellman.")

    m["bellman.env_rho_calls"] = (per_pass("bellman", lambda ids: sum(
        1 for i in ids if spans[i][NAME] == "spectral.env_rho" and from_sweep_layer(i))), "count")
    m["bellman.env_rho_s"] = (
        per_pass("bellman", total("spectral.env_rho", from_sweep_layer)), "s")
    for suffix in BELLMAN_PRESETS + ("vi.nn-z2",):
        times = [dur[i] for i in where("bellman.value_iteration", label=f"probe_setup.{suffix}")]
        m[f"bellman.probe_setup_ms.{suffix}"] = (
            statistics.median(times) * 1e3 if times else 0.0, "ms")

    # spectral: the minimax solve, from every caller
    for preset in ANALYSE_PRESETS:
        calls = where("spectral.env_rho", preset=preset)
        m[f"spectral.env_rho_ms.{preset}"] = (_mean([dur[i] for i in calls]) * 1e3, "ms")
    for preset in MULTI_LAW_PRESETS:
        iters = [spans[i][INFO]["iterations"] for i in where("spectral.env_rho", preset=preset)]
        m[f"spectral.env_rho_iterations.{preset}"] = (max(iters, default=0), "count")

    # kernel: exact convolution, n_max // 2 steps per call
    for preset in SINGLE_LAW_PRESETS:
        calls = where("kernel.power_iteration_rho", preset=preset)
        steps = sum(op_of(i).params["n_max"] // 2 for i in calls)
        m[f"kernel.us_per_convolution_step.{preset}"] = (
            _ratio(sum(dur[i] for i in calls), steps) * 1e6, "us")
        m[f"kernel.extended_precision.{preset}"] = (
            int(any(spans[i][INFO]["extended"] for i in calls)), "count")

    # cli and config: the command's own work (validation, JSON/CSV writing)
    m["cli.self_ms"] = (_mean([selfs[i] for i in named["cli.main"]]) * 1e3, "ms")
    m["config.parse_ms"] = (_mean([dur[i] for i in named["config.parse_config"]]) * 1e3, "ms")
    return m
