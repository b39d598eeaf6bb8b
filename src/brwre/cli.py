"""Command-line entry point: experiment orchestration with reproducible outputs.

    brwre COMMAND --config PATH [--seed N] [--out DIR] [--replicates N]
                  [--horizon N] [--radius N] [--tol X] [--cap N]

COMMAND is one of ``bellman``, ``classify``, ``rho`` and ``simulate``.
Every command reads the same config file and takes the same override
flags, each of which replaces the ``[run]`` key of its name and passes the
same validator. One flat parser, built per call, reads them.

Every run writes a ``result.json`` whose header carries the effective
configuration (defaults filled in), its hash, and the master seed, so a
result file is self-describing and reruns with the same config and seed
are byte-identical. ``bellman`` with ``[run] m`` also writes ``field.csv``
and ``simulate`` writes ``replicates.jsonl``, under the same header.
"""

import argparse
from dataclasses import asdict
import hashlib
from itertools import product
import json
import sys
from pathlib import Path

from .bellman import critical_m, value_iteration
from .classify import classify
from .config import _RUN_KEYS, parse_config
# validate stays bound here because the benchmark's tracer patches brwre.cli.validate.
from .environment import RealizedEnvironment, validate  # noqa: F401
from .errors import BrwreError, ConfigError
# estimate_nu stays bound here because the benchmark's tracer patches brwre.cli.estimate_nu.
from .simulator import NuEstimate, estimate_nu, replicate_records  # noqa: F401
from .spectral import env_rho, has_zero_drift

_OVERRIDE_FLAGS = ("seed", "out", "replicates", "horizon", "radius", "tol", "cap")


def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _config_hash(effective):
    return hashlib.sha256(_canonical_json(effective).encode()).hexdigest()


def _write_result(out_dir, command, effective, result):
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "command": command,
        "config_hash": _config_hash(effective),
        "master_seed": effective["run"]["seed"],
        "effective_config": effective,
        "result": result,
    }
    path = out_dir / "result.json"
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return payload


def _cmd_rho(cfg, out_dir):
    res = env_rho(cfg.spec, tol=cfg.run["tol"])
    zero, witness = has_zero_drift(cfg.spec)
    result = {
        "rho": res.rho,
        "theta_star": list(res.theta_star),
        "active_extreme_points": list(res.active_extreme_points),
        "iterations": res.iterations,
        "residual": res.residual,
        "zero_drift": zero,
        "zero_drift_witness": list(witness) if witness else None,
    }
    payload = _write_result(out_dir, "rho", cfg.effective_dict(), result)
    print(f"rho = {res.rho:.12g} (certified gap {res.residual:.3g}, "
          f"active extreme points {list(res.active_extreme_points)})")
    return payload


def _cmd_classify(cfg, out_dir):
    verdict = classify(cfg.spec, tol=cfg.run["tol"])
    payload = _write_result(out_dir, "classify", cfg.effective_dict(), asdict(verdict))
    warn = " [near-critical]" if verdict.near_critical else ""
    print(f"{verdict.kind}: m* = {verdict.m_star:.12g} vs critical mean "
          f"1/rho = {verdict.critical_m:.12g} ({verdict.method}){warn}")
    return payload


def _cmd_bellman(cfg, out_dir):
    run = cfg.run
    if run["m"] is not None:
        res = value_iteration(cfg.spec, run["m"], run["radius"], max_sweeps=run["max_sweeps"])
        result = {
            "mode": "value-iteration",
            "m": run["m"],
            "status": res.status,
            "sweeps_used": res.sweeps_used,
            "max_value": float(res.field.values.max()),
        }
        payload = _write_result(out_dir, "bellman", cfg.effective_dict(), result)
        _write_field_csv(out_dir / "field.csv", res.field, payload)
        print(f"value iteration at m = {run['m']}: {res.status} "
              f"after {res.sweeps_used} sweeps (field.csv written)")
    else:
        crit = critical_m(cfg.spec, run["radius"], run["tol"], max_sweeps=run["max_sweeps"])
        m_crit, rho = crit.value, crit.rho
        result = {
            "mode": "critical-m",
            "critical_m": m_crit,
            "radius": run["radius"],
            "tol": run["tol"],
            "rho": rho,
            "critical_m_times_rho": m_crit * rho,
        }
        payload = _write_result(out_dir, "bellman", cfg.effective_dict(), result)
        print(f"critical mean offspring at radius {run['radius']}: "
              f"{m_crit:.6g} (x rho = {m_crit * rho:.4f})")
    return payload


def _write_field_csv(path, field, payload):
    d = field.values.ndim
    header = [f"# config_hash={payload['config_hash']}",
              f"# master_seed={payload['master_seed']}"]
    cols = [f"x{i + 1}" for i in range(d)] if d > 1 else ["x"]
    lines = header + [",".join(cols + ["value"])]
    axis = [str(c) for c in range(-field.radius, field.radius + 1)]
    sites = product(axis, repeat=d)  # C order, as ravel() reads the values
    lines += [f"{','.join(site)},{value!r}"
              for site, value in zip(sites, field.values.ravel().tolist())]
    path.write_text("\n".join(lines) + "\n")


def _cmd_simulate(cfg, out_dir):
    run = cfg.run
    env = RealizedEnvironment(cfg.spec, run["seed"])
    records = replicate_records(
        env, run["origin"], run["x_start"], run["replicates"], run["horizon"],
        cap=run["cap"], master_seed=run["seed"],
    )
    est = NuEstimate.from_records(records)
    result = {
        "mean": est.mean,
        "std_error": est.std_error,
        "replicates": est.replicates,
        "saturated_runs": est.saturated_runs,
        "horizon": est.horizon,
        "reliable": est.reliable,
    }
    payload = _write_result(out_dir, "simulate", cfg.effective_dict(), result)
    lines = [_canonical_json({"config_hash": payload["config_hash"],
                              "master_seed": payload["master_seed"]})]
    lines += [_canonical_json(r) for r in records]
    (out_dir / "replicates.jsonl").write_text("\n".join(lines) + "\n")
    print(f"E nu estimate: {est.mean:.6g} +- {est.std_error:.3g} "
          f"({est.replicates} replicates, {est.saturated_runs} saturated)")
    return payload


_COMMANDS = {
    "rho": _cmd_rho,
    "classify": _cmd_classify,
    "bellman": _cmd_bellman,
    "simulate": _cmd_simulate,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="brwre",
        description="Classify and simulate branching random walks in random environment.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="path to the experiment config")
    for flag in _OVERRIDE_FLAGS:
        parser.add_argument(f"--{flag}", help=f"override [run] {flag}")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        for flag in _OVERRIDE_FLAGS:
            value = getattr(args, flag)
            if value is None:
                continue
            # Route overrides through the same validators as config values.
            cfg.run[flag] = _RUN_KEYS[flag][1](value, None, flag)
        out_dir = Path(cfg.run["out"])
        _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrwreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
