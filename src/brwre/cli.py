"""Command-line entry point: experiment orchestration with reproducible outputs.

    brwre COMMAND --config PATH [--seed N] [--out DIR] [--replicates N]
                  [--horizon N] [--radius N] [--tol X] [--cap N]

COMMAND is one of ``bellman``, ``classify``, ``rho`` and ``simulate``.
Every command reads the same config file and takes the same override
flags, each of which replaces the ``[run]`` key of its name and passes the
same validator. ``_parse_args`` reads argv against ``_COMMANDS`` and the
flag names: the command may come anywhere, a flag is ``--flag VALUE`` or
``--flag=VALUE`` with the value taken verbatim, the last of a repeated flag
wins, and flags are not abbreviated. ``-h`` prints the usage; a usage error
exits 2.

Every run writes a ``result.json`` whose header carries the effective
configuration (defaults filled in), its hash, and the master seed, so a
result file is self-describing and reruns with the same config and seed
are byte-identical. ``bellman`` with ``[run] m`` also writes ``field.csv``
and ``simulate`` writes ``replicates.jsonl``, under the same header.
"""

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
_FLAGS = ("config", *_OVERRIDE_FLAGS)


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


def _usage():
    flags = " ".join(f"[--{flag} VALUE]" for flag in _OVERRIDE_FLAGS)
    return f"usage: brwre {{{','.join(_COMMANDS)}}} --config PATH {flags}"


def _usage_error(message):
    print(f"{_usage()}\nbrwre: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse_args(argv):
    """Return ``(command, config, overrides)`` read from ``argv``.

    ``overrides`` maps each override flag given to its last value, as text.
    ``-h`` prints the usage and exits 0; a usage error exits 2.
    """
    tokens = iter(sys.argv[1:] if argv is None else argv)
    command, values = None, {}
    for token in tokens:
        if token in ("-h", "--help"):
            print(_usage())
            raise SystemExit(0)
        name, eq, value = token.partition("=")
        if name.startswith("--") and name[2:] in _FLAGS:
            if not eq:
                value = next(tokens, None)
                if value is None:
                    _usage_error(f"argument {name}: expected one argument")
            values[name[2:]] = value
        elif command is None and not token.startswith("-"):
            if token not in _COMMANDS:
                _usage_error(f"invalid command {token!r} (choose from {', '.join(_COMMANDS)})")
            command = token
        else:
            _usage_error(f"unrecognized argument: {token}")
    if command is None or "config" not in values:
        _usage_error("a COMMAND and --config PATH are required")
    return command, values.pop("config"), values


def main(argv=None):
    command, config, overrides = _parse_args(argv)
    try:
        text = Path(config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        for flag in _OVERRIDE_FLAGS:
            if flag in overrides:
                # Route overrides through the same validators as config values.
                cfg.run[flag] = _RUN_KEYS[flag][1](overrides[flag], None, flag)
        out_dir = Path(cfg.run["out"])
        _COMMANDS[command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrwreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
