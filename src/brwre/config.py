"""Strict parsing of the line-oriented experiment configuration format.

The format is sectioned ``key = value`` text with sections [graph],
[environment], [offspring] and [run]. Unknown sections or keys, type
mismatches, and out-of-range values are all hard errors carrying the
offending line number: misspelled keys must never silently fall back to
defaults in a numerical experiment.
"""

from dataclasses import dataclass, field
from functools import partial
import math

from .environment import EnvironmentSpec, OffspringDistribution
from .errors import ConfigError, PreconditionError
from .kernel import GeneratorSet, StepDistribution
from .presets import get_preset
from .simulator import COUNT_CAP_DEFAULT


@dataclass
class ExperimentConfig:
    """A fully resolved experiment: environment spec plus run parameters."""

    spec: EnvironmentSpec
    preset: str = None
    run: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {key: default for key, (default, _) in _RUN_KEYS.items()}
        merged.update(self.run)
        d = self.spec.generator_set.dimension
        if merged["origin"] is None:
            merged["origin"] = (0,) * d
        if merged["x_start"] is None:
            merged["x_start"] = merged["origin"]
        for key in ("x_start", "origin"):
            n = len(merged[key])
            if n != d:
                raise ConfigError(f"key '{key}' has {n} coordinates for dimension {d}")
        self.run = merged

    def effective_dict(self):
        """Everything needed to reproduce the run, defaults included."""
        gen = self.spec.generator_set
        return {
            "preset": self.preset,
            "graph": {
                "dimension": gen.dimension,
                "steps": [list(s) for s in gen.steps],
                "minimal_steps": [list(s) for s in gen.minimal_subset],
            },
            "environment": {
                "gamma": self.spec.gamma,
                "laws": [list(p.weights) for p, _ in self.spec.step_support],
                "law_weights": [w for _, w in self.spec.step_support],
            },
            "offspring": {
                "dists": [
                    {str(k): w for k, w in mu.support}
                    for mu, _ in self.spec.offspring_support
                ],
                "dist_weights": [w for _, w in self.spec.offspring_support],
            },
            "run": {
                k: (list(v) if isinstance(v, tuple) else v) for k, v in self.run.items()
            },
        }


def _parse_int(raw, line, key, lo=None, hi=None):
    try:
        v = int(raw, 0)
    except ValueError:
        raise ConfigError(f"key '{key}' expects an integer, got {raw!r}", line)
    if lo is not None and v < lo:
        raise ConfigError(f"key '{key}' must be >= {lo}, got {v}", line)
    if hi is not None and v > hi:
        raise ConfigError(f"key '{key}' must be <= {hi}, got {v}", line)
    return v


def _parse_float(raw, line, key):
    try:
        v = float(raw)
    except ValueError:
        raise ConfigError(f"key '{key}' expects a number, got {raw!r}", line)
    if not 0.0 < v < math.inf:
        raise ConfigError(f"key '{key}' must be positive and finite, got {v}", line)
    return v


def _parse_floats(raw, line, key):
    try:
        values = tuple(float(x) for x in raw.split())
    except ValueError:
        raise ConfigError(f"key '{key}' expects space-separated numbers, got {raw!r}", line)
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"key '{key}' expects finite numbers, got {raw!r}", line)
    return values


def _parse_vector(raw, line, key):
    try:
        return tuple(int(x) for x in raw.split())
    except ValueError:
        raise ConfigError(f"key '{key}' expects space-separated integers, got {raw!r}", line)


def _parse_step_list(raw, line, key):
    out = []
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            raise ConfigError(f"key '{key}' has an empty step entry", line)
        out.append(_parse_vector(part, line, key))
    return tuple(out)


def _parse_offspring(raw, line):
    support = []
    for tok in raw.split():
        try:
            k, w = tok.split(":")
            k, w = int(k), float(w)
        except ValueError:
            raise ConfigError(f"key 'dist' entry {tok!r} is not of the form k:prob", line)
        if not math.isfinite(w):
            raise ConfigError(f"key 'dist' entry {tok!r} has a non-finite probability", line)
        support.append((k, w))
    return tuple(support)


# Each [run] key's default and parser; the CLI's override flags parse
# through the same entries.
_RUN_KEYS = {
    "seed": (0, partial(_parse_int, lo=0, hi=2 ** 64 - 1)),
    "horizon": (200, partial(_parse_int, lo=1)),
    "replicates": (1000, partial(_parse_int, lo=1)),
    "radius": (80, partial(_parse_int, lo=1)),
    "tol": (1e-8, _parse_float),
    "cap": (COUNT_CAP_DEFAULT, partial(_parse_int, lo=1, hi=COUNT_CAP_DEFAULT)),
    "max_sweeps": (0, partial(_parse_int, lo=0)),  # 0 means automatic
    "x_start": (None, _parse_vector),  # defaults to the origin
    "origin": (None, _parse_vector),  # defaults to the zero vector
    "out": ("out", lambda raw, line, key: raw),
    "m": (None, _parse_float),
}

_KEYS = {
    "graph": {"dimension", "steps", "minimal_steps"},
    "environment": {"preset", "gamma", "law", "law_weights"},
    "offspring": {"dist", "dist_weights"},
    "run": set(_RUN_KEYS),
}
_REPEATED = ("law", "dist")  # keys that may appear on several lines


def _tokenize(text):
    """Yield (line_number, section, key, raw_value) with strict structure checks."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _KEYS:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        if section is None:
            raise ConfigError("key outside of any section", lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not value:
            raise ConfigError(f"key '{key}' has no value", lineno)
        if key not in _KEYS[section]:
            raise ConfigError(f"unknown key '{key}' in [{section}]", lineno)
        yield lineno, section, key, value


def parse_config(text):
    """Parse config text into an ExperimentConfig, raising on the first defect."""
    scalars = {}  # (section, key) -> (line, raw)
    repeated = {key: [] for key in _REPEATED}
    for lineno, section, key, value in _tokenize(text):
        if key in repeated:
            repeated[key].append((lineno, value))
            continue
        if (section, key) in scalars:
            raise ConfigError(f"duplicate key '{key}' in [{section}]", lineno)
        scalars[(section, key)] = (lineno, value)

    def take(section, key):
        return scalars.pop((section, key), None)

    preset_entry = take("environment", "preset")
    if preset_entry is not None:
        line, name = preset_entry
        leftovers = [k for (s, k) in scalars if s in ("graph", "environment", "offspring")]
        leftovers += [k for k, v in repeated.items() if v]
        if leftovers:
            raise ConfigError(
                f"preset '{name}' cannot be combined with inline keys: {', '.join(sorted(set(leftovers)))}",
                line,
            )
        try:
            spec = get_preset(name)
        except KeyError as exc:
            raise ConfigError(str(exc.args[0]), line)
        preset_name = name
    else:
        preset_name = None
        spec = _build_inline_spec(repeated, take)

    run = {}
    for key, (_, parse) in _RUN_KEYS.items():
        entry = take("run", key)
        if entry is not None:
            line, raw = entry
            run[key] = parse(raw, line, key)
    return ExperimentConfig(spec=spec, preset=preset_name, run=run)


def _build_inline_spec(repeated, take):
    entry = take("graph", "dimension")
    if entry is None:
        raise ConfigError("missing [graph] dimension (or use an [environment] preset)")
    dim_line, dim_raw = entry
    dimension = _parse_int(dim_raw, dim_line, "dimension", lo=1, hi=3)

    entry = take("graph", "steps")
    if entry is None:
        raise ConfigError("missing [graph] steps")
    steps_line, steps_raw = entry
    steps = _parse_step_list(steps_raw, steps_line, "steps")

    entry = take("graph", "minimal_steps")
    if entry is None:
        minimal = steps
    else:
        m_line, m_raw = entry
        minimal = _parse_step_list(m_raw, m_line, "minimal_steps")
    try:
        gen = GeneratorSet(dimension, steps, minimal)
    except PreconditionError as exc:
        raise ConfigError(f"invalid generator set: {exc}", steps_line)

    entry = take("environment", "gamma")
    if entry is None:
        raise ConfigError("missing [environment] gamma")
    g_line, g_raw = entry
    gamma = _parse_float(g_raw, g_line, "gamma")

    if not repeated["law"]:
        raise ConfigError("missing [environment] law entries")
    laws = []
    for line, raw in repeated["law"]:
        weights = _parse_floats(raw, line, "law")
        try:
            laws.append(StepDistribution(gen, weights))
        except PreconditionError as exc:
            raise ConfigError(f"invalid step law: {exc}", line)
    law_weights = _take_weights(take("environment", "law_weights"), len(laws), "law_weights")

    if not repeated["dist"]:
        raise ConfigError("missing [offspring] dist entries")
    dists = []
    for line, raw in repeated["dist"]:
        support = _parse_offspring(raw, line)
        try:
            dists.append(OffspringDistribution(support))
        except PreconditionError as exc:
            raise ConfigError(f"invalid offspring law: {exc}", line)
    dist_weights = _take_weights(take("offspring", "dist_weights"), len(dists), "dist_weights")

    return EnvironmentSpec(
        generator_set=gen,
        step_support=tuple(zip(laws, law_weights)),
        offspring_support=tuple(zip(dists, dist_weights)),
        gamma=gamma,
    )


def _take_weights(entry, n, key):
    if entry is None:
        return [1.0 / n] * n
    line, raw = entry
    weights = _parse_floats(raw, line, key)
    if len(weights) != n:
        raise ConfigError(f"key '{key}' has {len(weights)} entries for {n} laws", line)
    if not all(w >= 0.0 for w in weights):
        raise ConfigError(f"key '{key}' has a negative weight", line)
    return list(weights)
