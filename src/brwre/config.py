"""Strict parsing of the line-oriented experiment configuration format.

The format is sectioned ``key = value`` text with sections [graph],
[environment], [offspring] and [run]. Unknown sections or keys, type
mismatches, and out-of-range values are all hard errors carrying the
offending line number: misspelled keys must never silently fall back to
defaults in a numerical experiment.
"""

from dataclasses import dataclass, field

from .environment import EnvironmentSpec, OffspringDistribution
from .errors import ConfigError
from .kernel import GeneratorSet, StepDistribution
from .presets import get_preset
from .simulator import COUNT_CAP_DEFAULT

_RUN_DEFAULTS = {
    "seed": 0,
    "horizon": 200,
    "replicates": 1000,
    "radius": 80,
    "tol": 1e-8,
    "cap": COUNT_CAP_DEFAULT,
    "blowup": 1e12,
    "max_sweeps": 0,  # 0 means automatic
    "x_start": None,  # defaults to the origin
    "origin": None,  # defaults to the zero vector
    "out": "out",
    "m": None,
    "target_mean": None,
    "direction": None,
    "dist_index": 0,
    "return_threshold": 1,
}


@dataclass
class ExperimentConfig:
    """A fully resolved experiment: environment spec plus run parameters."""

    spec: EnvironmentSpec
    preset: str = None
    run: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = dict(_RUN_DEFAULTS)
        merged.update(self.run)
        d = self.spec.generator_set.dimension
        if merged["origin"] is None:
            merged["origin"] = (0,) * d
        if merged["x_start"] is None:
            merged["x_start"] = merged["origin"]
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


_SECTIONS = ("graph", "environment", "offspring", "run")

_SCALAR_KEYS = {
    "graph": {"dimension"},
    "environment": {"preset", "gamma", "law_weights"},
    "offspring": {"dist_weights"},
    "run": set(_RUN_DEFAULTS),
}
_LIST_KEYS = {
    "graph": {"steps", "minimal_steps"},
    "environment": {"law"},
    "offspring": {"dist"},
    "run": set(),
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


def _parse_float(raw, line, key, positive=False):
    try:
        v = float(raw)
    except ValueError:
        raise ConfigError(f"key '{key}' expects a number, got {raw!r}", line)
    if positive and v <= 0.0:
        raise ConfigError(f"key '{key}' must be positive, got {v}", line)
    return v


def _parse_floats(raw, line, key):
    try:
        return tuple(float(x) for x in raw.split())
    except ValueError:
        raise ConfigError(f"key '{key}' expects space-separated numbers, got {raw!r}", line)


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
    masses = {}
    for tok in raw.split():
        if ":" not in tok:
            raise ConfigError(f"offspring entry {tok!r} is not of the form k:prob", line)
        ks, ws = tok.split(":", 1)
        try:
            k, w = int(ks), float(ws)
        except ValueError:
            raise ConfigError(f"offspring entry {tok!r} is not of the form k:prob", line)
        if k < 1:
            raise ConfigError(f"offspring count {k} must be >= 1", line)
        if k in masses:
            raise ConfigError(f"duplicate offspring count {k}", line)
        masses[k] = w
    if not masses:
        raise ConfigError("empty offspring distribution", line)
    return tuple(sorted(masses.items()))


def _tokenize(text):
    """Yield (line_number, section, key, raw_value) with strict structure checks."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
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
        if key not in _SCALAR_KEYS[section] and key not in _LIST_KEYS[section]:
            raise ConfigError(f"unknown key '{key}' in [{section}]", lineno)
        yield lineno, section, key, value


def parse_config(text):
    """Parse config text into an ExperimentConfig, raising on the first defect."""
    scalars = {}  # (section, key) -> (line, raw)
    repeated = {"law": [], "dist": []}
    for lineno, section, key, value in _tokenize(text):
        if key in _LIST_KEYS[section] and key in repeated:
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
        spec = _build_inline_spec(scalars, repeated, take)

    run = {}
    for key in _RUN_DEFAULTS:
        entry = take("run", key)
        if entry is None:
            continue
        line, raw = entry
        run[key] = _convert_run_value(key, raw, line)
    # Anything left in scalars at this point is an inline-spec key that was
    # consumed by _build_inline_spec, or a stale entry; both are errors.
    if scalars:
        (section, key), (line, _) = next(iter(scalars.items()))
        raise ConfigError(f"key '{key}' in [{section}] is not allowed here", line)
    cfg = ExperimentConfig(spec=spec, preset=preset_name, run=run)
    _check_dimensional(cfg)
    return cfg


def _convert_run_value(key, raw, line):
    if key in ("seed",):
        return _parse_int(raw, line, key, lo=0, hi=2 ** 64 - 1)
    if key in ("horizon", "replicates", "radius", "return_threshold"):
        return _parse_int(raw, line, key, lo=1)
    if key in ("cap",):
        return _parse_int(raw, line, key, lo=1, hi=COUNT_CAP_DEFAULT)
    if key in ("max_sweeps", "dist_index"):
        return _parse_int(raw, line, key, lo=0)
    if key == "tol":
        return _parse_float(raw, line, key, positive=True)
    if key in ("m", "target_mean"):
        return _parse_float(raw, line, key, positive=True)
    if key == "blowup":
        v = _parse_float(raw, line, key)
        if v <= 1.0:
            raise ConfigError(f"key 'blowup' must exceed 1, got {v}", line)
        return v
    if key in ("x_start", "origin"):
        return _parse_vector(raw, line, key)
    if key == "direction":
        v = raw.lower()
        if v not in ("raise", "lower"):
            raise ConfigError(f"key 'direction' must be 'raise' or 'lower', got {raw!r}", line)
        return v
    if key == "out":
        return raw
    raise ConfigError(f"unhandled run key '{key}'", line)


def _build_inline_spec(scalars, repeated, take):
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
    except Exception as exc:
        raise ConfigError(f"invalid generator set: {exc}", steps_line)

    entry = take("environment", "gamma")
    if entry is None:
        raise ConfigError("missing [environment] gamma")
    g_line, g_raw = entry
    gamma = _parse_float(g_raw, g_line, "gamma", positive=True)

    if not repeated["law"]:
        raise ConfigError("missing [environment] law entries")
    laws = []
    for line, raw in repeated["law"]:
        weights = _parse_floats(raw, line, "law")
        try:
            laws.append(StepDistribution(gen, weights))
        except Exception as exc:
            raise ConfigError(f"invalid step law: {exc}", line)
    law_weights = _take_weights(take("environment", "law_weights"), len(laws), "law_weights")

    if not repeated["dist"]:
        raise ConfigError("missing [offspring] dist entries")
    dists = []
    for line, raw in repeated["dist"]:
        support = _parse_offspring(raw, line)
        try:
            dists.append(OffspringDistribution(support))
        except Exception as exc:
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
    if any(w < 0 for w in weights):
        raise ConfigError(f"key '{key}' has a negative weight", line)
    return list(weights)


def _check_dimensional(cfg):
    d = cfg.spec.generator_set.dimension
    for key in ("x_start", "origin"):
        v = cfg.run[key]
        if len(v) != d:
            raise ConfigError(f"key '{key}' has {len(v)} coordinates for dimension {d}")
