from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from brwre import (
    PRESETS,
    ConfigError,
    EnvironmentSpec,
    GeneratorSet,
    OffspringDistribution,
    StepDistribution,
    get_preset,
)
from brwre.cli import _config_hash
from brwre.config import _KEYS, ExperimentConfig, parse_config

_KNOWN_KEYS = set().union(*_KEYS.values())


def _numbers(values):
    return " ".join(repr(float(v)) for v in values)


def _steps(steps):
    return "; ".join(" ".join(str(c) for c in s) for s in steps)


def render(effective):
    """Config text for the experiment that ``effective`` describes."""
    if effective["preset"] is not None:
        lines = ["[environment]", f"preset = {effective['preset']}"]
    else:
        graph, env, off = effective["graph"], effective["environment"], effective["offspring"]
        lines = ["[graph]", f"dimension = {graph['dimension']}",
                 f"steps = {_steps(graph['steps'])}",
                 f"minimal_steps = {_steps(graph['minimal_steps'])}",
                 "[environment]", f"gamma = {env['gamma']!r}"]
        lines += [f"law = {_numbers(w)}" for w in env["laws"]]
        lines += [f"law_weights = {_numbers(env['law_weights'])}", "[offspring]"]
        lines += ["dist = " + " ".join(f"{k}:{w!r}" for k, w in dist.items())
                  for dist in off["dists"]]
        lines += [f"dist_weights = {_numbers(off['dist_weights'])}"]
    lines.append("[run]")
    for key, value in effective["run"].items():
        if value is None:
            continue
        if isinstance(value, list):
            value = " ".join(str(c) for c in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@st.composite
def inline_specs(draw):
    gen = draw(st.sampled_from([
        GeneratorSet.nearest_neighbor(1),
        GeneratorSet.nearest_neighbor(2),
        GeneratorSet(1, ((2,), (-2,), (1,), (-1,)), ((1,), (-1,))),
    ]))

    def shares(n):
        ks = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
        return [k / sum(ks) for k in ks]

    laws = [StepDistribution(gen, shares(len(gen.steps)))
            for _ in range(draw(st.integers(1, 3)))]
    dists = []
    for _ in range(draw(st.integers(1, 2))):
        counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))
        dists.append(OffspringDistribution(tuple(zip(counts, shares(len(counts))))))
    # every weight is at least 1 / 28 > gamma
    return EnvironmentSpec(
        generator_set=gen,
        step_support=tuple(zip(laws, shares(len(laws)))),
        offspring_support=tuple(zip(dists, shares(len(dists)))),
        gamma=draw(st.sampled_from([0.01, 0.02])),
    )


@st.composite
def configs(draw):
    preset = draw(st.none() | st.sampled_from(sorted(PRESETS)))
    spec = draw(inline_specs()) if preset is None else get_preset(preset)
    d = spec.generator_set.dimension
    run = {
        "seed": draw(st.integers(0, 2 ** 64 - 1)),
        "horizon": draw(st.integers(1, 500)),
        "tol": draw(st.floats(1e-12, 1.0)),
        "m": draw(st.none() | st.floats(0.5, 3.0)),
        "x_start": tuple(draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d))),
    }
    return ExperimentConfig(spec=spec, preset=preset, run=run)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(cfg=configs())
def test_rendered_config_parses_to_the_same_hash(cfg):
    effective = cfg.effective_dict()
    again = parse_config(render(effective)).effective_dict()
    assert again == effective
    assert _config_hash(again) == _config_hash(effective)


unknown_names = st.from_regex(r"[a-z][a-z_]{0,11}", fullmatch=True)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(cfg=configs(), data=st.data())
def test_unknown_entry_names_its_line(cfg, data):
    lines = render(cfg.effective_dict()).splitlines()
    line = data.draw(st.integers(1, len(lines) + 1))
    entry = data.draw(
        unknown_names.filter(lambda k: k not in _KNOWN_KEYS).map(lambda k: f"{k} = 1")
        | unknown_names.filter(lambda s: s not in _KEYS).map(lambda s: f"[{s}]"))
    lines.insert(line - 1, entry)
    with pytest.raises(ConfigError) as err:
        parse_config("\n".join(lines) + "\n")
    assert err.value.line == line


def test_removed_blowup_key_is_refused():
    with pytest.raises(ConfigError, match="unknown key 'blowup'") as err:
        parse_config("[environment]\npreset = drift-z1\n[run]\nblowup = 1e12\n")
    assert err.value.line == 4


@pytest.mark.parametrize("dist", ["0:1.0", "1:0.5 1:0.5", "2", "a:1"])
def test_bad_offspring_law_names_its_line(dist):
    text = ("[graph]\ndimension = 1\nsteps = 1; -1\n[environment]\ngamma = 0.05\n"
            f"law = 0.6 0.4\n[offspring]\ndist = 1:0.5 2:0.5\ndist = {dist}\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == 9


def test_config_built_in_python_checks_its_coordinates():
    with pytest.raises(ConfigError, match="'x_start' has 2 coordinates for dimension 1"):
        ExperimentConfig(spec=get_preset("drift-z1"), run={"x_start": (0, 0)})
