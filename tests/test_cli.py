import json
import math
import os
from pathlib import Path
import re
import statistics
import subprocess
import sys

import pytest

import brwre.bellman
import brwre.cli
import brwre.simulator
from brwre import PRESETS, env_rho, get_preset, validate, value_iteration
from brwre.cli import _COMMANDS, _OVERRIDE_FLAGS, _parse_args, main
from brwre.config import parse_config

from oracles import field_csv_reference


def write_config(tmp_path, preset):
    path = tmp_path / f"{preset}.cfg"
    path.write_text(f"[environment]\npreset = {preset}\n")
    return path


def simulate(config, out, *extra):
    argv = ["simulate", "--config", str(config), "--out", str(out), "--seed", "3",
            "--replicates", "8", "--horizon", "40", *extra]
    assert main(argv) == 0
    return ((out / "result.json").read_bytes(), (out / "replicates.jsonl").read_bytes())


class TestSimulate:
    def test_each_replicate_runs_once(self, tmp_path, monkeypatch):
        calls = []
        rng_for = brwre.simulator._rng_for

        def counting(*args):
            calls.append(args)
            return rng_for(*args)

        monkeypatch.setattr(brwre.simulator, "_rng_for", counting)
        simulate(write_config(tmp_path, "drift-z1"), tmp_path / "out")
        assert sorted(calls) == [(3, i) for i in range(8)]

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path, "drift-z1")
        out = tmp_path / "out"
        first = simulate(config, out)
        for path in out.iterdir():
            path.unlink()
        assert simulate(config, out) == first

    def test_replicates_reduce_to_result(self, tmp_path):
        out = tmp_path / "out"
        result, lines = simulate(write_config(tmp_path, "drift-z1"), out, "--cap", "1000")
        payload = json.loads(result)
        header, *records = [json.loads(line) for line in lines.decode().splitlines()]
        assert header == {"config_hash": payload["config_hash"],
                          "master_seed": payload["master_seed"]}
        assert [r["replicate"] for r in records] == list(range(8))
        tallies = [r["nu_observed"] for r in records]
        res = payload["result"]
        assert res["replicates"] == len(tallies) == 8
        assert res["mean"] == pytest.approx(statistics.fmean(tallies), rel=1e-12)
        assert res["std_error"] == pytest.approx(
            statistics.stdev(tallies) / math.sqrt(len(tallies)), rel=1e-12)
        assert res["saturated_runs"] == sum(r["saturated"] for r in records)
        assert res["saturated_runs"] > 0  # the small cap clamps the bulk


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_preset_runs(tmp_path, preset):
    validate(get_preset(preset))
    config = write_config(tmp_path, preset)
    for command in ("classify", "rho", "bellman"):
        assert main([command, "--config", str(config), "--out", str(tmp_path / command)]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "simulate"),
                 "--replicates", "4", "--horizon", "20"]) == 0


@pytest.mark.parametrize("body, needle", [
    ("law = 1.0 0.0\n[offspring]\ndist = 2:1.0\n", "(-1,)"),  # not elliptic
    ("law = 0.9 0.1\n[offspring]\ndist = 1:1.0\n", "m*"),  # m* = 1, not supercritical
])
def test_invalid_inline_config_is_refused(tmp_path, capsys, body, needle):
    config = tmp_path / "bad.cfg"
    config.write_text("[graph]\ndimension = 1\nsteps = 1; -1\n"
                      "[environment]\ngamma = 0.05\n" + body)
    out = tmp_path / "out"
    assert main(["classify", "--config", str(config), "--out", str(out)]) == 1
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_simulate_accepts_unit_mean(tmp_path):
    # m* = 1 is no branching process to classify, but it can be simulated
    config = tmp_path / "critical.cfg"
    config.write_text("[graph]\ndimension = 1\nsteps = 1; -1\n[environment]\ngamma = 0.05\n"
                      "law = 0.9 0.1\n[offspring]\ndist = 1:1.0\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out),
                 "--replicates", "4", "--horizon", "20"]) == 0
    assert json.loads((out / "result.json").read_text())["result"]["replicates"] == 4


@pytest.mark.parametrize("flag, value", [
    ("--seed", "-1"), ("--seed", "1.5"), ("--radius", "0"), ("--tol", "x"),
    ("--horizon", "0"), ("--replicates", "0"), ("--cap", "0"),
    ("--tol", "nan"), ("--tol", "inf")])
def test_bad_override_is_a_config_error(tmp_path, capsys, flag, value):
    config = write_config(tmp_path, "drift-z1")
    out = tmp_path / "out"
    assert main(["rho", "--config", str(config), "--out", str(out), flag, value]) == 2
    assert f"'{flag[2:]}'" in capsys.readouterr().err
    assert not out.exists()


# An inline config with every float-valued key, each set to a valid value.
_FLOAT_CONFIG = ("[graph]\ndimension = 1\nsteps = 1; -1\n"
                 "[environment]\ngamma = {gamma}\nlaw = {law}\nlaw_weights = {law_weights}\n"
                 "[offspring]\ndist = {dist}\ndist_weights = {dist_weights}\n"
                 "[run]\ntol = {tol}\nm = {m}\n")
_FLOAT_KEYS = {"gamma": "0.05", "law": "0.6 0.4", "law_weights": "1.0",
               "dist": "1:0.5 2:0.5", "dist_weights": "1.0", "tol": "1e-8", "m": "1.2"}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", sorted(_FLOAT_KEYS))
def test_non_finite_float_is_a_config_error(tmp_path, capsys, key, value):
    bad = {"law": f"{value} {value}", "dist": f"1:1.0 2:{value}"}.get(key, value)
    config = tmp_path / "bad.cfg"
    config.write_text(_FLOAT_CONFIG.format(**{**_FLOAT_KEYS, key: bad}))
    out = tmp_path / "out"
    assert main(["rho", "--config", str(config), "--out", str(out)]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


class TestParser:
    def test_docstring_names_every_command(self):
        doc = " ".join(brwre.cli.__doc__.split())
        sentence = doc[doc.index("COMMAND is one of"):].split(".")[0]
        assert sorted(re.findall(r"``(\w+)``", sentence)) == sorted(_COMMANDS)

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_every_command_takes_every_override(self, command):
        flags = [a for i, flag in enumerate(_OVERRIDE_FLAGS) for a in (f"--{flag}", str(i))]
        parsed_command, config, overrides = _parse_args([command, "--config", "c.cfg", *flags])
        assert (parsed_command, config) == (command, "c.cfg")
        assert [overrides[flag] for flag in _OVERRIDE_FLAGS] == [
            str(i) for i in range(len(_OVERRIDE_FLAGS))]

    @pytest.mark.parametrize("argv", [["nope", "--config", "c.cfg"], ["rho"]])
    def test_unknown_command_or_missing_config_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, code", [
        (["-h"], 0), (["rho", "--help"], 0),
        (["rho", "--config", "c.cfg", "--bogus", "1"], 2),
        (["rho", "--config", "c.cfg", "--seed"], 2),
        (["rho", "stray", "--config", "c.cfg"], 2),
        (["--config", "c.cfg", "--seed", "1"], 2),
        (["--seed", "1", "rho"], 2)])
    def test_help_and_usage_errors_exit(self, capsys, argv, code):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        out, err = capsys.readouterr()
        if code == 0:
            assert not err
            assert all(command in out for command in _COMMANDS)
            assert all(f"--{flag}" in out for flag in ("config", *_OVERRIDE_FLAGS))
        else:
            assert not out
            assert "usage: brwre" in err and "error:" in err

    @pytest.mark.parametrize("argv, overrides", [
        (["--tol=1e-6", "rho", "--config=c.cfg"], {"tol": "1e-6"}),
        (["rho", "--config", "c.cfg", "--tol", "1e-6"], {"tol": "1e-6"}),
        (["rho", "--config", "c.cfg", "--seed", "1", "--seed", "2"], {"seed": "2"})])
    def test_equals_form_and_repeated_flag(self, argv, overrides):
        assert _parse_args(argv) == ("rho", "c.cfg", overrides)

    def test_main_reads_sys_argv(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        monkeypatch.setattr(sys, "argv", ["brwre", "rho", "--config",
                                          str(write_config(tmp_path, "drift-z1")),
                                          "--out", str(out)])
        assert main() == 0
        assert (out / "result.json").exists()

    def test_import_leaves_argparse_unloaded(self):
        # A fresh interpreter, because pytest itself imports argparse.
        probe = "import sys, brwre.cli; print('argparse' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == "False"

    def test_flags_do_not_leak_into_the_next_call(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, "drift-z1")
        assert main(["rho", "--config", str(config), "--out", "first", "--tol", "1e-6"]) == 0
        assert main(["rho", "--config", str(config)]) == 0
        tols = [json.loads((tmp_path / out / "result.json").read_text())
                ["effective_config"]["run"]["tol"] for out in ("first", "out")]
        assert tols == [1e-6, 1e-8]


# A 2-D law without the x1 <-> x2 symmetry, so a transposed field would show.
_SKEWED_Z2 = ("[graph]\ndimension = 2\nsteps = 1 0; -1 0; 0 1; 0 -1\n"
              "[environment]\ngamma = 0.05\nlaw = 0.5 0.1 0.3 0.1\n"
              "[offspring]\ndist = 1:0.8 2:0.2\n")


@pytest.mark.parametrize("body, radius", [("[environment]\npreset = drift-z1\n", 12),
                                          (_SKEWED_Z2, 6)])
def test_field_csv_matches_per_site_reference(tmp_path, body, radius):
    config = tmp_path / "vi.cfg"
    config.write_text(body + "[run]\nm = 1.2\n")
    out = tmp_path / "out"
    assert main(["bellman", "--config", str(config), "--out", str(out),
                 "--radius", str(radius)]) == 0
    payload = json.loads((out / "result.json").read_text())
    field = value_iteration(parse_config(config.read_text()).spec, 1.2, radius).field
    expected = field_csv_reference(field, payload["config_hash"], payload["master_seed"])
    written = (out / "field.csv").read_text()
    assert written == expected
    assert len(written.splitlines()) == 3 + (2 * radius + 1) ** field.values.ndim


@pytest.mark.parametrize("preset", ["drift-z1", "drift-pair-z1", "nn-z2"])
def test_critical_m_bellman_solves_env_rho_once(tmp_path, monkeypatch, preset):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return env_rho(*args, **kwargs)

    monkeypatch.setattr(brwre.bellman, "env_rho", counting)
    monkeypatch.setattr(brwre.cli, "env_rho", counting)
    out = tmp_path / "out"
    assert main(["bellman", "--config", str(write_config(tmp_path, preset)),
                 "--out", str(out), "--radius", "10", "--tol", "1e-4"]) == 0
    assert len(calls) == 1
    result = json.loads((out / "result.json").read_text())["result"]
    assert result["rho"] == env_rho(get_preset(preset)).rho
