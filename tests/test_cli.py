import json
import math
import statistics

import pytest

import brwre.simulator
from brwre import PRESETS, get_preset, validate
from brwre.cli import main


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
    for command in ("classify", "rho"):
        assert main([command, "--config", str(config), "--out", str(tmp_path / command)]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "simulate"),
                 "--replicates", "4", "--horizon", "20"]) == 0
