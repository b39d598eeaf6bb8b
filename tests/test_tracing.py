"""The benchmark's tracer patches library names by attribute; each must stay bound."""

import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_patched_name_is_bound():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(owner, attr) for owner, attr, _, _ in tracing._patch_table()]
    unbound = [f"{owner.__name__}.{attr}" for owner, attr in targets
               if not callable(getattr(owner, attr, None))]
    assert targets and not unbound
