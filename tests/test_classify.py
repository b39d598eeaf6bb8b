import pytest

from brwre import STRONGLY_RECURRENT, TRANSIENT, classify, get_preset


@pytest.mark.parametrize("preset, kind", [
    ("drift-z1", TRANSIENT),
    ("strong-drift-pair", TRANSIENT),
    ("nn-z2", TRANSIENT),
    ("symmetric-z1", STRONGLY_RECURRENT),
    ("recurrent-z1", STRONGLY_RECURRENT),
    ("zero-drift-pair", STRONGLY_RECURRENT),
    # m* = 1.5 against 1/rho = 1 / (2 sqrt(0.21)) = 1.091, from the weaker drift
    ("drift-pair-z1", STRONGLY_RECURRENT),
])
def test_preset_verdict(preset, kind):
    verdict = classify(get_preset(preset))
    assert verdict.kind == kind
    assert not verdict.near_critical
