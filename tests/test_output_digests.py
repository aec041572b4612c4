"""The committed output corpus: robust and lean decodes, the exact references and km_list."""

import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _digest_script():
    spec = importlib.util.spec_from_file_location(
        "output_digests", ROOT / "scripts" / "output_digests.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_their_pinned_digests():
    # regenerate with scripts/output_digests.py only when an output change is intended
    script = _digest_script()
    pinned = dict(line.split() for line in script.OUT.read_text().splitlines())
    cases = script.output_cases()
    assert sorted(pinned) == sorted(name for name, _ in cases)
    differ = [name for name, digest in cases if digest() != pinned[name]]
    assert differ == []


def test_a_one_ulp_coefficient_change_moves_the_digest(monkeypatch):
    script = _digest_script()
    decode = script.list_decode_hankel

    def nudged(*args, **kwargs):
        found, stats = decode(*args, **kwargs)
        (lab, c), *rest = found
        return [(lab, complex(np.nextafter(c.real, np.inf), c.imag)), *rest], stats

    case = dict(script.output_cases())["lean-n12-clean"]
    pinned = case()
    monkeypatch.setattr(script, "list_decode_hankel", nudged)
    assert case() != pinned
