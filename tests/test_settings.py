"""Guard against knob creep: the settable values of every params class."""

from dataclasses import fields

from kerdock.decoder import DecoderParams
from kerdock.pursuit import PursuitParams
from kerdock.rm1 import KmParams

SETTABLE = {
    DecoderParams: ["k", "candidate_cap", "threads", "profile"],
    KmParams: ["theta", "delta"],
    PursuitParams: ["k", "eps"],
}


def test_settable_values_are_pinned():
    for cls, names in SETTABLE.items():
        got = [f.name for f in fields(cls)]
        assert got == names, (
            f"{cls.__name__} fields changed to {got}; update SETTABLE here and the "
            "settable-value count in ROADMAP.md"
        )
    assert sum(len(v) for v in SETTABLE.values()) == 8
