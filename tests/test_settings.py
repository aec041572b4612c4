"""Guard against knob creep: the settable values of every params class and CLI command."""

import argparse
from dataclasses import fields

from kerdock.cli import build_parser
from kerdock.decoder import DecoderParams
from kerdock.pursuit import PursuitParams
from kerdock.rm1 import KmParams

SETTABLE = {
    DecoderParams: ["k", "candidate_cap", "threads", "profile"],
    KmParams: ["theta", "delta"],
    PursuitParams: ["k", "eps"],
}

SOURCE = ["--in", "--plant", "--noise-energy", "--n", "--k", "--seed"]
OPTIONS = {
    "gen-field": ["--n", "--h"],
    "kerdock": ["--n", "--top-row", "--all"],
    "encode": ["--labels", "--coeffs", "--out"],
    "corrupt": ["--in", "--noise-energy", "--seed", "--out"],
    "decode": [*SOURCE, "--norm-hint", "--cap", "--threads", "--profile"],
    "sparse-approx": [*SOURCE, "--eps", "--out"],
    "verify": ["--suite", "--n"],
    "bench": ["--k", "--n-list", "--trials", "--seed"],
}


def test_settable_values_are_pinned():
    for cls, names in SETTABLE.items():
        got = [f.name for f in fields(cls)]
        assert got == names, (
            f"{cls.__name__} fields changed to {got}; update SETTABLE here and the "
            "settable-value count in ROADMAP.md"
        )
    assert sum(len(v) for v in SETTABLE.values()) == 8


def test_cli_options_are_pinned():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == sorted(OPTIONS), "update OPTIONS here and ROADMAP.md"
    for command, parser in sub.choices.items():
        got = [s for a in parser._actions for s in a.option_strings if s.startswith("--")]
        got.remove("--help")
        assert got == OPTIONS[command], (
            f"kerdock {command} options changed to {got}; update OPTIONS here and "
            "the option counts in ROADMAP.md"
        )
    assert (len(OPTIONS["decode"]), len(OPTIONS["sparse-approx"])) == (10, 8)
