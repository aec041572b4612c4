"""The committed output corpus: robust and lean decodes, the exact references, km_list and CLI stdout."""

import numpy as np


def test_outputs_match_their_pinned_digests(digest_script):
    # regenerate with scripts/output_digests.py only when an output change is intended
    pinned = dict(line.split() for line in digest_script.OUT.read_text().splitlines())
    cases = digest_script.output_cases()
    assert sorted(pinned) == sorted(name for name, _ in cases)
    differ = [name for name, digest in cases if digest() != pinned[name]]
    assert differ == []


def test_cli_outputs_match_their_pinned_digests(digest_script):
    # the criterion-10 invocations' stdout and files, byte for byte
    pinned = dict(line.split() for line in digest_script.CLI_OUT.read_text().splitlines())
    cases = digest_script.cli_cases()
    assert sorted(pinned) == sorted(name for name, _ in cases)
    differ = [name for name, digest in cases if digest() != pinned[name]]
    assert differ == []


def test_the_list_is_ordered_by_pythons_squared_magnitudes(digest_script):
    # on the robust-n3-k3-clean input, nine listed |dot|^2 read
    # 0.30817695403291623 or 0.30817695403291634 in Python, and numpy's abs
    # rounds some of them to the other value: a numpy key would reorder them
    rng = np.random.default_rng([1, 3, 3, 0])
    oracle = digest_script._dense_or_clean(3, digest_script._hankel_terms(3, 3, rng), 0.0, rng)
    results, _ = digest_script.list_decode_hankel(oracle, digest_script.DecoderParams(k=3), seed=0)
    keys = [(-abs(c) ** 2, lab.q.diag, lab.ell) for lab, c in results]
    assert keys == sorted(keys)
    numpy_order = np.lexsort((results.ells, results.diags, -np.abs(results.dots) ** 2))
    assert (numpy_order != np.arange(len(keys))).sum() == 9


def test_a_one_ulp_coefficient_change_moves_the_digest(monkeypatch, digest_script):
    decode = digest_script.list_decode_hankel

    def nudged(*args, **kwargs):
        found, stats = decode(*args, **kwargs)
        (lab, c), *rest = found
        return [(lab, complex(np.nextafter(c.real, np.inf), c.imag)), *rest], stats

    case = dict(digest_script.output_cases())["lean-n12-clean"]
    pinned = case()
    monkeypatch.setattr(digest_script, "list_decode_hankel", nudged)
    assert case() != pinned
