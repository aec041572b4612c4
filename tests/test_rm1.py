import numpy as np
import pytest

from kerdock import rm1
from kerdock.rm1 import (
    bucket_energies,
    exhaustive_pairs,
    km_list,
    rm1_label,
    sample_pairs,
)
from kerdock.rng import child_rng
from kerdock.signal import DenseOracle, SyntheticOracle, fwht


def _tone_signal(m, coeffs):
    # coeffs: {ell: c}; dense signal sum c * phi_{0,ell}
    vals = np.zeros(1 << m, dtype=np.complex128)
    for ell, c in coeffs.items():
        ys = np.arange(1 << m)
        vals += c * (1.0 - 2.0 * (np.bitwise_count(ys & ell) & 1)) / np.sqrt(1 << m)
    return vals


def test_rm1_label_is_a_pure_tone():
    lab = rm1_label(3, 0b101)
    assert lab.n == 3 and lab.ell == 0b101 and lab.eps == 0
    assert all(r == 0 for r in lab.q.rows)


def test_km_list_refuses_a_theta_outside_the_unit_interval_before_any_read():
    o = SyntheticOracle(6, [(rm1_label(6, 5), 1.0)])
    for theta in [0.0, -0.5, 1.5, float("nan")]:
        with pytest.raises(ValueError, match="theta must lie in"):
            km_list(o, theta)
    assert o.query_count == 0


def test_exhaustive_pairs_enumerates_once():
    y1, y2, suf = exhaustive_pairs(4, 2)
    assert len(y1) == 1 << 6
    trips = set(zip(y1.tolist(), y2.tolist(), suf.tolist()))
    assert len(trips) == 1 << 6
    with pytest.raises(ValueError, match="capped at 4194304 triples"):
        exhaustive_pairs(16, 8)


def test_km_list_samples_a_level_whose_enumeration_passes_the_pair_cap(monkeypatch):
    # at theta=0.2 the budget is 1,200 pairs, so levels 3 and 4 (128 and 256 pairs)
    # would enumerate; under a cap of 2^6 they must sample instead of raising
    monkeypatch.setattr(rm1, "PAIR_CAP", 1 << 6)
    m = 4
    o = DenseOracle(_tone_signal(m, {0b1010: 1.0, 0b0001: 0.6, 0b1111: 0.1}))
    got = dict(km_list(o, 0.2, seed=0))
    assert 0b1010 in got
    assert abs(got[0b1010] - 1.0) < 0.25


def test_sample_pairs_ranges():
    rng = child_rng(0, "t")
    y1, y2, suf = sample_pairs(rng, 6, 2, 500)
    assert y1.max() < 4 and y2.max() < 4 and suf.max() < 16


def test_bucket_energies_exact_on_exhaustive_pairs():
    m = 4
    coeffs = {0b0011: 1.0, 0b1011: 0.5, 0b0100: -0.25j}
    o = DenseOracle(_tone_signal(m, coeffs))
    j = 2
    y1, y2, suf = exhaustive_pairs(m, j)
    prefixes = list(range(1 << j))
    est = bucket_energies(o, j, prefixes, y1, y2, suf)
    for p in prefixes:
        want = sum(abs(c) ** 2 for ell, c in coeffs.items() if ell & 3 == p)
        assert abs(est[prefixes.index(p)] - want) < 1e-10


def test_bucket_energies_unbiased_under_sampling():
    m = 6
    o = DenseOracle(_tone_signal(m, {0b000101: 1.0}))
    rng = child_rng(1, "be")
    reps = []
    for _ in range(200):
        y1, y2, suf = sample_pairs(rng, m, 3, 64)
        reps.append(bucket_energies(o, 3, [0b101, 0b001], y1, y2, suf))
    mean = np.mean(reps, axis=0)
    assert abs(mean[0] - 1.0) < 0.1
    assert abs(mean[1]) < 0.1


def test_km_list_exact_small_domain():
    m = 4
    coeffs = {0b1010: 1.0, 0b0001: 0.6, 0b1111: 0.1}
    o = DenseOracle(_tone_signal(m, coeffs))
    got = km_list(o, 0.2)
    found = dict(got)
    assert set(found) == {0b1010, 0b0001}  # 0b1111 is below theta
    for ell in found:
        assert abs(found[ell] - coeffs[ell]) < 1e-9
    assert got[0][0] == 0b1010  # sorted by descending coefficient


def test_km_list_sampled_recovers_planted_tone():
    m = 10
    ell = 0b1011001101
    o = SyntheticOracle(m, [(rm1_label(m, ell), 1.0)], noise_energy=1.0, seed=3)
    got = km_list(o, 0.25, seed=5)
    assert any(e == ell for e, _ in got)
    c = dict(got)[ell]
    assert abs(c - 1.0) < 0.25


def test_km_list_soundness_no_light_tones():
    # everything returned must clear the theta/2 coefficient prune
    m = 8
    terms = [(rm1_label(m, e), c) for e, c in [(7, 1.0), (100, 0.9), (255, 0.05)]]
    o = SyntheticOracle(m, terms, noise_energy=0.2, seed=1)
    theta = 0.25
    got = km_list(o, theta, seed=2)
    hint_sq = o.norm_hint**2
    for ell, c in got:
        assert abs(c) ** 2 >= 0.5 * theta * hint_sq
    assert all(e != 255 for e, _ in got)


def _eight_tones_hint_one():
    vals = _tone_signal(6, {e: 1.0 for e in [1, 2, 4, 8, 16, 32, 3, 5]})
    return DenseOracle(vals, norm_hint=1.0)


def test_km_list_cap_enforced():
    # 8 equal tones under a norm hint of 1: each clears (theta/2) hint^2, so
    # from level 3 on more prefixes are heavy than the ceil(4/theta) = 5 cap
    got = km_list(_eight_tones_hint_one(), 0.8, seed=0)
    assert len(got) == 5
    assert {e for e, _ in got} < {1, 2, 4, 8, 16, 32, 3, 5}


def _m4_noisy_tones():
    vals = _tone_signal(4, {0b1010: 1.0, 0b0001: 0.6, 0b0110: 0.6, 0b1111: 0.1})
    return DenseOracle(vals + 0.05 * np.random.default_rng(7).standard_normal(16))


def _m10_noisy_tone():
    return SyntheticOracle(10, [(rm1_label(10, 717), 1.0)], noise_energy=1.0, seed=3)


_ONE = "0x1.0000000000000p+0"

# outputs of the list-based search this one replaced: (ell, real hex, imag hex),
# query_count, and each level's prefixes in order (None: not pinned)
PINNED = {
    "m4-every-level-exhaustive": (
        _m4_noisy_tones,
        0.2,
        0,
        [
            (10, "0x1.069e8d4b88e46p+0", "0x0.0p+0"),
            (6, "0x1.4bcbb236fabdcp-1", "0x0.0p+0"),
            (1, "0x1.342653ea02bc6p-1", "0x0.0p+0"),
        ],
        976,
        {1: [0, 1], 2: [0, 2, 1, 3], 3: [2, 6, 1, 5], 4: [2, 10, 6, 14, 1, 9]},
    ),
    "m6-cap-binds": (
        _eight_tones_hint_one,
        0.8,
        0,
        [(e, _ONE, "0x0.0p+0") for e in [1, 3, 5, 16, 32]],
        15364,
        {
            1: [0, 1],
            2: [0, 2, 1, 3],
            3: [0, 4, 1, 5, 2, 6, 3, 7],
            4: [0, 8, 3, 11, 4, 12, 1, 9, 5, 13],
            5: [0, 16, 3, 19, 5, 21, 4, 20, 1, 17],
            6: [1, 33, 3, 35, 16, 48, 5, 37, 0, 32],
        },
    ),
    "m10-noisy-tone": (
        _m10_noisy_tone,
        0.25,
        5,
        [(717, "0x1.fb7fc480e6e90p-1", "-0x1.915f1db858790p-10")],
        308224,
        None,
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_km_list_output_is_pinned(case, monkeypatch):
    make, theta, seed, want, queries, want_levels = PINNED[case]
    levels = {}

    def spy(oracle, j, prefixes, *pairs):
        levels.setdefault(j, np.asarray(prefixes).tolist())
        return bucket_energies(oracle, j, prefixes, *pairs)

    monkeypatch.setattr(rm1, "bucket_energies", spy)
    o = make()
    got = km_list(o, theta, seed=seed)
    assert [(e, c.real.hex(), c.imag.hex()) for e, c in got] == want
    assert o.query_count == queries
    if want_levels is not None:
        assert levels == want_levels


def test_km_list_empty_when_nothing_is_heavy():
    m = 6
    o = SyntheticOracle(m, [], noise_energy=1.0, seed=4)
    got = km_list(o, 0.5, seed=1)
    assert got == []


def test_km_list_refuses_a_zero_hint_before_any_read():
    # a zero hint makes the threshold 0, which >= admits: every tone would be listed
    o = DenseOracle(np.zeros(1 << 8, dtype=np.complex128))
    with pytest.raises(ValueError, match="norm hint 0 has a zero square"):
        km_list(o, 0.5, seed=0)
    assert o.query_count == 0


def test_km_list_deterministic_for_fixed_seed():
    m = 9
    o1 = SyntheticOracle(m, [(rm1_label(m, 77), 1.0)], noise_energy=0.7, seed=6)
    o2 = SyntheticOracle(m, [(rm1_label(m, 77), 1.0)], noise_energy=0.7, seed=6)
    a = km_list(o1, 0.3, seed=9)
    b = km_list(o2, 0.3, seed=9)
    assert a == b


def test_km_list_superset_of_brute_force_heavy_set():
    rng = np.random.default_rng(12)
    m = 6
    for trial in range(5):
        vals = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
        vals /= np.linalg.norm(vals)
        o = DenseOracle(vals)
        theta = 0.05
        spectrum = fwht(vals) / np.sqrt(1 << m)
        heavy = {int(e) for e in np.nonzero(np.abs(spectrum) ** 2 >= theta)[0]}
        got = {e for e, _ in km_list(o, theta, seed=trial)}
        assert heavy <= got
        # soundness: nothing below a quarter of the threshold
        for e in got:
            assert abs(spectrum[e]) ** 2 >= theta / 4.0


def test_km_list_refuses_an_empty_domain_before_any_read():
    o = DenseOracle(np.ones(1, dtype=np.complex128))
    with pytest.raises(ValueError, match="domain must have at least one bit"):
        km_list(o, 0.5, seed=0)
    assert o.query_count == 0
