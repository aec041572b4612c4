import numpy as np
import pytest

import kerdock.cli as cli_mod
from kerdock.cli import build_parser, main
from kerdock.codebook import format_label, CodewordLabel, HankelMat, lf_kerdock, pack_hex, pair_dot
from kerdock.field import FieldContext
from kerdock.oracle import count_hankel_by_rank, verify_homomorphism
from kerdock.pursuit import read_representation
from kerdock.signal import make_noisy, read_signal, write_signal


def _plant_spec(n, picks, coeffs, ell=1):
    ctx = FieldContext.default(n)
    parts = []
    for p, c in zip(picks, coeffs):
        lab = CodewordLabel(lf_kerdock(ctx, p), ell, 0)
        parts.append(f"{format_label(lab)}:{c}")
    return ",".join(parts)


def test_gen_field_prints_coefficient_line(capsys):
    assert main(["gen-field", "--n", "4"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "4: 1 1 0 0 1"  # 1 + t + t^4


def test_gen_field_rejects_reducible_h(capsys):
    assert main(["gen-field", "--n", "4", "--h", "0b10101"]) == 2
    assert "error:" in capsys.readouterr().err


def test_kerdock_gen_all(capsys):
    assert main(["kerdock", "gen", "--all", "--n", "3"]) == 0
    lines = capsys.readouterr().out.split()
    assert len(lines) == 8
    assert len(set(lines)) == 8
    ctx = FieldContext.default(3)
    assert pack_hex(lf_kerdock(ctx, 0b101).diag, 5) in lines


def test_kerdock_gen_single_top_row(capsys):
    assert main(["kerdock", "gen", "--n", "4", "--top-row", "b"]) == 0
    out = capsys.readouterr().out.strip()
    ctx = FieldContext.default(4)
    assert out == pack_hex(lf_kerdock(ctx, 0xB).diag, 7)


def test_kerdock_gen_needs_a_selector(capsys):
    assert main(["kerdock", "gen", "--n", "4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_encode_corrupt_decode_pipeline(tmp_path, capsys):
    n = 6
    ctx = FieldContext.default(n)
    lab = CodewordLabel(lf_kerdock(ctx, 0x2B), 9, 0)
    labels = tmp_path / "labels.txt"
    coeffs = tmp_path / "coeffs.txt"
    labels.write_text(format_label(lab) + "\n")
    coeffs.write_text("1.0 0.0\n")
    clean = tmp_path / "clean.sig"
    noisy = tmp_path / "noisy.sig"

    assert main(["encode", "--labels", str(labels), "--coeffs", str(coeffs), "--out", str(clean)]) == 0
    vals = read_signal(str(clean))
    assert vals.size == 1 << n
    capsys.readouterr()

    assert main(["corrupt", "--in", str(clean), "--noise-energy", "0.2", "--seed", "3", "--out", str(noisy)]) == 0

    delta = read_signal(str(noisy)) - vals
    assert abs(np.linalg.norm(delta) ** 2 - 0.2) < 1e-9
    capsys.readouterr()

    assert main(["decode", "--in", str(noisy), "--k", "3", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    want = f"{pack_hex(lab.q.diag, 2 * n - 1)} {lab.ell:x} "
    assert any(line.startswith(want) for line in out.splitlines())
    assert "# queries" in out


@pytest.mark.parametrize("command", [["decode"], ["sparse-approx", "--eps", "0.1"]])
def test_decode_requires_exactly_one_source(command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--k", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([*command, "--k", "2", "--in", "x", "--plant", "y", "--n", "4"])
    assert exc.value.code == 2


def test_readme_plant_with_noise_decodes_at_k1(capsys):
    # level 4 keeps 71 prefixes, above the old 64 k^3 default cap
    argv = ["decode", "--plant", "6;Q=717;l=05;e=0:1.0", "--n", "6", "--k", "1",
            "--noise-energy", "0.05", "--seed", "7"]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("717 5 ")


@pytest.mark.parametrize(
    "command, coeff",
    [(["decode"], "nan"), (["decode"], "inf"), (["sparse-approx", "--eps", "0.1"], "inf")],
)
def test_non_finite_plant_coefficient_exits_two(command, coeff, capsys):
    spec = _plant_spec(6, [0x2B], [coeff])
    assert main([*command, "--plant", spec, "--n", "6", "--k", "1"]) == 2
    assert "plant coefficient must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["nan", "1.0 inf"])
def test_encode_rejects_a_non_finite_coefficient(line, tmp_path, capsys):
    labels = tmp_path / "labels.txt"
    coeffs = tmp_path / "coeffs.txt"
    out = tmp_path / "out.sig"
    lab = CodewordLabel(lf_kerdock(FieldContext.default(4), 3), 1, 0)
    labels.write_text(f"{format_label(lab)}\n" * 2)
    coeffs.write_text(f"1.0 0.0\n{line}\n")
    argv = ["encode", "--labels", str(labels), "--coeffs", str(coeffs), "--out", str(out)]
    assert main(argv) == 2
    assert "coefficient 2 must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_encode_rejects_a_coefficient_line_with_extra_fields(tmp_path, capsys):
    labels = tmp_path / "labels.txt"
    coeffs = tmp_path / "coeffs.txt"
    out = tmp_path / "out.sig"
    lab = CodewordLabel(lf_kerdock(FieldContext.default(4), 3), 1, 0)
    labels.write_text(f"{format_label(lab)}\n" * 2)
    coeffs.write_text("1.0 0.0\n1.0 0.0 7.0\n")
    argv = ["encode", "--labels", str(labels), "--coeffs", str(coeffs), "--out", str(out)]
    assert main(argv) == 2
    assert "coefficient 2 has 3 fields" in capsys.readouterr().err
    assert not out.exists()


def test_decode_rejects_non_finite_and_empty_files(tmp_path, capsys):
    sig = tmp_path / "s.sig"
    vals = make_noisy(4, [(CodewordLabel(lf_kerdock(FieldContext.default(4), 3), 1, 0), 1.0)])
    vals[5] = complex("nan")
    write_signal(str(sig), vals)
    assert main(["decode", "--in", str(sig), "--k", "1"]) == 2
    assert "non-finite value at position 5" in capsys.readouterr().err
    sig.write_text("n=0\n1 0\n")
    assert main(["decode", "--in", str(sig), "--k", "1"]) == 2
    assert "needs n >= 1, got n=0" in capsys.readouterr().err


def test_sparse_approx_refuses_an_empty_domain(tmp_path, capsys):
    sig = tmp_path / "s.sig"
    sig.write_text("n=0\n1 0\n")
    assert main(["sparse-approx", "--in", str(sig), "--k", "1", "--eps", "0.1"]) == 2
    assert "needs n >= 1, got n=0" in capsys.readouterr().err


def test_errors_say_which_k_to_use(capsys):
    spec = _plant_spec(8, [0x2B], ["1.0"])
    assert main(["decode", "--plant", spec, "--n", "8", "--k", "256"]) == 2
    err = capsys.readouterr().err
    assert "k >= 2^n (k=256, n=8)" in err and "lower k below 2^n = 256" in err
    spec = _plant_spec(9, [0x10F], ["1.0"])
    assert main(["sparse-approx", "--plant", spec, "--n", "9", "--k", "4", "--eps", "0.1"]) == 2
    assert "k=4 exceeds the sqrt(N)/6 coherence regime: the largest allowed k at n=9 is 3" in (
        capsys.readouterr().err
    )


def test_lean_decode_takes_a_k_of_2_to_the_n(capsys):
    spec = _plant_spec(8, [0x2B], ["1.0"])
    argv = ["decode", "--plant", spec, "--n", "8", "--k", "256", "--profile", "lean"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    diag = lf_kerdock(FieldContext.default(8), 0x2B).diag
    assert out.splitlines()[0].startswith(pack_hex(diag, 15) + " ")
    assert "# levels 8\n" in out


def test_decode_plant_requires_n(capsys):
    assert main(["decode", "--k", "2", "--plant", "junk"]) == 2
    assert "error:" in capsys.readouterr().err


def test_decode_bad_inputs_exit_two(tmp_path, capsys):
    assert main(["decode", "--k", "2", "--n", "3", "--plant", "3;Q=1f;x=1;e=0:1.0"]) == 2
    huge = tmp_path / "huge.sig"
    huge.write_text("n=40\n")
    assert main(["decode", "--k", "2", "--in", str(huge)]) == 2
    err = capsys.readouterr().err
    assert "lacks the field" in err and "n=40" in err
    # the robust profile reads every position, so n=21 is refused up front
    tone = format_label(CodewordLabel(HankelMat(21, 0), 3, 0))
    plant = ["--n", "21", "--plant", f"{tone}:1.0"]
    assert main(["decode", "--k", "1", *plant]) == 2
    assert 'profile="lean"' in capsys.readouterr().err
    assert main(["decode", "--k", "1", "--profile", "lean", *plant]) == 0


@pytest.mark.parametrize("hint", ["0", "-1", "nan", "inf"])
def test_decode_rejects_a_bad_norm_hint(hint, capsys):
    spec = _plant_spec(6, [0x2B], ["1.0"])
    argv = ["decode", "--plant", spec, "--n", "6", "--k", "2", "--norm-hint", hint]
    assert main(argv) == 2
    assert f"--norm-hint must be positive and finite, got {float(hint)}" in capsys.readouterr().err


def _never(*args, **kwargs):
    raise AssertionError("the input was read")


@pytest.fixture
def no_reads(monkeypatch):
    monkeypatch.setattr(cli_mod, "list_decode_hankel", _never)
    monkeypatch.setattr(cli_mod, "sparse_approx", _never)


@pytest.mark.parametrize(
    "command",
    [["decode"], ["decode", "--profile", "lean"], ["sparse-approx", "--eps", "0.1"]],
)
def test_a_planted_energy_past_the_float_range_exits_two(command, no_reads, capsys):
    argv = [*command, "--plant", "6;Q=717;l=05;e=0:1e200", "--n", "6", "--k", "1"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "norm hint must have a finite square, got inf" in err


def test_a_norm_hint_whose_square_overflows_exits_two(no_reads, capsys):
    argv = ["decode", "--plant", "6;Q=717;l=05;e=0:1.0", "--n", "6", "--k", "1"]
    assert main([*argv, "--norm-hint", "1e200"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "norm hint must have a finite square, got 1e+200" in err


def test_a_norm_hint_whose_square_underflows_exits_two(capsys):
    # 1e-170 squared is 0.0: every bar would be 0 and all 131,072 codewords listed
    argv = ["decode", "--plant", "6;Q=717;l=05;e=0:1.0", "--n", "6", "--k", "1"]
    assert main([*argv, "--norm-hint", "1e-170"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "norm hint 1e-170 has a zero square" in err


@pytest.mark.filterwarnings("error")
def test_a_file_energy_past_the_float_range_exits_two(no_reads, tmp_path, capsys):
    values = make_noisy(6, [])
    values[17] = 1e200
    sig = tmp_path / "s.sig"
    write_signal(str(sig), values)
    assert main(["decode", "--in", str(sig), "--k", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "norm hint must have a finite square, got inf" in err


@pytest.mark.parametrize(
    "n, command",
    [
        (6, ["decode"]),
        (6, ["decode", "--profile", "lean"]),
        (8, ["decode"]),
        (8, ["sparse-approx", "--eps", "0.1"]),
    ],
)
def test_a_zero_file_exits_two_naming_the_zero_hint(n, command, tmp_path, capsys):
    sig = tmp_path / "zero.sig"
    write_signal(str(sig), make_noisy(n, []))
    assert main([*command, "--in", str(sig), "--k", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "norm hint 0 has a zero square" in err


@pytest.mark.parametrize("profile", ["robust", "lean"])
def test_a_zero_plant_exits_two_naming_the_zero_hint(profile, capsys):
    argv = ["decode", "--plant", "6;Q=717;l=05;e=0:0", "--n", "6", "--k", "1"]
    assert main([*argv, "--profile", profile]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "norm hint 0 has a zero square" in err


def test_negative_noise_energy_exits_two(tmp_path, capsys):
    spec = _plant_spec(6, [0x2B], ["1.0"])
    assert main(["decode", "--plant", spec, "--n", "6", "--k", "2", "--noise-energy", "-5"]) == 2
    assert "got -5.0" in capsys.readouterr().err
    # checked before the input file is opened: a missing file is not reported
    out = tmp_path / "out.sig"
    argv = ["corrupt", "--in", str(tmp_path / "missing.sig"), "--noise-energy", "-1", "--out", str(out)]
    assert main(argv) == 2
    assert "got -1.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["decode"], ["sparse-approx", "--eps", "0.1"]])
def test_noise_energy_with_a_file_exits_two(command, tmp_path, capsys):
    lab = CodewordLabel(lf_kerdock(FieldContext.default(6), 0x2B), 9, 0)
    sig = tmp_path / "s.sig"
    write_signal(str(sig), make_noisy(6, [(lab, 1.0)]))
    argv = [*command, "--in", str(sig), "--k", "1"]
    for energy in ("0", "50", "-5"):
        assert main([*argv, "--noise-energy", energy]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "kerdock corrupt" in captured.err
    # without the flag the file still decodes
    assert main(argv) == 0
    assert capsys.readouterr().out != ""


@pytest.mark.parametrize("command", [["decode"], ["sparse-approx", "--eps", "0.1"]])
def test_n_with_a_file_exits_two(command, tmp_path, capsys):
    lab = CodewordLabel(lf_kerdock(FieldContext.default(5), 0x0B), 3, 0)
    sig = tmp_path / "s.sig"
    write_signal(str(sig), make_noisy(5, [(lab, 1.0)]))
    for n in ("9", "5"):
        assert main([*command, "--in", str(sig), "--n", n, "--k", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--n needs --plant; with --in the file header gives n" in captured.err


def test_sparse_approx_names_its_range(capsys):
    argv = ["sparse-approx", "--k", "1", "--eps", "0.1"]
    spec = _plant_spec(5, [0x0B], ["1.0"])
    assert main([*argv, "--plant", spec, "--n", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sparse approximation needs n >= 6, got n=5" in captured.err
    spec = f"{format_label(CodewordLabel(HankelMat(21, 0), 0, 0))}:1.0"
    assert main([*argv, "--plant", spec, "--n", "21"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "lean" not in captured.err
    assert "it needs n <= 20, got n=21" in captured.err


@pytest.mark.parametrize("flag", ["--c1", "--c2", "--delta"])
def test_decode_has_no_test_constant_flags(flag):
    spec = _plant_spec(6, [0x2B], ["1.0"])
    with pytest.raises(SystemExit) as exc:
        main(["decode", "--plant", spec, "--n", "6", "--k", "2", flag, "0.5"])
    assert exc.value.code == 2


def test_unchecked_inputs_exit_two(tmp_path, capsys):
    labels = tmp_path / "labels.txt"
    coeffs = tmp_path / "coeffs.txt"
    labels.write_text("\n")
    coeffs.write_text("")
    argv = ["encode", "--labels", str(labels), "--coeffs", str(coeffs), "--out", str(tmp_path / "x.sig")]
    assert main(argv) == 2
    assert "no labels" in capsys.readouterr().err
    # ff has bits beyond n=3; it used to be masked to 7 silently
    assert main(["kerdock", "gen", "--n", "3", "--top-row", "ff"]) == 2
    assert "exceeds 3 bits" in capsys.readouterr().err
    assert main(["bench", "--k", "2", "--n-list", "8", "--trials", "0"]) == 2
    assert "--trials must be at least 1" in capsys.readouterr().err


def test_decode_from_plant_is_byte_deterministic(capsys):
    n = 6
    spec = _plant_spec(n, [0x17], ["1.0"], ell=5)
    argv = ["decode", "--plant", spec, "--n", str(n), "--k", "2",
            "--noise-energy", "0.1", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "seconds" not in first


def test_decode_threads_do_not_change_output(capsys):
    n = 6
    spec = _plant_spec(n, [0x0B, 0x31], ["1.0", "0.5"], ell=2)
    base = ["decode", "--plant", spec, "--n", str(n), "--k", "4", "--seed", "1"]
    assert main(base) == 0
    one = capsys.readouterr().out
    assert main(base + ["--threads", "2"]) == 0
    two = capsys.readouterr().out
    assert one == two


def test_decode_lean_profile(capsys):
    n = 10
    spec = _plant_spec(n, [0x5D], ["1.0"], ell=3)
    argv = ["decode", "--plant", spec, "--n", str(n), "--k", "4",
            "--profile", "lean", "--seed", "0"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    ctx = FieldContext.default(n)
    assert out.splitlines()[0].startswith(pack_hex(lf_kerdock(ctx, 0x5D).diag, 2 * n - 1))


def test_decode_overflow_exits_one(capsys):
    n = 7
    spec = _plant_spec(n, [0x1D, 0x46], ["1.0", "0.9"], ell=1)
    argv = ["decode", "--plant", spec, "--n", str(n), "--k", "2",
            "--cap", "2", "--seed", "0"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "decode aborted" in err


def test_sparse_approx_overflow_exits_one(tmp_path, capsys):
    # two adjacent spikes peak on every even top row, so the shift decode keeps
    # 2^(n-1) > 4096 candidates at any k; sparse-approx has no --cap to offer
    values = np.zeros(1 << 14, dtype=np.complex128)
    values[:2] = 1.0
    sig = tmp_path / "spikes.txt"
    write_signal(str(sig), values)
    for k in ("1", "3"):
        assert main(["sparse-approx", "--in", str(sig), "--k", k, "--eps", "0.1"]) == 1
        err = capsys.readouterr().err
        assert "sparse-approx aborted: level 1 kept 8192 candidates, cap 4096" in err
        assert "far from a few Kerdock words" in err and "--cap" not in err


@pytest.mark.parametrize("flag", ["--cap", "--threads"])
def test_decode_rejects_nonpositive_cap_and_threads(flag, capsys):
    spec = _plant_spec(6, [0x2B], ["1.0"])
    argv = ["decode", "--plant", spec, "--n", "6", "--k", "2", flag, "0"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "at least 1" in err


def test_sparse_approx_checks_its_out_path_before_the_pursuit(no_reads, tmp_path, capsys):
    spec = _plant_spec(6, [0x2B], ["1.0"])
    argv = ["sparse-approx", "--plant", spec, "--n", "6", "--k", "1", "--eps", "0.1",
            "--out", str(tmp_path / "missing" / "rep.txt")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "No such file or directory" in err


def test_sparse_approx_writes_representation(tmp_path, capsys):
    n = 9
    spec = _plant_spec(n, [0x10F, 0x071], ["1.0", "0.5"], ell=4)
    out_file = tmp_path / "rep.txt"
    argv = ["sparse-approx", "--plant", spec, "--n", str(n), "--k", "2",
            "--eps", "0.05", "--seed", "0", "--out", str(out_file)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert stdout == out_file.read_text()
    with open(out_file) as fh:
        rep = read_representation(fh, n)
    ctx = FieldContext.default(n)
    got = {lab.q.diag for lab, _ in rep.terms}
    assert got == {lf_kerdock(ctx, 0x10F).diag, lf_kerdock(ctx, 0x071).diag}


def test_verify_field_suite_passes(capsys):
    assert main(["verify", "--suite", "field", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.splitlines()[-1].startswith("ALL PASS")


@pytest.mark.parametrize(
    "n, count, trace_how, sqrt_how",
    [(11, 1024, "sampled", "exhaustive"), (13, 4096, "sampled", "sampled")],
)
def test_verify_field_suite_says_which_checks_sampled(n, count, trace_how, sqrt_how, capsys):
    assert main(["verify", "--suite", "field", "--n", str(n)]) == 0
    assert capsys.readouterr().out == (
        "PASS field.trace-image\n"
        f"PASS field.trace-zero-count count={count}\n"
        f"PASS field.trace-linear {trace_how}\n"
        f"PASS field.sqrt-squares-back {sqrt_how}\n"
        "ALL PASS (4 checks)\n"
    )


@pytest.mark.parametrize("suite, n, limit", [("homomorphism", 9, 8), ("rank-count", 10, 9)])
def test_verify_skips_a_suite_above_its_range(suite, n, limit, capsys):
    assert main(["verify", "--suite", suite, "--n", str(n)]) == 0
    out = capsys.readouterr().out
    assert f"SKIP {suite} (exact check needs n <= {limit})" in out.splitlines()


def test_verify_kerdock_skips_past_its_range(monkeypatch, capsys):
    def never(ctx):
        raise AssertionError("the exact check ran past its range")

    monkeypatch.setattr(cli_mod, "verify_kerdock_set", never)
    assert main(["verify", "--suite", "kerdock", "--n", "13"]) == 0
    out = capsys.readouterr().out
    assert "SKIP kerdock (exact check needs n <= 12)" in out.splitlines()


def test_verify_summary_counts_only_checks_that_ran(capsys):
    assert main(["verify", "--suite", "kerdock", "--n", "13"]) == 0
    assert capsys.readouterr().out == (
        "SKIP kerdock (exact check needs n <= 12)\n"
        "ALL PASS (0 checks, 1 skipped)\n"
    )


@pytest.mark.parametrize("suite", ["dickson", "rank-count"])
def test_verify_refuses_n_below_one(suite, capsys):
    assert main(["verify", "--suite", suite, "--n", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "verify needs n >= 1, got n=0" in err


def test_verify_ranges_match_the_references():
    # one past each listed range, the exact reference itself refuses the input
    ranges = cli_mod._MAX_N
    too_big = ranges["dickson"] + 1
    lab = CodewordLabel(HankelMat(too_big, 0), 0, 0)
    with pytest.raises(ValueError, match=f"n <= {ranges['dickson']}"):
        pair_dot(lab, lab)
    with pytest.raises(ValueError, match=f"n <= {ranges['rank-count']}"):
        count_hankel_by_rank(ranges["rank-count"] + 1)
    ctx = FieldContext.default(ranges["homomorphism"] + 1)
    with pytest.raises(ValueError, match=f"n <= {ranges['homomorphism']}"):
        verify_homomorphism(ctx)


def test_verify_all_suites_skip_past_their_range(capsys):
    assert main(["verify", "--suite", "all", "--n", "9"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "SKIP homomorphism" in out
    assert out.splitlines()[-1].startswith("ALL PASS")


def test_verify_all_suites_small_n(capsys):
    assert main(["verify", "--suite", "all", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "ALL PASS" in out


@pytest.mark.parametrize("n_list", ["8,25", "8,0"])
def test_bench_checks_every_n_before_the_first_trial(n_list, capsys):
    assert main(["bench", "--k", "2", "--n-list", n_list, "--trials", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "no tabled primitive polynomial" in err


def test_bench_reports_scaling(capsys):
    assert main(["bench", "--k", "2", "--n-list", "8,9", "--trials", "1", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("n=8 ")
    assert lines[1].startswith("n=9 ")
    assert "recovered=1/1" in lines[0]
    assert lines[-1].startswith("fit queries ~ n^c")


def test_parser_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "plant, message",
    [
        ("3;Q=00;l=1;e=0", "plant term needs label:coeff, got '3;Q=00;l=1;e=0'"),
        ("3;Q=00;l=1;e=0:1.0", "plant label has n=3, expected 4"),
    ],
    ids=["no-colon", "wrong-n"],
)
def test_a_bad_plant_term_exits_two(plant, message, capsys):
    assert main(["decode", "--plant", plant, "--n", "4", "--k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_encode_refuses_a_label_and_coefficient_count_mismatch(tmp_path, capsys):
    labels = tmp_path / "labels.txt"
    coeffs = tmp_path / "coeffs.txt"
    labels.write_text("3;Q=00;l=1;e=0\n3;Q=01;l=2;e=0\n")
    coeffs.write_text("1.0 0.0\n")
    out = tmp_path / "sig.txt"
    argv = ["encode", "--labels", str(labels), "--coeffs", str(coeffs), "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "2 labels but 1 coefficients" in captured.err
    assert not out.exists()


def test_verify_independence_at_even_n_checks_the_violated_half(capsys):
    assert main(["verify", "--suite", "independence", "--n", "4"]) == 0
    assert capsys.readouterr().out == (
        "PASS independence.3-wise\n"
        "PASS independence.3.5-wise-violated witness=(0, 1, 6, 7)\n"
        "ALL PASS (2 checks)\n"
    )
