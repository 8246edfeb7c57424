import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wqkd import cli
from wqkd.analyzer import reference_table
from wqkd.cli import main


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "PASS 11/11 suites" in out


def test_derive_table_default(capsys, tmp_path):
    out_file = tmp_path / "table.csv"
    code, _, err = run(capsys, "derive-table", "--format", "csv", "--out", str(out_file))
    assert code == 0
    assert "matches golden (32 rows)" in err
    text = out_file.read_text()
    assert text.count("\n") >= 37  # 32 rows + header lines + summary comments
    assert "W4_0,s0u1v0w2,0.0039062500" in text
    assert "# D_p 0.0078125" in text


def test_derive_table_byte_identical(capsys, tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "derive-table", "--format", "csv", "--out", str(f1))
    run(capsys, "derive-table", "--format", "csv", "--out", str(f2))
    assert f1.read_bytes() == f2.read_bytes()


def test_derive_table_tampered_golden(capsys, tmp_path):
    golden = tmp_path / "golden.csv"
    run(capsys, "derive-table", "--format", "csv", "--out", str(golden))
    text = golden.read_text().replace("s0u1v0w2", "s0u1v0w3", 1)
    tampered = tmp_path / "tampered.csv"
    tampered.write_text(text)
    code, _, err = run(capsys, "derive-table", "--golden", str(tampered))
    assert code == 2
    assert "only in golden" in err and "only in derived" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("derive-table", "--golden", "{tmp}/missing.csv"),
        ("catalog", "--out", "{tmp}/missing/dir/f.txt"),
        ("derive-table", "--out", "{tmp}/missing/dir/f.txt"),  # its "matches golden" line is not written
    ],
    ids=["derive-table-golden", "catalog-out", "derive-table-out"],
)
def test_missing_path_exits_1_with_one_line(capsys, tmp_path, argv):
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "No such file or directory" in err


@pytest.mark.parametrize(
    "bad",
    ["W4_0,s0u1v0w2", "W4_0,s0u1v0w2,0.0039o625"],
    ids=["two-fields", "non-numeric-probability"],
)
def test_malformed_golden_line_names_file_and_line(capsys, tmp_path, bad):
    golden = tmp_path / "g.csv"
    golden.write_text(f"state,pattern,probability\n{bad}\n")
    code, out, err = run(capsys, "derive-table", "--golden", str(golden))
    assert code == 1
    assert out == ""
    assert err == f"error: {golden}, line 2: expected state,pattern,probability, got {bad!r}\n"


def _reference_rows() -> list[str]:
    return [f"{s},{p},{float(prob):.10f}" for s, p, prob in reference_table().rows()]


def test_derive_table_golden_in_another_row_order_matches(capsys, tmp_path):
    golden = tmp_path / "g.csv"
    golden.write_text("\n".join(reversed(_reference_rows())) + "\n")
    code, out, err = run(capsys, "derive-table", "--golden", str(golden))
    assert (code, err) == (0, "derived table matches golden (32 rows)\n")
    assert out == run(capsys, "derive-table")[1]


@pytest.mark.parametrize(
    "edit, side",
    [(lambda rows: rows + [rows[5]], "golden:  "), (lambda rows: rows[:5] + rows[6:], "derived: ")],
    ids=["duplicated", "dropped"],
)
def test_derive_table_names_the_row_a_golden_has_too_many_or_too_few_of(capsys, tmp_path, edit, side):
    rows = _reference_rows()
    golden = tmp_path / "g.csv"
    golden.write_text("\n".join(edit(rows)) + "\n")
    code, _, err = run(capsys, "derive-table", "--golden", str(golden))
    assert (code, err) == (2, f"derived table differs from golden:\n  - only in {side}{rows[5]}\n")


@pytest.mark.parametrize("kind", ["golden", "config"])
def test_a_byte_order_mark_changes_nothing(capsys, tmp_path, kind):
    # spreadsheet tools often start a saved CSV file with one
    if kind == "golden":
        argv, text = ["derive-table", "--golden"], "state,pattern,probability\n" + "\n".join(_reference_rows())
    else:
        argv, text = ["simulate", "--config"], "trials = 1000\nseed = 3\nformat = csv\n"
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    result = run(capsys, *argv, str(plain))
    assert result[0] == 0
    assert run(capsys, *argv, str(marked)) == result


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_a_command_returns_its_result_and_writes_nothing(capsys, tmp_path, name):
    opts = cli._merge(cli._build_parser().parse_args([name]))
    opts["out"] = str(tmp_path / "out.txt")  # main's to write, not the command's
    code, out, err = cli._COMMANDS[name][0](opts)
    assert capsys.readouterr() == ("", "")
    assert list(tmp_path.iterdir()) == []
    assert code == 0 and all(isinstance(line, str) for line in out + err)
    assert run(capsys, name) == (code, "\n".join(out) + "\n", "".join(f"{line}\n" for line in err))


def test_keyrate_command(capsys, tmp_path):
    out_file = tmp_path / "rates.csv"
    code, _, _ = run(
        capsys, "keyrate", "--eta-d", "0.145", "--dmin", "0", "--dmax", "200", "--dstep", "100",
        "--out", str(out_file),
    )
    assert code == 0
    text = out_file.read_text()
    assert "distance_km,eta,Q1,e1,R0" in text
    assert "# secure_distance_km 184." in text


def test_keyrate_y0_zero_sentinel(capsys):
    code, out, _ = run(capsys, "keyrate", "--y0", "0", "--dmax", "100", "--dstep", "50")
    assert code == 0
    assert "no zero crossing in range" in out


def test_keyrate_no_positive_rate(capsys):
    code, _, err = run(capsys, "keyrate", "--eta-d", "1e-6", "--y0", "1e-3", "--dmax", "50", "--dstep", "25")
    assert code == 3
    assert "non-positive" in err


def test_keyrate_no_positive_rate_writes_no_out_file(capsys, tmp_path):
    out_file = tmp_path / "rates.csv"
    argv = ("keyrate", "--eta-d", "1e-6", "--y0", "1e-3", "--dmax", "50", "--dstep", "25", "--out", str(out_file))
    assert run(capsys, *argv) == (3, "", "error: key rate non-positive at zero distance\n")
    assert not out_file.exists()


def test_keyrate_bad_range(capsys):
    code, _, _ = run(capsys, "keyrate", "--dmin", "100", "--dmax", "50")
    assert code == 1


def test_keyrate_rejects_too_many_points(capsys):
    # a step this small never advances the distance in float arithmetic
    code, out, err = run(capsys, "keyrate", "--dstep", "1e-300", "--dmax", "1")
    assert code == 1
    assert out == ""
    assert "more than 100000 points" in err


def test_keyrate_search_limit_is_bounded(capsys):
    # without loss the rate never falls, and the 10 km scan once ran to dmax
    code, out, err = run(capsys, "keyrate", "--alpha", "0", "--dmax", "1e300", "--dstep", "1e299")
    assert (code, out) == (1, "")
    assert err == "error: secure-distance search limit 1e+300 km is beyond 1e+06 km\n"


def test_enumerate_rejects_delta(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--eta", "0.1", "--delta", "5"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--delta" in captured.err


@pytest.mark.parametrize("command", ["verify", "catalog", "enumerate"])
def test_format_flag_only_where_it_is_read(capsys, tmp_path, command):
    # these commands print one layout; they once took the flag and ignored it
    with pytest.raises(SystemExit) as exc:
        main([command, "--format", "csv"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --format csv" in captured.err
    # a config file shared between commands may still carry the key
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = csv\n")
    assert run(capsys, command, "--config", str(cfg))[0] == 0


def test_negative_seed_exits_1_naming_the_seed(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = -3\n")
    for given, seed in ((["--seed", "-1"], -1), (["--config", str(cfg)], -3)):
        code, out, err = run(capsys, "simulate", "--trials", "10", *given)
        assert (code, out) == (1, "")
        assert err == f"error: seed must be non-negative, got {seed}\n"


def test_simulate_rejects_delta_for_z_basis(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta = 5\n")
    for given in (["--delta", "5"], ["--config", str(cfg)], ["--delta", "0", "--basis", "z"]):
        code, out, err = run(capsys, "simulate", "--trials", "1000", *given)
        assert code == 1
        assert out == ""
        assert "X-basis delay" in err
    # the delay still drives the X basis (0, to share the X rows other tests build)
    code, out, _ = run(capsys, "simulate", "--trials", "1000", "--basis", "x", "--delta", "0")
    assert code == 0
    assert "basis=x" in out


@pytest.mark.parametrize("delta, power", [("5e307", 4), ("1e308", 2), ("-1e308", 2)])
def test_simulate_x_delay_whose_phase_overflows_exits_1(capsys, delta, power):
    # some phase power times delta is not finite: exit 1 with a message that names delta
    code, out, err = run(capsys, "simulate", "--basis", "x", f"--delta={delta}", "--trials", "1000")
    assert (code, out) == (1, "")
    assert err == (
        f"error: delay delta={float(delta)!r} is too large: phase power {power} times delta overflows\n"
    )


@pytest.mark.parametrize("trials", ["10000000001", "1000000000000000000000"])
def test_simulate_above_the_trial_cap_exits_1_without_a_trial(capsys, monkeypatch, trials):
    # at the default y0 the work budget is 10**10 trials, about a minute warm; a larger count never starts
    monkeypatch.setattr(cli, "run_trials", lambda cfg: pytest.fail("a trial ran"))
    for basis in ("z", "x"):
        code, out, err = run(capsys, "simulate", "--basis", basis, "--trials", trials)
        assert (code, out) == (1, "")
        assert err == f"error: trials must lie in [1, 10000000000] at y0=6.02e-06, got {trials}\n"


def test_simulate_beyond_the_work_budget_at_y0_0_99_exits_1_without_a_trial(capsys, monkeypatch):
    # each dark click is resolved on its own and costs 16 trials of the budget:
    # 10**10 trials at y0 = 0.99 would resolve 1.6 * 10**11 of them, about two hours
    monkeypatch.setattr(cli, "run_trials", lambda cfg: pytest.fail("a trial ran"))
    for basis in ("z", "x"):
        code, out, err = run(capsys, "simulate", "--basis", basis, "--trials", "10000000000", "--y0", "0.99")
        assert (code, out) == (1, "")
        assert err == "error: trials must lie in [1, 39362565] at y0=0.99, got 10000000000\n"


def test_simulate_x_delay_of_1e300_runs(capsys):
    code, out, err = run(capsys, "simulate", "--basis", "x", "--delta", "1e300", "--trials", "1000")
    assert (code, err) == (0, "")
    assert "basis=x" in out


# the extremes of the numeric flags that no test above reaches; each run
# returns within 0.1 s.  A --dmax of 1e308 km is beyond the secure-distance
# search limit, so the range is rejected before any point is built (see the
# test below)
@pytest.mark.parametrize(
    "argv, code, expected",
    [
        ("keyrate --alpha 1e308", 0, "# secure_distance_km 0.0\n"),
        ("keyrate --eta-d 1", 0, "# secure_distance_km 267.9\n"),
        ("keyrate --q 1e-300", 0, "# secure_distance_km 184.0\n"),
        ("keyrate --y0 0.99", 3, "error: key rate non-positive at zero distance\n"),
        ("keyrate --dstep 1e308", 0, "# secure_distance_km 184.0\n"),
        ("keyrate --dmin 1e308 --dmax 1e308", 1, "error: secure-distance search limit 1e+308 km is beyond 1e+06 km\n"),
        ("enumerate --eta 1 --y0 0.99", 0, "# paper_vs_closed_form_rel_delta Q1=0.000e+00 e1=0.000e+00\n"),
        ("simulate --trials 1000 --eta 1", 0, "per_case_accepted_fraction = 0.000000 0.000000 0.000000 0.000000 1.000000\n"),
        ("simulate --trials 1000 --seed 18446744073709551616", 0, "# note: no accepted events: e1 undefined\n"),
    ],
    ids=["alpha", "eta-d", "q", "y0", "dstep", "dmin-dmax", "enumerate-eta-y0", "simulate-eta", "seed"],
)
def test_numeric_flags_at_their_extremes_finish(capsys, argv, code, expected):
    got, out, err = run(capsys, *argv.split())
    assert got == code
    assert (out if code == 0 else err).endswith(expected)
    assert (err if code == 0 else out) == ""


@pytest.mark.parametrize(
    "argv, err",
    [
        ("--dmin 1e308 --dmax 1e308", "secure-distance search limit 1e+308 km is beyond 1e+06 km"),
        ("--dmin 1e300 --dmax 1e301 --dstep 1e290", "secure-distance search limit 1e+301 km is beyond 1e+06 km"),
        ("--dmin 1e6 --dmax 1e6 --dstep 1e-11", "distance range has more than 100000 points"),
    ],
    ids=["no-step-beyond-limit", "tiny-step-beyond-limit", "no-step-at-limit"],
)
def test_a_step_that_no_longer_advances_is_rejected_at_once(capsys, argv, err):
    # a --dmax beyond the search limit is rejected before any point is built
    # (10**5 points of round(d, 9) took 2.6 s in-process at d = 1e300); within
    # it, a step too small to advance d reaches the points cap in 10**5 cheap
    # points, and neither rejection derives the table
    start = time.perf_counter()
    got = run(capsys, "keyrate", *argv.split())
    assert time.perf_counter() - start < 0.5
    assert got == (1, "", f"error: {err}\n")


# sha256 of `wqkd enumerate --mode M --eta 0.0145` stdout, recorded when the
# command still enumerated the chosen mode a second time
_ENUMERATE_STDOUT_SHA256 = {
    "paper": "80785bdf8fda3f911d7b50b82f00ac5d1e77e8ef18c187b14238cec509b4e16b",
    "physical": "446b8509a4cf6d30ec047f43eff2927248d78eae77b7223118f9474d3ae0157f",
}


def test_enumerate_command(capsys, monkeypatch):
    code, out, _ = run(capsys, "enumerate", "--mode", "paper", "--eta", "0.0145")
    assert code == 0
    assert "paper_vs_closed_form_rel_delta" in out
    assert "physical_vs_paper_gain_gap" in out
    # one enumeration per accounting mode, the chosen one reused
    modes = []
    enumerate_ = cli.exact_enumerate

    def counted(cfg):
        modes.append(cfg.mode)
        return enumerate_(cfg)

    monkeypatch.setattr(cli, "exact_enumerate", counted)
    for mode, digest in _ENUMERATE_STDOUT_SHA256.items():
        modes.clear()
        code, out, _ = run(capsys, "enumerate", "--mode", mode, "--eta", "0.0145")
        assert code == 0
        assert sorted(modes) == ["paper", "physical"]
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `wqkd enumerate --mode M --eta E --y0 Y` stdout at the corners of
# the benchmark's (eta, y0) range, recorded when each float click was still
# summed key by key
_ENUMERATE_POINT_SHA256 = {
    ("paper", "1e-3", "1e-7"): "97a98f128362b9e895466768c62751eacbaea44b97638239b7a527527ec602fb",
    ("paper", "1e-3", "1e-3"): "c83fd363302beb4669d6076e419cfc469d0d16049da3a27f50d2cea8b56829dc",
    ("paper", "0.9", "1e-7"): "44cbb0ee88629ec0184e7bc7e53bf2336945d5570cbc026112f25cdef46c1c34",
    ("paper", "0.9", "1e-3"): "093ddfb10292066fa54c280ca9d339fc497a0dcf44fb515006dc9e0bf6a9fb0a",
    ("physical", "1e-3", "1e-7"): "35cf83d04e94066492701c105bae701ef07941d8137e7ab50b2d8bf3f82b1433",
    ("physical", "1e-3", "1e-3"): "02851d0d12f9d11315a6128b418667c7febf4654e471744eee82157f07f886fe",
    ("physical", "0.9", "1e-7"): "993cd84f1f61b5240742d8c03abd811746688aa4c8f638d1b2c018fa0b63c27c",
    ("physical", "0.9", "1e-3"): "1bbac8c76a565dd75b144597050e4790feb262a5975de8dabc724254f230adda",
}


@pytest.mark.parametrize("mode, eta, y0", _ENUMERATE_POINT_SHA256, ids="-".join)
def test_enumerate_stdout_at_the_range_corners(capsys, mode, eta, y0):
    code, out, _ = run(capsys, "enumerate", "--mode", mode, "--eta", eta, "--y0", y0)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _ENUMERATE_POINT_SHA256[mode, eta, y0]


@pytest.mark.parametrize("flag", ["--eta=1.5", "--eta=-0.1", "--y0=-0.1", "--y0=1"])
def test_simulate_rejects_out_of_range_channel(capsys, flag):
    code, out, err = run(capsys, "simulate", "--trials", "10", flag)
    assert code == 1
    assert out == ""
    assert "must lie in" in err


def test_simulate_deterministic(capsys, tmp_path):
    f1, f2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    args = ("simulate", "--trials", "50000", "--seed", "42", "--eta", "0.5", "--y0", "1e-4")
    assert run(capsys, *args, "--out", str(f1))[0] == 0
    assert run(capsys, *args, "--out", str(f2))[0] == 0
    assert f1.read_bytes() == f2.read_bytes()
    assert "Q1_exact" in f1.read_text()


_PINNED_FLAGS = ("--mode", "physical", "--eta", "0.9", "--y0", "1e-4", "--trials", "1000000", "--seed", "7")


@pytest.mark.parametrize(
    "flags, expected",
    [
        (
            ("--basis", "z", *_PINNED_FLAGS, "--format", "csv"),
            (
                '# wqkd simulate mode=physical basis=z eta=0.9 y0=0.0001 trials=1000000 seed=7\n'
                'mode,basis,trials,seed,announced,accepted,errors,Q1_hat,Q1_lo,Q1_hi,e1_hat,e1_lo,e1_hi,Q1_exact,e1_exact,case1_frac,case2_frac,case3_frac,case4_frac,case5_frac\n'
                'physical,z,1000000,7,5197,2607,0,2.60700000000e-03,2.50894977853e-03,2.70887163625e-03,0.00000000000e+00,0.00000000000e+00,1.47134894297e-03,2.56657408999e-03,1.08100935107e-03,0.000000,0.000000,0.000000,0.001151,0.998849\n'
            ),
        ),
        (
            ("--basis", "x", "--delta", "0.3927", *_PINNED_FLAGS, "--format", "csv"),
            (
                '# wqkd simulate mode=physical basis=x eta=0.9 y0=0.0001 trials=1000000 seed=7\n'
                'mode,basis,trials,seed,announced,accepted,errors,Q1_hat,Q1_lo,Q1_hi,e1_hat,e1_lo,e1_hi,Q1_exact,e1_exact,case1_frac,case2_frac,case3_frac,case4_frac,case5_frac\n'
                'physical,x,1000000,7,5179,1951,1330,1.95100000000e-03,1.86640487095e-03,2.03942158380e-03,6.81701691440e-01,6.60692178984e-01,7.01997079933e-01,,,0.000000,0.000000,0.000000,0.001538,0.998462\n'
                "# note: x basis: 'errors' counts equal key-holder x bits\n"
            ),
        ),
        (
            ("--basis", "z", *_PINNED_FLAGS),
            (
                "# wqkd simulate mode=physical basis=z eta=0.9 y0=0.0001 trials=1000000 seed=7\n"
                "announced = 5197\n"
                "accepted = 2607\n"
                "errors = 0\n"
                "Q1_hat = 2.60700000000e-03  ci95 = [2.50894977853e-03, 2.70887163625e-03]\n"
                "e1_hat = 0.00000000000e+00  ci95 = [0.00000000000e+00, 1.47134894297e-03]\n"
                "Q1_exact = 2.56657408999e-03\n"
                "e1_exact = 1.08100935107e-03\n"
                "per_case_accepted_fraction = 0.000000 0.000000 0.000000 0.001151 0.998849\n"
            ),
        ),
        (
            ("--basis", "x", "--delta", "0.3927", *_PINNED_FLAGS),
            (
                "# wqkd simulate mode=physical basis=x eta=0.9 y0=0.0001 trials=1000000 seed=7\n"
                "announced = 5179\n"
                "accepted = 1951\n"
                "errors = 1330\n"
                "Q1_hat = 1.95100000000e-03  ci95 = [1.86640487095e-03, 2.03942158380e-03]\n"
                "e1_hat = 6.81701691440e-01  ci95 = [6.60692178984e-01, 7.01997079933e-01]\n"
                "# note: x basis: 'errors' counts equal key-holder x bits\n"
            ),
        ),
        (
            ("--basis", "z", "--eta", "0", "--y0", "0", "--trials", "1000"),
            (
                "# wqkd simulate mode=paper basis=z eta=0.0 y0=0.0 trials=1000 seed=1\n"
                "announced = 0\n"
                "accepted = 0\n"
                "errors = 0\n"
                "Q1_hat = 0.00000000000e+00  ci95 = [0.00000000000e+00, 3.82675848556e-03]\n"
                "e1_hat = undefined (no accepted events)\n"
                "Q1_exact = 0.00000000000e+00\n"
                "e1_exact = undefined (zero gain)\n"
                "per_case_accepted_fraction = undefined (no accepted events)\n"
                "# note: no accepted events: e1 undefined\n"
            ),
        ),
        (
            ("--basis", "x", "--eta", "0", "--y0", "0", "--trials", "1000"),
            (
                "# wqkd simulate mode=paper basis=x eta=0.0 y0=0.0 trials=1000 seed=1\n"
                "announced = 0\n"
                "accepted = 0\n"
                "errors = 0\n"
                "Q1_hat = 0.00000000000e+00  ci95 = [0.00000000000e+00, 3.82675848556e-03]\n"
                "e1_hat = undefined (no accepted events)\n"
                "# note: no accepted events: e1 undefined\n"
            ),
        ),
    ],
    ids=["z", "x", "z-text", "x-text", "z-no-accepted-events", "x-no-accepted-events"],
)
def test_simulate_stdout_is_pinned(capsys, flags, expected):
    # the tallies, intervals and exact values of fixed runs in both layouts,
    # and of runs that accept nothing, byte for byte
    code, out, err = run(capsys, "simulate", *flags)
    assert (code, err) == (0, "")
    assert out == expected


# exit code, sha256 of stdout and of stderr, argv: every subcommand and layout
# at its default and one other point, and the exit-1, -2 and -3 runs
_CORPUS = [line.split() for line in Path(__file__).with_name("cli_corpus.txt").read_text().splitlines()]
_CORPUS = [(int(code), out, err, argv) for code, out, err, *argv in _CORPUS if code != "#"]


@pytest.mark.parametrize("code, out, err, argv", _CORPUS, ids=["-".join(a.lstrip("-") for a in r[3]) for r in _CORPUS])
def test_cli_output_matches_the_corpus(capsys, tmp_path, code, out, err, argv):
    rows = reference_table().rows()
    (tmp_path / "golden.csv").write_text("".join(f"{s},{p},{float(prob):.10f}\n" for s, p, prob in rows))
    got, *streams = run(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert [got, *(hashlib.sha256(s.encode()).hexdigest() for s in streams)] == [code, out, err]


@pytest.mark.parametrize("mode", ["paper", "physical"])
def test_enumerate_prints_zero_gain_qber_as_undefined(capsys, mode):
    # with no gain the QBER is 0/0; a printed 0 would claim the best possible value
    code, out, err = run(capsys, "enumerate", "--eta", "0", "--y0", "0", "--mode", mode)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[1:4] == [
        f"Q1 {mode} = 0.00000000000e+00",
        f"e1 {mode} = undefined (zero gain)",
        "Q1 closed-form = 0.00000000000e+00   e1 closed-form = undefined (zero gain)",
    ]


def test_simulate_prints_zero_gain_exact_qber_as_undefined(capsys):
    flags = ("simulate", "--eta", "0", "--y0", "0", "--trials", "1000")
    code, out, err = run(capsys, *flags)
    assert (code, err) == (0, "")
    assert "Q1_exact = 0.00000000000e+00\ne1_exact = undefined (zero gain)\n" in out
    code, out, err = run(capsys, *flags, "--format", "csv")
    assert (code, err) == (0, "")
    _, names, values, _ = out.splitlines()
    fields = dict(zip(names.split(","), values.split(",")))
    assert (fields["Q1_exact"], fields["e1_exact"], fields["e1_hat"]) == ("0.00000000000e+00", "", "")


def test_simulate_prints_per_case_fractions_without_accepted_events_as_undefined(capsys):
    # with nothing accepted the fractions are 0/0; five printed zeros would not sum to 1
    flags = ("simulate", "--eta", "0", "--y0", "0", "--trials", "1000")
    code, out, err = run(capsys, *flags)
    assert (code, err) == (0, "")
    assert "\naccepted = 0\n" in out
    assert "\nper_case_accepted_fraction = undefined (no accepted events)\n" in out
    code, out, err = run(capsys, *flags, "--format", "csv")
    assert (code, err) == (0, "")
    _, names, values, _ = out.splitlines()
    fields = dict(zip(names.split(","), values.split(",")))
    assert fields["accepted"] == "0"
    assert [fields[f"case{i}_frac"] for i in range(1, 6)] == [""] * 5


def test_catalog_command(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 16
    assert lines[0] == "W4_0 = +1/2|0001> +1/2|0010> +1/2|0100> +1/2|1000>"
    assert lines[12] == "W4_c = +1/2|0111> +1/2|1011> +1/2|1101> +1/2|1110>"


def test_simulate_csv_format(capsys, tmp_path):
    out_file = tmp_path / "sim.csv"
    code, _, _ = run(
        capsys, "simulate", "--trials", "30000", "--seed", "2", "--eta", "0.5",
        "--y0", "1e-4", "--mode", "physical", "--format", "csv", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[1].startswith("mode,basis,trials,seed,")
    assert lines[2].startswith("physical,z,30000,2,")


def test_config_file_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eta = 0.25\ny0 = 1e-4  # inline comment\nseed = 7\ntrials = 1000\n")
    out_file = tmp_path / "sim.txt"
    code, _, _ = run(
        capsys, "simulate", "--config", str(cfg), "--seed", "9", "--out", str(out_file)
    )
    assert code == 0
    text = out_file.read_text()
    assert "eta=0.25" in text and "y0=0.0001" in text
    assert "seed=9" in text  # flag wins over file
    assert "trials=1000" in text  # file wins over default


def test_config_file_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("etta = 0.3\n")
    code, _, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 1
    assert "unknown config key" in err


@pytest.mark.parametrize(
    "command, line",
    [("derive-table", "format = xml"), ("simulate", "mode = loose"), ("simulate", "basis = y")],
)
def test_config_file_values_checked_against_choices(capsys, tmp_path, command, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert "must be one of" in err


@pytest.mark.parametrize(
    "argv, config",
    [
        (("simulate", "--basis", "x", "--delta", "nan"), ""),
        (("simulate", "--basis", "x", "--delta", "inf"), ""),
        (("keyrate", "--alpha", "nan"), ""),
        (("keyrate", "--dmin", "nan"), ""),
        (("keyrate",), "dstep = inf"),
        (("simulate", "--basis", "x"), "delta = -inf"),
    ],
    ids=["delta-nan", "delta-inf", "alpha-nan", "dmin-nan", "config-dstep-inf", "config-delta-inf"],
)
def test_non_finite_values_exit_1(capsys, tmp_path, argv, config):
    # each of these once printed a tally from NaN probabilities, nan rows or an empty sweep
    extra = ()
    if config:
        path = tmp_path / "run.cfg"
        path.write_text(config + "\n")
        extra = ("--config", str(path))
    if argv[0] == "simulate":
        extra += ("--trials", "1000")
    code, out, err = run(capsys, *argv, *extra)
    assert code == 1
    assert out == ""
    assert "must be a finite number" in err


def test_config_file_infinite_count_exits_1(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = inf\n")
    code, out, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err == "error: cannot convert float infinity to integer\n"


@pytest.mark.parametrize("line", ["seed = 1.9", "trials = 1000.5", "seed = -0.5"])
def test_config_file_non_integral_count_exits_1(capsys, tmp_path, line):
    # a fractional seed was once truncated silently, where the flag exits 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"trials = 1000\n{line}\n")
    code, out, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err == f"error: config key {line.split()[0]} must be an integer, got {line.split()[-1]!r}\n"


def test_config_file_integral_float_count_is_accepted(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 1e3\nseed = 7.0\n")
    code, out, _ = run(capsys, "simulate", "--config", str(cfg))
    assert code == 0
    assert "trials=1000" in out and "seed=7" in out


def test_config_file_integer_is_exact(capsys, tmp_path):
    # a float would round this seed to 12345678901234567168
    seed = "12345678901234567891"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = {seed}\n")
    from_file = run(capsys, "simulate", "--trials", "1000", "--config", str(cfg))
    assert f"seed={seed}\n" in from_file[1]
    assert from_file == run(capsys, "simulate", "--trials", "1000", "--seed", seed)


# Each subcommand's flags in order, with their type or choices and their
# default (None: the command picks, or the value is optional).
_SURFACE = {
    "derive-table": [
        ("--config", str, None),
        ("--out", str, None),
        ("--format", ("csv", "text"), None),
        ("--golden", str, None),
    ],
    "verify": [("--config", str, None), ("--out", str, None)],
    "catalog": [("--config", str, None), ("--out", str, None)],
    "keyrate": [
        ("--config", str, None),
        ("--out", str, None),
        ("--format", ("csv", "text"), None),
        ("--alpha", float, 0.2),
        ("--eta-d", float, 0.145),
        ("--y0", float, 6.02e-6),
        ("--q", float, 1.0),
        ("--dmin", float, 0.0),
        ("--dmax", float, 300.0),
        ("--dstep", float, 10.0),
    ],
    "enumerate": [
        ("--config", str, None),
        ("--out", str, None),
        ("--eta", float, 0.0145),
        ("--y0", float, 6.02e-6),
        ("--mode", ("paper", "physical"), "paper"),
    ],
    "simulate": [
        ("--config", str, None),
        ("--out", str, None),
        ("--format", ("csv", "text"), None),
        ("--eta", float, 0.0145),
        ("--y0", float, 6.02e-6),
        ("--mode", ("paper", "physical"), "paper"),
        ("--delta", float, None),
        ("--trials", int, 1_000_000),
        ("--seed", int, 1),
        ("--basis", ("z", "x"), "z"),
    ],
}


def test_cli_surface_is_pinned():
    parser = cli._build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(commands.choices) == list(_SURFACE)
    for name, expected in _SURFACE.items():
        defaults = cli._merge(parser.parse_args([name]))
        flags = [a for a in commands.choices[name]._actions if a.dest != "help"]
        surface = [(a.option_strings[0], tuple(a.choices) if a.choices else a.type, defaults.get(a.dest)) for a in flags]
        assert surface == expected, name


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["keyrate", "--alpha", "abc"])
    assert exc.value.code == 1


def test_main_reuses_one_parser(capsys):
    cli._build_parser.cache_clear()
    # the second call leaves out the flags the first one set: nothing may carry over
    argvs = [["enumerate", "--mode", "physical", "--eta", "0.3", "--y0", "1e-3"], ["enumerate"], ["catalog"]]
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    reused = [run(capsys, *argv) for argv in argvs]
    assert reused == fresh
    assert cli._build_parser.cache_info().currsize == 1
    # a usage error still exits EXIT_USAGE with its message
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--mode", "loose"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "invalid choice: 'loose'" in capsys.readouterr().err
    assert run(capsys, *argvs[0]) == fresh[0]


_WORK = """
import contextlib, io, json, sys
from wqkd import analyzer, cli, fock, verify

calls = {"kernel": 0, "w": 0}


def counted(name, f):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return f(*args, **kwargs)

    return wrapper


fock._propagate = counted("kernel", fock._propagate)
# verify imports propagate_w_state by name
analyzer.propagate_w_state = verify.propagate_w_state = counted("w", analyzer.propagate_w_state)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
relay = analyzer.relay()
built = [name in vars(relay) for name in ("table", "product_rows", "z_outcomes")]
print(json.dumps([code, calls["kernel"], calls["w"], *built, relay.x is not None, len(relay.plans), len(relay.merges),
                  "click_lookup" in vars(relay)]))
"""

# per command: exit code, kernel passes (fock._propagate calls), W propagations,
# then what the relay holds of the chain its docstring states: the table, the
# product rows, the Z table and an X table, each 1 (true) once built, the
# number of plans and of merges, and the click lookup; the table is the W
# batch's 4 passes, which its 16 W propagations share, and the product-row
# batch adds 17 for the monomials of fewer than four photons.  A delay whose
# phase overflows is rejected before any table is built: four photons reach
# at most four times the composed map's largest single-photon phase power;
# so is a transmittance outside [0, 1]
_WORK_PINS = {
    "catalog": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    "keyrate": [0, 4, 16, 1, 0, 0, 0, 0, 0, 0],
    "derive-table": [0, 4, 16, 1, 0, 0, 0, 0, 0, 0],
    "verify": [0, 12, 17, 1, 0, 0, 0, 0, 0, 0],
    "enumerate": [0, 21, 16, 1, 1, 1, 0, 1, 0, 1],
    "enumerate --eta 1.5": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    "simulate --trials 1000": [0, 21, 16, 1, 1, 1, 0, 1, 1, 1],
    "simulate --basis x --delta 0.3927 --trials 1000": [0, 21, 16, 1, 1, 0, 1, 0, 1, 1],
    "simulate --basis x --delta=1e308 --trials 1000": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
}


def test_each_command_does_its_pinned_work():
    # the work is deterministic where the wall time is not: a lost cache, a
    # second derivation or a Z fill in an X run changes a count here
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for command, want in _WORK_PINS.items():
        result = subprocess.run(
            [sys.executable, "-c", _WORK, *command.split()], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == want, command
