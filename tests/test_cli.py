import hashlib

import pytest

from wqkd import cli
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
    ],
    ids=["derive-table-golden", "catalog-out"],
)
def test_missing_path_exits_1_with_one_line(capsys, tmp_path, argv):
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "No such file or directory" in err


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


_PINNED_FLAGS = ("--mode", "physical", "--eta", "0.9", "--y0", "1e-4", "--trials", "1000000", "--seed", "7", "--format", "csv")


@pytest.mark.parametrize(
    "basis, expected",
    [
        (
            ("--basis", "z"),
            (
                '# wqkd simulate mode=physical basis=z eta=0.9 y0=0.0001 trials=1000000 seed=7\n'
                'mode,basis,trials,seed,announced,accepted,errors,Q1_hat,Q1_lo,Q1_hi,e1_hat,e1_lo,e1_hi,Q1_exact,e1_exact,case1_frac,case2_frac,case3_frac,case4_frac,case5_frac\n'
                'physical,z,1000000,7,5197,2607,0,2.60700000000e-03,2.50894977853e-03,2.70887163625e-03,0.00000000000e+00,0.00000000000e+00,1.47134894297e-03,2.56657408999e-03,1.08100935107e-03,0.000000,0.000000,0.000000,0.001151,0.998849\n'
            ),
        ),
        (
            ("--basis", "x", "--delta", "0.3927"),
            (
                '# wqkd simulate mode=physical basis=x eta=0.9 y0=0.0001 trials=1000000 seed=7\n'
                'mode,basis,trials,seed,announced,accepted,errors,Q1_hat,Q1_lo,Q1_hi,e1_hat,e1_lo,e1_hi,Q1_exact,e1_exact,case1_frac,case2_frac,case3_frac,case4_frac,case5_frac\n'
                'physical,x,1000000,7,5179,1951,1330,1.95100000000e-03,1.86640487095e-03,2.03942158380e-03,6.81701691440e-01,6.60692178984e-01,7.01997079933e-01,,,0.000000,0.000000,0.000000,0.001538,0.998462\n'
                "# note: x basis: 'errors' counts equal key-holder x bits\n"
            ),
        ),
    ],
    ids=["z", "x"],
)
def test_simulate_stdout_is_pinned(capsys, basis, expected):
    # the tallies, intervals and exact values of two fixed runs, byte for byte
    code, out, err = run(capsys, "simulate", *basis, *_PINNED_FLAGS)
    assert (code, err) == (0, "")
    assert out == expected


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
