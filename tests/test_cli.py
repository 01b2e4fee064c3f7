"""Exit codes, file formats, config merging, and output determinism."""
import json

import pytest

from primecusps.cli import build_config, main, UsageError


def run(args):
    return main(args)


def test_missing_N_is_usage_error(capsys):
    assert run(["spectrum"]) == 2
    assert "requires --N" in capsys.readouterr().err


def test_unknown_values_are_usage_errors(tmp_path):
    assert run(["spectrum", "--N", "2000", "--subset", "cubes"]) == 2
    assert run(["verify", "--suite", "bogus"]) == 2
    assert run(["spectrum", "--N", "2000", "--format", "xml"]) == 2
    assert run(["spectrum", "--N", "50"]) == 2
    assert run(["decompose", "--N", "10000", "--tau", "5"]) == 2
    # a format the command does not write
    assert run(["companions", "--N", "10000", "--format", "csv"]) == 2
    assert run(["verify", "--format", "csv"]) == 2
    assert run(["cusps", "--N", "2000", "--format", "plotdata"]) == 2
    assert run(["decompose", "--N", "10000", "--format", "plotdata"]) == 2
    # --mode, --threads, --limit and --pmin are gone, as flags and as
    # config keys
    for key, value in (("mode", "fast"), ("threads", "2"), ("limit", "5000"),
                       ("pmin", "2")):
        assert run(["spectrum", "--N", "2000", f"--{key}", value]) == 2
        cfgfile = tmp_path / f"{key}.cfg"
        cfgfile.write_text(f"N = 2000\n{key} = {value}\n")
        assert run(["spectrum", "--config", str(cfgfile)]) == 2


def test_non_finite_floats_are_usage_errors(capsys):
    for opt, argv in (("A", ["cusps", "--N", "1000", "--A", "nan"]),
                      ("A", ["cusps", "--N", "1000", "--A", "inf"]),
                      ("z", ["decompose", "--N", "10000", "--z", "nan"]),
                      ("density", ["spectrum", "--N", "1000", "--density=-inf"])):
        assert run(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:"), err
        assert f"{opt}=" in err[0]


def test_grid_must_be_power_of_two(capsys):
    assert run(["spectrum", "--N", "2000", "--grid", "65537"]) == 2
    assert "power of two" in capsys.readouterr().err
    assert run(["spectrum", "--N", "2000", "--grid", "0"]) == 2
    with pytest.raises(UsageError):
        build_config(["cusps", "--N", "2000", "--grid", "100000"])


def test_grid_beyond_memory_is_capacity_failure(tmp_path, capsys):
    code = run(["spectrum", "--N", "1000", "--grid", str(1 << 50),
                "--output", str(tmp_path / "s.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_sweep_beyond_budget_is_capacity_failure(tmp_path, capsys):
    # the sparse cusp grid needs little memory, so the sweep budget refuses it
    code = run(["cusps", "--N", "1000", "--grid", str(1 << 50),
                "--output", str(tmp_path / "c.json")])
    assert code == 1
    assert "sweep budget" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()


def test_grid_below_N_is_domain_error(tmp_path, capsys):
    for command in ("spectrum", "cusps"):
        out = tmp_path / f"{command}.json"
        assert run([command, "--N", "2000", "--grid", "1024",
                    "--output", str(out)]) == 1
        assert "below N" in capsys.readouterr().err
        assert not out.exists()


def test_cusps_on_a_grid_of_one_block(tmp_path):
    # G at the power of two just above N is one residue, one rfft
    for N, G in (("1000", "1024"), ("2000", "2048")):
        out = tmp_path / f"c{N}.json"
        assert run(["cusps", "--N", N, "--grid", G, "--A", "4",
                    "--output", str(out)]) == 0
        d = json.loads(out.read_text())
        assert d["arcs"] and all(r["status"] == "pass" for r in d["checks"])


def test_config_file_merging(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("N = 2000\nA = 8\nseed = 5\n# comment\n")
    cfg = build_config(["cusps", "--config", str(cfgfile), "--A", "4"])
    assert cfg.N == 2000
    assert cfg.A == 4.0      # flag beats file
    assert cfg.seed == 5
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 7\n")
    with pytest.raises(UsageError):
        build_config(["cusps", "--config", str(bad)])
    bad.write_text("N = abc\n")
    with pytest.raises(UsageError, match="bad.cfg:1"):
        build_config(["cusps", "--config", str(bad)])
    assert run(["cusps", "--config", str(bad)]) == 2


def test_spectrum_plotdata(tmp_path, capsys):
    out = tmp_path / "spectrum.txt"
    code = run(["spectrum", "--N", "2000", "--grid", "65536",
                "--format", "plotdata", "--output", str(out)])
    assert code == 0
    lines = out.read_text().split("\n")
    assert lines[0] == "0 1.0"
    assert len(lines) == 65536 + 1
    overlay = (tmp_path / "spectrum.txt.farey").read_text().strip().split("\n")
    first = overlay[0].split()
    assert first[0] == "0" and first[2] == "1"
    # every overlay row: position, denominator, squarefree flag
    assert all(len(row.split()) == 3 for row in overlay)


def test_Q_below_one_is_usage_error(tmp_path, capsys):
    out = tmp_path / "s.txt"
    assert run(["spectrum", "--N", "1000", "--format", "plotdata", "--Q", "0",
                "--output", str(out)]) == 2
    assert "Q=0" in capsys.readouterr().err
    assert not out.exists()


def test_farey_overlay_beyond_memory_is_capacity_failure(tmp_path, capsys, monkeypatch):
    from primecusps import expsums

    def no_sums(*args):
        raise AssertionError("grid_sums reached")
    monkeypatch.setattr(expsums, "grid_sums", no_sums)
    # 1 + Q(Q-1)/2 = 4951 points at Q = 100
    monkeypatch.setattr(expsums, "_physical_memory", lambda: 4951 * 100)
    out = tmp_path / "s.txt"
    assert run(["spectrum", "--N", "1000", "--format", "plotdata", "--Q", "100",
                "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Farey overlay at Q=100" in err, err
    assert not out.exists()
    assert not (tmp_path / "s.txt.farey").exists()


def test_spectrum_json_and_csv(tmp_path):
    out = tmp_path / "s.json"
    assert run(["spectrum", "--N", "2000", "--grid", "65536",
                "--output", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["schema"] == 1 and d["seed"] == 0
    assert d["grid"] == 65536
    csvout = tmp_path / "s.csv"
    assert run(["spectrum", "--N", "2000", "--grid", "65536",
                "--format", "csv", "--output", str(csvout)]) == 0
    assert csvout.read_text().startswith("alpha,ratio\n0,1\n")


def test_byte_identical_reruns(tmp_path):
    out = tmp_path / "c.json"
    args = ["cusps", "--N", "2000", "--A", "4", "--seed", "9",
            "--output", str(out)]
    assert run(args) == 0
    first = out.read_bytes()
    assert run(args) == 0
    assert out.read_bytes() == first


def test_cusps_report_content(tmp_path):
    out = tmp_path / "c.json"
    assert run(["cusps", "--N", "2000", "--A", "8",
                "--output", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["count_ok"] and d["count"] <= d["bound"]
    assert all(r["status"] == "pass" for r in d["checks"])
    arcs = d["arcs"]
    assert arcs and all(set(a) == {"lo", "hi", "peak_pos", "peak_height"}
                        for a in arcs)
    csvout = tmp_path / "c.csv"
    assert run(["cusps", "--N", "2000", "--A", "8", "--format", "csv",
                "--output", str(csvout)]) == 0
    assert csvout.read_text().startswith("lo,hi,peak_pos,peak_height\n")


def test_companions_command(tmp_path):
    out = tmp_path / "comp.json"
    assert run(["companions", "--N", "10000", "--xi", "0", "--A", "4",
                "--B", "2", "--output", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["ok"] and d["schema"] == 1


def test_decompose_command(tmp_path):
    out = tmp_path / "dec.json"
    assert run(["decompose", "--N", "10000", "--z0", "3", "--A", "1",
                "--output", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["M"] == 2
    assert d["metrics"]["identity_residual"] <= 1e-9
    assert all(r["status"] == "pass" for r in d["checks"])


def test_decompose_csv(ctx, tmp_path):
    # the rows n = 1..N of the library's decomposition at the same
    # parameters: f is the indicator of the primes in [sqrt(N), N], and
    # f_flat/(V log N) + f_sharp gives it back on every row
    from primecusps.expsums import subset_full
    from primecusps.transference import decompose, decomposition_csv

    out = tmp_path / "dec.csv"
    assert run(["decompose", "--N", "10000", "--A", "2", "--format", "csv",
                "--output", str(out)]) == 0
    dec = decompose(ctx, subset_full(ctx, 10_000), 3, 2, 2)
    text = out.read_text()
    assert text == decomposition_csv(dec)
    rows = [line.split(",") for line in text.splitlines()]
    assert rows[0] == ["n", "f", "f_flat", "f_sharp"] and len(rows) == 10_001
    assert [int(n) for n, f, _, _ in rows[1:] if f == "1"] == dec.subset.members.tolist()
    for n, f, flat, sharp in rows[1:]:
        assert float(flat) / dec.vlog + float(sharp) == pytest.approx(float(f), abs=1e-9), n


def test_decompose_domain_error(tmp_path, capsys):
    code = run(["decompose", "--N", "10000", "--z0", "3", "--A", "4",
                "--output", str(tmp_path / "x.json")])
    assert code == 1
    assert "empty Bohr set" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, named", [
    ("--M", "0", "M=0"), ("--M", "-6", "M=-6"), ("--z", "1e9", "z=")])
def test_decompose_parameters_checked_before_the_spectrum(tmp_path, capsys, monkeypatch,
                                                          flag, value, named):
    from primecusps import transference

    def no_spectrum(*args):
        raise AssertionError("spectrum reached")
    monkeypatch.setattr(transference, "spectrum", no_spectrum)
    out = tmp_path / "x.json"
    assert run(["decompose", "--N", "10000", "--A", "2", flag, value,
                "--output", str(out)]) == 1
    err = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
    assert len(err) == 1 and named in err[0], err
    assert not out.exists()


def test_verify_clean_suite(tmp_path):
    out = tmp_path / "v.json"
    assert run(["verify", "--suite", "large-sieve",
                "--output", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["clean"] and d["suite"] == "large-sieve"
    assert all(r["status"] in ("pass", "not-applicable") for r in d["rows"])


def test_verify_red_suite(tmp_path, capsys):
    # two stated estimates are measurably false; the suite must say so
    out = tmp_path / "vg.json"
    code = run(["verify", "--suite", "g-functions", "--zmax", "10000",
                "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "primorial-log-growth" in err
    assert "mertens-product-lower-refined" in err
    d = json.loads(out.read_text())
    assert not d["clean"]


def test_zmax_below_the_scan_domain_is_domain_error(tmp_path, capsys):
    # prime-count-lower scans x > 17, so zmax <= 17 leaves it nothing to scan
    code = run(["verify", "--suite", "g-functions", "--zmax", "5",
                "--output", str(tmp_path / "v.json")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "zmax=5" in err[0] and "18" in err[0]
    assert not (tmp_path / "v.json").exists()
