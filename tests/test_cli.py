import csv
import io
import json
import subprocess
import sys
from fractions import Fraction

from hilb2.cli import height_field, main, point_row
from hilb2.hilb import HilbPoint, enumerate_points
from hilb2.lattice import LinearForm


def run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "hilb2", *args], capture_output=True, text=True, **kw
    )


def test_count_json(capsys):
    rc = main(["count", "--s", "2", "--t", "1", "--B", "5", "--const-M-max", "20"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["schema_version"] == 1
    assert out["N"] == 729
    assert out["c_bracket"]["low"] <= out["c_bracket"]["high"]
    assert out["query"] == {"s": "2", "t": "1", "B": "5"}


def test_constant_json(capsys):
    rc = main(["constant", "--ratio", "2", "--M-max", "5"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["c_low"] < out["c_high"]


def test_inspect_golden(capsys):
    rc = main(["inspect", "--ell", "0,0,1", "--q", "1,0,0,-2,0,0"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["class"] == "nonsplit"
    assert out["disc"] == 8
    assert out["covol2_I1"] == 1
    assert out["covol2_I2"] == 5
    assert out["H1"] == 1.0
    assert abs(out["H2"] - 5**0.5) < 1e-15
    assert out["H_Le"] == 3.0
    assert out["H_Le2_exact"] == "9/1"


def test_inspect_rejects_q_in_span(capsys):
    rc = main(["inspect", "--ell", "1,0,0", "--q", "1,0,0,0,0,0"])
    assert rc == 1


def test_malformed_flags_exit_1():
    r = run_cli(["count", "--s", "2"])
    assert r.returncode == 1
    r = run_cli(["bogus-command"])
    assert r.returncode == 1
    r = run_cli(["inspect", "--ell", "1,2", "--q", "1,0,0,0,0,0"])
    assert r.returncode == 1


def test_verify_minima_cli(capsys):
    rc = main(["verify", "--suite", "minima", "--seed", "0", "--m-max", "2", "--box", "2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True


def test_verify_unknown_suite_exit_1():
    r = run_cli(["verify", "--suite", "nope"])
    assert r.returncode == 1


def test_point_csv_roundtrip(capsys):
    rc = main(["count", "--s", "2", "--t", "1", "--B", "4", "--emit-points", "--format", "csv"])
    assert rc == 0
    text = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(text)))
    pts = list(enumerate_points(2, 1, 4))
    assert len(rows) == len(pts)
    s, t = Fraction(2), Fraction(1)
    for row in rows:
        ell = LinearForm(int(row["ell_a"]), int(row["ell_b"]), int(row["ell_c"]))
        qbar = (int(row["qbar_1"]), int(row["qbar_2"]), int(row["qbar_3"]))
        z = HilbPoint(ell=ell, qbar=qbar, covol2_I2=int(row["covol2_I2"]))
        # recomputing from the parsed point reproduces every emitted column
        rebuilt = point_row(z, s, t)
        assert {k: str(v) for k, v in rebuilt.items()} == dict(row)
        assert z.covol2_I1 == int(row["covol2_I1"])


def test_height_field_formats():
    z = HilbPoint(ell=LinearForm(1, 0, 0), qbar=(1, 2, 2), covol2_I2=9)
    assert height_field(z, Fraction(2), Fraction(1)) == "3"  # exact square
    z2 = HilbPoint(ell=LinearForm(1, 0, 0), qbar=(1, 1, 0), covol2_I2=2)
    assert height_field(z2, Fraction(2), Fraction(1)) == format(2**0.5, ".17g")


def test_le_count_cli(capsys):
    rc = main(["le-count", "--B", "8"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["total"] == 57
    assert out["split"] == 48


def test_threads_env_fallback(monkeypatch, capsys):
    monkeypatch.setenv("HILB2_THREADS", "2")
    rc = main(["count", "--s", "2", "--t", "1", "--B", "2", "--const-M-max", "5"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["N"] == 45


def test_byte_identical_across_threads():
    a = run_cli(["count", "--s", "2", "--t", "1", "--B", "6", "--threads", "1",
                 "--const-M-max", "10"])
    b = run_cli(["count", "--s", "2", "--t", "1", "--B", "6", "--threads", "4",
                 "--const-M-max", "10"])
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_schema_versions(capsys):
    # point records are at version 2; the summary reports stay at 1
    cases = {
        ("inspect", "--ell", "1,2,3", "--q", "1,0,0,-2,0,0"): 2,
        ("count", "--s", "2", "--t", "1", "--B", "2", "--emit-points"): 2,
        ("count", "--s", "2", "--t", "1", "--B", "2", "--const-M-max", "5"): 1,
        ("constant", "--ratio", "2", "--M-max", "5"): 1,
        ("le-count", "--B", "2"): 1,
        ("verify", "--suite", "minima", "--m-max", "2", "--box", "2"): 1,
    }
    for argv, version in cases.items():
        assert main(list(argv)) == 0
        assert json.loads(capsys.readouterr().out)["schema_version"] == version, argv
