import argparse
import contextlib
import csv
import hashlib
import io
import json
import subprocess
import sys
import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilb2 import asymptotics, cli, oracles, verify
from hilb2.asymptotics import constant_c, count_Nst
from hilb2.cli import _threads, height_formatter, main, point_row
from hilb2.heights import height2_st, height_st
from hilb2.hilb import HilbPoint, canonical_forms, enumerate_points
from hilb2.lattice import LinearForm
from test_asymptotics import _SerialPool


def run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "hilb2", *args], capture_output=True, text=True, **kw
    )


def run_main_timed(argv, timeout=5):
    """``main(argv)`` in a fresh interpreter that is killed after ``timeout``
    seconds, so a run that would list or walk too much cannot exhaust
    memory: (exit status, seconds inside ``main``, stdout, stderr)."""
    code = (
        "import sys, time\n"
        "from hilb2.cli import main\n"
        "t0 = time.perf_counter()\n"
        "rc = main(sys.argv[1:])\n"
        "print(time.perf_counter() - t0)\n"
        "sys.exit(rc)\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=timeout
    )
    out, _, elapsed = r.stdout.rstrip("\n").rpartition("\n")
    return r.returncode, float(elapsed), out, r.stderr


def test_count_json(capsys):
    rc = main(["count", "--s", "2", "--t", "1", "--B", "5", "--const-M-max", "20"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["schema_version"] == 1
    assert out["N"] == 729
    assert out["c_bracket"]["low"] <= out["c_bracket"]["high"]
    assert out["query"] == {"s": "2", "t": "1", "B": "5"}


def _count_report_before(s, t, b, m_max, fmt):
    """The summary report as ``count`` built it before it read
    ``convergence_report``: its own constant, prediction and rel_dev."""
    n = count_Nst(s, t, b)
    est = constant_c(float(s / t), m_max)
    pred = 0.5 * (est.lo + est.hi) * float(b) ** (3.0 / float(t))
    report = {
        "schema_version": 1,
        "query": {"s": str(s), "t": str(t), "B": str(b)},
        "N": n,
        "c_bracket": {"low": est.lo, "high": est.hi},
        "prediction": pred,
        "rel_dev": n / pred - 1.0 if pred else None,
    }
    if fmt == "json":
        return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    flat = {
        "schema_version": 1, "query.s": str(s), "query.t": str(t), "query.B": str(b),
        "N": n, "c_bracket.low": est.lo, "c_bracket.high": est.hi,
        "prediction": pred, "rel_dev": report["rel_dev"],
    }
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=list(flat), lineterminator="\n")
    w.writeheader()
    w.writerow(flat)
    return buf.getvalue()


def test_count_report_unchanged_by_shared_prediction(capsys):
    cases = [("2", "1", "5"), ("3", "2", "7/2"), ("2", "1", "0"), ("1", "1", "3")]
    for s, t, b in cases:
        for fmt in ("json", "csv"):
            argv = ["count", "--s", s, "--t", t, "--B", b, "--const-M-max", "12", "--format", fmt]
            assert main(argv) == 0
            want = _count_report_before(Fraction(s), Fraction(t), Fraction(b), 12, fmt)
            assert capsys.readouterr().out == want, (s, t, b, fmt)
    # the prediction is 0 at B = 0, and rel_dev is null rather than a division
    main(["count", "--s", "2", "--t", "1", "--B", "0", "--const-M-max", "12"])
    assert json.loads(capsys.readouterr().out)["rel_dev"] is None


def test_threads_clamped_to_cpu_count(monkeypatch, capsys):
    # _threads passes --threads, else HILB2_THREADS, else 1 through as
    # given; parallel_map is the one bound on workers, the CPUs the process
    # may use (``usable_cpus``), not the machine's
    monkeypatch.delenv("HILB2_THREADS", raising=False)
    assert _threads(argparse.Namespace(threads=7)) == 7
    assert _threads(argparse.Namespace(threads=2)) == 2
    assert _threads(argparse.Namespace(threads=0)) == 0
    assert _threads(argparse.Namespace(threads=None)) == 1
    monkeypatch.setenv("HILB2_THREADS", "9")
    assert _threads(argparse.Namespace(threads=None)) == 9
    assert _threads(argparse.Namespace(threads=1)) == 1
    # end to end, with no worker started: under one usable CPU (e.g.
    # taskset -c 1) --threads 64 starts no pool, and under two the pool
    # has two workers
    monkeypatch.setattr(asymptotics, "Pool", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    argv = ["count", "--s", "2", "--t", "1", "--B", "5", "--const-M-max", "20", "--threads", "64"]
    monkeypatch.setattr(asymptotics, "usable_cpus", lambda: 1)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["N"] == 729
    assert main(["le-count", "--B", "10", "--threads", "64"]) == 0
    assert json.loads(capsys.readouterr().out)["total"] == 57
    assert _SerialPool.sizes == []
    monkeypatch.setattr(asymptotics, "usable_cpus", lambda: 2)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["N"] == 729
    assert _SerialPool.sizes == [2]


@pytest.mark.parametrize("argv", [
    ["count", "--s", "2", "--t", "1", "--B", "2"],
    ["le-count", "--B", "10"],
    ["verify", "--suite", "minkowski", "--m-max", "2"],
])
def test_malformed_threads_variable_exits_1_naming_it(argv, monkeypatch, capsys):
    monkeypatch.setenv("HILB2_THREADS", "x")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: HILB2_THREADS must be an integer, got 'x'\n"


def test_emit_points_does_not_read_the_threads_variable(monkeypatch, capsys):
    # the listing starts no workers, so a malformed HILB2_THREADS is not read
    argv = ["count", "--s", "2", "--t", "1", "--B", "2", "--emit-points"]
    monkeypatch.delenv("HILB2_THREADS", raising=False)
    assert main(argv) == 0
    want = capsys.readouterr().out
    monkeypatch.setenv("HILB2_THREADS", "x")
    assert main(argv) == 0
    assert capsys.readouterr().out == want
    assert json.loads(want)["points"]


def test_constant_json(capsys):
    rc = main(["constant", "--ratio", "2", "--M-max", "5"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["c_low"] < out["c_high"]


def test_constant_at_benchmark_scale_is_pinned(capsys):
    assert main(["constant", "--ratio", "2", "--M-max", "200"]) == 0
    assert capsys.readouterr().out == (
        '{"M_max":200,"c_high":5.940037494756884,"c_low":5.940037494756788,'
        '"partial":5.940037494756788,"ratio":2.0,"schema_version":1,'
        '"tail_bound":9.592326932761353e-14}\n'
    )


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


@pytest.mark.parametrize(
    "ell, q, message",
    [
        ("1,2", "1,0,0,-2,0,0", "argument --ell: expected a,b,c"),
        ("1,2,x", "1,0,0,-2,0,0", "argument --ell: expected a,b,c"),
        ("1,2,3,4", "1,0,0,-2,0,0", "argument --ell: expected a,b,c"),
        ("1,2,3", "1,0,0,-2,0", "argument --q: expected six quadric coefficients"),
        ("1,2,3", "1,0,0,-2,0,y", "argument --q: expected six quadric coefficients"),
        ("1,2,3", "1.5,0,0,-2,0,0", "argument --q: expected six quadric coefficients"),
    ],
)
def test_malformed_integer_lists_say_what_is_expected(ell, q, message):
    # a non-integer entry gets the same message as a wrong count, not
    # argparse's "invalid <parser name> value"
    r = run_cli(["inspect", "--ell", ell, "--q", q], timeout=30)
    assert r.returncode == 1
    assert r.stdout == ""
    assert [ln for ln in r.stderr.splitlines() if ln.startswith("error:")] == [f"error: {message}"]


@pytest.mark.parametrize("value", ["inf", "1e400", "nan"])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--suite", "disc-agreement"], "--height-bound"),
        (["verify", "--suite", "disc-bound"], "--height-bound"),
        (["constant", "--M-max", "5"], "--ratio"),
    ],
)
def test_non_finite_float_flags_exit_1(argv, flag, value, capsys):
    # the value is refused while parsing, before any suite or sum runs
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: hilb2 ")
    assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
        f"error: argument {flag}: not a finite number: {value!r}"
    ]


def test_constant_tiny_ratio_exits_1(capsys):
    assert main(["constant", "--ratio", "1e-320", "--M-max", "5"]) == 1
    assert capsys.readouterr().err == "error: the tail bound at ratio 1e-320 exceeds the float range\n"


def test_verify_minima_cli(capsys):
    rc = main(["verify", "--suite", "minima", "--seed", "0", "--m-max", "2", "--box", "2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--s", "2", "--t", "1", "--B", "2"],
        ["constant", "--ratio", "2", "--M-max", "5"],
        ["inspect", "--ell", "1,2,3", "--q", "1,0,0,-2,0,0"],
        ["le-count", "--B", "2"],
    ],
)
def test_seed_is_a_verify_flag_only(argv, capsys):
    # only the gon suite reads a seed; elsewhere --seed is a malformed flag
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "0"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


def test_gon_sample_is_unchanged():
    # the sample behind criterion 5: its first forms and a digest of all 100
    triples = [f.triple for f in verify._gon_sample(0, 100, 50)]
    assert triples[:4] == [(1, -47, -3), (45, 17, -15), (12, 1, 50), (0, 3, 1)]
    digest = hashlib.sha256(repr(triples).encode()).hexdigest()
    assert digest == "f79e526e021065e40a2346b167f5f154915ed2b24839ad2efab7a7dbb57ed03b"


def test_gon_sample_does_not_count_a_pool_it_cannot_exhaust(monkeypatch):
    # (2 cap + 1)^2 >= 7 at both caps, so no draw can run out of forms and
    # neither pool is counted; counting the one at 10^9 would sieve 10^9
    # Moebius values
    pool = verify._form_pool

    def small_pools_only(m):
        if m > 1000:
            raise AssertionError(f"form pool counted at m = {m}")
        return pool(m)

    monkeypatch.setattr(verify, "_form_pool", small_pools_only)
    start = time.perf_counter()
    sample = verify._gon_sample(0, 7, 10**9)
    assert time.perf_counter() - start < 1.0
    assert len({f.triple for f in sample}) == 7


def test_form_pool_is_the_number_of_canonical_forms():
    assert [verify._form_pool(m) for m in range(12)] == [len(canonical_forms(m)) for m in range(12)]
    assert (verify._form_pool(4), verify._form_pool(50)) == (289, 427393)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n-lattices", "14", "--m-max", "1"], "<= 1, and only 13 exist"),
        (["--m-max", "0"], "<= 0, and only 0 exist"),
        # every 7th draw needs a new form with max <= 4, of which 289 exist
        (["--n-lattices", "2020"], "<= 4, and only 289 exist"),
        (["--n-lattices", "0"], "n_lattices must be at least 1"),
    ],
)
def test_gon_rejects_a_sample_it_cannot_draw(argv, message, capsys):
    start = time.perf_counter()
    assert main(["verify", "--suite", "gon", *argv]) == 1
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err


def test_verify_unknown_suite_exit_1():
    r = run_cli(["verify", "--suite", "nope"])
    assert r.returncode == 1


def test_suite_names_are_the_dispatch_table():
    names = ("sl-formula", "minkowski", "minima", "gon", "disc-agreement", "za-family", "oracle-count", "disc-bound")
    assert verify.SUITE_NAMES == tuple(verify._SUITES) == names


def test_run_suite_passes_only_what_a_suite_takes(capsys):
    # za-family takes a_max only, minima m_max and box: seed, threads and the
    # other flags are ignored, and the defaults are the suite signatures'
    rep = verify.run_suite("za-family", seed=5, threads=2, a_max=3, m_max=9, box=1)
    assert rep["passed"] and rep["params"] == {"a_max": 3}
    assert verify.run_suite("za-family")["params"] == {"a_max": 20}
    rep = verify.run_suite("minima", seed=3, threads=2, m_max=2, box=2, n_lattices=7)
    assert rep["params"] == {"m_max": 2, "box": 2}
    with pytest.raises(ValueError, match="unknown suite"):
        verify.run_suite("nope")
    assert main(["verify", "--suite", "za-family", "--a-max", "3", "--m-max", "9", "--box", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["params"] == {"a_max": 3}
    rc = main(["verify", "--suite", "oracle-count", "--b-values", "1,3/2", "--k-max", "4"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["B"] for r in rows] == ["1", "3/2"] * 3


def _check_point_csv(s, t, b, text):
    """Every row of ``count --emit-points --format csv`` parses back to the
    point ``enumerate_points`` yields there, and recomputing the row from
    the parsed point reproduces every column."""
    rows = list(csv.DictReader(io.StringIO(text)))
    pts = list(enumerate_points(s, t, b))
    assert len(rows) == len(pts)
    s, t = Fraction(s), Fraction(t)
    for row, pt in zip(rows, pts):
        ell = LinearForm(int(row["ell_a"]), int(row["ell_b"]), int(row["ell_c"]))
        qbar = (int(row["qbar_1"]), int(row["qbar_2"]), int(row["qbar_3"]))
        z = HilbPoint(ell, qbar)
        assert z == pt
        rebuilt = point_row(z, height_formatter(s, t))
        assert {k: str(v) for k, v in rebuilt.items()} == dict(row)
        assert z.covol2_I1 == int(row["covol2_I1"])


def test_point_csv_roundtrip(capsys):
    rc = main(["count", "--s", "2", "--t", "1", "--B", "4", "--emit-points", "--format", "csv"])
    assert rc == 0
    _check_point_csv(2, 1, 4, capsys.readouterr().out)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from([(2, 1), (1, 1), (3, 2)]),
    st.fractions(min_value=0, max_value=6, max_denominator=7),
)
def test_point_csv_roundtrip_property(exponents, b):
    s, t = exponents
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["count", "--s", str(s), "--t", str(t), "--B", str(b),
                   "--emit-points", "--format", "csv"])
    assert rc == 0
    _check_point_csv(s, t, b, out.getvalue())


def test_height_field_formats():
    z = HilbPoint(LinearForm(1, 0, 0), (1, 2, 2))
    height = height_formatter(Fraction(2), Fraction(1))
    assert height(z) == "3"  # exact square
    z2 = HilbPoint(LinearForm(1, 0, 0), (1, 1, 0))
    assert height(z2) == format(2**0.5, ".17g")


def _reference_height_field(z, s, t):
    # the per-point formula of the listing before the exponent case was
    # decided once per listing: every squared height a Fraction
    if (s - t).denominator == 1 and t.denominator == 1:
        h2 = height2_st(z, s, t)
        if h2.denominator == 1:
            r = isqrt(h2.numerator)
            if r * r == h2.numerator:
                return str(r)
        return format(float(h2) ** 0.5, ".17g")
    return format(height_st(z, s, t), ".17g")


@pytest.mark.parametrize("s, t, b", [(2, 1, 6), (3, 1, 4), (5, 2, 3), (1, 2, 8), (Fraction(3, 2), 1, 4)])
def test_height_formatter_matches_the_per_point_fractions(s, t, b):
    # the integer product (s - t, t >= 0), the Fraction route (s < t) and
    # the float route (fractional exponents)
    s, t = Fraction(s), Fraction(t)
    height = height_formatter(s, t)
    for z in enumerate_points(s, t, b):
        assert height(z) == _reference_height_field(z, s, t), z


def test_le_count_cli(capsys):
    rc = main(["le-count", "--B", "8"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["total"] == 57
    assert out["split"] == 48


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--s", "2", "--t", "1", "--B", "-1"],
        ["count", "--s", "2", "--t", "1", "--B", "-1", "--emit-points"],
        ["le-count", "--B", "-1"],
    ],
)
def test_negative_bound_exits_1(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: B must be nonnegative\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--s", "2", "--t", "1", "--B", "1e30"],
        ["count", "--s", "2", "--t", "1", "--B", "1e400"],
        ["count", "--s", "2", "--t", "1", "--B", "1e30", "--emit-points"],
        ["count", "--s", "2", "--t", "1", "--B", "1e400", "--emit-points"],
        ["le-count", "--B", "1e30"],
        ["le-count", "--B", "1e400"],
    ],
)
def test_oversized_bound_exits_1_at_once(argv, capsys):
    # the representative walk, and the form walk of --emit-points, refuse
    # these bounds before walking anything
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: B is too large: about 10^")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("b", ["18707", "1e30"])
def test_count_and_emit_points_refuse_the_same_bound(b, capsys):
    # both walk the orbit representatives, behind one guard
    errors = []
    for extra in ([], ["--emit-points"]):
        assert main(["count", "--s", "2", "--t", "1", "--B", b, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: B is too large: about 10^") and errors[0].count("\n") == 1


def test_oversized_le_count_prints_no_traceback():
    r = run_cli(["le-count", "--B", "1e400"])
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("error: B is too large") and r.stderr.count("\n") == 1, r.stderr


def test_unwritable_out_path_is_one_error_line(tmp_path):
    # opening the output file fails: exit 1 with one error line, not a
    # traceback
    out = tmp_path / "missing" / "x.json"
    r = run_cli(["count", "--s", "2", "--t", "1", "--B", "2", "--out", str(out)])
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, r.stderr
    assert "Traceback" not in r.stderr
    assert not out.exists()


def test_unwritable_out_path_fails_before_the_work(tmp_path, capsys):
    # the listing at B = 30 holds 160417 points; the path is opened first
    out = tmp_path / "missing" / "x.json"
    argv = ["count", "--s", "2", "--t", "1", "--B", "30", "--emit-points", "--out", str(out)]
    t0 = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_failed_command_leaves_no_partial_report(tmp_path, capsys):
    # M_max 501 is refused after the path is opened: a file created for the
    # report is removed, and an existing one keeps its content
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("previous\n")
    for out in (new, old):
        assert main(["constant", "--ratio", "2", "--M-max", "501", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not new.exists()
    assert old.read_text() == "previous\n"
    # a command that succeeds replaces the whole file with its report
    assert main(["constant", "--ratio", "2", "--M-max", "5", "--out", str(old)]) == 0
    main(["constant", "--ratio", "2", "--M-max", "5"])
    assert old.read_text() == capsys.readouterr().out


def _reference_listing(s, t, b, fmt) -> str:
    """The point listing as the writer made it before it streamed: every
    row in one list, then the whole text."""
    s, t, b = Fraction(s), Fraction(t), Fraction(b)
    height = height_formatter(s, t)
    rows = [point_row(z, height) for z in enumerate_points(s, t, b)]
    if fmt == "json":
        report = {"schema_version": 2, "points": rows}
        return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=cli.POINT_FIELDS, lineterminator="\n")
    w.writeheader()
    w.writerows(rows)
    return buf.getvalue()


# the seven listings of BENCH_count_rows.json, an empty one and the first
# non-empty bound
_LISTINGS = [
    ("2", "1", "12"), ("1", "2", "10"), ("3/2", "1", "6"), ("2", "3/2", "8"),
    ("5", "2", "3"), ("1", "1", "5"), ("3", "1", "5"), ("2", "1", "1/2"), ("2", "1", "1"),
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("s, t, b", _LISTINGS)
def test_streamed_listing_is_the_whole_listing(s, t, b, fmt, tmp_path, capsys):
    want = _reference_listing(s, t, b, fmt)
    argv = ["count", "--s", s, "--t", t, "--B", b, "--emit-points", "--format", fmt]
    assert main(argv) == 0
    assert capsys.readouterr().out == want
    out = tmp_path / f"points.{fmt}"
    out.write_text("a longer previous report\n" * 100)
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == want.encode()
    assert capsys.readouterr() == ("", "")


def test_refused_listing_writes_nothing(tmp_path, capsys):
    # the refusal comes before the first point: stdout stays empty, an
    # existing --out keeps its content and a created one is removed
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("previous\n")
    argv = ["count", "--s", "2", "--t", "1", "--B", "100", "--emit-points"]
    for extra in ([], ["--out", str(new)], ["--out", str(old)]):
        assert main([*argv, *extra]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: B is too large"), (out, err)
    assert not new.exists()
    assert old.read_text() == "previous\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_listing_failing_midway_leaves_out_as_it_was(fmt, tmp_path, capsys, monkeypatch):
    from hilb2 import hilb

    fiber_points, calls = hilb.fiber_points, []

    def failing_on_the_third_fiber(ell, t_max):
        calls.append(ell)
        if len(calls) == 3:
            raise AssertionError("third fiber")
        return fiber_points(ell, t_max)

    # the first two fibers at (2, 1, 4) hold 116 points, made before the
    # third raises
    monkeypatch.setattr(hilb, "fiber_points", failing_on_the_third_fiber)
    new, old = tmp_path / f"new.{fmt}", tmp_path / f"old.{fmt}"
    old.write_bytes(b"previous\n")
    for out in (new, old):
        calls.clear()
        argv = ["count", "--s", "2", "--t", "1", "--B", "4", "--emit-points",
                "--format", fmt, "--out", str(out)]
        assert main(argv) == 2
        assert len(calls) == 3
        out_text, err = capsys.readouterr()
        assert out_text == "" and err == "internal check failed: third fiber\n"
    assert not new.exists()
    assert old.read_bytes() == b"previous\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--s", "1e-12", "--t", "1", "--B", "2", "--const-M-max", "5"],
        ["count", "--s", "1/1000000007", "--t", "1/1000000009", "--B", "2"],
        ["count", "--s", "1e-12", "--t", "1", "--B", "2", "--emit-points"],
    ],
)
def test_too_fine_exponents_exit_1_at_once(argv, capsys):
    # the exact comparison would need 3^(10^12)-sized integers; the shared
    # (s, t, B) check refuses the query before taking any power
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the exact height comparison needs integers of about 10^")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--suite", "sl-formula", "--m-max", "0"], "m_max must be at least 1"),
        (["--suite", "minkowski", "--m-max", "-5"], "m_max must be at least 1"),
        (["--suite", "minima", "--box", "0"], "box must be at least 1"),
        (["--suite", "za-family", "--a-max", "0"], "a_max must be at least 1"),
        (["--suite", "disc-bound", "--height-bound", "0.5", "--k-max", "0"], "k_max must be at least 1"),
        (["--suite", "disc-bound", "--height-bound", "0.5"], "no points of height at most 0.5"),
        (["--suite", "disc-agreement", "--height-bound", "0.5"], "no points of height at most 0.5"),
        (["--suite", "sl-formula", "--m-max", "100000"], "m_max is too large: about 10^15.6 forms"),
        (["--suite", "minkowski", "--m-max", "100000"], "m_max is too large: about 10^15.6 forms"),
        (["--suite", "minima", "--m-max", "100"], "m_max is too large: about 10^6.6 forms"),
        (["--suite", "minima", "--m-max", "2", "--box", "40"], "box is too large: 282429536481 points"),
    ],
)
def test_verify_refuses_empty_and_oversized_runs(argv, message, capsys):
    # a suite that would check nothing, or build more forms or grid points
    # than it can hold, exits 1 with one error line instead of passing or
    # running out of memory
    assert main(["verify", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


def test_oracle_walk_guard_is_the_form_walk_rule():
    # check_form_walk admits m_max 62 and refuses 63, and the one
    # comparison at 63 says whether the oracle's cutoff loop passes 62
    verify.check_form_walk(62, "m_max")
    with pytest.raises(ValueError, match="m_max is too large"):
        verify.check_form_walk(63, "m_max")
    for (s, t), first_refused in (((2, 1), 463), ((3, 2), 3402), ((3, 1), 29167)):
        s, t = Fraction(s), Fraction(t)
        for b in (first_refused - 1, first_refused, Fraction(2 * first_refused + 1, 2)):
            b = Fraction(b)
            cutoff = oracles._distance_lemma_cutoff(s, t, b)
            assert oracles.distance_lemma_reaches(s, t, b, 63) == (cutoff >= 63), (s, t, b)
            assert (cutoff >= 63) == (b >= first_refused), (s, t, b, cutoff)


@pytest.mark.parametrize("m_max, box", [(22, 4), (21, 4), (22, 3)])
def test_minima_refuses_an_int64_overflow_before_scanning(m_max, box):
    # the forms (m_max, m_max, m_max - 1) overflow the int64 distance check
    # here; the suite used to scan forms until the first one failed the
    # overflow audit, then exit 2
    start = time.perf_counter()
    r = run_cli(["verify", "--suite", "minima", "--m-max", str(m_max), "--box", str(box)], timeout=30)
    assert time.perf_counter() - start < 10.0
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("error: m_max and box are too large: the int64 distance check")
    assert r.stderr.count("\n") == 1, r.stderr


def test_minima_overflow_bound_is_sharp(monkeypatch):
    # the closed-form audit bound admits (20, 4) and (21, 3), where the worst
    # forms (M, M, M - 1) pass the per-form audit, and refuses one step up,
    # where they fail it
    assert oracles._distance_audit_bound(20, 4) < 2**62 <= oracles._distance_audit_bound(21, 4)
    assert oracles._distance_audit_bound(21, 3) < 2**62 <= oracles._distance_audit_bound(22, 3)
    top = [LinearForm(21, 21, 20), LinearForm(21, 20, 19), LinearForm(21, 1, 0)]
    monkeypatch.setattr(oracles, "canonical_forms", lambda m: top)
    assert oracles.distance_lemma_violations(21, 3) == []


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_le_count_byte_identical_across_threads(fmt):
    a = run_cli(["le-count", "--B", "1000", "--format", fmt, "--threads", "1"])
    b = run_cli(["le-count", "--B", "1000", "--format", fmt, "--threads", "2"])
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert "20677" in a.stdout


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


# sha256 of stdout for each command and format, recorded before the CSV and
# JSON writers were folded into one
_PINNED_REPORTS = [
    (["count", "--s", "2", "--t", "1", "--B", "10"], "json",
     "a3f1f469553d27f6c5c188748d09db36ad6fbb01cfd5f85c98ca6e4d9d06f535"),
    (["count", "--s", "3", "--t", "2", "--B", "8", "--emit-points"], "json",
     "1a35b5bed0f246a3a41bd299a2490c12475f1091cbae7061dd59e6f1659e77bf"),
    (["constant", "--ratio", "2", "--M-max", "30"], "json",
     "34e3acae62945a4888880a372d016c96acef195bc16cea49dd7958ce5a652f32"),
    (["inspect", "--ell", "1,2,3", "--q", "1,0,0,-2,0,0"], "json",
     "9481331902a04597dcbd7884392ef0e52a4435c6b685696a00b193ac845c1f06"),
    (["verify", "--suite", "za-family"], "json",
     "583aaf2b42c9d764e398df856c90b2c621c1fa5009a4225f9cd6d31384003dbb"),
    (["le-count", "--B", "1000"], "json",
     "e2acc9f1473c6d3c29aa89b54e16213ae53068932ad04ac9dbb04996e679cf70"),
    (["count", "--s", "2", "--t", "1", "--B", "10"], "csv",
     "bdb6a4fb9fdb2a2b46fcd2d4c91dd3ccf2f7cc0181ce75af4ed8f3e48d96276e"),
    (["count", "--s", "3", "--t", "2", "--B", "8", "--emit-points"], "csv",
     "6ac3ee111b67141875b5d646b6907217988aad4159acb60bca3a25bb7008f894"),
    (["constant", "--ratio", "2", "--M-max", "30"], "csv",
     "1bebe8d3efffb380196c575fa06803d9047c6ae39fbc4cbc8c4afaada9c99993"),
    (["inspect", "--ell", "1,2,3", "--q", "1,0,0,-2,0,0"], "csv",
     "9ea8a4a3d0dc39dbd68568d051f40ee60c8b2ab59ab37827b540302a36b5ab4b"),
    (["verify", "--suite", "za-family"], "csv",
     "0f5711c09ecbd9bf0a6cff53ec6ce2b614b347434205d459ecb6407376096a20"),
    (["le-count", "--B", "1000"], "csv",
     "b4494d6f9219ef3c3c3131bafa26cc2471425e091f606644a284bf99c97bceb7"),
]


@pytest.mark.parametrize("argv, fmt, digest", _PINNED_REPORTS)
def test_every_report_byte_is_pinned(argv, fmt, digest, tmp_path):
    # one writer serves every command and format: stdout keeps every byte,
    # and --out writes the same bytes
    r = subprocess.run(
        [sys.executable, "-m", "hilb2", *argv, "--format", fmt], capture_output=True, timeout=60
    )
    assert r.returncode == 0, r.stderr
    assert r.stderr == b""
    assert hashlib.sha256(r.stdout).hexdigest() == digest
    out = tmp_path / f"report.{fmt}"
    r = subprocess.run(
        [sys.executable, "-m", "hilb2", *argv, "--format", fmt, "--out", str(out)],
        capture_output=True, timeout=60,
    )
    assert (r.returncode, r.stdout, r.stderr) == (0, b"", b"")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, message",
    [
        (["count", "--s", "2", "--t", "1", "--B", "100", "--emit-points"],
         "error: B is too large: 5939677 points to list, more than 1000000\n"),
        (["verify", "--suite", "oracle-count", "--b-values", "1000"],
         "error: b_values is too large: the oracle walk at (s, t, B) = (2, 1, 1000) "
         "passes m_max 62, more than 1000000 forms\n"),
        (["verify", "--suite", "oracle-count", "--b-values", "5,10,1e30"],
         "error: b_values is too large: the oracle walk at (s, t, B) = (2, 1, "
         "1000000000000000000000000000000) passes m_max 62, more than 1000000 forms\n"),
    ] + [
        (["count", "--s", s, "--t", "1", "--B", b, *extra],
         f"error: B is too large: about {rows} ellipsoid rows to walk in the fiber "
         "over (0, 0, 1), more than 1000000000\n")
        for s, b, rows in (("10", "1e5", "10^9.7"), ("1000", "1e200", "10^399.7"))
        for extra in ([], ["--emit-points"])
    ],
)
def test_oversized_listing_and_oracle_walk_exit_1_at_once(argv, message):
    # the listing is refused by its exact size, the oracle walk by
    # check_form_walk's rule, and a fiber by its row estimate, before the
    # first point or count; the last four walk a handful of forms, but
    # their (0, 0, 1) fiber is a ball of radius about B (tens of minutes at
    # (10, 1, 1e5), an OverflowError in the Moebius sieve at (1000, 1, 1e200))
    rc, elapsed, out, err = run_main_timed(argv)
    assert rc == 1
    assert elapsed < 1.0
    assert out == ""
    assert err == message


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
