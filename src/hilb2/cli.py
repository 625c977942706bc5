"""Command-line front-end: counting runs, point inspection, constant
evaluation, verification suites, and the anticanonical count, with CSV/JSON
emission.

Exit status: 0 on success, 1 on validation errors (malformed flags, inputs
that define no point, failed verification, an output file that cannot be
written), 2 on internal assertion failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shutil
import sys
import tempfile
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager, suppress
from fractions import Fraction
from functools import partial
from itertools import islice
from math import isfinite, isqrt

from .asymptotics import (
    constant_c,
    convergence_report,
    le_count_detailed,
    le_rudulier_prediction,
)
from .heights import (
    classify,
    discriminant,
    height2_st,
    height_st,
    le_height,
    le_height2,
)
from .hilb import HilbPoint, canonicalize, enumerate_points
from .verify import SUITE_NAMES, run_suite

# version 2: qbar is the restricted binary form on the reduced kernel basis
POINT_SCHEMA_VERSION = 2
POINT_FIELDS = [
    "ell_a", "ell_b", "ell_c",
    "qbar_1", "qbar_2", "qbar_3",
    "q_lift_0", "q_lift_1", "q_lift_2", "q_lift_3", "q_lift_4", "q_lift_5",
    "covol2_I1", "covol2_I2", "height", "class", "disc",
]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on malformed flags, with usage
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")


def _finite_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def _fraction_list(text: str) -> list[Fraction]:
    return [_fraction(x) for x in text.split(",")]


def _ints(n: int, expected: str) -> Callable[[str], tuple[int, ...]]:
    """An argparse type: ``n`` comma-separated integers, else ``expected``."""
    def parse(text: str) -> tuple[int, ...]:
        try:
            parts = tuple(int(x) for x in text.split(","))
        except ValueError:
            parts = ()
        if len(parts) != n:
            raise argparse.ArgumentTypeError(expected)
        return parts
    return parse


def build_parser() -> _Parser:
    p = _Parser(prog="hilb2", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--threads", type=int, default=None,
                        help="worker count (default: HILB2_THREADS or 1)")

    sp = sub.add_parser("count", help="exact bounded-height point count")
    sp.add_argument("--s", type=_fraction, required=True)
    sp.add_argument("--t", type=_fraction, required=True)
    sp.add_argument("--B", type=_fraction, required=True)
    sp.add_argument("--const-M-max", type=int, default=120)
    sp.add_argument("--emit-points", action="store_true",
                    help="emit the point table instead of the summary")
    common(sp)

    sp = sub.add_parser("constant", help="leading constant with certified bracket")
    sp.add_argument("--ratio", type=_finite_float, required=True)
    sp.add_argument("--M-max", type=int, required=True)
    common(sp)

    sp = sub.add_parser("inspect", help="single-point report")
    sp.add_argument("--ell", type=_ints(3, "expected a,b,c"), required=True)
    sp.add_argument("--q", type=_ints(6, "expected six quadric coefficients"), required=True)
    common(sp)

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("--suite", choices=SUITE_NAMES, required=True)
    sp.add_argument("--m-max", type=int, default=None)
    sp.add_argument("--box", type=int, default=None)
    sp.add_argument("--n-lattices", type=int, default=None)
    sp.add_argument("--height-bound", type=_finite_float, default=None)
    sp.add_argument("--a-max", type=int, default=None)
    sp.add_argument("--k-max", type=int, default=None)
    sp.add_argument("--b-values", type=_fraction_list, default=None,
                    help="comma-separated height bounds")
    sp.add_argument("--seed", type=int, default=0, help="sample seed (suite gon)")
    common(sp)

    sp = sub.add_parser("le-count", help="exact anticanonical-height count")
    sp.add_argument("--B", type=_fraction, required=True)
    common(sp)

    return p


def _threads(args) -> int:
    """--threads, else HILB2_THREADS, else 1, as given: ``parallel_map``
    starts at most min(threads, calls, ``usable_cpus()``) workers."""
    if args.threads is not None:
        return args.threads
    raw = os.environ.get("HILB2_THREADS") or "1"
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"HILB2_THREADS must be an integer, got {raw!r}") from None


@contextmanager
def _claimed_out(path: str | None):
    """Open --out for appending before any work, so that an unwritable path
    fails first (OSError) and no work is thrown away.  The report is written
    only when complete, by ``_emit``; if the command raises, a file created
    here is removed and an existing one is left as it was."""
    if not path:  # stdout, as in ``_emit``
        yield
        return
    created = not os.path.lexists(path)
    open(path, "a", encoding="utf-8").close()
    try:
        yield
    except BaseException:
        if created:
            with suppress(OSError):
                os.remove(path)
        raise


def _emit(args, report: dict, rows: Iterable[dict] | None = None,
          fields: list[str] | None = None) -> int:
    """Write the report to --out or stdout and return exit status 0.
    JSON is ``report``; CSV is ``rows`` under ``fields``, by default
    ``report`` flattened to one row.

    The point listing passes its rows as an iterator, held also as the
    report's "points", and they are written in pieces of
    ``_ROWS_PER_PIECE`` as they are made, so memory does not grow with the
    listing.  Nothing is written before the first
    row is made, so a listing refused before its first point writes
    nothing.  --out receives the report only when it is complete: it is
    written to a temporary file first, so a command that fails midway
    leaves --out as ``_claimed_out`` promises."""
    if args.format == "csv":
        if rows is None:
            rows = [_flatten(report)]
            fields = list(rows[0])
        pieces = _csv_pieces(rows, fields)
    else:
        pieces = _json_pieces(report)
    if not args.out:
        sys.stdout.writelines(pieces)
        return 0
    with tempfile.TemporaryFile("w+", encoding="utf-8") as tmp:
        tmp.writelines(pieces)
        tmp.seek(0)
        with open(args.out, "w", encoding="utf-8") as fh:
            shutil.copyfileobj(tmp, fh)
    return 0


# rows per piece: enough that the per-call cost of the csv and json writers
# does not show (one json.dumps per row took 1.4x the time of one dump of
# the whole list at (2, 1, 20)), few enough that a piece stays small
_ROWS_PER_PIECE = 1024


def _batches(rows: Iterable[dict]) -> Iterator[list[dict]]:
    it = iter(rows)
    return iter(lambda: list(islice(it, _ROWS_PER_PIECE)), [])


def _csv_pieces(rows: Iterable[dict], fields: list[str]) -> Iterator[str]:
    """The CSV text of ``rows`` under ``fields``, in pieces of
    ``_ROWS_PER_PIECE`` rows, the header with the first."""
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    w.writeheader()
    for batch in _batches(rows):
        w.writerows(batch)
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()
    yield buf.getvalue()  # the header alone if there was no row


def _json_pieces(report: dict) -> Iterator[str]:
    """``json.dumps(report, sort_keys=True, separators=(",", ":"))`` and a
    newline, in pieces.  A value that is an iterator (the listing's points)
    is written as the list of its items, in pieces of ``_ROWS_PER_PIECE``
    items, the opening with the first: the same bytes as the dump of the
    whole list."""
    dump = partial(json.dumps, sort_keys=True, separators=(",", ":"))
    key = next((k for k, v in report.items() if isinstance(v, Iterator)), None)
    if key is None:
        yield dump(report) + "\n"
        return
    head, tail = dump({**report, key: []}).split(dump(key) + ":[]")
    sep = head + dump(key) + ":["
    for batch in _batches(report[key]):
        yield sep + dump(batch)[1:-1]
        sep = ","
    yield ("" if sep == "," else sep) + "]" + tail + "\n"


def _flatten(obj, prefix="") -> dict:
    out = {}
    for k, v in obj.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        elif isinstance(v, (list, tuple)):
            out[key] = json.dumps(v)
        else:
            out[key] = v
    return out


def _sqrt_field(h2: int | Fraction) -> str:
    """sqrt(h2): the exact integer when h2 is a perfect square, else 17
    significant digits."""
    if h2.denominator == 1:
        r = isqrt(h2.numerator)
        if r * r == h2.numerator:
            return str(r)
    return format(float(h2) ** 0.5, ".17g")


def height_formatter(s: Fraction, t: Fraction) -> Callable[[HilbPoint], str]:
    """The height field of a point at exponents (s, t), with the exponent case
    decided once per listing.  For integers s - t >= 0 and t >= 0 the
    squared height is the integer covol2_I1^(s-t) * covol2_I2^t, built
    without a Fraction; other integer exponents go through ``height2_st``,
    and fractional ones are floating point throughout."""
    if (s - t).denominator != 1 or t.denominator != 1:
        return lambda z: format(height_st(z, s, t), ".17g")
    e1, e2 = int(s - t), int(t)
    if e1 < 0 or e2 < 0:
        return lambda z: _sqrt_field(height2_st(z, s, t))
    return lambda z: _sqrt_field(z.covol2_I1 ** e1 * z.covol2_I2 ** e2)


def point_row(z: HilbPoint, height: Callable[[HilbPoint], str]) -> dict:
    """One row of the point table; ``height`` is ``height_formatter(s, t)``."""
    d = discriminant(z)
    lift = z.q_lift()
    return {
        "ell_a": z.ell.a, "ell_b": z.ell.b, "ell_c": z.ell.c,
        "qbar_1": z.qbar[0], "qbar_2": z.qbar[1], "qbar_3": z.qbar[2],
        **{f"q_lift_{i}": lift[i] for i in range(6)},
        "covol2_I1": z.covol2_I1,
        "covol2_I2": z.covol2_I2,
        "height": height(z),
        "class": classify(z).value,
        "disc": d,
    }


def _cmd_count(args) -> int:
    if args.emit_points:  # the listing starts no workers
        height = height_formatter(args.s, args.t)
        rows = (point_row(z, height) for z in enumerate_points(args.s, args.t, args.B))
        return _emit(args, {"schema_version": POINT_SCHEMA_VERSION, "points": rows}, rows, POINT_FIELDS)
    (row,) = convergence_report(
        args.s, args.t, [args.B], const_m_max=args.const_M_max, threads=_threads(args)
    )["rows"]
    report = {
        "schema_version": 1,
        "query": {"s": str(args.s), "t": str(args.t), "B": str(args.B)},
        "N": row["N"],
        "c_bracket": {"low": row["c_low"], "high": row["c_high"]},
        "prediction": row["prediction"],
        "rel_dev": row["rel_dev"],
    }
    return _emit(args, report)


def _cmd_constant(args) -> int:
    est = constant_c(args.ratio, args.M_max)
    report = {
        "schema_version": 1,
        "ratio": est.ratio,
        "M_max": est.M_max,
        "partial": est.partial,
        "tail_bound": est.tail_bound,
        "c_low": est.lo,
        "c_high": est.hi,
    }
    return _emit(args, report)


def _cmd_inspect(args) -> int:
    z = canonicalize(args.ell, args.q)
    h_le2 = le_height2(z)
    report = {
        "schema_version": POINT_SCHEMA_VERSION,
        "ell": list(z.ell.triple),
        "qbar": list(z.qbar),
        "q_lift": list(z.q_lift()),
        "covol2_I1": z.covol2_I1,
        "covol2_I2": z.covol2_I2,
        "H1": z.covol2_I1 ** 0.5,
        "H2": z.covol2_I2 ** 0.5,
        "class": classify(z).value,
        "disc": discriminant(z),
        "H_Le": le_height(z),
        "H_Le2_exact": f"{h_le2.numerator}/{h_le2.denominator}",
    }
    return _emit(args, report)


def _cmd_verify(args) -> int:
    names = ("m_max", "box", "n_lattices", "height_bound", "a_max", "k_max", "b_values")
    overrides = {k: getattr(args, k) for k in names if getattr(args, k) is not None}
    report = run_suite(args.suite, seed=args.seed, threads=_threads(args), **overrides)
    rows = [{"suite": report["suite"], **c} for c in report["checks"]]
    _emit(args, report, rows, ["suite", "name", "passed", "detail"])
    return 0 if report["passed"] else 1


def _cmd_le_count(args) -> int:
    rep = le_count_detailed(args.B, threads=_threads(args))
    pred = le_rudulier_prediction(float(args.B)) if args.B > 1 else None
    rep["prediction"] = pred
    rep["ratio_to_prediction"] = rep["total"] / pred if pred else None
    return _emit(args, rep)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "count": _cmd_count,
        "constant": _cmd_constant,
        "inspect": _cmd_inspect,
        "verify": _cmd_verify,
        "le-count": _cmd_le_count,
    }
    try:
        with _claimed_out(args.out):
            return handlers[args.command](args)
    except (ValueError, OSError, OverflowError) as exc:  # invalid point, unwritable path, past float range
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except AssertionError as exc:  # InternalCheckError is an AssertionError
        sys.stderr.write(f"internal check failed: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
