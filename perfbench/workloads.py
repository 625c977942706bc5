"""The four benchmark workloads: fixed inputs, seeded inputs and exact checks.

A job is a plain dict ``{"workload", "params", "reference", "inputs"}`` built
in the parent by :func:`make_job` and executed in a fresh interpreter by
:func:`run_job`.  Every operation is checked against an exact reference; an
operation that raises or disagrees counts as failed and the run goes on.

This module must not import hilb2 at module level: the parent imports it to
build jobs without paying for the library import.
"""

from __future__ import annotations

import random
import traceback
from fractions import Fraction
from math import gcd

# Exact results recorded at the seed commit.  ``count``, ``le-count`` and
# ``constant`` are fixed queries and ignore the seed; ``minima`` checks
# identities that hold for every form, so it needs no recorded values.
PARAMS = {
    "count": {"s": 2, "t": 1, "B": 30},
    "le-count": {"B": 100},
    "constant": {"ratio": 2, "M": 200},
    "minima": {"forms": 8000, "max_coeff": 40},
}
REFERENCE = {
    "count": {"N": 160417},
    "le-count": {"split": 966, "nonsplit": 313, "total": 1279},
    # The bracket must enclose the seed's partial sum up to ``slack``, which
    # leaves room for outward rounding of both ends; ``max_width`` rejects a
    # bracket too wide to mean anything (the seed's width is 8.8e-14).
    "constant": {"value": 5.940037494756796, "slack": 1e-12, "max_width": 1e-11},
    "minima": {},
}
NAMES = tuple(PARAMS)
SEEDED = ("minima",)
MAX_ERRORS_KEPT = 5


def minima_forms(seed: int, n: int, max_coeff: int) -> list[tuple[int, int, int]]:
    """``n`` distinct primitive sign-canonical triples, uniform over those
    with max |coordinate| <= max_coeff, drawn by rejection from ``seed``."""
    rng = random.Random(seed)
    out: list[tuple[int, int, int]] = []
    seen = set()
    while len(out) < n:
        t = tuple(rng.randint(-max_coeff, max_coeff) for _ in range(3))
        if gcd(gcd(t[0], t[1]), t[2]) != 1:  # also rejects (0, 0, 0)
            continue
        if next(v for v in t if v) < 0:
            t = tuple(-v for v in t)
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def make_job(name: str, seed: int, params: dict | None = None, reference: dict | None = None) -> dict:
    """The job for one workload; ``params``/``reference`` override the
    defaults (the smoke test uses tiny inputs and a deliberately wrong value)."""
    params = dict(PARAMS[name] if params is None else params)
    inputs = None
    if name == "minima":
        inputs = minima_forms(seed, params["forms"], params["max_coeff"])
    return {
        "workload": name,
        "params": params,
        "reference": dict(REFERENCE[name] if reference is None else reference),
        "inputs": inputs,
    }


def op_count(job: dict) -> int:
    """Number of operations a child attempts for this job."""
    return len(job["inputs"]) if job["workload"] == "minima" else 1


# ---------------------------------------------------------------------------
# child side: each function yields one error string per failed operation
# ---------------------------------------------------------------------------


def _count(params, ref, _inputs):
    from hilb2 import count_Nst

    n = count_Nst(params["s"], params["t"], params["B"])
    if n != ref["N"]:
        yield f"count_Nst = {n}, expected {ref['N']}"


def _le_count(params, ref, _inputs):
    from hilb2 import le_count_detailed

    got = le_count_detailed(params["B"])
    want = {k: got[k] for k in ref}
    if want != ref:
        yield f"le_count_detailed = {want}, expected {ref}"


def _constant(params, ref, _inputs):
    from hilb2 import constant_c

    est = constant_c(params["ratio"], params["M"])
    lo, hi, v, slack = est.lo, est.hi, ref["value"], ref["slack"]
    if not (lo - slack <= v <= hi + slack and 0 < hi - lo <= ref["max_width"]):
        yield f"constant_c bracket [{lo!r}, {hi!r}] does not enclose {v!r}"


def _minima_one(triple, lattice, pi_bracket) -> str | None:
    ell = lattice.LinearForm(*triple)
    q = lattice.quotient(ell)
    sm = lattice.successive_minima(q)
    covol2q = Fraction(1, q.covol2_product)
    prod = sm.lam1_sq * sm.lam2_sq * sm.lam3_sq
    pi_lo, pi_hi = pi_bracket
    # squared Minkowski second theorem, as the minkowski verify suite checks it
    if not (covol2q <= prod * pi_lo * pi_lo and prod * pi_hi * pi_hi <= 36 * covol2q):
        return f"{triple}: Minkowski bounds violated"
    if sm.lam1_sq * q.covol2_product != lattice.min_form_value(q):
        return f"{triple}: lam1_sq * covol2_product != min_form_value"
    return None


def _minima(_params, _ref, inputs):
    from hilb2 import lattice
    from hilb2.constants import PI_BRACKET

    for triple in inputs:
        try:
            err = _minima_one(tuple(triple), lattice, PI_BRACKET)
        except Exception as exc:  # a raising operation is a failed operation
            err = f"{tuple(triple)}: {_describe(exc)}"
        if err is not None:
            yield err


_RUNNERS = {"count": _count, "le-count": _le_count, "constant": _constant, "minima": _minima}


def run_job(job: dict) -> tuple[int, list[str]]:
    """Run a job's operations; returns (failed, first few error messages)."""
    failed, errors = 0, []
    try:
        for err in _RUNNERS[job["workload"]](job["params"], job["reference"], job["inputs"]):
            failed += 1
            if len(errors) < MAX_ERRORS_KEPT:
                errors.append(err)
    except Exception as exc:  # only the single-query workloads raise here
        failed = op_count(job)
        errors.append(_describe(exc))
    return failed, errors


def _describe(exc: Exception) -> str:
    """Exception type, message and the line that raised it."""
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} (at {where.filename}:{where.lineno})"
