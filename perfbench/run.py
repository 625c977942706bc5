"""hilb2 benchmark: cold-process workloads, exact-result checks, layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload count --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn

Load model: closed loop, one client.  Each measured repetition is a fresh
interpreter (``child.py``) that imports hilb2 from ``src/`` and makes one
workload's calls into the public API -- what one ``hilb2`` CLI invocation
costs -- so the library's lru_caches start empty every time.  Children run
one at a time, each pinned to one CPU, and the parent stays idle while a
child runs.  Repetitions are started while the next is expected to end within
``--seconds``; figures are medians over them.

Times are rescaled to a reference host speed by ``hostprobe``: each child
times a fixed kernel while it works (``norm_wall_s``), and each import-only
child is preceded by a reference process doing the same start-up work except
hilb2 (``setup_s``).  The raw times are in the run record and, with
``--trace 1``, in ``raw.wall_s`` and ``raw.setup_s``.

``--trace 0`` reports the end-to-end metrics (``END_TO_END``).  ``--trace 1``
alternates untraced and traced children and reports the per-layer metrics of
``layertrace`` plus the tracing overhead.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a human-readable table and the run record (git sha, versions, CPUs, load
average), which is also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostprobe
import layertrace
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = Path(__file__).resolve().parent / "out"

END_TO_END = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
# per-layer metrics of the whole traced run, after those of layertrace
RUN_METRICS = {
    "trace.norm_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
    "raw.wall_s": "s",
    "raw.setup_s": "s",
    "host.probe_us": "us",
}
# spawn-and-import-only children per untraced run, each after a reference
# process; setup_s is the median over them
IMPORT_ONLY_CHILDREN = 10
# hard limit on a run, well inside the 180 s a run may take; children still
# running then are killed
RUN_LIMIT_S = 150.0


def per_layer_names() -> list[str]:
    return layertrace.metric_names() + list(RUN_METRICS)


def unit_of(name: str) -> str:
    return END_TO_END.get(name) or RUN_METRICS.get(name) or layertrace.metric_unit(name)


class Preflight(Exception):
    """The checkout cannot be benchmarked (no hilb2 source, no BENCHMARK.json)."""


def load_benchmark() -> dict:
    if not (SRC / "hilb2" / "__init__.py").is_file():
        raise Preflight(f"no hilb2 source under {SRC}")
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise Preflight(f"missing {path}")
    return json.loads(path.read_text())


def compile_once() -> None:
    """Bring src/ bytecode up to date before timing; children never write
    bytecode, so every child imports from the same .pyc state."""
    if not compileall.compile_dir(str(SRC / "hilb2"), quiet=1):
        raise Preflight("hilb2 source does not compile")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(job: dict, limit: float) -> tuple[dict | None, str | None]:
    """Spawn one child for ``job``; returns (result, None) or (None, error).

    ``setup_s`` is measured from just before the spawn to the child's clock
    reading after ``import hilb2``.
    """
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-B", str(CHILD), str(SRC)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=_child_env(),
    ) as proc:
        try:
            out, err = proc.communicate(json.dumps(job).encode(), timeout=max(1.0, limit - t0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, "child timed out"
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-3:]
        return None, f"child exited {proc.returncode}: {' | '.join(tail)}"
    try:
        res = json.loads(out.decode().strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, "child printed no result"
    res["setup_s"] = res["imported_at"] - t0
    if "wall_s" in res:
        res["norm_wall_s"] = hostprobe.normalised(res["wall_s"], res["probe_s"])
    return res, None


def measure(job: dict, seconds: float, trace: bool, span_file: str | None = None) -> dict:
    """Run children for ``job`` while the next one is expected to end within
    ``seconds`` (at least one repetition); returns the child results and
    operation counts.

    ``imports`` holds the results of spawn-and-import-only children,
    ``runs`` and ``traced`` those of untraced and traced workload children.
    """
    start = time.perf_counter()
    limit = start + RUN_LIMIT_S
    rec: dict = {"imports": [], "runs": [], "traced": [], "attempted": 0, "failed": 0, "errors": []}

    def import_only() -> None:
        try:
            ref_s = hostprobe.reference_spawn(_child_env(), ROOT, max(1.0, limit - time.perf_counter()))
        except (OSError, ValueError, subprocess.SubprocessError) as exc:
            rec["errors"].append(f"reference process failed: {exc!r}")
            return
        res, err = run_child({"import_only": True}, limit)
        if err is not None:
            rec["errors"].append(err)
            return
        res["ref_spawn_s"] = ref_s
        res["norm_setup_s"] = hostprobe.normalised_setup(res["setup_s"], ref_s)
        rec["imports"].append(res)

    def child(payload: dict, into: str) -> None:
        res, err = run_child(payload, limit)
        if err is not None:
            rec["errors"].append(err)
        n = workloads.op_count(job)
        rec["attempted"] += n
        rec["failed"] += n if res is None else res["failed"]
        if res is not None:
            rec["errors"] += res["errors"]
            rec[into].append(res)

    if not trace:
        for _ in range(IMPORT_ONLY_CHILDREN):
            import_only()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        child({**job, "trace": False}, "runs")
        if trace:
            child({**job, "trace": True, "span_file": span_file}, "traced")
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now + longest > min(start + seconds, limit):
            break
    return rec


def summarise(rec: dict, trace: bool) -> tuple[dict, list[str]]:
    """Metrics (medians of times, exact counts) and consistency errors."""
    runs, traced = rec["runs"], rec["traced"]
    if not runs or (trace and not traced):
        return {}, ["no workload child completed"]
    if not trace:
        if not rec["imports"]:
            return {}, ["no import-only child completed"]
        return {
            "norm_wall_s": statistics.median(r["norm_wall_s"] for r in runs),
            "setup_s": statistics.median(r["norm_setup_s"] for r in rec["imports"]),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in runs),
        }, []
    metrics, problems = {}, []
    for name in layertrace.metric_names():
        values = [r["layers"][name] for r in traced]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                problems.append(f"{name} differs between traced runs: {values}")
    traced_wall = statistics.median(r["norm_wall_s"] for r in traced)
    metrics["trace.norm_wall_s"] = traced_wall
    metrics["trace.overhead_ratio"] = traced_wall / statistics.median(r["norm_wall_s"] for r in runs)
    metrics["trace.spans"] = traced[0]["spans"]
    metrics["raw.wall_s"] = statistics.median(r["wall_s"] for r in runs)
    metrics["raw.setup_s"] = statistics.median(r["setup_s"] for r in runs)
    metrics["host.probe_us"] = statistics.median(r["probe_s"] for r in runs) * 1e6
    return metrics, problems


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def run_workload(name: str, seed: int, seconds: float, trace: bool, why: str) -> dict:
    """Measure one workload and print its table; returns the result object."""
    record = {
        "workload": name,
        "why": why,
        "seed": seed,
        "seed_used": name in workloads.SEEDED,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }
    OUT.mkdir(exist_ok=True)
    job = workloads.make_job(name, seed)
    rec = measure(job, seconds, trace, span_file=str(OUT / f"spans-{name}-seed{seed}.json.gz"))
    record["loadavg_end"] = os.getloadavg()
    metrics, problems = summarise(rec, trace)
    result = {
        "correct": rec["failed"] == 0 and not problems and bool(metrics),
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    runs = rec["runs"]
    record.update(
        samples={
            **{key: [r[key] for r in rec["imports"]] for key in ("setup_s", "ref_spawn_s", "norm_setup_s")},
            "workload_setup_s": [r["setup_s"] for r in runs],
            **{
                key: [r[key] for r in runs]
                for key in ("wall_s", "cpu_s", "probe_s", "probe_n", "norm_wall_s", "peak_rss_mib")
            },
            "traced_wall_s": [r["wall_s"] for r in rec["traced"]],
        },
        errors=rec["errors"] + problems,
        result=result,
    )
    (OUT / f"run-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))

    print(f"== {name}: {why}")
    print("record: " + json.dumps({k: record[k] for k in
          ("git_sha", "python", "numpy", "cpu_count", "loadavg_start", "loadavg_end", "seed", "seed_used")}))
    print(f"  medians over {len(runs)} untraced and {len(rec['traced'])} traced workload children"
          f" and {len(rec['imports'])} import-only children")
    for k, m in result["metrics"].items():
        print(f"  {k:<48} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'error_rate':<48} {result['failed'] / result['attempted']:>14.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} operations failed)")
    for msg in record["errors"][:10]:
        print(f"  error: {msg}", file=sys.stderr)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0, help="input seed (only minima draws from it)")
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bench = load_benchmark()
        compile_once()
    except Preflight as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, seconds, bool(args.trace), whys.get(n, "")) for n in names}
    if args.workload != "all":
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    if not final["metrics"]:
        print("perfbench: no metric could be measured", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
