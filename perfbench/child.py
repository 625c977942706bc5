"""One cold benchmark process: import hilb2, run one job, report as JSON.

Usage (the parent, run.py, does this): ``python3 -B child.py <src-dir>`` with
the job as JSON on stdin.  The process pins itself to one CPU and imports
the library before anything else, so the parent can time spawn-to-import (``setup_s``) from the
``imported_at`` clock reading; ``time.perf_counter`` is the system-wide
monotonic clock on Linux, so parent and child readings compare.
"""

import os
import sys
import time

# one CPU for the import, the workload and the probe thread, so the probe
# times the CPU the measured work runs on
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
sys.path.insert(0, sys.argv[1])
import hilb2  # noqa: E402

IMPORTED_AT = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402

import hostprobe  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    src = os.path.realpath(sys.argv[1])
    if not os.path.realpath(hilb2.__file__).startswith(src + os.sep):
        print(f"hilb2 imported from {hilb2.__file__}, not from {src}", file=sys.stderr)
        return 3
    job = json.load(sys.stdin)
    result = {"imported_at": IMPORTED_AT}
    if job.get("import_only"):
        print(json.dumps(result))
        return 0
    tracer = None
    if job["trace"]:
        tracer = layertrace.Tracer()
        tracer.install()
    with hostprobe.Probe() as probe:
        t0, c0 = time.perf_counter(), time.process_time()
        failed, errors = workloads.run_job(job)
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - c0
    result["probe_s"] = probe.mean_s()
    result["probe_n"] = len(probe.samples)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["attempted"] = workloads.op_count(job)
    result["failed"] = failed
    result["errors"] = errors
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.span_count()
        if job.get("span_file"):
            tracer.write_spans(job["span_file"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
