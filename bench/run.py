"""sumways benchmark: one workload, one seed, end to end or traced.

    python3 bench/run.py --workload dense-products --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
of the checkout this file sits in, and the run refuses to start if it is
missing. Each measured run happens in a fresh interpreter (``worker.py``),
so set-up time and peak RSS belong to that workload alone.

``--trace 0`` times the workload with no instrumentation and reports the
end-to-end metrics:

    setup_s          fresh interpreter to first request ready (import of
                     sumways.cli plus generating the first inputs), median
                     of SETUP_SAMPLES interpreters
    requests_per_s   completed requests per second of busy time, one
                     closed-loop client
    latency_p50_ms   per-request time, median
    latency_p90_ms   per-request time, 90th percentile
    peak_rss_mb      peak resident set of the workload's process

Times are in reference time (``speed.py``); the wall times are printed
beside them as ``raw_*``.

``failed_frac`` (failed / attempted; a request fails on a nonzero exit, an
exception or a wrong answer) is printed too, and is what the result line's
``attempted`` and ``failed`` carry.

``--trace 1`` runs a fixed number of requests with spans around every
module's public functions and reports the per-layer metrics, plus the
tracing overhead against an untraced process on the same requests. It
checks that count metrics repeat exactly in a second traced process and
that stdout is byte-identical across the processes.

The last line of stdout is the result as one JSON object. Spans, growth
reports and full results are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 7
# The whole run, all its processes included, ends within three minutes.
DEADLINE_S = 170.0
# Traced requests per second of --seconds. Fixed per workload so the count
# metrics of one seed repeat exactly; sized so that the traced, untraced
# and repeat processes together take about --seconds at the commit that
# defined the benchmark.
TRACE_REQUESTS_PER_S = {"dense-products": 8, "gap-scans": 15, "small-requests": 200}
# Requests in the second traced process; must match serve.SNAPSHOT_REQUESTS.
REPEAT_REQUESTS = 20

END_TO_END = (("setup_s", "s"), ("requests_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("peak_rss_mb", "MB"))


class WorkerFailed(Exception):
    pass


class Worker:
    """A fresh interpreter running one workload; times its set-up."""

    def __init__(self, deadline: float, probes: speed.Speed, *args: str):
        probes.probe()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-I", str(WORKER), *args],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        self.deadline = deadline
        ready = self._line()
        self.setup_s = time.perf_counter() - t0
        if ready != "ready":
            self._fail("did not get ready (%r)" % ready)

    def _line(self) -> str:
        left = self.deadline - time.monotonic()
        if left <= 0 or not select.select([self.proc.stdout], [], [], left)[0]:
            self._fail("timed out")
        return self.proc.stdout.readline().strip()

    def _fail(self, why: str):
        self.proc.kill()
        self.proc.wait()
        raise WorkerFailed("worker %s" % why)

    def finish(self) -> str:
        """Wait for the worker to exit cleanly; returns its stdout."""
        try:
            out, _ = self.proc.communicate(timeout=max(0.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self._fail("timed out")
        if self.proc.returncode != 0:
            raise WorkerFailed("worker exited with %d" % self.proc.returncode)
        return out

    def result(self) -> dict:
        for line in self.finish().splitlines():
            if line.startswith("result "):
                return json.loads(line[len("result "):])
        raise WorkerFailed("worker printed no result")


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; a checkout
    that is not a repository reports "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def unit_of(name: str) -> str:
    if name.endswith((".calls", ".in_terms", ".cells", ".outcomes", ".listed", ".errors")):
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if ".ns_per_" in name:
        return "ns"
    if name.endswith(".stdout_bytes"):
        return "bytes"
    if name.endswith(".out_bits_max"):
        return "bits"
    return "ratio"


def run_end_to_end(args, deadline) -> tuple[dict, dict]:
    common = ("--workload", args.workload, "--seed", str(args.seed))
    probes = speed.Speed()
    workers = []
    for _ in range(SETUP_SAMPLES - 1):
        workers.append(Worker(deadline, probes, *common, "--setup-only"))
        workers[-1].finish()
    workers.append(Worker(deadline, probes, *common, "--seconds", str(args.seconds)))
    res = workers[-1].result()
    res["raw_setup_s"] = statistics.median(w.setup_s for w in workers)
    res["setup_s"] = res["raw_setup_s"] * probes.factor
    return res, {name: res[name] for name, _ in END_TO_END}


def run_traced(args, deadline) -> tuple[dict, dict]:
    n = math.ceil(TRACE_REQUESTS_PER_S[args.workload] * args.seconds)
    common = ("--workload", args.workload, "--seed", str(args.seed))
    probes = speed.Speed()
    traced = Worker(deadline, probes, *common, "--requests", str(n), "--trace").result()
    repeat = Worker(deadline, probes, *common, "--requests", str(min(n, REPEAT_REQUESTS)),
                    "--trace").result()
    plain = Worker(deadline, probes, *common, "--requests", str(n)).result()
    problems = []
    expected = traced["snapshot"] if n > REPEAT_REQUESTS else traced["counts"]
    if repeat["counts"] != expected:
        diff = sorted(k for k in expected if expected[k] != repeat["counts"].get(k))
        problems.append("count metrics differ in a second traced process: %s" % diff)
    if traced["stdout_sha256"] != plain["stdout_sha256"]:
        problems.append("stdout differs between traced and untraced processes")
    metrics = dict(traced["layers"])
    metrics["trace.requests_per_s"] = traced["requests_per_s"]
    metrics["trace.untraced_requests_per_s"] = plain["requests_per_s"]
    metrics["trace.slowdown"] = plain["requests_per_s"] / traced["requests_per_s"]
    for name, report in traced["growth"].items():
        metrics[name + ".growth_slope"] = report["slope"]
    res = dict(traced)
    res["attempted"] = traced["attempted"] + repeat["attempted"] + plain["attempted"]
    res["failed"] = traced["failed"] + repeat["failed"] + plain["failed"]
    res["problems"] = problems
    return res, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="sumways benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "sumways" / "cli.py").is_file():
        print("bench: no sumways sources under %s; run from a full checkout"
              % (ROOT / "src"), file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = environment()
    print("workload %s seed %d seconds %d trace %d" % (args.workload, args.seed,
                                                      args.seconds, args.trace))
    print("env " + json.dumps(env))
    try:
        if args.trace:
            res, metrics = run_traced(args, deadline)
        else:
            res, metrics = run_end_to_end(args, deadline)
    except WorkerFailed as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    problems = res.get("problems", [])
    attempted, failed = res["attempted"], res["failed"]
    print("mix " + json.dumps(res["mix"]))
    print("shared_shape_share %.4f" % res["shared_shape_share"])
    print("failed_frac %.6f (%d failed of %d requests)" % (failed / attempted, failed, attempted))
    if not args.trace:
        print("latency samples %d, %d beyond p90" % (attempted, res["beyond_p90"]))
    for reason, count in res["failures"].items():
        print("failure %d x %s" % (count, reason))
    for example in res["examples"]:
        print("failed request: " + example)
    for problem in problems:
        print("problem: " + problem)
    if args.trace:
        print("spans %d written to %s" % (res["spans"], res["spans_file"]))
        for name, report in res["growth"].items():
            print("growth %s slope %.3f" % (name, report["slope"]))
            for row in report["buckets"]:
                print("  %-8s calls %7d work %12d self %.6f s  %.2f ns/unit" % (
                    row["bucket"], row["calls"], row["work"], row["self_s"], row["ns_per_unit"]))
    units = dict(END_TO_END)
    for name, value in metrics.items():
        print("%s %s %s" % (name, value, units.get(name) or unit_of(name)))
        if "raw_" + name in res:
            print("  wall time: raw_%s %s" % (name, res["raw_" + name]))
    out = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name) or unit_of(name)}
                    for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(out, env=env, run=res, workload=args.workload, seed=args.seed)
    (OUT / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
