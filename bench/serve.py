"""The closed-loop client: send requests, time them, check every answer.

One client, no think time: the next request goes out only after the
previous one has been answered and checked. A request's latency is the
wall time of the call alone (``sumways.cli.main(argv)`` or the library
function); checking happens between requests, outside that window.
``requests_per_s`` is completed requests per second of that busy time.
Both are reported in reference time (see ``speed.py``) and in wall time.
"""

from __future__ import annotations

import hashlib
import io
import resource
import statistics
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import sumways
import sumways.cli
from checks import Checker, Response
from speed import Speed

# At least this many requests per timed run, so ten or more lie beyond p90.
MIN_REQUESTS = 100
# Every this many requests, one is sent again untimed and its stdout must
# match the first answer byte for byte.
RERUN_EVERY = 16
# Requests whose stdout goes into the digest compared across processes.
DIGEST_REQUESTS = 100
# A traced run snapshots its count metrics after this many requests, so a
# second, shorter traced process can confirm they repeat exactly.
SNAPSHOT_REQUESTS = 20


def execute(req) -> Response:
    """Send one request the way a user would; time only the call itself."""
    if req.func is not None:
        func = getattr(sumways, req.func)
        t0 = perf_counter()
        try:
            value = func(*req.args)
        except Exception as exc:  # a failed request, counted by the caller
            return Response(error=exc, seconds=perf_counter() - t0)
        return Response(value=value, seconds=perf_counter() - t0)
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        t0 = perf_counter()
        try:
            code = sumways.cli.main(list(req.argv))
        except Exception as exc:  # a failed request, counted by the caller
            return Response(error=exc, seconds=perf_counter() - t0)
        seconds = perf_counter() - t0
    finally:
        sys.stdout, sys.stderr = saved
    return Response(code=code, out=out.getvalue(), seconds=seconds)


class Run:
    """What the client saw over one run."""

    def __init__(self):
        self.latencies = array("d")  # wall seconds
        self.mix: Counter = Counter()
        self.failures: Counter = Counter()
        self.examples: list[str] = []
        self.shapes: set = set()
        self.shared = 0
        self.stdout_bytes = 0
        self.digest = hashlib.sha256()
        self.snapshot: dict | None = None
        self.speed = Speed()

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def add(self, req, resp: Response, reason: str | None) -> None:
        self.latencies.append(resp.seconds)
        self.mix[req.op] += 1
        if req.shape is not None:
            if req.shape in self.shapes:
                self.shared += 1
            self.shapes.add(req.shape)
        out = resp.out.encode()
        self.stdout_bytes += len(out)
        if self.attempted <= DIGEST_REQUESTS:
            self.digest.update(out if req.argv is not None else repr(resp.value).encode())
            self.digest.update(b"\0")
        if reason is not None:
            self.failures[reason] += 1
            if len(self.examples) < 5:
                self.examples.append("%s: %s" % (" ".join(req.argv or (req.func,)), reason))

    def summary(self) -> dict:
        # read before the sorting below allocates
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        factor = self.speed.factor
        busy = sum(self.latencies)
        q = statistics.quantiles(self.latencies, n=100, method="inclusive")
        return {
            "attempted": self.attempted,
            "failed": sum(self.failures.values()),
            "failures": dict(self.failures),
            "examples": self.examples,
            "requests_per_s": self.attempted / (busy * factor),
            "latency_p50_ms": q[49] * factor * 1e3,
            "latency_p90_ms": q[89] * factor * 1e3,
            "raw_requests_per_s": self.attempted / busy,
            "raw_latency_p50_ms": q[49] * 1e3,
            "raw_latency_p90_ms": q[89] * 1e3,
            "beyond_p90": sum(1 for x in self.latencies if x > q[89]),
            "speed_factor": factor,
            "speed_samples": len(self.speed.samples),
            "peak_rss_mb": peak_rss_mb,
            "mix": dict(sorted(self.mix.items())),
            "shared_shape_share": self.shared / self.attempted,
            "stdout_sha256": self.digest.hexdigest(),
            "digest_requests": min(self.attempted, DIGEST_REQUESTS),
        }


def serve(stream, checker, seconds=None, limit=None, tracer=None, mutate=None) -> Run:
    """Run ``limit`` requests, or run for ``seconds`` of wall time and at
    least MIN_REQUESTS requests.

    ``mutate(i, resp)`` may alter a response before it is checked; the
    self-tests use it to corrupt answers.
    """
    run = Run()
    deadline = perf_counter() + (seconds or 0.0)
    i = 0
    while i < limit if limit is not None else (i < MIN_REQUESTS or perf_counter() < deadline):
        req = next(stream)
        run.speed.maybe_probe()
        if tracer is not None:
            tracer.request = i
            tracer.enabled = True
        resp = execute(req)
        if tracer is not None:
            tracer.enabled = False
        if mutate is not None:
            mutate(i, resp)
        reason = checker.check(req, resp)
        if reason is None and req.argv is not None and i % RERUN_EVERY == 0:
            if execute(req).out != resp.out:
                reason = "stdout differs on a second run"
        run.add(req, resp, reason)
        i += 1
        if tracer is not None and i == SNAPSHOT_REQUESTS:
            run.snapshot = count_metrics(tracer, run)
    return run


def run_workload(stream, root: Path, workload: str, seed: int, seconds=None, limit=None,
                 trace=False) -> dict:
    checker = Checker(root)
    if not trace:
        return serve(stream, checker, seconds=seconds, limit=limit).summary()
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        run = serve(stream, checker, seconds=seconds, limit=limit, tracer=tracer)
    finally:
        tracer.uninstall()
    result = run.summary()
    result["layers"] = layer_metrics(tracer, run)
    result["counts"] = count_metrics(tracer, run)
    result["snapshot"] = run.snapshot
    result["growth"] = {name: tracer.growth_report(name) for name in tracer.growth}
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / ("spans-%s-seed%d-n%d.tsv" % (workload, seed, run.attempted))
    tracer.write_spans(path)
    result["spans_file"] = str(path.relative_to(root))
    result["spans"] = tracer.span_count
    return result


COUNT_SUFFIXES = (".calls", ".in_terms", ".cells", ".outcomes", ".listed", ".stdout_bytes")


def count_metrics(tracer, run) -> dict:
    """The metrics that count work rather than time it; they must repeat
    exactly for the same requests."""
    return {k: v for k, v in layer_metrics(tracer, run).items() if k.endswith(COUNT_SUFFIXES)}


def layer_metrics(tracer, run) -> dict:
    """Per-layer figures over the traced requests, keyed by metric name."""
    m = {}

    def calls_self(name, calls=True):
        totals = tracer.stat(name)
        if calls:
            m[name + ".calls"] = totals.calls
        m[name + ".self_s"] = totals.self_ns / 1e9

    def per_unit(totals):
        return totals.self_ns / totals.work if totals.work else 0.0

    calls_self("cli.build_parser")
    m["cli.main.self_s"] = tracer.stat("cli.main").self_ns / 1e9
    m["cli.stdout_bytes"] = run.stdout_bytes
    calls_self("series.poly_mul")
    mul = tracer.stat("series.poly_mul")
    m["series.poly_mul.in_terms"] = mul.work
    m["series.poly_mul.ns_per_term"] = per_unit(mul)
    m["series.poly_mul.out_bits_max"] = mul.result_max
    calls_self("series.poly_pow")
    calls_self("series.inverse_product_grid")
    grid = tracer.stat("series.inverse_product_grid")
    m["series.inverse_product_grid.cells"] = grid.work
    m["series.inverse_product_grid.ns_per_cell"] = per_unit(grid)
    m["series.BiPoly.validate_s"] = tracer.stat("series.BiPoly.validate").self_ns / 1e9
    m["series.IntPoly.validate_s"] = tracer.stat("series.IntPoly.validate").self_ns / 1e9
    for name in ("count_poly", "count_add_die", "count_lambda_recurrence",
                 "count_closed_form", "count_table_add_die"):
        calls_self("homogeneous." + name)
    for name in ("hetero_distribution", "hetero_count_product", "hetero_count_closed_form"):
        calls_self("heterogeneous." + name)
    for name in ("polygonal_series", "polygonal_parts", "partition_count_grid",
                 "check_all_positive"):
        calls_self("polygonal." + name, calls=False)
    calls_self("regula.rv_count_solutions", calls=False)
    calls_self("regula.rv_enumerate_solutions", calls=False)
    m["regula.rv_enumerate_solutions.listed"] = tracer.stat("regula.rv_enumerate_solutions").result
    calls_self("oracle.brute_dice")
    m["oracle.brute_dice.outcomes"] = tracer.stat("oracle.brute_dice").work
    calls_self("golden.verify_against_paper", calls=False)
    m["golden.load_golden.calls"] = tracer.stat("golden.load_golden").calls
    for layer, errors in tracer.errors_by_layer().items():
        m[layer + ".errors"] = errors
    return m
