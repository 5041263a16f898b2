"""Spans around the calls into each module's public functions.

Nothing inside the package is edited: ``Tracer.install`` rebinds each
traced function wherever a caller looks it up (every ``sumways`` module's
globals, the package namespace and dict tables such as ``ENGINES``), and
replaces ``IntPoly.__post_init__`` / ``BiPoly.__post_init__`` on the
classes. ``uninstall`` puts the originals back.

Spans are kept in memory as flat integer records and written out at the
end of the run. A span's self time is its duration minus the time covered
by its child spans; the tracer's own bookkeeping after a call returns is
charged to the child, so it never inflates the parent's self time.
"""

from __future__ import annotations

import math
import statistics
import sys
from array import array
from time import perf_counter_ns

LAYERS = ("cli", "homogeneous", "heterogeneous", "polygonal", "regula",
          "series", "oracle", "golden")


def _in_terms(a, b, *_, **__):
    return len(a.coeffs) * len(b.coeffs)


def _cells(steps, bounds, *_, **__):
    return len(steps) * (bounds[0] + 1) * (bounds[1] + 1)


def _outcomes(pool, *_, **__):
    return pool.outcome_count


def _out_bits(result):
    return max((abs(c).bit_length() for c in result.coeffs), default=0)


def _listed(result):
    return len(result[0])


# (module, attribute, work counter from the inputs, counter from the result)
TARGETS = (
    ("cli", "build_parser", None, None),
    ("cli", "main", None, None),
    ("series", "poly_mul", _in_terms, _out_bits),
    ("series", "poly_pow", None, None),
    ("series", "inverse_product_grid", _cells, None),
    ("series", "IntPoly.__post_init__", None, None),
    ("series", "BiPoly.__post_init__", None, None),
    ("homogeneous", "count_poly", None, None),
    ("homogeneous", "count_add_die", None, None),
    ("homogeneous", "count_lambda_recurrence", None, None),
    ("homogeneous", "count_closed_form", None, None),
    ("homogeneous", "count_table_add_die", None, None),
    ("heterogeneous", "hetero_distribution", None, None),
    ("heterogeneous", "hetero_count_product", None, None),
    ("heterogeneous", "hetero_count_closed_form", None, None),
    ("polygonal", "polygonal_series", None, None),
    ("polygonal", "polygonal_parts", None, None),
    ("polygonal", "partition_count_grid", None, None),
    ("polygonal", "check_all_positive", None, None),
    ("regula", "rv_count_solutions", None, None),
    ("regula", "rv_enumerate_solutions", None, _listed),
    ("oracle", "brute_dice", _outcomes, None),
    ("golden", "verify_against_paper", None, None),
    ("golden", "load_golden", None, None),
)

# Smallest mean work per call of a size bucket in the growth slope fit.
SLOPE_MIN_WORK = 1024

# One span record: id, parent id, request, name index, start, duration,
# self time (all ns), work counter, result counter, 1 if it raised.
FIELDS = ("id", "parent", "request", "name", "start_ns", "dur_ns", "self_ns",
          "work", "result", "error")


class Totals:
    """Running sums for one traced function."""

    __slots__ = ("calls", "self_ns", "work", "result", "result_max", "errors")

    def __init__(self):
        self.calls = self.self_ns = self.work = self.result = self.result_max = self.errors = 0


class Tracer:
    def __init__(self):
        self.names = ["%s.%s" % (mod, attr.replace(".__post_init__", ".validate"))
                      for mod, attr, _, _ in TARGETS]
        self.spans = array("q")
        self.request = -1
        self.enabled = False
        self._stack: list[list[int]] = []  # [child ns, span id]
        self._next_id = 0
        self._t0 = perf_counter_ns()
        self._undo: list = []
        self.totals = [Totals() for _ in TARGETS]
        # per traced kernel: log2 size bucket -> [calls, work, self ns]
        self.growth = {"series.poly_mul": {}, "series.inverse_product_grid": {}}

    def _wrap(self, index, fn, work, result_count):
        tracer = self
        totals = self.totals[index]
        growth = self.growth.get(self.names[index])

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0, span_id]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter_ns()
                stack.pop()
                tracer._record(index, span_id, parent, t0, t1, frame[0], 0, 0, 1)
                totals.errors += 1
                if stack:
                    stack[-1][0] += perf_counter_ns() - t0
                raise
            t1 = perf_counter_ns()
            stack.pop()
            w = work(*args, **kwargs) if work else 0
            r = result_count(result) if result_count else 0
            self_ns = t1 - t0 - frame[0]
            tracer._record(index, span_id, parent, t0, t1, frame[0], w, r, 0)
            totals.calls += 1
            totals.self_ns += self_ns
            totals.work += w
            totals.result += r
            if r > totals.result_max:
                totals.result_max = r
            if growth is not None and w:
                bucket = growth.setdefault(w.bit_length(), [0, 0, 0])
                bucket[0] += 1
                bucket[1] += w
                bucket[2] += self_ns
            if stack:
                stack[-1][0] += perf_counter_ns() - t0
            return result

        return traced

    def _record(self, index, span_id, parent, t0, t1, child_ns, work, result, error):
        self.spans.extend((span_id, parent, self.request, index, t0 - self._t0,
                           t1 - t0, t1 - t0 - child_ns, work, result, error))

    def install(self) -> None:
        """Wrap every target the package still has; a target it no longer
        has is skipped and its metrics read 0."""
        modules = [m for name, m in sys.modules.items()
                   if name == "sumways" or name.startswith("sumways.")]
        for index, (mod, attr, work, result_count) in enumerate(TARGETS):
            owner_name, _, name = attr.rpartition(".")
            owner = sys.modules.get("sumways." + mod)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            orig = vars(owner).get(name) if owner is not None else None
            if orig is None:
                continue
            wrapper = self._wrap(index, orig, work, result_count)
            if owner_name:
                setattr(owner, name, wrapper)
                self._undo.append((owner, name, orig))
                continue
            for m in modules:
                for global_name, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, global_name, wrapper)
                        self._undo.append((m, global_name, orig))
                    elif isinstance(value, dict):
                        for key, entry in list(value.items()):
                            if entry is orig:
                                value[key] = wrapper
                                self._undo.append((value, key, orig))

    def uninstall(self) -> None:
        for target, name, orig in reversed(self._undo):
            if isinstance(target, dict):
                target[name] = orig
            else:
                setattr(target, name, orig)
        self._undo.clear()

    # -- reports ----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.spans) // len(FIELDS)

    def stat(self, name: str) -> Totals:
        return self.totals[self.names.index(name)]

    def errors_by_layer(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for name, totals in zip(self.names, self.totals):
            out[name.split(".")[0]] += totals.errors
        return out

    def growth_report(self, name: str) -> dict:
        """Per size bucket (work in [2^(b-1), 2^b)): calls, work, self time,
        ns per unit of work; and the least-squares slope of log(self time)
        against log(work) per call, over buckets of at least three calls and
        SLOPE_MIN_WORK units, where fixed per-call costs no longer dominate.
        A slope of 1 means time grows in proportion to the work counter."""
        rows = []
        for b in sorted(self.growth[name]):
            calls, work, self_ns = self.growth[name][b]
            rows.append({"bucket": "<2^%d" % b, "calls": calls, "work": work,
                         "self_s": self_ns / 1e9,
                         "ns_per_unit": self_ns / work if work else 0.0})
        pts = [(math.log(r["work"] / r["calls"]), math.log(r["self_s"] * 1e9 / r["calls"]))
               for r in rows
               if r["calls"] >= 3 and r["self_s"] > 0 and r["work"] >= SLOPE_MIN_WORK * r["calls"]]
        slope = 0.0
        if len(pts) >= 2:
            slope = statistics.linear_regression(*zip(*pts)).slope
        return {"buckets": rows, "slope": slope}

    def write_spans(self, path) -> None:
        """One tab-separated line per span, with a header line."""
        with open(path, "w") as f:
            f.write("\t".join(FIELDS) + "\n")
            spans = self.spans
            width = len(FIELDS)
            for i in range(0, len(spans), width):
                rec = list(spans[i:i + width])
                rec[3] = self.names[rec[3]]
                f.write("\t".join(map(str, rec)) + "\n")
