"""Seeded request streams for the three benchmark workloads.

A stream is an endless, deterministic sequence of requests: the same seed
gives the same requests in the same order. Streams are built from fixed
blocks (strata); the seed only picks values inside each stratum, so the
request mix, and with it the run-to-run figures, stays put across seeds.

A request is either a CLI call (``argv`` for ``sumways.cli.main``) or a
library call (``func`` looked up on the ``sumways`` package at call time).
``spec`` carries the parsed parameters the answer checker needs; the
program never sees it.

Workloads, and why each was chosen:

``dense-products``
    ``count --engine all`` for n up to about 200 and m in 6..20, ``hetero``
    full distributions over pools of up to about 60 consecutive dice,
    ``table``, and library calls to ``hetero_count_closed_form`` with k <= 16
    so the 2^k path stays bounded. This is the dense ``series.poly_mul``
    path. Count requests reuse eight die shapes (n, m), n moved a little by
    the seed, and differ only in N, so a future cache has something to hit;
    the run reports the share of requests whose shape was already seen.

``gap-scans``
    ``polygonal-check``, ordered and ``--unordered``, with sides 3..8,
    power 2..5 and upto in the low thousands, plus ``virgins`` counts with
    2..5 generators. This is the lattice workload
    (``inverse_product_grid`` and ``BiPoly`` validation). The ordered check
    runs ``poly_pow`` on sparse, truncated operands, the same kernel as
    ``dense-products`` used another way, so a dense-only gain that costs
    sparse shows here. No two requests share a series or a grid.

``small-requests``
    many millisecond-sized calls covering every subcommand and every
    ``--format``: ``count --oracle`` on small pools, ``virgins --list``,
    ``verify-paper`` and small tables. CLI parsing and formatting dominate,
    and ``build_parser`` runs on every call; a kernel change should predict
    no change here.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

ENGINE_NAMES = ("poly", "add-die", "lambda", "closed")


@dataclass
class Request:
    op: str
    argv: tuple[str, ...] | None = None
    func: str | None = None
    args: tuple = ()
    spec: dict = field(default_factory=dict)
    # die shape (n, m) for the shared-shape share; None when not applicable
    shape: tuple[int, int] | None = None


def count_request(n: int, m: int, N: int, engine: str, fmt: str,
                  oracle_budget: int | None = None) -> Request:
    argv = ["count", "--dice", str(n), "--faces", str(m), "--sum", str(N),
            "--engine", engine, "--format", fmt]
    if oracle_budget is not None:
        argv += ["--oracle", "--oracle-budget", str(oracle_budget)]
    return Request("count", tuple(argv),
                   spec={"n": n, "m": m, "N": N, "engine": engine, "format": fmt},
                   shape=(n, m))


def table_request(m: int, n_max: int, N_max: int, fmt: str) -> Request:
    argv = ("table", "--faces", str(m), "--max-dice", str(n_max),
            "--max-sum", str(N_max), "--format", fmt)
    return Request("table", argv, spec={"m": m, "n_max": n_max, "N_max": N_max, "format": fmt})


def hetero_request(dice: list[tuple[int, ...]], specs: list[str], N: int | None,
                   fmt: str) -> Request:
    """``dice`` holds each die's marks; ``specs`` the matching --die text."""
    argv = ["hetero"]
    for s in specs:
        argv += ["--die", s]
    if N is not None:
        argv += ["--sum", str(N)]
    argv += ["--format", fmt]
    return Request("hetero-sum" if N is not None else "hetero-full", tuple(argv),
                   spec={"dice": dice, "N": N, "format": fmt})


def polygonal_request(sides: int, power: int, upto: int, unordered: bool) -> Request:
    argv = ["polygonal-check", "--sides", str(sides), "--power", str(power),
            "--upto", str(upto)]
    if unordered:
        argv.append("--unordered")
    return Request("polygonal-unordered" if unordered else "polygonal-ordered",
                   tuple(argv),
                   spec={"sides": sides, "power": power, "upto": upto})


def virgins_request(gens: tuple[tuple[int, int], ...], targets: tuple[int, int],
                    positive: bool, cap: int | None) -> Request:
    argv = ["virgins"]
    for a, b in gens:
        argv += ["--gen", "%d:%d" % (a, b)]
    argv += ["--targets", "%d:%d" % targets]
    if positive:
        argv.append("--positive")
    if cap is not None:
        argv += ["--list", str(cap)]
    return Request("virgins-list" if cap is not None else "virgins", tuple(argv),
                   spec={"gens": gens, "targets": targets, "positive": positive, "cap": cap})


def _consecutive(faces: list[int]) -> tuple[list[tuple[int, ...]], list[str]]:
    return ([tuple(range(1, m + 1)) for m in faces], ["1..%d" % m for m in faces])


class Weyl:
    """Fractions in [0, 1) that fill the interval evenly in any run length
    (an additive golden-ratio sequence from a seeded start), so each run
    samples a size range the same way whatever the seed."""

    def __init__(self, rng: random.Random):
        self.x = rng.random()

    def __call__(self) -> float:
        self.x = (self.x + 0.6180339887498949) % 1.0
        return self.x

    def pick(self, lo: int, hi: int) -> int:
        return lo + int(self() * (hi - lo + 1))


# Each workload is a repeated block of requests in cost classes. The class
# holding the middle of the block and the class at its top are kept tight,
# so latency_p50 and latency_p90 each fall inside one class instead of in a
# sparse gap between classes, where they would jump from seed to seed. The
# models below only choose request sizes for a cost target (reference ns
# per unit of work, measured at the commit that defined the benchmark);
# they have no say in what is checked.


def count_ns(n: int) -> float:
    """``count --engine all``, per unit of n * N * (m + 1)."""
    return 70 + n / 4


HETERO_NS_PER_K2 = 11_000  # full distribution of k dice, per k^2
ORDERED_NS = 40  # polygonal-check, per (power - 1) * upto * parts
UNORDERED_NS = 50  # polygonal-check --unordered, per parts * (upto + 1) * (power + 1)
VIRGINS_NS = 37  # virgins, per grid cell * (generators + 2)


def polygonal_count(sides: int, upto: int) -> int:
    """How many sides-gonal numbers (0 included) are at most upto."""
    j = 0
    while ((sides - 2) * j * j - (sides - 4) * j) // 2 <= upto:
        j += 1
    return j


def ordered_units(sides, power, upto):
    return (power - 1) * upto * polygonal_count(sides, upto)


def unordered_units(sides, power, upto):
    return polygonal_count(sides, upto) * (upto + 1) * (power + 1)


UPTO_RANGE = (1000, 3000)


def fit_upto(units, ns: float, sides: int, power: int, target_ns: float) -> int:
    """Smallest upto in UPTO_RANGE whose modelled cost reaches target_ns
    (the top of the range when none does)."""
    lo, hi = UPTO_RANGE
    while lo < hi:
        mid = (lo + hi) // 2
        if ns * units(sides, power, mid) < target_ns:
            lo = mid + 1
        else:
            hi = mid
    return lo


# dense-products die shapes (n, m) per class; the seed moves n a little.
DENSE_TOP = ((190, 6), (160, 7), (130, 8))
DENSE_UPPER = ((160, 7), (130, 8))
DENSE_MIDDLE = ((90, 12), (60, 16), (40, 20))
DENSE_CHEAP = ((25, 10), (15, 14))
# Block of 20: cheap 7, middle 6 (p50), upper 3, top 4 (p90); targets in ms.
DENSE_TARGET_MS = {"middle": 20, "upper": 38, "top": 60}


def dense_products(seed: int) -> Iterator[Request]:
    rng = random.Random(seed)
    jitter, size = Weyl(rng), Weyl(rng)
    moved = {shape: (shape[0] + rng.randint(-4, 4), shape[1])
             for shape in DENSE_TOP + DENSE_UPPER + DENSE_MIDDLE + DENSE_CHEAP}
    fmts = ("plain", "json", "csv")

    def target_ns(cls):
        return DENSE_TARGET_MS[cls] * 1e6 * (0.95 + 0.1 * jitter())

    def count(shape, cls=None):
        n, m = moved[shape]
        top = n + (m - 1) * n // 2  # lower half of the support; counts are symmetric
        if cls is None:
            N = size.pick(n, top)
        else:
            N = min(top, max(n, round(target_ns(cls) / (count_ns(n) * n * (m + 1)))))
        return count_request(n, m, N, "all", rng.choice(fmts))

    def hetero(k):
        faces = [rng.randint(6, 20) for _ in range(k)]
        dice, specs = _consecutive(faces)
        return hetero_request(dice, specs, None, rng.choice(fmts))

    def hetero_at(cls):
        return hetero(round((target_ns(cls) / HETERO_NS_PER_K2) ** 0.5))

    def table(m):
        n_max = size.pick(10, 30)
        return table_request(m, n_max, size.pick(m * n_max // 2, m * n_max), rng.choice(("csv", "json")))

    def closed_form(k):
        faces = tuple(rng.randint(6, 20) for _ in range(k))
        N = size.pick(k, sum(faces))
        return Request("closed-form", func="hetero_count_closed_form", args=(faces, N),
                       spec={"faces": faces, "N": N})

    for block in itertools.count():
        makes = [lambda s=s: count(s) for s in DENSE_CHEAP]
        makes.append(lambda m=(6, 9, 12, 15, 18, 20)[block % 6]: table(m))
        makes += [lambda k=(12, 14, 16)[(2 * block + i) % 3]: closed_form(k) for i in range(2)]
        makes += [lambda: hetero(size.pick(20, 30)) for _ in range(2)]
        makes += [lambda s=s: count(s, "middle") for s in DENSE_MIDDLE]
        makes += [lambda: hetero_at("middle") for _ in range(3)]
        makes += [lambda s=s: count(s, "upper") for s in DENSE_UPPER]
        makes.append(lambda: hetero_at("upper"))
        makes += [lambda s=DENSE_TOP[(4 * block + i) % 3]: count(s, "top") for i in range(4)]
        rng.shuffle(makes)
        for make in makes:
            yield make()


# gap-scans block of 20: cheap ordered 7, virgins 6 (p50), upper ordered 3,
# unordered 4 (p90); targets in ms.
GAP_TARGET_MS = {"cheap": 4, "middle": 12, "upper": 20, "top": 30}


def gap_scans(seed: int) -> Iterator[Request]:
    rng = random.Random(seed)
    seen: set = set()
    jitter, rows = Weyl(rng), Weyl(rng)
    combos = [(sides, power) for sides in range(3, 9) for power in range(2, 6)]

    def target_ns(cls):
        return GAP_TARGET_MS[cls] * 1e6 * (0.95 + 0.1 * jitter())

    def fitting(units, ns, cls):
        # combos whose upto range can cost the class target
        target = GAP_TARGET_MS[cls] * 1e6
        return [c for c in combos
                if ns * units(*c, UPTO_RANGE[0]) <= target <= ns * units(*c, UPTO_RANGE[1])]

    classes = {
        "cheap": (ordered_units, ORDERED_NS, False),
        "upper": (ordered_units, ORDERED_NS, False),
        "top": (unordered_units, UNORDERED_NS, True),
    }
    fits = {cls: fitting(units, ns, cls) for cls, (units, ns, _) in classes.items()}
    cursor = dict.fromkeys(classes, 0)

    def polygonal(cls):
        units, ns, unordered = classes[cls]
        pool = fits[cls]
        if cursor[cls] % len(pool) == 0:
            rng.shuffle(pool)
        sides, power = pool[cursor[cls] % len(pool)]
        cursor[cls] += 1
        return polygonal_request(sides, power, fit_upto(units, ns, sides, power, target_ns(cls)),
                                 unordered)

    def virgins(g):
        gens = set()
        while len(gens) < g:
            gens.add((rng.randint(1, 9), rng.randint(1, 9)))
        gens = tuple(sorted(gens))
        # at least one independent pair, so the count is finite
        if all(a * d == b * c for (a, b) in gens for (c, d) in gens):
            gens = gens + ((1, 2),) if (1, 2) not in gens else gens + ((2, 1),)
        cells = target_ns("middle") / (VIRGINS_NS * (len(gens) + 2))
        n = rows.pick(60, 250)
        return virgins_request(gens, (n, max(10, round(cells / (n + 1)) - 1)), False, None)

    def unique(make):
        # redraw until the series or grid is new to this stream
        while True:
            req = make()
            if req.argv not in seen:
                seen.add(req.argv)
                return req

    for block in itertools.count():
        makes = [lambda: polygonal("cheap") for _ in range(7)]
        makes += [lambda g=2 + (6 * block + i) % 4: virgins(g) for i in range(6)]
        makes += [lambda: polygonal("upper") for _ in range(3)]
        makes += [lambda: polygonal("top") for _ in range(4)]
        rng.shuffle(makes)
        for make in makes:
            yield unique(make)


def small_requests(seed: int) -> Iterator[Request]:
    rng = random.Random(seed)
    fmts = ("plain", "json", "csv")

    def count():
        n, m = rng.randint(1, 8), rng.randint(2, 10)
        N = rng.randint(0, n * m + 2)
        return count_request(n, m, N, rng.choice(ENGINE_NAMES + ("all",)), rng.choice(fmts))

    def count_oracle():
        while True:
            n, m = rng.randint(1, 5), rng.randint(2, 8)
            if m ** n <= 5000:
                break
        N = rng.randint(n, n * m)
        return count_request(n, m, N, rng.choice(ENGINE_NAMES + ("all",)),
                             rng.choice(fmts), oracle_budget=rng.choice((m ** n, 10_000_000)))

    def table():
        m = rng.randint(2, 8)
        return table_request(m, rng.randint(1, 6), rng.randint(1, 40), rng.choice(("csv", "json")))

    def hetero():
        dice, specs = [], []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                lo = rng.randint(0, 2)
                hi = rng.randint(lo, 12)
                dice.append(tuple(range(lo, hi + 1)))
                specs.append("%d..%d" % (lo, hi))
            else:
                marks = tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 6)))
                dice.append(marks)
                specs.append(",".join(map(str, marks)))
        N = rng.randint(0, sum(max(d) for d in dice)) if rng.random() < 0.5 else None
        return hetero_request(dice, specs, N, rng.choice(fmts))

    def polygonal():
        return polygonal_request(rng.randint(3, 8), rng.randint(1, 4),
                                 rng.randint(10, 200), rng.random() < 0.5)

    def virgins():
        gens = []
        for _ in range(rng.randint(1, 3)):
            a, b = rng.randint(0, 4), rng.randint(0, 4)
            gens.append((a, b) if (a, b) != (0, 0) else (1, 1))
        targets = (rng.randint(0, 30), rng.randint(0, 30))
        cap = rng.choice((None, rng.randint(0, 20)))
        return virgins_request(tuple(gens), targets, rng.random() < 0.3, cap)

    def verify():
        table_id = rng.choice(("all", "table1", "s22"))
        return Request("verify-paper", ("verify-paper", "--table", table_id),
                       spec={"table": table_id})

    block = (count, count, count_oracle, table, hetero, hetero, polygonal,
             virgins, virgins, verify)
    while True:
        order = list(block)
        rng.shuffle(order)
        for make in order:
            yield make()


class Stream:
    """A workload's request stream with the first ``chunk`` drawn up front,
    so set-up covers generating inputs; later ones are drawn on demand."""

    def __init__(self, gen: Iterator[Request], chunk: int):
        self._gen = gen
        self._ready = deque(next(gen) for _ in range(chunk))

    def __next__(self) -> Request:
        return self._ready.popleft() if self._ready else next(self._gen)


WORKLOADS = {
    "dense-products": dense_products,
    "gap-scans": gap_scans,
    "small-requests": small_requests,
}
