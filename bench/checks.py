"""Answer checker: every response is compared with an answer reached by a
different route than the one the program took.

Routes used here:

* like dice: ``count_closed_form`` (inclusion-exclusion), whichever engine
  the request named;
* tables and pools of unlike dice: a sliding-window count written here,
  which never calls the package's polynomial kernel, plus the column sum
  (product of the face counts) and closed-form spot checks
  (``count_closed_form``, ``hetero_count_closed_form`` up to a dozen dice,
  a merged inclusion-exclusion written here beyond that);
* polygonal gaps: sumsets computed as big-integer bit masks;
* two-equation counts: the last two generators are solved by Cramer's rule
  and only the others are looped over; listed solutions are checked
  against a brute-force enumeration;
* ``verify-paper``: the shipped golden tables, read here straight from the
  data files and recomputed by the closed forms.

The checker renders the exact text the CLI should print and compares it
byte for byte, so formatting is checked along with the numbers.
"""

from __future__ import annotations

import json
import math
from itertools import product
from pathlib import Path

# Bound at import, before a traced run rebinds the package's names, so the
# checker's own calls are never counted as program work.
from sumways import HomoQuery, count_closed_form, hetero_count_closed_form

from workloads import ENGINE_NAMES, Request


class NoReference(Exception):
    """No trustworthy reference: two routes disagree, or the request is too
    large for the brute-force route."""


class Response:
    __slots__ = ("code", "out", "value", "error", "seconds")

    def __init__(self, code=None, out="", value=None, error=None, seconds=0.0):
        self.code = code
        self.out = out
        self.value = value
        self.error = error
        self.seconds = seconds


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def window_step(dist: list[int], lo: int, hi: int) -> list[int]:
    """Add one die marked lo..hi: each new count is a window sum of the old."""
    prefix = [0]
    for c in dist:
        prefix.append(prefix[-1] + c)
    size = len(dist)
    out = []
    for s in range(size + hi):
        out.append(prefix[min(size, max(0, s - lo + 1))] - prefix[min(size, max(0, s - hi))])
    return out


def window_distribution(dice: list[tuple[int, ...]]) -> list[int]:
    """Counts of every sum 0..sum(max) for dice with arbitrary marks.

    Consecutive marks lo..hi are absorbed with a window sum; other dice
    are added face by face.
    """
    dist = [1]
    for marks in dice:
        lo, hi = min(marks), max(marks)
        if sorted(marks) == list(range(lo, hi + 1)):
            dist = window_step(dist, lo, hi)
        else:
            new = [0] * (len(dist) + hi)
            for v in marks:
                for e, c in enumerate(dist):
                    new[e + v] += c
            dist = new
    while dist and dist[-1] == 0:
        dist.pop()
    return dist


def merged_closed_form(faces: tuple[int, ...], N: int) -> int:
    """Coefficient of x^N in prod (x + ... + x^m) by inclusion-exclusion,
    merging equal exponents of prod (1 - x^m) as it is expanded, so the
    term count stays below sum(faces) instead of 2^k."""
    k = len(faces)
    terms = {0: 1}
    for m in faces:
        nxt = dict(terms)
        for e, c in terms.items():
            nxt[e + m] = nxt.get(e + m, 0) - c
        terms = {e: c for e, c in nxt.items() if c}
    return sum(c * math.comb(N - e - 1, k - 1) for e, c in terms.items() if e + k <= N)


def polygonal_first_gap(sides: int, power: int, upto: int) -> int | None:
    """Smallest N <= upto that is not a sum of ``power`` polygonal numbers
    (zero allowed), from sumsets held as bit masks."""
    parts = []
    j = 0
    while True:
        p = ((sides - 2) * j * j - (sides - 4) * j) // 2
        if p > upto:
            break
        parts.append(p)
        j += 1
    full = (1 << (upto + 1)) - 1
    reach = 1
    for _ in range(power):
        nxt = 0
        for p in parts:
            nxt |= reach << p
        reach = nxt & full
    missing = ~reach & full
    if not missing:
        return None
    return (missing & -missing).bit_length() - 1


def _largest_values(gens, targets) -> list[int]:
    """Largest value each variable can take without overshooting a target."""
    n, v = targets
    return [min(n // a if a else v // b, v // b if b else n // a) for a, b in gens]


def _brute_solutions(gens, targets, positive):
    lo = 1 if positive else 0
    n, v = targets
    ranges = [range(lo, hi + 1) for hi in _largest_values(gens, targets)]
    return [xs for xs in product(*ranges)
            if sum(a * x for (a, _), x in zip(gens, xs)) == n
            and sum(b * x for (_, b), x in zip(gens, xs)) == v]


def cramer_count(gens, targets, positive) -> int:
    """Nonnegative (or positive) solutions, looping over all generators but
    two and solving those two exactly by Cramer's rule."""
    n, v = targets
    if positive:
        n -= sum(a for a, _ in gens)
        v -= sum(b for _, b in gens)
        if n < 0 or v < 0:
            return 0
    # Solve the independent pair with the smallest coefficients; their
    # ranges are the widest, so they are the costliest to loop over.
    pairs = [(sum(gens[i]) + sum(gens[j]), i, j)
             for i in range(len(gens)) for j in range(i + 1, len(gens))
             if gens[i][0] * gens[j][1] != gens[i][1] * gens[j][0]]
    if not pairs:
        return len(_brute_solutions(gens, (n, v), False))
    _, i, j = min(pairs)
    (a1, b1), (a2, b2) = gens[i], gens[j]
    det = a1 * b2 - a2 * b1
    rest = [g for k, g in enumerate(gens) if k not in (i, j)]

    def loop(k, rn, rv):
        if k == len(rest):
            x1, r1 = divmod(rn * b2 - rv * a2, det)
            x2, r2 = divmod(a1 * rv - b1 * rn, det)
            return 1 if not r1 and not r2 and x1 >= 0 and x2 >= 0 else 0
        a, b = rest[k]
        total = 0
        x = 0
        while a * x <= rn and b * x <= rv:
            total += loop(k + 1, rn - a * x, rv - b * x)
            x += 1
        return total

    return loop(0, n, v)


class Checker:
    """Checks responses. References are recomputed for every request, so the
    checker holds no memory that would show in the run's peak RSS."""

    def __init__(self, root: Path):
        self.root = root

    def check(self, req: Request, resp: Response) -> str | None:
        """None when the response is right, else a short reason."""
        try:
            return self._check(req, resp)
        except NoReference as exc:
            return "no reference: %s" % exc

    def _check(self, req: Request, resp: Response) -> str | None:
        if resp.error is not None:
            return "exception %s" % type(resp.error).__name__
        if req.func is not None:
            return None if resp.value == self._closed_form_ref(req.spec) else "wrong value"
        if resp.code != 0:
            return "exit code %s" % resp.code
        expected = getattr(self, "_" + req.op.replace("-", "_"))(req.spec)
        return None if resp.out == expected else "wrong output"

    # -- references -------------------------------------------------------

    def _closed_form_ref(self, spec) -> int:
        dist = window_distribution([tuple(range(1, m + 1)) for m in spec["faces"]])
        N = spec["N"]
        return dist[N] if N < len(dist) else 0

    def _count(self, spec) -> str:
        c = count_closed_form(HomoQuery(spec["n"], spec["m"], spec["N"]))
        names = list(ENGINE_NAMES) if spec["engine"] == "all" else [spec["engine"]]
        fmt = spec["format"]
        if fmt == "plain":
            return "".join("%d\n" % c for _ in names)
        if fmt == "json":
            return _json({"dice": spec["n"], "faces": spec["m"], "sum": spec["N"],
                          "counts": {name: str(c) for name in names}})
        return "engine,count\n" + "".join("%s,%d\n" % (name, c) for name in names)

    def _table(self, spec) -> str:
        m, n_max, N_max = spec["m"], spec["n_max"], spec["N_max"]
        columns = []
        dist = [1]
        for n in range(1, n_max + 1):
            dist = window_step(dist, 1, m)
            col = [dist[N] if N < len(dist) else 0 for N in range(N_max + 1)]
            if N_max >= m * n and sum(col) != m ** n:
                raise NoReference("column sum check failed for n=%d" % n)
            columns.append(col)
        # spot check the window sums against the closed form
        for n in (1, (n_max + 1) // 2, n_max):
            N = min(N_max, (n * (m + 1)) // 2)
            if columns[n - 1][N] != count_closed_form(HomoQuery(n, m, N)):
                raise NoReference("table reference disagrees with closed form")
        if spec["format"] == "json":
            return _json({"m": m, "n_max": n_max, "N_max": N_max,
                          "rows": [{"N": N, "counts": [str(col[N]) for col in columns]}
                                   for N in range(1, N_max + 1)]})
        lines = ["N," + ",".join("n=%d" % n for n in range(1, n_max + 1))]
        for N in range(1, N_max + 1):
            lines.append("%d,%s" % (N, ",".join(str(col[N]) for col in columns)))
        return "\n".join(lines) + "\n"

    def _pool_distribution(self, dice) -> list[int]:
        dist = window_distribution(dice)
        total = 1
        for d in dice:
            total *= len(d)
        if sum(dist) != total:
            raise NoReference("pool reference fails its column sum")
        if all(d == tuple(range(1, len(d) + 1)) for d in dice):
            # the package's closed form expands 2^k terms; past a dozen dice
            # the merged expansion here stands in for it
            faces = tuple(len(d) for d in dice)
            closed = hetero_count_closed_form if len(dice) <= 12 else merged_closed_form
            for N in (len(dice), sum(faces) // 2 + 1):
                if dist[N] != closed(faces, N):
                    raise NoReference("pool reference disagrees with closed form")
        return dist

    def _hetero_full(self, spec) -> str:
        dice = spec["dice"]
        dist = self._pool_distribution(dice)
        pairs = [(e, c) for e, c in enumerate(dist) if c]
        total = sum(dist)
        fmt = spec["format"]
        if fmt == "plain":
            return "".join("%d %d\n" % p for p in pairs) + "total %d\n" % total
        if fmt == "json":
            return _json({"dice": [list(d) for d in dice], "total": str(total),
                          "distribution": [{"sum": e, "count": str(c)} for e, c in pairs]})
        return "sum,count\n" + "".join("%d,%d\n" % p for p in pairs) + "total,%d\n" % total

    def _hetero_sum(self, spec) -> str:
        dice, N = spec["dice"], spec["N"]
        dist = self._pool_distribution(dice)
        c = dist[N] if N < len(dist) else 0
        fmt = spec["format"]
        if fmt == "plain":
            return "%d\n" % c
        if fmt == "json":
            return _json({"dice": [list(d) for d in dice], "sum": N, "count": str(c)})
        return "sum,count\n%d,%d\n" % (N, c)

    def _polygonal(self, spec) -> str:
        gap = polygonal_first_gap(spec["sides"], spec["power"], spec["upto"])
        if gap is None:
            return "all exponents 0..%d representable\n" % spec["upto"]
        return "first gap at %d\n" % gap

    _polygonal_ordered = _polygonal
    _polygonal_unordered = _polygonal

    def _virgins(self, spec) -> str:
        return "%d\n" % cramer_count(spec["gens"], spec["targets"], spec["positive"])

    def _virgins_list(self, spec) -> str:
        gens, targets, positive, cap = (spec["gens"], spec["targets"],
                                        spec["positive"], spec["cap"])
        if math.prod(hi + 1 for hi in _largest_values(gens, targets)) > 200_000:
            raise NoReference("listing request too large for brute force")
        sols = _brute_solutions(gens, targets, positive)
        if len(sols) != cramer_count(gens, targets, positive):
            raise NoReference("brute force and elimination disagree")
        lines = ["%d" % len(sols)] + [" ".join(map(str, s)) for s in sols[:cap]]
        if len(sols) > cap:
            lines.append("(list truncated at %d)" % cap)
        return "\n".join(lines) + "\n"

    def _verify_paper(self, spec) -> str:
        ids = ["table1", "s22"] if spec["table"] == "all" else [spec["table"]]
        prefix = spec["table"] == "all"
        out = []
        for table_id in ids:
            data = json.loads((self.root / "src" / "sumways" / "data" /
                               ("%s.json" % table_id)).read_text())
            lines = self._table1_report(data) if table_id == "table1" else self._s22_report(data)
            out += [("%s: " % table_id if prefix else "") + line for line in lines]
        return "\n".join(out) + "\n"

    @staticmethod
    def _table1_report(data) -> list[str]:
        m = data["m"]
        errata = {(e["N"], e["n"]): int(e["erratum"]["corrected"]) for e in data["errata"]}
        total = matching = 0
        confirmed, others = [], []
        for row in data["rows"]:
            N = row["N"]
            for n, printed in enumerate(row["counts"], start=1):
                total += 1
                computed = count_closed_form(HomoQuery(n, m, N))
                if computed == int(printed):
                    matching += 1
                elif errata.get((N, n)) == computed:
                    confirmed.append((N, n, int(printed), computed))
                else:
                    others.append((N, n, int(printed), computed))
        line = "%d/%d printed entries match" % (matching, total)
        if confirmed:
            line += "; %d known %s confirmed at %s" % (
                len(confirmed), "erratum" if len(confirmed) == 1 else "errata",
                ", ".join("(N=%d,n=%d): printed %d, computed %d" % c for c in confirmed))
        return [line] + ["mismatch at (N=%d,n=%d): printed %d, computed %d" % o for o in others]

    @staticmethod
    def _s22_report(data) -> list[str]:
        dist = window_distribution([tuple(range(1, m + 1)) for m in data["face_counts"]])
        matching = sum(1 for e in data["entries"] if int(e["count"]) == dist[e["N"]])
        total = len(data["entries"]) + sum(
            1 for N, c in enumerate(dist) if c and N not in {e["N"] for e in data["entries"]})
        line = "%d/%d entries match" % (matching, total)
        if int(data["total"]) != sum(dist):
            raise NoReference("s22 reference total disagrees")
        return [line + "; total %d" % sum(dist)]
