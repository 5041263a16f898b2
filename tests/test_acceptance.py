"""Acceptance suite: the nine go/no-go checks, one test each.

Every test finishes by printing one PASS line (visible with -v -s or in the
captured output); a failing criterion fails its test, so the pytest report
always carries one pass/fail line per criterion. All comparisons are exact.
"""

import math
import random
import time

from sumways.golden import load_golden
from sumways.heterogeneous import (
    consecutive_pool,
    hetero_count_closed_form,
    hetero_distribution,
)
from sumways.homogeneous import (
    ENGINES,
    HomoQuery,
    count_table_add_die,
    lambda_recurrence_trace,
)
from sumways.oracle import brute_dice, brute_regula
from sumways.polygonal import (
    ordered_representation_counts,
    partition_count_grid,
    polygonal_parts,
)
from sumways.regula import LinearSystem2, rv_count_solutions


def report(k, msg):
    print("PASS criterion %d: %s" % (k, msg))


def test_criterion_1_reference_table_reproduction(run_cli):
    started = time.perf_counter()
    code, out, _ = run_cli(
        "table", "--faces", "6", "--max-dice", "8", "--max-sum", "36",
        "--format", "csv",
    )
    elapsed = time.perf_counter() - started
    assert code == 0
    lines = out.strip().split("\n")
    computed = {}
    for line in lines[1:]:
        cells = [int(c) for c in line.split(",")]
        for n, v in enumerate(cells[1:], start=1):
            computed[(cells[0], n)] = v
    data = load_golden("table1")
    printed = {
        (row["N"], n): int(c)
        for row in data["rows"]
        for n, c in enumerate(row["counts"], start=1)
    }
    assert len(printed) == 288
    agreements = sum(1 for k_ in printed if printed[k_] == computed[k_])
    disagreements = [k_ for k_ in printed if printed[k_] != computed[k_]]
    assert agreements == 287
    assert disagreements == [(26, 8)]
    assert printed[(26, 8)] == 12588
    assert computed[(26, 8)] == 125588
    assert elapsed < 1.0, "table took %.3fs" % elapsed
    report(1, "287/288 printed entries reproduced, misprint at (N=26,n=8) "
              "corrected to 125588, %.3fs" % elapsed)


def test_criterion_2_worked_examples_all_engines():
    for N, expect, lam, numerator in ((25, 2856, 19, 54264), (29, 756, 23, 17388)):
        q = HomoQuery(6, 6, N)
        values = {name: ENGINES[name](q) for name in ENGINES}
        assert set(values.values()) == {expect}, values
        trace = lambda_recurrence_trace(q)
        assert trace[-1].lam == lam
        assert trace[-1].numerator == numerator
        assert trace[-1].value == expect
    report(2, "six dice reach 25 in 2856 ways (54264/19) and 29 in 756 ways "
              "(17388/23) on all four engines")


def test_criterion_3_unlike_dice_distribution():
    data = load_golden("s22")
    faces = tuple(data["face_counts"])
    dist = dict(hetero_distribution(consecutive_pool(faces)))
    printed = {e["N"]: int(e["count"]) for e in data["entries"]}
    assert len(printed) == 24
    assert dist == printed
    assert sum(dist.values()) == 576
    for N in range(0, sum(faces) + 2):
        assert hetero_count_closed_form(faces, N) == dist.get(N, 0), N
    report(3, "6/8/12 pool distribution matches all 24 printed coefficients, "
              "total 576, product and closed form agree")


def test_criterion_4_engine_agreement_sweep():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 6):
        for m in range(1, 9):
            pool = consecutive_pool((m,) * n)
            for N in range(0, m * n + 3):
                q = HomoQuery(n, m, N)
                values = [ENGINES[name](q) for name in ENGINES]
                values.append(brute_dice(pool, N))
                assert len(set(values)) == 1, (n, m, N, values)
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, "sweep took %.1fs" % elapsed
    report(4, "four engines and the oracle agree on %d queries "
              "(n<=5, m<=8), %.1fs" % (checked, elapsed))


def test_criterion_5_structural_invariants():
    for m in range(2, 9):
        table = count_table_add_die(m, 8, 8 * m)
        for n in range(1, 9):
            col = [row[n - 1] for row in table]
            # support with value 1 at both ends
            assert col[n] == 1
            assert col[m * n] == 1
            assert all(c == 0 for c in col[:n])
            assert all(c == 0 for c in col[m * n + 1 :])
            assert all(c > 0 for c in col[n : m * n + 1])
            # symmetry about the midpoint
            for lam in range(0, (m - 1) * n + 1):
                assert col[n + lam] == col[m * n - lam], (m, n, lam)
            # total outcomes
            assert sum(col) == m**n
            # stars and bars before the first wraparound
            for lam in range(0, m):
                assert col[n + lam] == math.comb(n + lam - 1, lam), (m, n, lam)
    report(5, "support, endpoints, symmetry, column sums m^n and the "
              "pre-wraparound binomial regime hold for n<=8, m in 2..8")


def test_criterion_6_exact_division_throughout():
    steps = 0
    for n in range(1, 6):
        for m in range(1, 9):
            for step in lambda_recurrence_trace(HomoQuery(n, m, m * n)):
                assert step.value * step.lam == step.numerator
                steps += 1
    for n in range(1, 9):
        for step in lambda_recurrence_trace(HomoQuery(n, 6, 36)):
            assert step.value * step.lam == step.numerator
            steps += 1
    report(6, "offset recurrence divided exactly at every one of %d steps" % steps)


def test_criterion_7_series_power_positivity():
    started = time.perf_counter()
    bound = 2000
    cases = [(3, 3), (4, 4)] + [(m, m) for m in range(3, 9)]
    for m, k in cases:
        power = ordered_representation_counts(m, k, bound)
        assert all(c > 0 for c in power), (m, k)
        assert len(power) == bound + 1, (m, k)
    squares_cubed = ordered_representation_counts(4, 3, bound)
    first_zero = next(e for e in range(bound + 1) if squares_cubed[e] == 0)
    assert first_zero == 7
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, "series powers took %.1fs" % elapsed
    report(7, "triangles^3, squares^4 and m-gonal^m (m=3..8) positive "
              "through 2000; squares^3 first gap at 7; %.1fs" % elapsed)


def test_criterion_8_two_equation_randomized():
    rng = random.Random(394)
    systems = 0
    nonsingular_pairs = 0
    while systems < 200:
        k = rng.randint(1, 4)
        gens = []
        while len(gens) < k:
            g = (rng.randint(0, 5), rng.randint(0, 5))
            if g != (0, 0):
                gens.append(g)
        targets = (rng.randint(0, 30), rng.randint(0, 30))
        for mode in ("nonnegative", "positive"):
            sys_ = LinearSystem2(tuple(gens), targets, mode)
            count = rv_count_solutions(sys_)
            assert count == brute_regula(sys_), (gens, targets, mode)
            if k == 2:
                (a1, b1), (a2, b2) = gens
                if a1 * b2 - a2 * b1 != 0:
                    nonsingular_pairs += 1
                    assert count <= 1, (gens, targets, mode)
        systems += 1
    assert nonsingular_pairs > 0
    report(8, "lattice count equals brute force on 200 random systems in "
              "both modes; %d nonsingular two-generator cases all had at "
              "most one solution" % nonsingular_pairs)


def test_criterion_9_three_triangles_equivalence():
    bound = 500
    power = ordered_representation_counts(3, 3, bound)
    parts = polygonal_parts(3, bound)
    grid = partition_count_grid(parts, 3, bound)
    for N in range(bound + 1):
        ordered_pos = power[N] > 0
        unordered_pos = grid[3][N] > 0
        assert ordered_pos == unordered_pos, N
    report(9, "ordered and unordered three-triangle representability agree "
              "for every N <= 500")
