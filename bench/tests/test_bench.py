"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from sumways import (  # noqa: E402
    LinearSystem2,
    brute_regula,
    check_all_positive,
    consecutive_pool,
    hetero_count_closed_form,
    hetero_distribution,
    ordered_representation_counts,
)

import checks  # noqa: E402
import serve  # noqa: E402
from workloads import WORKLOADS, Stream  # noqa: E402


def _serve(workload, n, mutate=None):
    stream = Stream(WORKLOADS[workload](7), 8)
    return serve.serve(stream, checks.Checker(ROOT), limit=n, mutate=mutate).summary()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_answer_checks_out(workload):
    res = _serve(workload, 30)
    assert res["attempted"] == 30
    assert res["failed"] == 0, res["examples"]


def test_corrupted_answers_count_as_failed():
    def corrupt(i, resp):
        if i % 3 == 0:
            if resp.value is not None:
                resp.value += 1
            else:
                resp.out = resp.out.replace("1", "2", 1) + " "

    res = _serve("small-requests", 30, mutate=corrupt)
    assert res["failed"] == 10
    assert res["failed"] / res["attempted"] == pytest.approx(1 / 3)


def test_corrupted_library_value_counts_as_failed():
    def corrupt(i, resp):
        if resp.value is not None:
            resp.value -= 1

    res = _serve("dense-products", 20, mutate=corrupt)
    assert res["failed"] == res["mix"]["closed-form"] > 0


def test_reference_routes_agree_with_the_package():
    for faces in ((6,), (6, 8, 12), (2, 3, 5, 7)):
        dist = checks.window_distribution([tuple(range(1, m + 1)) for m in faces])
        assert [(e, c) for e, c in enumerate(dist) if c] == hetero_distribution(consecutive_pool(faces))
        for N in range(sum(faces) + 2):
            assert checks.merged_closed_form(faces, N) == hetero_count_closed_form(faces, N)
    for sides in range(3, 9):
        for power in range(1, 5):
            ordered = ordered_representation_counts(sides, power, 120)
            assert checks.polygonal_first_gap(sides, power, 120) == check_all_positive(ordered, 120)
    for gens, targets in ((((1, 3), (1, 1)), (6, 10)), (((1, 2), (2, 1), (1, 1)), (20, 20)),
                          (((2, 3), (3, 5), (1, 4), (4, 1)), (30, 33))):
        for mode in ("nonnegative", "positive"):
            expected = brute_regula(LinearSystem2(gens, targets, mode))
            assert checks.cramer_count(gens, targets, mode == "positive") == expected


def _worker(*args):
    out = subprocess.run([sys.executable, "-I", str(BENCH / "worker.py"), *args],
                         capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "ready"
    return json.loads(lines[-1][len("result "):])


def test_stdout_is_identical_across_processes():
    args = ("--workload", "gap-scans", "--seed", "3", "--requests", "12")
    first, second = _worker(*args), _worker(*args, "--trace")
    assert first["digest_requests"] == second["digest_requests"] == 12
    assert first["stdout_sha256"] == second["stdout_sha256"]


def test_count_metrics_repeat_exactly():
    args = ("--workload", "small-requests", "--seed", "4", "--requests", "40", "--trace")
    first, second = _worker(*args), _worker(*args)
    assert first["counts"] == second["counts"]
    assert first["counts"]["cli.build_parser.calls"] == 40


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "small-requests",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_refuses_a_package_from_outside_the_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "sumways").symlink_to(ROOT / "src" / "sumways")
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "small-requests",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert out.returncode != 0
    assert "resolves to" in out.stderr


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_matches_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "small-requests",
                          "--seed", "2", "--seconds", "1", "--trace", trace],
                         capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    listed = spec["per_layer" if trace == "1" else "end_to_end"]
    assert [(m["name"], m["unit"]) for m in listed] == [
        (name, v["unit"]) for name, v in result["metrics"].items()]
