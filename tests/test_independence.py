"""The routes to one answer share no code, so each really checks the others.

Each route runs under ``sys.setprofile`` with its inputs built beforehand
and the like-dice engines' memos and parked λ walks cleared, and every
function of the package it calls is recorded. Two routes for one question
may share only the functions in ``SHARED``: the polygonal numbers that the
ordered and the unordered counts are built from. Functions are keyed by
their code objects, which every supported Python version has.
"""

import os
import sys
import types
from functools import partial
from itertools import combinations

import pytest
from conftest import clear_memos

import sumways
from sumways import polygonal
from sumways.heterogeneous import (
    consecutive_pool,
    hetero_count_closed_form,
    hetero_count_product,
)
from sumways.homogeneous import ENGINES, HomoQuery
from sumways.oracle import brute_dice, brute_partitions, brute_regula
from sumways.polygonal import (
    PartSet,
    count_partitions_with_parts,
    ordered_representation_counts,
    partition_count_grid,
    polygonal_parts,
)
from sumways.regula import LinearSystem2, rv_count_solutions, rv_enumerate_solutions

PACKAGE = os.path.dirname(sumways.__file__) + os.sep


def nested(code):
    """A code object and every code object defined inside it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from nested(const)


SHARED = {
    polygonal.polygonal_number.__code__,
    *nested(polygonal._polygonal_numbers.__code__),
}


def label(code):
    return "%s:%s:%d" % (
        os.path.basename(code.co_filename), code.co_name, code.co_firstlineno
    )


def traced(route):
    """The route's answer and the package functions it called."""
    clear_memos()
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            called.add(frame.f_code)

    saved = sys.getprofile()
    sys.setprofile(profile)
    try:
        answer = route()
    finally:
        sys.setprofile(saved)
    return answer, called


def like_dice():
    q = HomoQuery(4, 6, 14)
    routes = {name: partial(engine, q) for name, engine in ENGINES.items()}
    routes["brute_dice"] = partial(brute_dice, consecutive_pool((6,) * 4), 14)
    return routes


def pools():
    faces = (6, 8, 12)
    pool = consecutive_pool(faces)
    return {
        "product": partial(hetero_count_product, pool, 14),
        "closed": partial(hetero_count_closed_form, faces, 14),
        "brute_dice": partial(brute_dice, pool, 14),
    }


def polygonal_gaps():
    # which sums up to 30 are sums of three squares, zero included
    squares = polygonal_parts(4, 30)
    return {
        "ordered": lambda: tuple(c > 0 for c in ordered_representation_counts(4, 3, 30)),
        "unordered": lambda: tuple(
            c > 0 for c in partition_count_grid(polygonal_parts(4, 30), 3, 30)[3]
        ),
        "brute_partitions": lambda: tuple(
            brute_partitions(squares, 3, N, ordered=False) > 0 for N in range(31)
        ),
    }


def two_equations():
    system = LinearSystem2(((1, 3), (1, 1), (1, 2)), (20, 40))
    return {
        "count": partial(rv_count_solutions, system),
        "listing": lambda: len(rv_enumerate_solutions(system, 1000)[0]),
        "brute_regula": partial(brute_regula, system),
    }


def k_part_counts():
    parts = PartSet((1, 2, 5))
    return {
        "lattice": partial(count_partitions_with_parts, parts, 4, 12),
        "brute_partitions": partial(brute_partitions, parts, 4, 12, False),
    }


QUESTIONS = [like_dice, pools, polygonal_gaps, two_equations, k_part_counts]


def shared_calls(question):
    """{(route, route): package functions both call}, after checking that
    every route answers alike and calls into the package at all."""
    answers, called = {}, {}
    for name, route in question().items():
        answers[name], called[name] = traced(route)
        assert called[name], name
    assert len(set(answers.values())) == 1, answers
    return {(a, b): called[a] & called[b] for a, b in combinations(called, 2)}


@pytest.mark.parametrize("question", QUESTIONS, ids=lambda q: q.__name__)
def test_routes_to_one_answer_share_no_code(question):
    for (a, b), shared in shared_calls(question).items():
        extra = sorted(map(label, shared - SHARED))
        assert not extra, "%s and %s both call %s" % (a, b, extra)


def test_every_allowed_shared_function_is_shared():
    used = set()
    for question in QUESTIONS:
        for shared in shared_calls(question).values():
            used |= shared & SHARED
    assert used == SHARED, sorted(map(label, SHARED - used))
