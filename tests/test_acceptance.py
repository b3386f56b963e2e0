"""Acceptance suite: the eight top-level guarantees, one test each.

Each test runs the corresponding workbench criterion at full scale (no size
limit) and reports its one-line detail on failure.  Tolerances are built into
the criteria themselves: edge bounds strict, predicate agreement and
validation exact with zero tolerance, wall-clock ceilings of 5 s per host
build, 60 s for the small-scale sweeps, and 10 s per large embed.
"""

from ugg.workbench import selftest


def _run(criterion, **kw):
    res = criterion(**kw)
    assert res.ok, f"{res.name}: {res.detail}"
    return res


def test_criterion_1_edge_bound():
    _run(selftest.criterion_1)


def test_criterion_2_universality_small():
    _run(selftest.criterion_2)


def test_criterion_3_predicate_oracle():
    _run(selftest.criterion_3)


def test_criterion_4_large_smoke():
    _run(selftest.criterion_4, seed=20250814)


def test_criterion_5_recursion_invariants():
    # every ordered tree on s <= 9 vertices, on every interval of length s in
    # every host with n <= 9: 2056 trees, Catalan(s - 1) per size
    assert _run(selftest.criterion_5).detail == (
        "4381 single-portal and 28604 two-portal instances verified")


def test_criterion_6_caterpillar():
    _run(selftest.criterion_6)


def test_criterion_7_twochord():
    _run(selftest.criterion_7)


def test_criterion_8_lower_bound_side():
    _run(selftest.criterion_8)
