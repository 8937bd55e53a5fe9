"""Brute-force finite-field fiber enumeration and cover/partition audits."""

import gc
import inspect
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from sys import getrecursionlimit, setrecursionlimit

import pytest
from hypothesis import given, settings, strategies as st

from arcjet import oracle
from arcjet.algebra import QQ, Field, Gaussian, Polynomial, mono_from_pairs, parse_poly, var
from arcjet.catalog import PresetError, preset, preset_grid
from arcjet.cli import _oracle_plan
from arcjet.driver import run_driver
from arcjet.hasse import JetSystem
from arcjet.oracle import (
    PROBE_BUDGET,
    CompiledStratum,
    Fiber,
    OracleError,
    _audit,
    audit_tree,
    compile_poly,
    compile_stratum,
    coverage_check,
    enumerate_fiber,
    exclusive_cover_check,
    point_hits,
    probe_field,
    probe_primes,
    split_partition_check,
    stratum_membership,
    transport_scalar,
    truncate_stratum,
    vanishes,
)
from arcjet.strata import EngineError, closure_contains, root_stratum

from reference_oracle import (
    dfs_fiber,
    point_assignment,
    transport_poly,
    transport_stratum,
    truncated_leaves,
)
from test_acceptance import random_base_poly
from test_algebra import FIELDS, poly_strategy


def brute_points(f, p, m):
    """Independent reference enumerator: plug a generic truncated curve into
    the original equation over F_p and keep the tuples killing every
    coefficient.  Shares nothing with the module under test."""
    field = Field(p)
    fp = f if f.field.char == p else None
    assert fp is not None or f.field.char == p
    out = []
    names = [(fam, k) for k in range(1, m + 1) for fam in ("x", "y", "z")]
    for vals in product(range(p), repeat=3 * m):
        assign = dict(zip(names, vals))
        # evaluate sum over terms of f with each coordinate expanded as a
        # polynomial in t, truncated at degree m
        series = [0] * (m + 1)  # coefficients of t^0..t^m of f(arc)
        for mono, c in f.terms.items():
            # expand the monomial: product of family series
            cur = [c % p] + [0] * m
            for (fam, _), e in mono:
                famser = [0] + [assign[(fam, k)] for k in range(1, m + 1)]
                for _ in range(e):
                    nxt = [0] * (m + 1)
                    for a in range(m + 1):
                        if not cur[a]:
                            continue
                        for b in range(m + 1 - a):
                            nxt[a + b] = (nxt[a + b] + cur[a] * famser[b]) % p
                    cur = nxt
            for k in range(m + 1):
                series[k] = (series[k] + cur[k]) % p
        if not any(series):
            out.append(
                tuple(assign[(fam, k)] for k in range(1, m + 1) for fam in ("x", "y", "z"))
            )
    return out


def test_pinned_smallest_fiber():
    f = parse_poly("z^2 + x*y", Field(2))
    pts = enumerate_fiber(JetSystem(f), 2, 2)
    assert len(pts) == 32
    assert sorted(pts) == sorted(brute_points(f, 2, 2))


def test_enumerate_matches_reference_elsewhere():
    f3 = parse_poly("z^2 + x^2*y + x*y^2", Field(3))
    assert sorted(enumerate_fiber(JetSystem(f3), 3, 2)) == sorted(brute_points(f3, 3, 2))
    f2 = parse_poly("z^2 + x^3 + y^5", Field(2))
    assert sorted(enumerate_fiber(JetSystem(f2), 2, 3)) == sorted(brute_points(f2, 2, 3))
    # i adjoined: the DFS reads real and imaginary tables
    e6 = preset("E6", char=3).system
    assert e6.field.i_adjoined
    assert list(enumerate_fiber(e6, 3, 2)) == brute_points(e6.f, 3, 2)


@pytest.mark.parametrize(
    "char,budget", [(2, None), (0, None), (2, 20)], ids=["same-field", "moved-field", "over-budget"]
)
def test_enumerate_fiber_leaves_no_garbage_cycle(char, budget):
    # the point list is freed as soon as the caller drops it, not at some
    # later garbage collection: the call leaves no reference cycle behind,
    # nor does a search that its budget stops midway
    sys = JetSystem(parse_poly("z^2 + x*y", Field(char)))
    gc.collect()
    gc.disable()
    try:
        if budget is None:
            pts = enumerate_fiber(sys, 2, 2)
            assert len(pts) == 32
            del pts
        else:
            with pytest.raises(OracleError):
                enumerate_fiber(sys, 2, 3, budget=budget)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "text,p,m,top_checked",
    [
        ("z^2 + x*y", 2, 1, False),  # m = 1: the last order is the only one
        ("x + y*z", 3, 1, True),
        ("z^2 + x^3 + y^5", 2, 3, False),  # no level tops out at order 3
        ("x + y*z", 2, 3, True),  # x3 tops out the third level
        ("z^2 + x^2*y + x*y^2 + y", 3, 2, True),
    ],
)
def test_batched_last_order_matches_reference(text, p, m, top_checked):
    """The last jet order is enumerated as one batch per parent prefix,
    with the whole p^3 cube when no derivative level tops out there; either
    way the points and their order are the reference enumerator's."""
    f = parse_poly(text, Field(p))
    sys = JetSystem(f)
    # a term with an order-0 coordinate vanishes on the fiber over the origin
    live = [
        [mono for mono in sys.derivative(n).terms if all(o for (_, o), _ in mono)]
        for n in range(1, m + 1)
    ]
    top_orders = {max(o for mono in monos for (_, o), _ in mono) for monos in live if monos}
    assert (m in top_orders) == top_checked
    assert list(enumerate_fiber(sys, p, m)) == brute_points(f, p, m)


def test_budget_guard():
    f = parse_poly("z^2 + x*y", Field(3))
    with pytest.raises(OracleError):
        enumerate_fiber(JetSystem(f), 3, 6, budget=1000)


def test_a_deep_search_is_bounded_by_its_budget_not_the_recursion_limit():
    # the all-zero prefix passes every order, so the search goes straight
    # down to order 120 before its budget stops it: with the stack allowed
    # only 60 frames more than the test's own, a search that recursed once
    # per jet order would die with a RecursionError first
    pr = preset("A", n=1, char=2)
    pr.system.derivative(120)  # the tower is built before the limit drops
    depth, frame = 0, inspect.currentframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = getrecursionlimit()
    setrecursionlimit(depth + 60)
    try:
        with pytest.raises(OracleError, match="over budget"):
            enumerate_fiber(pr.system, 2, 120, budget=2000)
    finally:
        setrecursionlimit(limit)


def reference_search(sys, p, m, budget):
    """The fiber search on the slow route, counted as ``enumerate_fiber``
    counts: depth first over orders 1..m, ``p**3`` candidate triples for
    each order entered below m (and at m when some level tops out there), a
    triple kept when every level whose top order it assigns evaluates to
    0.  The points in lexicographic order, or ``None`` once more than
    ``budget`` triples are tested."""
    tower = JetSystem(transport_poly(sys.f, probe_field(sys.field, p)))
    checks = {}
    for n in range(1, m + 1):
        level = tower.derivative(n, oracle.ORIGIN)
        if level:
            top = max(o for mono in level.terms for (_, o), _ in mono)
            checks.setdefault(top, []).append(level)
    cube = list(product(range(p), repeat=3))
    points, tested = [], 0

    def search(o, prefix, assign):
        nonlocal tested
        if o < m or o in checks:
            tested += len(cube)
            if tested > budget:
                return False
        for vals in cube:
            at = {**assign, **{var(fam, o): v for fam, v in zip("xyz", vals)}}
            if any(level.evaluate(at) for level in checks.get(o, ())):
                continue
            if o == m:
                points.append(prefix + vals)
            elif not search(o + 1, prefix + vals, at):
                return False
        return True

    return points if search(1, (), {}) else None


@pytest.mark.parametrize(
    "kind,n,char,p,m,refused",
    [("A", 1, 2, 2, 200, 5), ("D", 4, 3, 3, 2, 1), ("D", 4, 3, 3, 3, 4)],
    ids=["A1-char2-m200", "D4-char3-m2", "D4-char3-m3"],
)
def test_the_zero_path_bound_refuses_only_what_the_search_would(kind, n, char, p, m, refused):
    """The all-zero prefix alone tests ``(m - 1) * p**3`` triples, so a
    budget below that is refused up front; at and above it the answer is
    the one a search run to its end gives: the same points, or the same
    over-budget error.  D4 (char 3) tests exactly the bound at m = 2 and
    270 triples at m = 3; A1 (char 2) at m = 200 is over every budget."""
    pr = preset(kind, n=n, char=char)
    bound = (m - 1) * p**3
    budgets = sorted({bound - 1, bound, bound + 1, bound + p**3, 10 * bound})
    outcomes = [reference_search(pr.system, p, m, b) for b in budgets]
    assert sum(pts is None for pts in outcomes) == refused
    for budget, expected in zip(budgets, outcomes):
        if expected is None:
            with pytest.raises(OracleError, match=rf"over budget \({budget} triples\)"):
                enumerate_fiber(pr.system, p, m, budget)
        else:
            assert list(enumerate_fiber(pr.system, p, m, budget)) == expected


CHAR0_PLANS = [(pr, p, m) for pr in preset_grid() if not pr.char for p, m in _oracle_plan(pr)]


@pytest.mark.parametrize("pr,p,m", CHAR0_PLANS, ids=lambda v: getattr(v, "label", v))
def test_the_search_matches_a_tower_built_in_the_probe_field(pr, p, m):
    """On every characteristic-0 preset's oracle plan, the search, which
    compiles the levels of the preset's own tower into F_p, finds the
    points of the slow-route search over a tower of the equation moved into
    the probe field first."""
    expected = reference_search(pr.system, p, m, PROBE_BUDGET)
    assert expected is not None
    assert list(enumerate_fiber(pr.system, p, m, PROBE_BUDGET)) == expected


def least_budget(sys, p, m):
    """The least budget at which ``enumerate_fiber`` finishes: it passes at
    every budget from there up and raises below it, so bisection finds it."""
    lo, hi = 0, PROBE_BUDGET
    enumerate_fiber(sys, p, m, hi)
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            enumerate_fiber(sys, p, m, mid)
        except OracleError:
            lo = mid + 1
        else:
            hi = mid
    return lo


def graph_probe_cases():
    # every (prime, level) at which a level graph of A1-A6 or D4 (char 0)
    # may probe its pieces: the graph probes only the levels with two
    # pieces or more, so this is a superset of what it enumerates
    for kind, n in [("A", k) for k in range(1, 7)] + [("D", 2)]:
        pr = preset(kind, n=n, char=0)
        for m in range(1, pr.max_level + 1):
            for p in probe_primes(pr.system.field):
                if p ** (3 * m) <= PROBE_BUDGET:
                    yield pytest.param(pr.system, p, m, id=f"probe-{pr.label}-p{p}-m{m}")


def edge_cases():
    for text, char, p, levels in [
        ("z^2 + x*y", 2, 2, (0, 1, 4, 5)),  # m = 4, 5: a level rejects whole cubes
        ("z^2 + x*y", 3, 3, (0, 1, 4)),
        ("1 + x*y + z^2", 3, 3, (0, 1, 2)),  # off the origin
        ("3 + x*y + z^2", 0, 3, (1, 2)),  # on it only mod 3
        ("x + y*z", 2, 2, (1, 2, 3, 4)),  # a linear part: levels top out at m
        ("x + y*z", 3, 3, (1, 2, 3)),
        ("x^2 + y*z + 2*y^2", 3, 3, (1, 2, 3)),
        ("x^2 + y*z + 2*y^2", 0, 2, (1, 2, 3)),
    ]:
        sys = JetSystem(parse_poly(text, Field(char)))
        for m in levels:
            yield pytest.param(sys, p, m, id=f"{text}-char{char}-p{p}-m{m}")
    e6 = preset("E6", char=3).system  # i adjoined: real and imaginary tables
    for m in (1, 2, 3):
        yield pytest.param(e6, 3, m, id=f"E6(char 3)-p3-m{m}")


FOLD_CASES = [
    *(pytest.param(pr.system, p, m, id=f"plan-{pr.label}-p{p}-m{m}")
      for pr in preset_grid() for p, m in _oracle_plan(pr)),
    *graph_probe_cases(),
    *edge_cases(),
]


@pytest.mark.parametrize("sys,p,m", FOLD_CASES)
def test_the_folded_search_matches_the_per_triple_search(sys, p, m):
    """``enumerate_fiber`` folds each level's prefix terms once per prefix;
    ``dfs_fiber`` evaluates each level's whole table once per triple.  They
    give the same ``Fiber`` (the same blocks in the same order) at the least
    budget that lets either finish, and one budget below it the same
    error: the folded search tests, and counts, the same triples."""
    b = least_budget(sys, p, m)
    fiber = enumerate_fiber(sys, p, m, b)
    assert fiber == dfs_fiber(sys, p, m, b)
    if b:
        with pytest.raises(OracleError) as folded:
            enumerate_fiber(sys, p, m, b - 1)
        with pytest.raises(OracleError) as per_triple:
            dfs_fiber(sys, p, m, b - 1)
        assert str(folded.value) == str(per_triple.value) == (
            f"fiber search over budget ({b - 1} triples); reduce m or p"
        )


def test_a_level_left_constant_and_nonzero_by_its_prefix_rejects_the_whole_cube():
    """z^2 + x*y over F_2 at m = 4: level 4 tops out at order 3, and the
    prefix x1,y1,z1 = 0,0,0, x2,y2,z2 = 1,1,0 passes every lower level.
    Each term of level 4 that reads order 3 also reads a 0 of the prefix, so
    its folded part is empty, and the rest, x2*y2, is 1: no order-3 triple
    extends that prefix.  The fiber is the per-triple search's."""
    sys = JetSystem(parse_poly("z^2 + x*y", Field(2)))
    head = (0, 0, 0, 1, 1, 0)
    lower = [sys.derivative(n, oracle.ORIGIN) for n in (1, 2, 3)]
    assign = point_assignment(head + (0, 0, 0), 3)
    assert not any(level.evaluate(assign) for level in lower)
    (table,) = compile_poly(sys.derivative(4, oracle.ORIGIN), 3, 2)
    assert max(i for _, idx in table for i in idx) // 3 + 1 == 3
    free = [idx for _, idx in table if max(idx) >= 6]
    assert free and all(any(i < 6 and not head[i] for i in idx) for idx in free)
    assert sum(c for c, idx in table if max(idx) < 6 and all(head[i] for i in idx)) % 2 == 1
    level = sys.derivative(4, oracle.ORIGIN)
    for tail in product(range(2), repeat=3):
        assert level.evaluate(point_assignment(head + tail, 3)) == 1
    fiber = enumerate_fiber(sys, 2, 4)
    assert fiber == dfs_fiber(sys, 2, 4)
    assert fiber.blocks and not any(h[:6] == head for h, _ in fiber.blocks)


def test_a_surface_off_the_origin_has_an_empty_fiber():
    # 1 + x*y + z^2 misses the origin: no jet of any level lies over it, not
    # even the origin itself at level 0; over Q, 3 + x*y + z^2 passes
    # through the origin mod 3
    sys = JetSystem(parse_poly("1 + x*y + z^2", Field(3)))
    assert [list(enumerate_fiber(sys, 3, m)) for m in (0, 1, 2)] == [[], [], []]
    over_q = JetSystem(parse_poly("3 + x*y + z^2", Field(0)))
    cone = JetSystem(parse_poly("x*y + z^2", Field(3)))
    assert enumerate_fiber(over_q, 3, 1) == enumerate_fiber(cone, 3, 1)


def test_a_denominator_that_vanishes_mod_p_is_an_oracle_error():
    # a level-3 equation of this characteristic-0 tree carries the
    # coefficients 16/9 (its highest term) and 256/81 (its lowest), which
    # have no value in F_3; the error names the lowest failing term by
    # ``mono_key``, so the order of the dict's terms does not show
    sys = JetSystem(parse_poly("-4*x0*y0 - 9*x0*z0 - 8*x0^2 - 2*x0*z0^2 - 4*y0^2*z0", Field(0)))
    tree = run_driver(sys, {}, max_level=3)
    target = probe_field(sys.field, 3)
    with pytest.raises(OracleError, match=r"256/81 .* F_3 \(term x1\*y1\^2\)") as raised:
        audit_tree(sys, tree, enumerate_fiber(sys, 3, 3))
    # control: each polynomial of the truncations that fails to compile,
    # built again with its terms in reversed order, gives the same message,
    # and so does moving it into F_3 first (the reference route)
    messages = set()
    for node in tree.nodes:
        T = truncate_stratum(sys, node.stratum, 3)
        for e in T.equations + T.units:
            flipped = Polynomial(e.field, dict(reversed(list(e.terms.items()))))
            assert flipped == e
            try:
                compile_poly(e, 3, 3)
            except OracleError as err:
                assert list(flipped.terms) != list(e.terms)
                with pytest.raises(OracleError) as again:
                    compile_poly(flipped, 3, 3)
                with pytest.raises(OracleError) as moved:
                    transport_poly(e, target)
                assert str(again.value) == str(moved.value) == str(err)
                messages.add(str(err))
    assert str(raised.value) in messages


def test_an_equation_with_no_value_mod_p_is_an_oracle_error():
    """The search moves every coefficient of the equation into the probe
    field first: 1/3 has no value in F_3, and the error is the one moving
    the equation as a whole gives, naming the term, at every level."""
    sys = JetSystem(parse_poly("z^2 + x*y + 1/3*x^3", Field(0)))
    with pytest.raises(OracleError) as moved:
        transport_poly(sys.f, Field(3))
    assert str(moved.value) == "coefficient 1/3 has a denominator that vanishes in F_3 (term x0^3)"
    for m in (0, 1, 2):
        with pytest.raises(OracleError) as raised:
            enumerate_fiber(sys, 3, m)
        assert str(raised.value) == str(moved.value)
    assert len(enumerate_fiber(sys, 2, 1)) == 8


def test_a_gaussian_in_a_field_without_a_root_of_minus_one_is_an_oracle_error():
    """``probe_field`` adjoins i wherever -1 has no square root mod p, so the
    oracle never asks for a missing root; a hand-built target does, and gets
    the oracle's error rather than a failure inside ``Field.mul``."""
    with pytest.raises(OracleError) as raised:
        transport_scalar(Gaussian(0, 1), Field(3))
    assert str(raised.value) == (
        "coefficient Gaussian(0, 1) needs a square root of -1 that F_3 lacks"
    )
    # a real Gaussian needs no root: it moves as its real part
    assert transport_scalar(Gaussian(5, 0), Field(3)) == 2
    assert transport_scalar(Gaussian(Fraction(1, 2), 0), Field(3)) == 2
    # where -1 has a root the imaginary part moves through it (2^2 = -1 mod 5)
    assert transport_scalar(Gaussian(0, 1), Field(5)) == 2


def test_probe_field_carries_extension():
    pr = preset("E6", char=0)
    target = probe_field(pr.equation.field, 3)
    assert target.char == 3 and target.i_adjoined


AUDIT_CASES = [
    ("A", 1, 2, 3),
    ("A", 1, 3, 3),
    ("A", 2, 2, 3),
    ("A", 2, 3, 3),
    ("D", 2, 2, 3),
    ("D", 2, 3, 3),
    ("E8", 8, 2, 3),
    ("E8", 8, 3, 3),
]


def audit(pr, p, m):
    sys = JetSystem(pr.equation)
    pts = enumerate_fiber(sys, p, m)
    tree = run_driver(sys, pr.covers, max_level=m)
    leaves = truncated_leaves(sys, tree, m)
    missing = coverage_check(pts, [T for _, T in leaves])
    excl = exclusive_cover_check(pts, leaves)
    part = split_partition_check(sys, tree, pts)
    return pts, missing, excl, part


@pytest.mark.parametrize("kind,n,p,m", AUDIT_CASES)
def test_driver_run_covers_and_partitions(kind, n, p, m):
    pr = preset(kind, n=n, char=p)
    pts, missing, excl, part = audit(pr, p, m)
    assert pts  # the fiber over the singular point is never empty
    assert missing == []
    assert excl["ok"], (excl["uncovered"], excl["overlapping"])
    assert part["ok"]


def test_char_zero_preset_audited_at_probe_prime():
    pr = preset("A", n=2, char=0)
    sys = JetSystem(pr.equation)
    pts = enumerate_fiber(sys, 5, 2)
    tree = run_driver(sys, pr.covers, max_level=2)
    leaves = truncated_leaves(sys, tree, 2)
    assert coverage_check(pts, [T for _, T in leaves]) == []


def test_negative_control_dropped_leaf():
    pr = preset("A", n=1, char=2)
    sys = JetSystem(pr.equation)
    pts = enumerate_fiber(sys, 2, 2)
    tree = run_driver(sys, pr.covers, max_level=2)
    leaves = truncated_leaves(sys, tree, 2)
    assert coverage_check(pts, [T for _, T in leaves]) == []
    # deleting a leaf must surface uncovered points
    assert coverage_check(pts, [T for _, T in leaves[:-1]]) != []


def test_stratum_membership_basics():
    pr = preset("A", n=1, char=2)
    sys = JetSystem(pr.equation)
    tree = run_driver(sys, pr.covers, max_level=2)
    leaves = truncated_leaves(sys, tree, 2)  # over F_2 already
    pts = enumerate_fiber(sys, 2, 2)
    hits = {
        pt: sum(1 for _, T in leaves if stratum_membership(point_assignment(pt, 2), T))
        for pt in pts
    }
    assert all(c >= 1 for c in hits.values())


def test_truncation_forgets_constraints_above_its_level():
    """A unit or an equation in an order above the level says nothing
    about a point of the truncation: it is forgotten, so every fiber point
    still lies on the truncated root (a unit x5 compiled at level 3 would
    otherwise reject every point)."""
    pr = preset("A", n=1, char=2)
    field = pr.equation.field
    s = root_stratum().replace(
        units=(parse_poly("x5", field),),
        equations=(parse_poly("x1*y5", field),),
    )
    T = truncate_stratum(pr.system, s, 3)
    assert T.units == () and T.equations == ()
    C = compile_stratum(T, 2)
    assert all(C.contains(pt) for pt in enumerate_fiber(pr.system, 2, 3))


@pytest.mark.parametrize(
    "kind,n,p,m", [("A", 2, 3, 3), ("D", 2, 2, 5), ("E8", 0, 2, 6)]
)
def test_closure_contains_is_sound_on_fiber_points(kind, n, p, m):
    """Whenever the closure test says closure(b) contains a, every F_p point
    of a's truncation satisfies b's closed constraints (zero coordinates
    and equations; b's units drop away in the closure)."""
    pr = preset(kind, n=n, char=p)
    sys = JetSystem(pr.equation)
    tree = run_driver(sys, pr.covers, max_level=m)
    leaves = [T for _, T in truncated_leaves(sys, tree, m)]
    pts = enumerate_fiber(sys, p, m)
    assigns = {pt: point_assignment(pt, m) for pt in pts}
    members = [[pt for pt in pts if stratum_membership(assigns[pt], T)] for T in leaves]
    proper = 0
    assert probe_field(sys.field, p) == sys.field  # membership reads the truncations as they are
    for i, b in enumerate(leaves):
        assert closure_contains(sys, b, b)
        closed = b.replace(units=())
        for j, (a, a_pts) in enumerate(zip(leaves, members)):
            if not closure_contains(sys, b, a):
                continue
            proper += i != j
            bad = [pt for pt in a_pts if not stratum_membership(assigns[pt], closed)]
            assert not bad, (i, j, bad[:3])
    assert proper, "no containment between distinct leaves was exercised"


# -- the compiled route against the reference route ---------------------------


@pytest.mark.parametrize(
    "field",
    FIELDS + [Field(3, i_adjoined=True), Field(7, i_adjoined=True)],
    ids=lambda f: f"char{f.char}" + ("+i" if f.i_adjoined else ""),
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_compiled_poly_matches_evaluate(field, data):
    """A compiled table vanishes at a flat point exactly when
    ``Polynomial.evaluate`` on the unpacked point does; subtracting the
    reference value always leaves a vanishing table.  Characteristic-0 data
    is compiled mod 5 straight from its field, and compiles to the tables
    of its copy moved into F_5 first."""
    f = data.draw(poly_strategy(field))
    if field.i_adjoined:
        i = field.square_root(field.of(-1))
        f = f + data.draw(poly_strategy(field)).scale(i)
    target = field if field.char else Field(5)
    p = target.char
    m = data.draw(st.integers(1, 3))
    pt = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=3 * m, max_size=3 * m)))
    ref = target.of(f.evaluate(point_assignment(pt, m)))
    moved = transport_poly(f, target)
    assert compile_poly(f, m, p) == compile_poly(moved, m, p)
    assert vanishes(compile_poly(f, m, p), pt, p) == (not ref)
    shifted = moved - Polynomial.const(target, ref)
    assert vanishes(compile_poly(shifted, m, p), pt, p)


def zero_monomial_rule(idx, pt):
    """The rule a monomial forced to vanish once compiled to, on its point
    indices (None: a coordinate of order 0 or above the level): no
    constraint when one of them has no index, else some coordinate is 0."""
    return None in idx or not all(pt[i] for i in idx)


def first_coordinate_rule(idx, pt):
    """Control: a rule that reads only the monomial's first coordinate."""
    return None in idx or not pt[idx[0]]


def monomial_rule_mismatches(field, rule, seed=7, cases=300):
    """Random monomials (orders 0..m+1, exponents 1..3) on random level-m
    points where the compiled monomial equation and ``rule`` disagree."""
    rng = random.Random(seed)
    p = field.char
    bad = []
    for _ in range(cases):
        m = rng.randint(1, 3)
        coords = rng.sample([var(f, o) for o in range(m + 2) for f in "xyz"], rng.randint(1, 4))
        mono = mono_from_pairs((v, rng.randint(1, 3)) for v in coords)
        T = root_stratum().replace(
            equations=(Polynomial.monomial(field, mono, field.of(1)),), consumed=m
        )
        C = compile_stratum(T, p)
        idx = [oracle._index(v, m) for v, _ in mono]
        for _ in range(8):
            pt = tuple(rng.choice([0, *range(1, p)] if rng.random() < 0.5 else range(1, p))
                       for _ in range(3 * m))
            if C.contains(pt) != rule(idx, pt):
                bad.append((mono, pt))
    return bad


@pytest.mark.parametrize(
    "field", [Field(2), Field(3), Field(3, i_adjoined=True)], ids=["F2", "F3", "F3i"]
)
def test_a_compiled_monomial_equation_is_the_zero_monomial_rule(field):
    """A monomial as an equation holds at a point exactly when one of its
    coordinates is 0 there, as the separate zero-monomial constraint did;
    a coordinate of order 0 or above the level drops the constraint."""
    assert monomial_rule_mismatches(field, zero_monomial_rule) == []
    assert monomial_rule_mismatches(field, first_coordinate_rule)


MEMBERSHIP_CASES = [(kind, n, p, p, m) for kind, n, p, m in AUDIT_CASES] + [
    ("E6", 6, 3, 3, 4),
    ("E6", 6, 0, 3, 4),
]


@pytest.mark.parametrize("kind,n,char,p,m", MEMBERSHIP_CASES)
def test_compiled_truncations_match_membership(kind, n, char, p, m):
    """Every node of a driver run, truncated and compiled into the probe
    field, holds exactly the fiber points ``stratum_membership`` puts on the
    truncation moved into the probe field."""
    pr = preset(kind, n=n, char=char)
    sys = pr.system
    tree = run_driver(sys, pr.covers, max_level=m)
    target = probe_field(pr.equation.field, p)
    truncs = [truncate_stratum(sys, node.stratum, m) for node in tree.nodes]
    compiled = [compile_stratum(T, p) for T in truncs]
    moved = [transport_stratum(T, target) for T in truncs]
    if target.i_adjoined:
        # F_3(i) is exercised: some table has an imaginary part
        assert any(len(e) == 2 for C in compiled for e in C.equations + C.units)
    for pt in enumerate_fiber(sys, p, m):
        assign = point_assignment(pt, m)
        for T, C in zip(moved, compiled):
            assert C.contains(pt) == stratum_membership(assign, T), (pt, T.describe())


@pytest.mark.parametrize(
    "kind,n,char,p,m",
    [("E6", 6, 0, 3, 6), ("E6", 6, 0, 5, 6), ("D", 3, 0, 3, 6), ("E8", 8, 3, 3, 8)],
    ids=["E6-char0-F3i", "E6-char0-F5", "D6-char0-F3", "E8-char3-F3"],
)
def test_compiling_from_the_source_field_matches_moving_first(kind, n, char, p, m):
    """Every node of a driver run, truncated and compiled straight from the
    source field, gets the tables its truncation gets when it is moved into
    the probe field first (the reference route).  E6 (char 0) goes to
    F_3(i) at p = 3 and to F_5 at p = 5, where i becomes a square root of
    -1, so some coefficient there has an imaginary part; over F_3 an
    E8 (char 3) truncation is already in its probe field."""
    pr = preset(kind, n=n, char=char)
    tree = run_driver(pr.system, pr.covers, max_level=m)
    target = probe_field(pr.equation.field, p)
    truncs = [truncate_stratum(pr.system, node.stratum, m) for node in tree.nodes]
    direct = [compile_stratum(T, p) for T in truncs]
    assert direct == [compile_stratum(transport_stratum(T, target), p) for T in truncs]
    assert any(C.equations or C.units for C in direct)
    coefficients = [c for T in truncs for e in T.equations + T.units for c in e.terms.values()]
    imaginary = [c for c in coefficients if getattr(c, "im", 0)]
    assert bool(imaginary) == (kind == "E6")


def reference_audit(pts, m, truncs, groups, splits):
    """The audit's two reports by the reference route: ``stratum_membership``
    on unpacked points, ``any`` over each group, ``sum`` over each split's
    children."""
    uncovered, overlapping, failures = [], [], []
    for pt in pts:
        assign = point_assignment(pt, m)
        hits = [stratum_membership(assign, T) for T in truncs]
        keys = [key for key, pos in groups.items() if any(hits[i] for i in pos)]
        if not keys:
            uncovered.append(pt)
        elif len(keys) > 1:
            overlapping.append((pt, keys))
        for nid, parent, children in splits:
            if hits[parent]:
                n = sum(hits[c] for c in children)
                if n != 1:
                    failures.append({"node": nid, "point": pt, "hits": n})
    exclusive = {
        "ok": not uncovered and not overlapping,
        "groups": len(groups),
        "uncovered": uncovered,
        "overlapping": overlapping,
    }
    return exclusive, {"ok": not failures, "split_nodes": len(splits), "failures": failures}


@pytest.mark.parametrize("kind,n,char,p,m", MEMBERSHIP_CASES)
def test_audit_tree_matches_reference(kind, n, char, p, m):
    """``audit_tree``'s cover and partition reports equal the reference
    route's on the same truncations: nonempty leaves grouped by component,
    then every open/closed split with its two children.  Negative controls:
    a leaf also charted under a second group key overlaps, a split with one
    child dropped fails the partition, and so does one that lists its parent
    as a further child (two hits)."""
    pr = preset(kind, n=n, char=char)
    sys = pr.system
    tree = run_driver(sys, pr.covers, max_level=m)
    target = probe_field(pr.equation.field, p)
    pts = enumerate_fiber(sys, p, m)
    leaves = [node for node in tree.leaves() if node.kind != "empty"]
    split_nodes = [
        node
        for node in tree.nodes
        if node.kind == "split" and len(node.children) == 2
    ]
    nids = [node.nid for node in leaves]
    nids += [k for node in split_nodes for k in (node.nid, *node.children) if k not in nids]
    pos = {nid: i for i, nid in enumerate(nids)}
    truncs = [truncate_stratum(sys, tree.node(nid).stratum, m) for nid in nids]
    moved = [transport_stratum(T, target) for T in truncs]
    groups = {}
    for node in leaves:
        key = ("component", node.component) if node.component is not None else ("leaf", node.nid)
        groups.setdefault(key, []).append(pos[node.nid])
    splits = [
        (node.nid, pos[node.nid], tuple(pos[c] for c in node.children))
        for node in split_nodes
    ]
    ref = reference_audit(pts, m, moved, groups, splits)
    assert audit_tree(sys, tree, pts) == ref
    assert ref[0]["ok"] and ref[1]["ok"]

    assigns = [point_assignment(pt, m) for pt in pts]
    held = next(i for i in range(len(leaves)) if any(stratum_membership(a, moved[i]) for a in assigns))
    duplicated = {**groups, ("duplicate",): [held]}
    exclusive, _ = _audit(pts, truncs, duplicated, splits)
    assert exclusive["overlapping"]
    assert exclusive == reference_audit(pts, m, moved, duplicated, splits)[0]

    dropped = [(nid, parent, children[:1]) for nid, parent, children in splits]
    _, partition = _audit(pts, truncs, groups, dropped)
    assert bool(partition["failures"]) == bool(splits)
    assert partition == reference_audit(pts, m, moved, groups, dropped)[1]

    # the parent as a third child holds every point a real child holds
    widened = [(nid, parent, (parent, *children)) for nid, parent, children in splits]
    _, partition = _audit(pts, truncs, groups, widened)
    assert {f["hits"] for f in partition["failures"]} == ({2} if splits else set())
    assert partition == reference_audit(pts, m, moved, groups, widened)[1]


# -- no vacuous pass: a point in no leaf group is uncovered -------------------


def test_an_empty_leaf_set_leaves_every_point_uncovered():
    """The cover checks on no leaves report every fiber point uncovered:
    they never pass with nothing checked."""
    sys = JetSystem(parse_poly("z^2 + x*y", Field(2)))
    fiber = enumerate_fiber(sys, 2, 2)
    pts = list(fiber)
    assert len(pts) == 32
    assert coverage_check(fiber, []) == pts
    exclusive = exclusive_cover_check(fiber, [])
    assert exclusive == {"ok": False, "groups": 0, "uncovered": pts, "overlapping": []}


def test_audit_tree_of_a_tree_with_no_nonempty_leaf_fails():
    """Over Q the constant 3 keeps the surface off the origin, so the driver's
    tree is one ``empty`` root; mod 3 the surface passes through the origin,
    and no leaf holds the 243 points of the level-2 fiber."""
    sys = JetSystem(parse_poly("3 + x*y + z^2", QQ))
    tree = run_driver(sys, {}, max_level=2)
    assert [node.kind for node in tree.nodes] == ["empty"]
    fiber = enumerate_fiber(sys, 3, 2)
    exclusive, _ = audit_tree(sys, tree, fiber)
    assert len(exclusive["uncovered"]) == len(fiber) == 243
    assert not exclusive["ok"] and exclusive["groups"] == 0


@pytest.mark.parametrize("n,p,m,size,has_split", [(1, 2, 2, 32, False), (2, 3, 2, 405, True)])
def test_audit_with_no_groups_matches_the_reference(n, p, m, size, has_split):
    """``_audit`` with no leaf group is the reference audit: every point
    uncovered, and the split partition still checked (A1 over F_2 is
    ``z^2 + x*y``)."""
    pr = preset("A", n=n, char=p)
    sys = pr.system
    tree = run_driver(sys, pr.covers, max_level=m)
    fiber = enumerate_fiber(sys, p, m)
    truncs = [truncate_stratum(sys, node.stratum, m) for node in tree.nodes]
    pos = {node.nid: i for i, node in enumerate(tree.nodes)}
    splits = [
        (node.nid, pos[node.nid], tuple(pos[c] for c in node.children))
        for node in tree.nodes
        if node.kind == "split"
    ]
    assert bool(splits) == has_split
    ref = reference_audit(list(fiber), m, truncs, {}, splits)
    assert len(ref[0]["uncovered"]) == len(fiber) == size
    assert _audit(fiber, truncs, {}, splits) == ref
    assert loop_audit(fiber, truncs, {}, splits) == ref


# -- the projection memo against the per-point loop ---------------------------

ORACLE_PLANS = [(pr, p, m) for pr in preset_grid() for p, m in _oracle_plan(pr)]


def plan_compiled(pr, p, m):
    """Every node of the depth-m driver run, truncated and compiled into the
    probe field of ``p``."""
    tree = run_driver(pr.system, pr.covers, max_level=m)
    return [compile_stratum(truncate_stratum(pr.system, node.stratum, m), p) for node in tree.nodes]


def loop_hits(pt, compiled):
    """The unmemoised route: every truncation tested on the point itself."""
    return sum(1 << i for i, C in enumerate(compiled) if C.contains(pt))


def loose(pts, p, m):
    """Points in any order, repeats allowed, as a level-``m`` fiber of
    one-point blocks: each point a head with one empty tail."""
    return Fiber(m, p, tuple((pt, ((),)) for pt in pts))


def point_orders(pts, p, m, seed):
    """The enumerated points; shuffled; with duplicates; and random points
    of the whole box (most of them off the fiber)."""
    rng = random.Random(seed)
    box = [tuple(rng.randrange(p) for _ in range(3 * m)) for _ in range(200)]
    return [pts, rng.sample(pts, len(pts)), pts[::3] + pts[::2] + pts[:5], box + pts[:50] + box]


def expanded(blocks):
    """The (point, hits) pairs of ``point_hits``' blocks, point by point."""
    return [(head + tail, hits) for head, tails, hits in blocks for tail in tails]


def last_order_zero(pr, p, m):
    """The root truncated to level m with the last-order coordinate x_m
    zero, compiled: a truncation that reads a last-order index."""
    root = root_stratum()
    s = root.replace(zero_vars=root.zero_vars | {var("x", m)})
    return compile_stratum(truncate_stratum(pr.system, s, m), p)


def point_hits_match_loop(pr, p, m, kernel=point_hits, extra=()):
    """The hits of the fiber's blocks (``kernel``), and of the one-point
    blocks of every order of ``point_orders``, are those of the per-point
    loop."""
    compiled = plan_compiled(pr, p, m) + list(extra)
    fiber = enumerate_fiber(pr.system, p, m)
    orders = point_orders(list(fiber), p, m, seed=m)
    ref = {pt: loop_hits(pt, compiled) for pt in orders[0] + orders[-1]}
    return expanded(kernel(fiber, compiled)) == [(pt, ref[pt]) for pt in orders[0]] and all(
        expanded(point_hits(loose(pts, p, m), compiled)) == [(pt, ref[pt]) for pt in pts]
        for pts in orders
    )


@pytest.mark.parametrize("pr,p,m", ORACLE_PLANS, ids=lambda v: getattr(v, "label", v))
def test_point_hits_match_the_contains_loop(pr, p, m):
    """The block route and the projection memo give every point of every
    order the hits of the per-point ``contains`` loop, on each preset's
    oracle plan; also with a truncation that reads the last jet order, so
    the fiber takes the per-point branch."""
    assert point_hits_match_loop(pr, p, m)
    assert point_hits_match_loop(pr, p, m, extra=[last_order_zero(pr, p, m)])


def test_broken_memo_fails_the_differential_test(monkeypatch):
    """Negative control: a key that drops one index some truncation reads
    (x1) lets two points that differ there share a memo entry."""
    pr = preset("A", n=2, char=3)
    assert point_hits_match_loop(pr, 3, 3)
    reads = CompiledStratum.reads
    monkeypatch.setattr(CompiledStratum, "reads", lambda C: reads(C) - {0})
    assert not point_hits_match_loop(pr, 3, 3)


def test_a_truncation_reading_the_last_order_takes_the_per_point_branch():
    """With no truncation reading the last jet order, each fiber block gets
    one hits value; a truncation with x_m zero reads it, and every point
    becomes a block of its own, with that truncation's bit set exactly
    where x_m = 0."""
    pr, p, m = preset("A", n=2, char=3), 3, 3
    fiber = enumerate_fiber(pr.system, p, m)
    compiled = plan_compiled(pr, p, m)
    assert [(head, tails) for head, tails, _ in point_hits(fiber, compiled)] == list(fiber.blocks)
    assert len(fiber) > len(fiber.blocks)
    bit = 1 << len(compiled)
    blocks = list(point_hits(fiber, compiled + [last_order_zero(pr, p, m)]))
    assert [head + tail for head, (tail,), _ in blocks] == list(fiber)
    assert all(bool(hits & bit) == (tail[0] == 0) for _, (tail,), hits in blocks)


def shared_tail_hits(fiber, compiled):
    """A broken kernel: each block's hits are read off its first point and
    shared by all its tails, whatever the truncations read."""
    for head, tails in fiber.blocks:
        yield head, tails, loop_hits(head + tails[0], compiled)


def test_hits_shared_across_tails_fail_the_differential_test():
    """Negative control: sharing a block's hits across its tails is exact
    while no truncation reads the last order, and the differential test
    catches it once one does."""
    pr = preset("A", n=2, char=3)
    assert point_hits_match_loop(pr, 3, 3, kernel=shared_tail_hits)
    extra = [last_order_zero(pr, 3, 3)]
    assert point_hits_match_loop(pr, 3, 3, extra=extra)
    assert not point_hits_match_loop(pr, 3, 3, kernel=shared_tail_hits, extra=extra)


def loop_audit(fiber, truncations, groups, splits):
    """The audit as one ``contains`` loop per point, with each group and
    split verdict read per point: the route ``_audit`` memoises."""
    compiled = [(1 << i, compile_stratum(T, fiber.p)) for i, T in enumerate(truncations)]
    group_masks = [(key, sum(1 << i for i in set(pos))) for key, pos in groups.items()]
    split_masks = [
        (nid, 1 << parent, sum(1 << i for i in set(children)))
        for nid, parent, children in splits
    ]
    uncovered, overlapping, failures = [], [], []
    for pt in fiber:
        hits = 0
        for bit, C in compiled:
            if C.contains(pt):
                hits |= bit
        keys = [key for key, mask in group_masks if hits & mask]
        if not keys:
            uncovered.append(pt)
        elif len(keys) > 1:
            overlapping.append((pt, keys))
        for nid, parent, children in split_masks:
            if hits & parent:
                n = (hits & children).bit_count()
                if n != 1:
                    failures.append({"node": nid, "point": pt, "hits": n})
    exclusive = {
        "ok": not uncovered and not overlapping,
        "groups": len(groups),
        "uncovered": uncovered,
        "overlapping": overlapping,
    }
    return exclusive, {"ok": not failures, "split_nodes": len(splits), "failures": failures}


@pytest.mark.parametrize("pr,p,m", ORACLE_PLANS, ids=lambda v: getattr(v, "label", v))
def test_audit_matches_the_per_point_loop(monkeypatch, pr, p, m):
    """``_audit`` on the arguments ``audit_tree`` hands it equals the per-point
    loop, also on the other point orders of ``point_orders`` run as one
    fiber of one-point blocks; so does the cover audit with the group of
    the first point dropped, on every seventh point (negative control: that
    point is left uncovered, as is every point when no group is left)."""
    calls = []
    audit = oracle._audit
    monkeypatch.setattr(oracle, "_audit", lambda *args: calls.append(args) or audit(*args))
    fiber = enumerate_fiber(pr.system, p, m)
    pts = list(fiber)
    tree = run_driver(pr.system, pr.covers, max_level=m)
    assert audit_tree(pr.system, tree, fiber) == loop_audit(*calls[0])
    _, truncations, groups, splits = calls[0]
    points = loose([pt for order in point_orders(pts, p, m, seed=m)[1:] for pt in order], p, m)
    assert audit(points, truncations, groups, splits) == loop_audit(points, truncations, groups, splits)
    first = loop_hits(pts[0], [compile_stratum(T, p) for T in truncations])
    dropped = {key: pos for key, pos in groups.items() if not any(first >> i & 1 for i in pos)}
    sparse = loose(pts[::7], p, m)
    exclusive, _ = audit(sparse, truncations, dropped, ())
    assert exclusive["uncovered"][0] == pts[0]
    assert exclusive == loop_audit(sparse, truncations, dropped, ())[0]


def test_audit_rejects_a_fiber_of_another_level(monkeypatch):
    """A fiber of another level than the truncations' raises with its
    points' length, checked once for the fiber: the audit at the right
    level never builds the fiber's points one by one."""
    pr = preset("A", n=2, char=3)
    tree = run_driver(pr.system, pr.covers, max_level=3)
    leaves = [T for _, T in truncated_leaves(pr.system, tree, 3)]
    with pytest.raises(ValueError, match="point has 6 entries, expected 9"):
        coverage_check(enumerate_fiber(pr.system, 3, 2), leaves)
    fiber = enumerate_fiber(pr.system, 3, 3)
    expected = coverage_check(loose(list(fiber), 3, 3), leaves)

    def refuse(self):
        raise AssertionError("the audit built the fiber's points one by one")

    monkeypatch.setattr(oracle.Fiber, "__iter__", refuse)
    assert coverage_check(fiber, leaves) == expected == []


# -- the driver on random small equations ------------------------------------


def zeroes_a_chart_unit(tree, pt, m, target):
    """Does ``pt`` zero a multi-term unit of some chart leaf?  A pivot whose
    coefficient is a monomial unit times a multi-term cofactor
    (``strata.find_pivot``) makes the cofactor a unit of its chart, and no
    leaf holds the points where that cofactor vanishes."""
    assign = point_assignment(pt, m)
    return any(
        len(u.terms) > 1
        and all(o <= m for _, o in u.variables())
        and not transport_poly(u, target).evaluate(assign)
        for node in tree.leaves()
        if node.kind == "chart"
        for u in node.stratum.units
    )


def test_driver_partitions_the_fibers_of_random_small_equations():
    """Criterion 4's random equations over F_2, F_3 and F_3(i), stratified
    to each level m <= 3: a run raises a clear EngineError or PresetError,
    or its leaves partition the F_p fiber (``audit_tree`` against
    ``enumerate_fiber``).  The only points allowed to fall outside every
    leaf are those the known multi-term-unit gap drops (see the strict
    xfail below); no point may fall in two leaf groups or two split
    children."""
    rng = random.Random(161803)
    outcomes = Counter()
    for field in (Field(2), Field(3), Field(3, True)):
        p = field.char
        for _ in range(120):
            sys = JetSystem(random_base_poly(rng, field))
            for m in (1, 2, 3):
                try:
                    tree = run_driver(sys, {}, max_level=m)
                except (EngineError, PresetError) as e:
                    assert str(e), (sys.f, m)
                    outcomes["error"] += 1
                    continue
                target = probe_field(field, p)
                exclusive, partition = audit_tree(sys, tree, enumerate_fiber(sys, p, m))
                assert not exclusive["overlapping"], (sys.f, field, m)
                assert all(fl["hits"] == 0 for fl in partition["failures"]), (sys.f, field, m)
                lost = exclusive["uncovered"] + [fl["point"] for fl in partition["failures"]]
                assert all(zeroes_a_chart_unit(tree, pt, m, target) for pt in lost), (sys.f, field, m)
                outcomes["gap" if lost else "partitioned"] += 1
    assert outcomes["partitioned"] >= 1000, outcomes


@pytest.mark.xfail(
    strict=True,
    reason="the level-1 pivot on y1 has the multi-term coefficient y1 + z1, which "
    "becomes a unit of the one chart; no leaf holds the 27 level-2 points with "
    "x1 = y1 = z1 = 0",
)
def test_a_chart_with_a_multi_term_unit_leaves_no_point_uncovered():
    sys = JetSystem(parse_poly("x^2 + y*z + 2*y^2", Field(3)))
    tree = run_driver(sys, {}, max_level=2)
    exclusive, _ = audit_tree(sys, tree, enumerate_fiber(sys, 3, 2))
    assert exclusive["ok"], len(exclusive["uncovered"])


# -- the deep-audit tier: one level past the routine oracle plan --------------
#
# ``verify --all`` probes p = 3 up to m = 3 (``PROBE_BUDGET``).  At m = 6 the
# fiber has 3^18 candidate points and a few million points; the free last
# jet order makes it a few hundred thousand blocks, which the audit reads in
# seconds.  These runs are tests only: the ``verify --all`` report is fixed.

DEEP_BUDGET = 3**18


def deep_audit(kind, n, char):
    """The level-6 fiber over F_3 and its ``audit_tree`` reports."""
    pr = preset(kind, n=n, char=char)
    fiber = enumerate_fiber(pr.system, 3, 6, budget=DEEP_BUDGET)
    tree = run_driver(pr.system, pr.covers, max_level=6)
    return fiber, audit_tree(pr.system, tree, fiber)


def test_deep_audit_a2_char3_partitions_the_level_6_fiber():
    fiber, (exclusive, partition) = deep_audit("A", 2, 3)
    assert len(fiber) == 3_365_793
    assert exclusive["ok"] and partition["ok"]


class LeftUncovered(AssertionError):
    """A deep audit found fiber points in no leaf."""


@pytest.mark.xfail(
    strict=True,
    raises=LeftUncovered,
    reason="the multi-term-unit gap on the grid (ROADMAP item 1): the level-6 cover's "
    "two charts take x2 + 2*y2 and 2*x2 + y2 as units, and no leaf holds the "
    "354,294 points where they vanish",
)
def test_deep_audit_d4_char0_partitions_the_level_6_fiber():
    fiber, (exclusive, partition) = deep_audit("D", 2, 0)
    assert len(fiber) == 4_782_969
    assert partition["ok"] and not exclusive["overlapping"]
    uncovered = exclusive["uncovered"]
    # every lost point has x1 = y1 = z1 = z2 = 0 and x2 = y2 != 0
    assert all(pt[:3] == (0, 0, 0) and pt[5] == 0 and pt[3] == pt[4] != 0 for pt in uncovered)
    if uncovered:
        assert len(uncovered) == 354_294
        raise LeftUncovered(f"{len(uncovered)} points lie in no leaf")
