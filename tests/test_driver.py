"""Stratification driver: splits, covers, factor charts, residual absorption."""

import functools
import gc
import weakref

import pytest

from arcjet import driver, strata
from arcjet.algebra import Field, Polynomial, QQ, parse_poly, var
from arcjet.catalog import components, preset, preset_grid
from arcjet.cli import _oracle_plan
from arcjet.driver import _square_split, coxeter_number, run_driver
from arcjet.hasse import JetSystem
from arcjet.jetgraph import build_graph
from arcjet.strata import (
    EngineError,
    PivotChoice,
    Stratum,
    check_elimination_soundness,
    root_stratum,
)


def P(text, field=QQ):
    return parse_poly(text, field)


# -- quadric cone, fully automatic ------------------------------------------


def test_quadric_cone_auto():
    # the level-2 relation z1^2 + x1*y1 has Coxeter number 2: that cover is
    # terminal, one two-chart component absorbs its closed complement
    sys = JetSystem(P("z^2 + x*y"))
    tree = run_driver(sys, max_level=10)
    assert [c.emergence for c in tree.components] == [2]
    assert [r.absorbed_into for r in tree.residuals()] == [0]
    for comp in tree.components:
        assert len(comp.chart_nodes) == 2
        for nid in comp.chart_nodes:
            chart = tree.node(nid).stratum
            assert check_elimination_soundness(sys, chart, 10) == []


def test_quadric_cone_terminal_script():
    # the terminal cover (at the Coxeter number 2) leaves a single component
    from arcjet.catalog import components, preset

    pr = preset("A", n=1, char=0)
    tree = components(pr)
    assert len(tree.components) == 1
    assert tree.components[0].emergence == 2


def test_cusp_like_curve_single_component():
    tree = run_driver(JetSystem(P("z^2 + x^3 + y^5")), max_level=20)
    # the count is checked on the preset grid; here just check the run
    # terminates and yields sound charts
    sys = JetSystem(P("z^2 + x^3 + y^5"))
    for n in tree.charts():
        assert check_elimination_soundness(sys, n.stratum, 12) == []


# -- square splitting --------------------------------------------------------


def test_square_split_detects_difference_of_squares():
    Fi = Field(0, i_adjoined=True)
    s = Stratum(zero_vars=frozenset(), units=(P("y1", Fi),))
    q = P("z2^2 + y1^4", Fi)
    got = _square_split(s, q)
    assert got is not None
    a, b = got
    assert a * b == q
    assert {str(a), str(b)} == {"z2 - i*y1^2", "z2 + i*y1^2"}


def test_square_split_needs_square_root():
    # over the plain rationals -1 has no square root: no split
    s = Stratum(zero_vars=frozenset(), units=(P("y1"),))
    assert _square_split(s, P("z2^2 + y1^4")) is None
    # but a genuine difference of squares splits rationally
    got = _square_split(s, P("z2^2 - 4*y1^4"))
    assert got is not None
    a, b = got
    assert a * b == P("z2^2 - 4*y1^4")


def test_square_split_requires_unit_cofactor():
    # y1 not a unit: the factorization would not separate components
    s = Stratum(zero_vars=frozenset())
    assert _square_split(s, P("z2^2 - 4*y1^4")) is None
    # three terms never split this way
    s2 = Stratum(zero_vars=frozenset(), units=(P("y1"),))
    assert _square_split(s2, P("z2^2 - y1^4 + x1^2")) is None


def test_square_split_refuses_characteristic_2():
    # over F_2, z1^2 + y1^2 = (z1 + y1)^2: the two factors would coincide
    # and chart one locus as two components
    F2 = Field(2)
    s = Stratum(zero_vars=frozenset(), units=(P("y1", F2),))
    assert _square_split(s, P("z1^2 + y1^2", F2)) is None
    # the same shape splits over F_3, where -1 is no square but 1 is
    F3 = Field(3)
    s3 = Stratum(zero_vars=frozenset(), units=(P("y1", F3),))
    assert _square_split(s3, P("z1^2 - y1^2", F3)) is not None


def test_split_cover_creates_one_component_per_factor():
    # z^2 - y^4 factors as (z - y^2)(z + y^2) wherever y is a unit; the
    # first cover level sees z2^2 - y1^4 and must emit one component per
    # linear factor
    sys = JetSystem(P("z^2 - y^4"))
    tree = run_driver(sys, {2: ((var("y", 1),),)}, max_level=10)
    # a node's level is that of the decision creating it: the level-4
    # cover is the one whose children are made at level 4
    (cover,) = [
        n for n in tree.nodes if n.kind == "cover" and tree.node(n.children[0]).level == 4
    ]
    first = [tree.node(i) for i in cover.children if tree.node(i).kind == "chart"]
    assert len(first) == 2
    assert len({n.component for n in first}) == 2
    eqs = sorted(str(e) for n in first for e in n.stratum.equations)
    assert eqs == sorted(["z2 + y1^2", "z2 - y1^2"])
    for n in first:
        assert check_elimination_soundness(sys, n.stratum, 10) == []


# -- cover and residual semantics -------------------------------------------


def test_cover_charts_share_component():
    # rank-2 cone: the degree-3 tower needs a two-chart cover at its level
    sys = JetSystem(P("z^3 + x*y"))
    tree = run_driver(sys, max_level=14)
    for comp in tree.components:
        levels = {tree.node(nid).level for nid in comp.chart_nodes}
        assert len(levels) == 1  # all charts of a component sit at one level


def test_terminal_residual_absorbed():
    from arcjet.catalog import components, preset

    pr = preset("E8", char=0)
    tree = components(pr)
    residuals = tree.residuals()
    assert residuals, "terminal cover must leave a residual node"
    for r in residuals:
        assert r.absorbed_into is not None
        target = tree.components[r.absorbed_into]
        assert target.emergence <= r.level


def test_max_level_bound_respected():
    tree = run_driver(JetSystem(P("z^2 + x*y")), max_level=6)
    for n in tree.nodes:
        assert n.level <= 6


# -- the terminal cover, read off the relation --------------------------------


@pytest.mark.parametrize(
    "text,h",
    [("z15^2 + x10^3 + y6^5", 30), ("x3*y1 + z1^4", 4), ("x5^3 + y3^5", None),
     ("z6^2 + x4^2*y2", None)],
)
def test_coxeter_number_of_jet_relations(text, h):
    # exponents sum per family over the orders; the last two are E8's level-15
    # and D's upper-ladder relations, whose weights leave the sum open
    assert coxeter_number(P(text)) == h


def coxeter_mismatches(monkeypatch, number) -> tuple[list, list]:
    """Build the level-6 graphs of all 69 presets with ``number`` as the
    driver's Coxeter number; the relations each graph's tower solved, and
    those whose number the tower kept differs from a fresh solve."""
    solved = []

    def recording(f):
        solved.append(f)
        return number(f)

    monkeypatch.setattr(driver, "coxeter_number", recording)
    kept = []
    for pr in preset_grid():
        build_graph(pr.system, pr.covers, 6)
        kept.extend((q, h) for q, h in pr.system.moves.items() if isinstance(q, Polynomial))
    monkeypatch.undo()
    # each tower solves each of its relations once
    assert len(solved) == len(kept)
    return solved, [q for q, h in kept if h != coxeter_number(q)]


def test_cached_coxeter_number_matches_the_uncached_solve(monkeypatch):
    solved, bad = coxeter_mismatches(monkeypatch, coxeter_number)
    assert len(solved) > 1 and bad == []


def test_a_cache_keyed_by_term_count_fails_the_differential_test(monkeypatch):
    """Control: relations with as many terms need not share h."""
    by_count = {}

    def keyed_by_count(f):
        return by_count.setdefault(len(f.terms), coxeter_number(f))

    assert coxeter_mismatches(monkeypatch, keyed_by_count)[1]


def test_driver_alone_reaches_the_rank():
    # with no cover unit sets at all the driver finds the Dynkin count and
    # absorbs every residual on the whole grid; E8's unit sets only fix the
    # presentation of its charts
    from arcjet.catalog import preset_grid

    for pr in preset_grid():
        tree = run_driver(pr.system, {}, pr.max_level)
        assert len(tree.components) == pr.expected_count, pr.label
        assert all(r.absorbed_into is not None for r in tree.residuals()), pr.label


@pytest.mark.xfail(
    strict=True,
    reason="a false positive of the terminal-cover rule at level 6: the relation "
    "z3^2 + x3*y1^3 + y1^3*z3 has Coxeter number 6, its own level, so that cover "
    "is declared terminal and the run ends with 2 components",
)
def test_artin_char2_e7_form_reaches_the_rank():
    # Artin's char-2 E7 form, off the grid, is isolated: the partials
    # x^2 + y^3, x*y^2 + y^2*z and y^3 vanish together only at the origin,
    # so its arc families are the 7 nodes of E7
    sys = JetSystem(P("z^2 + x^3 + x*y^3 + y^3*z", Field(2)))
    assert len(run_driver(sys, {}, max_level=24).components) == 7


# -- the tree's shape ----------------------------------------------------------

LEAF_KINDS = {"chart", "residual", "stabilized", "empty"}


def test_every_node_records_its_decision():
    # split and cover nodes carry their decision as their kind, so readers
    # (the oracle's split audit among them) never parse a note
    from arcjet.catalog import preset_grid

    for pr in preset_grid():
        tree = run_driver(pr.system, pr.covers, pr.max_level)
        for node in tree.nodes:
            assert node.kind in LEAF_KINDS | {"split", "cover"}, (pr.label, node.nid)
            assert (node.kind in LEAF_KINDS) == (not node.children), (pr.label, node.nid)
            if node.kind == "split":
                assert len(node.children) == 2, (pr.label, node.nid)
        for comp in tree.components:
            assert comp.name == f"K{comp.index + 1}"
            assert comp.chart_nodes, (pr.label, comp.name)
            for nid in comp.chart_nodes:
                node = tree.node(nid)
                assert node.kind == "chart" and node.component == comp.index, (pr.label, nid)


# -- the driver's moves, decided once per tower --------------------------------


def fresh_outcome(sys, args):
    """The uncached move's result, or the error it raises."""
    try:
        if len(args) == 2:
            return strata.find_pivot(sys, *args)
        return strata.eliminate_tail(sys, *args)
    except Exception as e:
        return repr(e)


def move_mismatches(monkeypatch, build) -> tuple[list, list]:
    """Run ``build``, then ask each elimination it asked again one level up
    and with every other variable of its relation as the pivot: asks that
    a memo key missing the level or the pivot would confuse.  Every move
    asked through ``driver._pivot`` and ``driver._eliminate`` with its
    outcome, and those whose outcome differs from a fresh
    ``strata.find_pivot`` or ``strata.eliminate_tail`` call."""
    asked = []
    for name in ("_pivot", "_eliminate"):

        def recording(sys, *args, move=getattr(driver, name)):
            try:
                out = move(sys, *args)
            except Exception as e:
                asked.append((sys, args, repr(e)))
                raise
            asked.append((sys, args, out))
            return out

        monkeypatch.setattr(driver, name, recording)
    build()
    eliminations = {(id(sys), args): (sys, args) for sys, args, _ in asked if len(args) == 4}
    for sys, (s, n, q, pivot) in eliminations.values():
        others = q.variables() - {pivot.v}
        neighbours = [(n + 1, pivot)] + [
            (n, PivotChoice(w, pivot.coeff, pivot.extra_unit)) for w in others
        ]
        for level, choice in neighbours:
            try:
                driver._eliminate(sys, s, level, q, choice)
            except EngineError:
                pass
    monkeypatch.undo()
    fresh = {}
    bad = []
    for sys, args, out in asked:
        key = (id(sys), args)
        if key not in fresh:
            fresh[key] = fresh_outcome(sys, args)
        if out != fresh[key]:
            bad.append(args)
    return asked, bad


def ask_every_move():
    """The moves of each preset's ``components`` and oracle-plan runs, and
    of the E8 (char 0) graph to level 35."""
    for pr in preset_grid():
        components(pr)
        for _, m in _oracle_plan(pr):
            run_driver(pr.system, pr.covers, max_level=m)
    pr = preset("E8", char=0)
    build_graph(pr.system, pr.covers, 35)


def e8_graph_to_12():
    pr = preset("E8", char=0)
    build_graph(pr.system, pr.covers, 12)


def test_memoised_moves_match_the_uncached_route(monkeypatch):
    asked, bad = move_mismatches(monkeypatch, ask_every_move)
    # the runs ask 2,389 moves on 1,190 distinct inputs, and the neighbours
    # add about 1,300 distinct ones: over a thousand asks are repeats
    distinct = {(id(sys), args) for sys, args, _ in asked}
    assert len(asked) - len(distinct) > 1000
    assert bad == []


@pytest.mark.parametrize("dropped", ["level", "pivot"])
def test_a_move_memo_missing_part_of_its_key_fails_the_differential_test(monkeypatch, dropped):
    """Control: an elimination memo keyed without the level, or without the
    pivot, hands an ask another ask's chart."""

    def partial_key(sys, s, n, q, pivot):
        key = ("elimination", s, q, pivot if dropped == "level" else n)
        if key not in sys.moves:
            sys.moves[key] = strata.eliminate_tail(sys, s, n, q, pivot)
        return sys.moves[key]

    monkeypatch.setattr(driver, "_eliminate", partial_key)
    assert move_mismatches(monkeypatch, e8_graph_to_12)[1]


def counted(monkeypatch, name) -> list:
    """Count the calls the memo makes to the uncached move ``name``."""
    calls = []
    move = getattr(strata, name)

    def counting(*args):
        calls.append(args)
        return move(*args)

    monkeypatch.setattr(driver, name, counting)
    return calls


def test_a_failing_elimination_raises_on_every_call(monkeypatch):
    """An elimination that raises leaves nothing in the memo: the second ask
    runs the move again and raises again.  A good one runs once."""
    calls = counted(monkeypatch, "eliminate_tail")
    sys = JetSystem(P("z^2 + x*y"))
    q = P("x1*y1 + z1^2")
    s = root_stratum().replace(units=(P("x1"),))
    pivot = driver._pivot(sys, s, q)
    assert pivot.v == var("y", 1)
    # x1's coefficient y1 is no unit on this chart
    wrong = PivotChoice(var("x", 1), pivot.coeff, pivot.extra_unit)
    for _ in range(2):
        with pytest.raises(EngineError, match="unstable elimination coefficient"):
            driver._eliminate(sys, s, 2, q, wrong)
    assert len(calls) == 2
    assert driver._eliminate(sys, s, 2, q, pivot) is driver._eliminate(sys, s, 2, q, pivot)
    assert len(calls) == 3


def test_a_missing_pivot_is_decided_once(monkeypatch):
    calls = counted(monkeypatch, "find_pivot")
    sys = JetSystem(P("z^2 + x*y"))
    for _ in range(2):
        # the partial 2*x1 has the loose content x1
        assert driver._pivot(sys, root_stratum(), P("x1^2")) is None
    assert len(calls) == 1


def tower_collected() -> bool:
    """Is a preset's tower freed once its driver run and graph are done?"""
    pr = preset("E8", char=0)
    tower = weakref.ref(pr.system)
    run_driver(pr.system, pr.covers, pr.max_level)
    build_graph(pr.system, pr.covers, 12)
    del pr
    gc.collect()
    return tower() is None


def test_the_move_memo_dies_with_its_tower():
    assert tower_collected()


def reductions_left_behind() -> list:
    """The reductions that outlive a preset's runs and graph, once the
    preset is dropped (reductions alive before are not counted)."""
    before = {id(obj): obj for obj in gc.get_objects() if isinstance(obj, strata.Reduction)}
    tower_collected()
    return [
        obj for obj in gc.get_objects()
        if isinstance(obj, strata.Reduction) and id(obj) not in before
    ]


def test_no_reduction_outlives_its_tower():
    # the reductions live on the tower and die with it
    assert reductions_left_behind() == []


def test_a_process_wide_elimination_cache_keeps_dead_towers_alive(monkeypatch):
    """Control: a cache keyed by the tower outlives it."""
    monkeypatch.setattr(driver, "eliminate_tail", functools.lru_cache(strata.eliminate_tail))
    assert not tower_collected()


def equality_tests_per_e8_graph() -> list[int]:
    """``Polynomial.__eq__`` calls of each of two E8 (char 0) graph builds to
    level 35 in one process, each on a fresh preset and tower."""
    calls = 0
    eq = Polynomial.__eq__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return eq(self, other)

    counts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Polynomial, "__eq__", counting)
        for _ in range(2):
            calls = 0
            pr = preset("E8", char=0)
            build_graph(pr.system, pr.covers, 35)
            counts.append(calls)
    return counts


def test_a_second_build_does_no_more_work_than_the_first():
    """Every memo lives on the tower, so a second build in the same process
    starts from nothing, as the first did, and does the same work (559
    equality tests each); it reuses nothing of the first build either."""
    first, second = equality_tests_per_e8_graph()
    assert first == second


def cache_reductions_process_wide(monkeypatch) -> None:
    """Control set-up: ``reduction_of`` behind a process-wide cache keyed by
    (zero_vars, equations), as it once was."""

    @functools.lru_cache(maxsize=None)
    def shared(zero_vars, equations):
        return strata.Reduction(Stratum(zero_vars, equations), {}, set())

    monkeypatch.setattr(strata, "reduction_of", lambda sys, s: shared(s.zero_vars, s.equations))


def test_a_process_wide_reduction_cache_fails_the_repeated_build_test(monkeypatch):
    """Control: the cache hands the second build the first build's
    reductions, whose equations are equal to the fresh tower's but not the
    same objects, so every lookup and verdict compares them term by term."""
    cache_reductions_process_wide(monkeypatch)
    first, second = equality_tests_per_e8_graph()
    assert second > first


def test_a_process_wide_reduction_cache_keeps_reductions_alive(monkeypatch):
    """Control: the cache's reductions outlive the tower they served."""
    cache_reductions_process_wide(monkeypatch)
    assert reductions_left_behind()


# -- a surface off the origin --------------------------------------------------


def test_a_surface_off_the_origin_is_one_empty_leaf():
    # 1 + x*y + z^2 misses the origin: its fiber is empty at every level
    sys = JetSystem(P("1 + x*y + z^2", Field(3)))
    tree = run_driver(sys, {}, max_level=3)
    assert tree.components == [] and len(tree.nodes) == 1
    (root,) = tree.nodes
    assert root.kind == "empty" and not root.children
