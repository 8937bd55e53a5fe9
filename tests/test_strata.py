"""Stratum bookkeeping: rewriting, unit inference, elimination, soundness."""

import pickle
import random
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from arcjet import driver, jetgraph, strata
from arcjet.algebra import Field, Polynomial, QQ, mono_vars, parse_poly, var, var_key
from arcjet.catalog import PresetError, components, preset, preset_grid
from arcjet.driver import run_driver
from arcjet.hasse import JetSystem
from arcjet.jetgraph import build_graph
from arcjet.oracle import probe_plan
from arcjet.strata import (
    EliminationRule,
    EngineError,
    PivotChoice,
    RewriteRule,
    Stratum,
    add_equation,
    check_elimination_soundness,
    eliminate_tail,
    find_pivot,
    force_vanish,
    forced_vanishing,
    generic_point,
    next_nontrivial,
    nonvanishing_evidence,
    rewrite,
    rewrite_rules_for,
    root_stratum,
    rule_instance,
    split,
)
from test_acceptance import random_base_poly


def P(text, field=QQ):
    return parse_poly(text, field)


# -- rewriting --------------------------------------------------------------


def test_rewrite_linear_rule():
    rules = rewrite_rules_for((P("z1 - x1*y1"),))
    assert rewrite(P("z1^2 + z1 + x1"), rules) == P("x1^2*y1^2 + x1*y1 + x1")


def test_rewrite_power_rule():
    # no linear constant-coefficient term: fall back to the pure power z1^2
    rules = rewrite_rules_for((P("z1^2 + x1^3"),))
    assert rewrite(P("z1^3"), rules) == P("-x1^3*z1")
    assert rewrite(P("z1"), rules) == P("z1")  # below the power: untouched


def test_rewrite_no_usable_lead():
    # every term has multiple variables: the equation contributes no rule
    assert rewrite_rules_for((P("x1*y1 + x2*y2"),)) == ()


def reference_lead_rule(eq: Polynomial) -> Optional[RewriteRule]:
    """The quadratic lead-rule search, kept as the reference of
    ``strata._lead_rule``: every pure-power term is tested against every
    other term, and its rule is built before the best one is chosen."""
    field = eq.field
    candidates = []
    for mono, c in eq.terms.items():
        if len(mono) != 1:
            continue
        (v, e) = mono[0]
        if eq.degree_in(v) != e:
            continue  # not a true lead in v
        rest = Polynomial(field, {m: cc for m, cc in eq.terms.items() if m != mono})
        if any(v in mono_vars(m) for m in rest.terms):
            continue
        rhs = rest.scale(field.neg(field.inv(c)))
        candidates.append(((0 if e == 1 else 1, [-k for k in var_key(v)]), v, e, rhs))
    if not candidates:
        return None
    candidates.sort(key=lambda t: t[0])
    _, v, e, rhs = candidates[0]
    rule = RewriteRule(v, e, eq)
    rule.__dict__["rhs"] = rhs  # the search's own right-hand side, not the lazily built one
    return rule


def assert_same_rule(eq):
    got, want = strata._lead_rule(eq), reference_lead_rule(eq)
    if want is None:
        assert got is None, eq
    else:
        assert got is not None, eq
        assert (got.v, got.power, got.rhs) == (want.v, want.power, want.rhs), eq
        assert got.rhs.field == eq.field


LEAD_VARS = [var("x", 1), var("x", 2), var("y", 1), var("z", 0), var("z", 3)]
LEAD_FIELDS = [QQ, Field(2), Field(5), Field(3, i_adjoined=True)]


@st.composite
def lead_equations(draw):
    """Sums of pure powers and of products over a few shared variables."""
    field = draw(st.sampled_from(LEAD_FIELDS))
    v = st.sampled_from(LEAD_VARS)
    power = st.tuples(v, st.integers(1, 3)).map(lambda ve: [ve])
    product = st.lists(st.tuples(v, st.integers(1, 2)), min_size=0, max_size=3)
    terms = draw(st.lists(st.one_of(power, power, product), min_size=1, max_size=5))
    eq = Polynomial.zero(field)
    for factors in terms:
        t = Polynomial.const(field, draw(st.integers(-4, 4).filter(bool)))
        for w, e in factors:
            t = t * Polynomial.variable(field, w, e)
        eq = eq + t
    return eq


@settings(max_examples=300, deadline=None)
@given(eq=lead_equations())
def test_lead_rule_matches_reference(eq):
    assert_same_rule(eq)


def test_lead_rule_matches_reference_on_the_e8_graph(monkeypatch):
    """Every equation whose rule the E8 (char 0) graph to level 12 asks for.

    The equations are recorded where rules are asked for,
    ``rewrite_rules_for``, ahead of the tower's rule memo: the search itself
    runs only on a memo miss.  The graph's tower shares one rule set per
    (zero_vars, equations), and its memos start empty, so each distinct set
    reaches ``rewrite_rules_for`` once.  Every rule the tower kept is the
    one the search gives."""
    seen = []
    rules_for = strata.rewrite_rules_for

    def recording(equations, memo=None):
        seen.extend(equations)
        return rules_for(equations, memo)

    monkeypatch.setattr(strata, "rewrite_rules_for", recording)
    pr = preset("E8", char=0)
    sys = JetSystem(pr.equation)
    build_graph(sys, pr.covers, 12)
    monkeypatch.undo()
    equations = list(dict.fromkeys(seen))
    assert len(equations) >= 10
    # both outcomes occur: some equations have a lead, some have none
    assert {reference_lead_rule(eq) is None for eq in equations} == {True, False}
    for eq in equations:
        assert_same_rule(eq)
    assert sys.lead_rules.keys() == set(equations)
    for eq, rule in sys.lead_rules.items():
        assert rule == strata._lead_rule(eq), eq


def uncached_rules(equations):
    """``rewrite_rules_for`` without a rule memo."""
    return tuple(r for eq in equations if (r := strata._lead_rule(eq)) is not None)


def reference_rewrite(p: Polynomial, rules) -> Polynomial:
    """The rewrite loop before the lead-occurrence skip, kept as the
    reference of ``strata.rewrite``: every rule splits ``p`` on every pass."""
    if not rules:
        return p
    changed = True
    guard = 0
    while changed:
        changed = False
        guard += 1
        if guard > 1000:
            raise EngineError("rewriting did not terminate")
        for rule in rules:
            parts = p.split_by_degree(rule.v)
            if all(d < rule.power for d in parts):
                continue
            field = p.field
            acc = Polynomial.zero(field)
            for d, coeff in parts.items():
                q, r = divmod(d, rule.power)
                term = coeff
                if q:
                    term = term * (rule.rhs ** q)
                    changed = True
                if r:
                    term = term * Polynomial.monomial(field, ((rule.v, r),))
                acc = acc + term
            p = acc
    return p


def drop_terms_in(p: Polynomial, zero_vars) -> Polynomial:
    """``reduce_mod_vars`` as a plain term filter, with no support read and
    a new polynomial every time."""
    return Polynomial(
        p.field, {m: c for m, c in p.terms.items() if all(v not in zero_vars for v, _ in m)}
    )


REWRITE_VARS = [var("x", 1), var("y", 1), var("z", 1), var("x", 2), var("z", 3)]


@st.composite
def rewrite_cases(draw):
    """A polynomial and a terminating rule list in the variables above.

    A rule's right-hand side uses only variables after its lead in a random
    order, so every rewrite step trades a lead for later variables and the
    loop ends.  Two rules may share a lead with different powers: then the
    result depends on which rule applies first, as in the reference."""
    field = draw(st.sampled_from(LEAD_FIELDS))
    order = draw(st.permutations(REWRITE_VARS))
    coeff = st.integers(-3, 3).filter(bool)

    def poly(variables, max_terms):
        out = Polynomial.zero(field)
        for _ in range(draw(st.integers(0, max_terms))):
            t = Polynomial.const(field, draw(coeff))
            for w in draw(st.lists(st.sampled_from(variables), max_size=3)):
                t = t * Polynomial.variable(field, w)
            out = out + t
        return out

    rules = []
    for k in draw(st.lists(st.integers(0, 2), max_size=4)):
        power = draw(st.integers(1, 3))
        lead = Polynomial.variable(field, order[k], power)
        rules.append(RewriteRule(order[k], power, lead - poly(order[k + 1:], 2)))
    return poly(REWRITE_VARS, 5), rules


# z1 -> x1^3 makes the lead of the third rule within a pass, and the third
# rule must apply (giving z3) before the first gets another turn (x1*y1)
@example(
    case=(
        P("z1"),
        [
            RewriteRule(var("x", 1), 2, P("x1^2 - y1")),
            RewriteRule(var("z", 1), 1, P("z1 - x1^3")),
            RewriteRule(var("x", 1), 3, P("x1^3 - z3")),
        ],
    )
)
@settings(max_examples=300, deadline=None)
@given(case=rewrite_cases())
def test_rewrite_matches_reference_loop(case):
    p, rules = case
    assert rewrite(p, rules) == reference_rewrite(p, rules)


def test_rewrite_skips_absent_leads(monkeypatch):
    # a lead below its power is never split on; one that occurs is
    rules = rewrite_rules_for((P("z1^2 + x1^3"), P("y2 - x1*y1")))
    calls = []
    split_by_degree = Polynomial.split_by_degree

    def counting(self, v):
        calls.append(v)
        return split_by_degree(self, v)

    monkeypatch.setattr(Polynomial, "split_by_degree", counting)
    assert rewrite(P("z1 + x1"), rules) == P("z1 + x1")
    assert calls == []
    assert rewrite(P("z1^2 + y2"), rules) == P("-x1^3 + x1*y1")
    assert calls == [var("z", 1), var("y", 2)]


@pytest.mark.parametrize(
    "pr", list(preset_grid()), ids=lambda pr: pr.label.replace(" ", "")
)
def test_memo_and_rule_cache_match_uncached_routes(pr):
    """On every node stratum of a driver run: the tower memo gives what
    ``simplify`` gives, and the cached rules are the uncached ones and the
    reference search's."""
    sys = JetSystem(pr.equation)
    tree = run_driver(sys, pr.covers, pr.max_level)
    for node in tree.nodes:
        s = node.stratum
        reduced_eqs = tuple(e.reduce_mod_vars(s.zero_vars) for e in s.equations)
        assert strata.reduction_of(sys, s).rules == uncached_rules(reduced_eqs), (pr.label, node.nid)
        for eq in reduced_eqs:
            assert_same_rule(eq)
        for m in range(pr.max_level + 1):
            assert strata.reduced(sys, s, m) == s.simplify(sys, sys.derivative(m)), (pr.label, node.nid, m)


def test_reduced_is_computed_once_per_stratum_and_level():
    sys = JetSystem(P("z^2 + x*y"))
    s = Stratum(zero_vars=frozenset({var("x", 0), var("y", 0), var("z", 0)}))
    r = strata.reduced(sys, s, 2)
    assert r == P("z1^2 + x1*y1")
    # a stratum with the same zeros and equations shares the entry: units,
    # rules and the consumed level do not enter simplify
    twin = s.replace(units=(P("x1"),), consumed=2)
    assert strata.reduced(sys, twin, 2) is r
    # the level lives on the reduction both strata share
    assert strata.reduction_of(sys, twin).levels == {2: r}
    # other equations are another entry
    other = add_equation(s, P("z1 - x1"), 2)
    assert strata.reduced(sys, other, 2) == P("x1^2 + x1*y1")


def test_stratum_simplify_combines_zeros_and_rules():
    s = Stratum(
        zero_vars=frozenset({var("x", 0)}),
        equations=(P("z2 - y1^2"),),
    )
    assert s.simplify(JetSystem(P("z^2 + x*y")), P("x0*y3 + z2*y1")) == P("y1^3")


@pytest.mark.parametrize(
    "kind,n,char,variant",
    [
        ("A", 2, 3, ""),
        ("D", 2, 2, ""),
        ("E6", 0, 0, ""),
        ("E8", 0, 0, ""),
        ("E8", 0, 2, "x*y*z"),
    ],
    ids=["A2-char3", "D4-char2", "E6-char0-i", "E8-char0", "E8-char2-xyz"],
)
def test_simplify_matches_uncached_reference(kind, n, char, variant):
    # differential check of the cached rule set: on every stratum of a
    # driver run, each unconsumed level reduces exactly as with rules
    # rebuilt from the raw equations on every call
    pr = preset(kind, n=n, char=char, variant=variant)
    sys = pr.system
    tree = run_driver(sys, pr.covers, pr.max_level)
    checked = 0
    for node in tree.nodes:
        s = node.stratum
        for m in range(s.consumed + 1, pr.max_level + 1):
            f_m = sys.derivative(m)
            want = rewrite(f_m.reduce_mod_vars(s.zero_vars), rewrite_rules_for(s.equations))
            assert s.simplify(sys, f_m) == want, (node.nid, m)
            checked += 1
    assert checked


def test_simplify_cache_follows_replace():
    sys = JetSystem(P("z^2 + x*y"))
    s = Stratum(zero_vars=frozenset({var("x", 0)}), equations=(P("z2 - y1^2"),))
    assert s.simplify(sys, P("z3 + z2")) == P("z3 + y1^2")  # fills the tower's memo
    s2 = s.replace(equations=s.equations + (P("z3 - x1*y1"),))
    assert s2.simplify(sys, P("z3 + z2")) == P("x1*y1 + y1^2")
    assert s.simplify(sys, P("z3 + z2")) == P("z3 + y1^2")


def memo_keys():
    """One record of each class that keys a memo dict, with the tuple of its
    fields in declaration order."""
    x0, x1 = var("x", 0), var("x", 1)
    rule = EliminationRule("y", 1, 2, P("x1"))
    return [
        (Field(3, True), (3, True)),
        (RewriteRule(x1, 2, P("x1^2 - y1^2")), (x1, 2, P("x1^2 - y1^2"))),
        (rule, ("y", 1, 2, P("x1"))),
        (
            Stratum(frozenset({x0}), (P("z2 - y1^2"),), (P("x1"),), rule, 2),
            (frozenset({x0}), (P("z2 - y1^2"),), (P("x1"),), rule, 2),
        ),
    ]


@pytest.mark.parametrize(
    "key, fields", memo_keys(), ids=["Field", "RewriteRule", "EliminationRule", "Stratum"]
)
def test_memo_keys_hash_as_their_fields_but_never_equal_them(key, fields):
    # a memo dict holds records beside plain tuples (the tower's reduction
    # and derivative keys): a record must never collide with its own fields
    assert hash(key) == hash(fields)
    assert key != fields and fields != key
    assert key.__eq__(fields) is NotImplemented
    assert len({key: "record", fields: "tuple"}) == 2
    twin = type(key)(*fields)
    assert twin == key and hash(twin) == hash(key) and twin is not key
    copy = pickle.loads(pickle.dumps(key))
    assert copy == key and hash(copy) == hash(key)


def test_replace_builds_a_fresh_stratum_and_leaves_the_old_one():
    s = Stratum(frozenset({var("x", 0)}), (P("z2 - y1^2"),), (P("x1"),), None, 1)
    changed = s.replace(units=(), consumed=3)
    assert changed == Stratum(s.zero_vars, s.equations, (), None, 3)
    assert s == Stratum(frozenset({var("x", 0)}), (P("z2 - y1^2"),), (P("x1"),), None, 1)
    assert s.replace() == s and s.replace() is not s
    with pytest.raises(TypeError):
        s.replace(zero_monomials=())


def test_strata_share_a_reduction_through_their_memo():
    sys = JetSystem(P("z^2 + x*y"))
    s = Stratum(zero_vars=frozenset({var("x", 0)}), equations=(P("z2 - y1^2"),))
    twin = s.replace(units=(P("x1"),), consumed=2)
    other = add_equation(s, P("z3 - x1"), 3)
    red = strata.reduction_of(sys, s)
    assert strata.reduction_of(sys, twin) is red
    assert strata.reduction_of(sys, other) is not red
    assert len(sys.reductions) == 2
    assert other.simplify(sys, P("z3 + z2")) == P("x1 + y1^2")
    # another tower builds its own
    assert strata.reduction_of(JetSystem(P("z^2 + x*y")), s) is not red


def recorded_reductions(monkeypatch, build) -> tuple[int, list]:
    """Run ``build``; the number of reductions ``reduction_of`` handed to a
    stratum, and each distinct (zero_vars, equations, reduction) among them."""
    calls = 0
    seen = {}
    real = strata.reduction_of

    def recording(sys, s):
        nonlocal calls
        calls += 1
        red = real(sys, s)
        seen.setdefault((s.zero_vars, s.equations, id(red)), (s.zero_vars, s.equations, red))
        return red

    monkeypatch.setattr(strata, "reduction_of", recording)
    build()
    monkeypatch.undo()
    return calls, list(seen.values())


def reduction_mismatches(seen) -> list:
    """The recorded reductions whose rules, or one of whose kept verdicts,
    differ from the uncached route on the asking stratum's zero_vars and
    equations."""
    bad = []
    for zero_vars, equations, red in seen:
        rules = uncached_rules(tuple(e.reduce_mod_vars(zero_vars) for e in equations))
        if red.rules != rules:
            bad.append((zero_vars, equations))
            continue
        for e, verdict in red._vanishes.items():
            if verdict != (e in equations or not rewrite(e.reduce_mod_vars(zero_vars), rules)):
                bad.append((zero_vars, equations, e))
    return bad


def build_e8_graph_to_12():
    pr = preset("E8", char=0)
    build_graph(pr.system, pr.covers, 12)


def test_shared_reductions_match_the_uncached_route(monkeypatch):
    """Every reduction that the E8 (char 0) graph to level 12 and the
    level-6 graphs of all 69 presets share, each graph through its own
    tower: its rules are the uncached rules (``_lead_rule``) of the asking
    stratum, and each verdict it kept is the uncached one."""

    def build():
        build_e8_graph_to_12()
        for pr in preset_grid():
            build_graph(pr.system, pr.covers, 6)

    calls, seen = recorded_reductions(monkeypatch, build)
    # 5,579 lookups of 1,010 distinct reductions, each graph's tower
    # building its own
    assert calls > 3 * len(seen) > 1000
    assert sum(len(red._vanishes) for _, _, red in seen) > 500  # verdicts kept
    assert reduction_mismatches(seen) == []


def test_the_e8_graph_builds_one_rule_set_per_reduction_key(monkeypatch):
    """The E8 (char 0) graph to level 35 builds the rules of each distinct
    (zero_vars, equations) whose rules are read exactly once, however many
    strata of its 35 driver runs and truncations ask: at most 182 rule sets
    (the runs share their charts through the tower's move memo).  A key
    whose rules are never read builds none: the level-30 residual, whose
    containment in a chart is settled by its equations and zero set."""
    builds = 0
    rules_for = strata.rewrite_rules_for

    def counting(equations, memo=None):
        nonlocal builds
        builds += 1
        return rules_for(equations, memo)

    monkeypatch.setattr(strata, "rewrite_rules_for", counting)
    pr = preset("E8", char=0)
    calls, seen = recorded_reductions(monkeypatch, lambda: build_graph(pr.system, pr.covers, 35))
    read = [(zero_vars, equations) for zero_vars, equations, red in seen if red._rules is not None]
    assert builds == len(read) == len(set(read)) <= 182
    assert calls > 2 * len(seen)


def reference_closure_contains(b: Stratum, a: Stratum, field: Field) -> bool:
    """``closure_contains`` with an uncached reduction through the
    reference rewrite and a plain term filter, and its equation membership
    a scan of the tuple: it shares no fast path of ``Polynomial`` or
    ``strata.rewrite``."""
    rules = uncached_rules(tuple(drop_terms_in(e, a.zero_vars) for e in a.equations))

    def vanishes(p):
        return not reference_rewrite(drop_terms_in(p, a.zero_vars), rules)

    return (
        all(v in a.zero_vars or vanishes(Polynomial.monomial(field, ((v, 1),))) for v in b.zero_vars)
        and all(any(e == f for f in a.equations) or vanishes(e) for e in b.equations)
    )


def test_closure_contains_matches_the_reference_on_every_graph_pair(monkeypatch):
    """Every containment that the E8 (char 0) graph to level 35 and the
    level-6 graphs of all 69 presets ask, the driver's residual absorption
    included, gets the reference verdict."""
    asked = []

    def recording(sys, b, a):
        verdict = strata.closure_contains(sys, b, a)
        asked.append((b, a, sys.field, verdict))
        return verdict

    monkeypatch.setattr(jetgraph, "closure_contains", recording)
    monkeypatch.setattr(driver, "closure_contains", recording)
    pr = preset("E8", char=0)
    build_graph(pr.system, pr.covers, 35)
    for pr in preset_grid():
        build_graph(pr.system, pr.covers, 6)
    monkeypatch.undo()
    assert len(asked) > 5000 and {v for *_, v in asked} == {True, False}
    assert [
        (b, a) for b, a, field, verdict in dict.fromkeys(asked)
        if verdict != reference_closure_contains(b, a, field)
    ] == []


# the component that absorbs the level-30 residual of E8's product cover
# (z15, x10), per preset: K8, as when x10*z15 = 0 was a separate constraint
E8_RESIDUAL_ABSORBER = {
    "E8(char 0)": 7,
    "E8(char 2)": 7,
    "E8(char 2+x*y^3*z)": 7,
    "E8(char 2+x*y^2*z)": 7,
    "E8(char 2+y^3*z)": 7,
    "E8(char 2+x*y*z)": 7,
    "E8(char 3)": 7,
    "E8(char 3+x^2*y^3)": 7,
    "E8(char 3+x^2*y^2)": 7,
    "E8(char 5)": 7,
    "E8(char 5+x*y^4)": 7,
    "E8(char 7)": 7,
}


@pytest.mark.parametrize(
    "pr", [pr for pr in preset_grid() if pr.kind == "E8"], ids=lambda pr: pr.label
)
def test_the_product_cover_residual_holds_its_monomial_as_an_equation(pr):
    """Off E8's one product chart the product of its coordinates vanishes:
    the level-30 residual holds x10*z15 among its equations, the same
    component absorbs it, and every (chart, residual) containment gets the
    reference verdict."""
    tree = components(pr)
    [res] = [node for node in tree.residuals() if node.level == 30]
    assert P("x10*z15", pr.system.field) in res.stratum.equations
    assert res.absorbed_into == E8_RESIDUAL_ABSORBER[pr.label]
    for chart in (n for n in tree.nodes if n.kind == "chart"):
        for node in tree.residuals():
            assert strata.closure_contains(
                pr.system, chart.stratum, node.stratum
            ) == reference_closure_contains(chart.stratum, node.stratum, pr.system.field)


def test_a_memo_keyed_by_the_zero_set_alone_fails_the_differential_test(monkeypatch):
    """Control: a memo that leaves the equations out of its key hands a
    stratum another stratum's rules, and the differential test sees it."""

    by_zeros = {}

    def by_zero_set(sys, s):
        if s.zero_vars not in by_zeros:
            by_zeros[s.zero_vars] = strata.Reduction(
                s, sys.lead_rules, sys.killed_by.setdefault(s.zero_vars, set())
            )
        return by_zeros[s.zero_vars]

    monkeypatch.setattr(strata, "reduction_of", by_zero_set)
    _, seen = recorded_reductions(monkeypatch, build_e8_graph_to_12)
    assert reduction_mismatches(seen)


def test_verdicts_kept_across_reductions_fail_the_differential_test(monkeypatch):
    """Control: a verdict remembered by the polynomial alone, across
    reductions, is wrong for some stratum, and the differential test sees
    it."""
    verdicts = {}

    def by_polynomial(self, e):
        if e not in verdicts:
            verdicts[e] = e in self.equations or not self(e)
        self._vanishes[e] = verdicts[e]
        return verdicts[e]

    monkeypatch.setattr(strata.Reduction, "vanishes", by_polynomial)
    _, seen = recorded_reductions(monkeypatch, build_e8_graph_to_12)
    assert reduction_mismatches(seen)


def kept_work_mismatches(towers) -> list:
    """What the towers kept that the reference routes do not confirm: a
    polynomial in a zero set's kills (``JetSystem.killed_by``) that a plain
    term filter leaves nonzero there, or a built right-hand side that is
    not the reference search's."""
    bad = []
    for sys in towers:
        for zero_vars, killed in sys.killed_by.items():
            bad.extend((zero_vars, e) for e in killed if drop_terms_in(e, zero_vars))
        for eq, rule in sys.lead_rules.items():
            if rule is not None and "rhs" in rule.__dict__:
                if rule.rhs != reference_lead_rule(eq).rhs:
                    bad.append(eq)
    return bad


def graph_towers(tower=JetSystem) -> list:
    """The towers of the E8 (char 0) graph to level 35 and of the level-6
    graphs of all 69 presets, each graph built on a fresh
    ``tower(equation)``."""
    graphs = [(preset("E8", char=0), 35)] + [(pr, 6) for pr in preset_grid()]
    towers = []
    for pr, level in graphs:
        towers.append(tower(pr.equation))
        build_graph(towers[-1], pr.covers, level)
    return towers


def test_kills_and_built_right_hand_sides_match_the_reference_routes():
    """Every kill and every built right-hand side that the E8 (char 0)
    graph to level 35 and the level-6 graphs of all 69 presets keep on
    their towers is the reference routes' (``drop_terms_in``,
    ``reference_lead_rule``)."""
    towers = graph_towers()
    kills = sum(len(killed) for sys in towers for killed in sys.killed_by.values())
    rules = [r for sys in towers for r in sys.lead_rules.values() if r is not None]
    # 502 kills, and 53 of the 300 rules built their right-hand side
    assert kills > 400 and 0 < sum("rhs" in r.__dict__ for r in rules) < len(rules)
    assert kept_work_mismatches(towers) == []


class OneKillSet(dict):
    """A tower's ``killed_by`` that hands every zero set one shared set: a
    memo of kills keyed by the polynomial alone."""

    def __init__(self):
        super().__init__()
        self.shared = set()

    def setdefault(self, zero_vars, default=None):
        return super().setdefault(zero_vars, self.shared)


def test_kills_keyed_by_the_polynomial_alone_fail_the_reference_check():
    """Control: a polynomial one zero set kills is taken as killed by
    every zero set, and the reference check sees it."""

    def tower(f):
        sys = JetSystem(f)
        sys.killed_by = OneKillSet()
        return sys

    assert kept_work_mismatches(graph_towers(tower))


def test_nonzero_remainders_kept_as_kills_fail_the_reference_check(monkeypatch):
    """Control: a memo that records every polynomial it decides as killed
    by the zero set, whatever its remainder, and the reference check sees
    it."""
    vanishes = strata.Reduction.vanishes

    def every_remainder_a_kill(self, e):
        verdict = vanishes(self, e)
        self._killed.add(e)
        return verdict

    monkeypatch.setattr(strata.Reduction, "vanishes", every_remainder_a_kill)
    assert kept_work_mismatches(graph_towers())


def test_only_the_rules_that_fire_build_their_right_hand_sides(monkeypatch):
    """After the E8 (char 0) graph to level 35 the rules whose right-hand
    side was built are exactly those ``rewrite`` applied: 12 of the 80 the
    tower found.  A rule fires where ``rewrite`` splits the polynomial on
    its lead variable with the lead's power reached (no rule set of the
    graph has two rules on one variable, which makes that exact)."""
    fired, asking = set(), []
    rewrite, split_by_degree = strata.rewrite, Polynomial.split_by_degree

    def recording_rewrite(p, rules):
        assert len({r.v for r in rules}) == len(rules)
        asking.append(rules)
        try:
            return rewrite(p, rules)
        finally:
            asking.pop()

    def recording_split(self, v):
        if asking:
            fired.update(r for r in asking[-1] if r.v == v and self.degree_in(v) >= r.power)
        return split_by_degree(self, v)

    monkeypatch.setattr(strata, "rewrite", recording_rewrite)
    monkeypatch.setattr(Polynomial, "split_by_degree", recording_split)
    pr = preset("E8", char=0)
    sys = JetSystem(pr.equation)
    build_graph(sys, pr.covers, 35)
    monkeypatch.undo()
    rules = [r for r in sys.lead_rules.values() if r is not None]
    built = {r for r in rules if "rhs" in r.__dict__}
    assert built == fired
    assert 0 < len(built) <= 12 and len(rules) == 80


# -- unit inference ---------------------------------------------------------


def test_unit_vars_closure():
    s = Stratum(
        zero_vars=frozenset(),
        equations=(P("z1 - 2*x1"), P("y2 - 3*z1^2")),
        units=(P("x1"),),
    )
    # x1 declared; z1 = 2*x1 is then a unit; y2 = 3*z1^2 makes y2 one too
    assert s.unit_vars() == frozenset({var("x", 1), var("z", 1), var("y", 2)})
    # a two-variable lead monomial does not license inference
    s2 = Stratum(zero_vars=frozenset(), equations=(P("y2*x1 - z1^3"),), units=(P("x1"), P("z1")))
    assert var("y", 2) not in s2.unit_vars()
    assert s.is_unit_monomial(P("3*x1*z1^2"))
    assert not s.is_unit_monomial(P("x1 + z1"))
    assert not s.is_unit_monomial(P("x2"))


def test_split_and_force_vanish():
    s = root_stratum()
    op, cl = split(JetSystem(P("z^2 + x*y")), s, var("x", 1))
    assert P("x1") in op.units
    assert var("x", 1) in cl.zero_vars
    s2 = force_vanish(s, var("z", 1), 2)
    assert var("z", 1) in s2.zero_vars and s2.consumed == 2


# -- elimination on the quadric cone ----------------------------------------


def quadric_chart():
    sys = JetSystem(P("z^2 + x*y"))
    s = root_stratum()
    found = next_nontrivial(sys, s, 10)
    assert found is not None
    n, r = found
    assert n == 2 and r == P("z1^2 + x1*y1")
    op, _ = split(sys, s, var("x", 1))
    pivot = find_pivot(sys, op, r)
    assert pivot is not None
    assert pivot.v == var("y", 1) and pivot.coeff == P("x1")
    return sys, eliminate_tail(sys, op, n, r, pivot)


def test_eliminate_tail_builds_rule():
    sys, chart = quadric_chart()
    rule = chart.rule
    # linear pivot: the rule applies from the discovery level itself
    assert (rule.family, rule.offset, rule.start_level) == ("y", 1, 2)
    w, c, num = rule_instance(sys, chart, rule, 4)
    assert w == var("y", 3) and c == P("x1")
    assert num == P("-x2*y2 - x3*y1 - 2*z1*z3 - z2^2")


def test_generic_point_and_soundness():
    # y1 = -z1^2/x1 from level 2, y2 = -(2*z1*z2 + x2*y1)/x1 from level 3:
    # each value is N / x1^k over the chart's one coefficient x1
    sys, chart = quadric_chart()
    point = generic_point(sys, chart, 8)
    assert sorted(point) == [var("y", k) for k in range(1, 9)]
    assert point[var("y", 1)] == (P("-z1^2"), 1)
    assert point[var("y", 2)] == (P("-2*x1*z1*z2 + x2*z1^2"), 2)
    assert all(k == o for (_, o), (_, k) in point.items())
    assert check_elimination_soundness(sys, chart, 10) == []


def test_quadratic_pivot_keeps_equation():
    # a quadratic pivot keeps the discovery-level equation and starts the
    # rule one level later, with the partial as stable coefficient
    sys = JetSystem(P("z^2 + x*y"))
    s = root_stratum()
    n, r = next_nontrivial(sys, s, 10)
    op, _ = split(sys, s, var("z", 1))
    pivot = find_pivot(sys, op, r)
    assert pivot is not None and pivot.v == var("z", 1)
    chart = eliminate_tail(sys, op, n, r, pivot)
    assert r in chart.equations
    rule = chart.rule
    assert (rule.family, rule.offset, rule.start_level) == ("z", 1, 3)
    assert rule.coeff == P("2*z1")
    assert check_elimination_soundness(sys, chart, 10) == []


def test_a_rule_on_a_nonlinear_coordinate_raises_an_engine_error():
    # the quadratic z1 pivot asked one level up: the rule then solves z2 at
    # level 4, where z2 occurs squared, and the error names both
    sys = JetSystem(P("z^2 + x*y"))
    s = root_stratum().replace(units=(P("x1"),), consumed=1)
    q = P("x1*y1 + z1^2")
    pivot = PivotChoice(var("z", 1), q.partial(var("z", 1)), None)
    assert eliminate_tail(sys, s, 2, q, pivot).rule
    with pytest.raises(EngineError, match=r"level 4 .*\bz2\b"):
        eliminate_tail(sys, s, 3, q, pivot)


def test_soundness_flags_wrong_rule():
    # negative control: a rule solving the wrong coordinate offset does not
    # kill the tower, and every checked level is reported bad
    sys, chart = quadric_chart()
    wrong = chart.replace(rule=EliminationRule(chart.rule.family, 2, 3, chart.rule.coeff))
    assert check_elimination_soundness(sys, wrong, 8) == [3, 4, 5, 6, 7, 8]
    # and the rational-expression route flags the same levels
    assert reference_soundness(sys, wrong, 8) == [3, 4, 5, 6, 7, 8]


def test_a_chart_holds_one_rule():
    # eliminating again on a chart is refused: a chart holds one rule
    sys, chart = quadric_chart()
    n, r = next_nontrivial(sys, chart, 10)
    pivot = find_pivot(sys, chart, r)
    assert pivot is not None
    with pytest.raises(EngineError, match="already a chart"):
        eliminate_tail(sys, chart, n, r, pivot)


@pytest.mark.parametrize(
    "pr", list(preset_grid(a_ranks=(), d_halves=(2,), exceptional=())), ids=lambda pr: pr.label
)
def test_every_d4_chart_is_sound_one_level_past_its_start(pr):
    """Every chart of each D4 preset passes the soundness check at
    ``start_level + 1``; the rational-expression route did not finish the
    first deep D4 (char 0) chart in two minutes."""
    charts = [n for n in components(pr).nodes if n.kind == "chart"]
    assert len(charts) == 5
    for node in charts:
        chart = node.stratum
        assert check_elimination_soundness(pr.system, chart, chart.rule.start_level + 1) == []


# -- the rational-expression route, kept as the reference ---------------------


class RationalExpression:
    """``num / den`` with ``den`` a product of units, never cancelled: the
    generic point's values before they were written N / c^k."""

    def __init__(self, num: Polynomial, den: Optional[Polynomial] = None):
        self.num = num
        self.den = Polynomial.const(num.field, 1) if den is None else den

    def __add__(self, other):
        if self.den == other.den:
            return RationalExpression(self.num + other.num, self.den)
        return RationalExpression(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return RationalExpression(self.num * other.num, self.den * other.den)

    def __pow__(self, n: int):
        return RationalExpression(self.num ** n, self.den ** n)

    def map_polys(self, fn):
        return RationalExpression(fn(self.num), fn(self.den))


def evaluate_rational(p: Polynomial, assign, norm) -> RationalExpression:
    """``p`` with some variables assigned rational values."""
    field = p.field
    total = RationalExpression(Polynomial.zero(field))
    for mono, c in p.terms.items():
        plain = Polynomial.const(field, c)
        term = None
        for v, e in mono:
            if v in assign:
                factor = assign[v] ** e
                term = factor if term is None else term * factor
            else:
                plain = plain * Polynomial.variable(field, v, e)
        term = RationalExpression(plain) if term is None else term * RationalExpression(plain)
        total = (total + term).map_polys(norm)
    return total


def reference_soundness(sys: JetSystem, chart: Stratum, up_to: int) -> list[int]:
    """``check_elimination_soundness`` on the rational-expression route:
    each level divides by its own reduced coefficient."""
    rule = chart.rule
    point: dict = {}
    red = strata.reduction_of(sys, chart)
    for m in range(rule.start_level, rule.offset + up_to + 1):
        w, c_m, num = rule_instance(sys, chart, rule, m)
        val = evaluate_rational(num, point, red) * RationalExpression(
            Polynomial.const(sys.field, 1), red(c_m)
        )
        point[w] = val.map_polys(red)
    return [
        m
        for m in range(rule.start_level, up_to + 1)
        if red(evaluate_rational(strata.reduced(sys, chart, m), point, red).num)
    ]


def a_series_charts():
    """Every chart of A1-A6 in every characteristic, to ``start_level + 2``."""
    for pr in preset_grid(d_halves=(), exceptional=()):
        for node in components(pr).nodes:
            if node.kind == "chart":
                yield pr.system, node.stratum, node.stratum.rule.start_level + 2


def driver_test_charts():
    """The charts and levels the soundness checks of ``test_driver`` and of
    this file's quadric tests read."""
    for text, covers, max_level, up_to in (
        ("z^2 + x*y", {}, 10, 10),
        ("z^2 + x^3 + y^5", {}, 20, 12),
        ("z^2 - y^4", {2: ((var("y", 1),),)}, 10, 10),
    ):
        sys = JetSystem(P(text))
        for node in run_driver(sys, covers, max_level=max_level).nodes:
            if node.kind == "chart":
                yield sys, node.stratum, up_to
    sys, chart = quadric_chart()
    yield sys, chart, 10
    op, _ = split(sys, root_stratum(), var("z", 1))
    r = P("z1^2 + x1*y1")
    yield sys, eliminate_tail(sys, op, 2, r, find_pivot(sys, op, r)), 10


def offset_shifted_a_series_charts():
    """Control: each A-series chart with its rule's offset moved by one,
    which solves the wrong coordinate."""
    for sys, chart, up_to in a_series_charts():
        r = chart.rule
        for step in (-1, 1):
            if r.offset + step >= 1:
                wrong = EliminationRule(r.family, r.offset + step, r.start_level, r.coeff)
                yield sys, chart.replace(rule=wrong), up_to


@pytest.mark.parametrize(
    "cases, sound",
    [(a_series_charts, True), (driver_test_charts, True), (offset_shifted_a_series_charts, False)],
    ids=["a-series", "driver-tests", "offset-shifted"],
)
def test_the_generic_point_flags_the_levels_the_rational_route_flags(cases, sound):
    """N / c^k values and the rational-expression route flag the same
    levels: none on the real charts, some on every shifted one."""
    seen = 0
    for sys, chart, up_to in cases():
        got = check_elimination_soundness(sys, chart, up_to)
        assert got == reference_soundness(sys, chart, up_to), (chart.rule.describe(), up_to)
        assert (got == []) == sound, (chart.rule.describe(), got)
        seen += 1
    assert seen > 10


# -- the levels an elimination check reads ------------------------------------


def six_level_probe(sys, chart, rule):
    """The fixed window the check once read, levels ``start_level`` to
    ``start_level + 5``, kept as the reference."""
    want = chart.simplify(sys, rule.coeff)
    for m in range(rule.start_level, rule.start_level + 6):
        w, c_m, num = rule_instance(sys, chart, rule, m)
        if chart.simplify(sys, c_m) != want:
            raise EngineError(f"unstable elimination coefficient at level {m}")
        if w in num.variables():
            raise EngineError(f"elimination not well-founded at level {m}")


def checked_rules(monkeypatch, build) -> list:
    """Run ``build``: each check ``_verify_rule`` made, as (tower, chart,
    rule, the levels it read, whether it passed)."""
    checks, reading = [], []
    verify, instance = strata._verify_rule, strata.rule_instance

    def read(sys, chart, rule, m):
        reading.append(m)
        return instance(sys, chart, rule, m)

    def recording(sys, chart, rule):
        reading.clear()
        try:
            verify(sys, chart, rule)
        except EngineError:
            checks.append((sys, chart, rule, list(reading), False))
            raise
        checks.append((sys, chart, rule, list(reading), True))

    monkeypatch.setattr(strata, "rule_instance", read)
    monkeypatch.setattr(strata, "_verify_rule", recording)
    build()
    monkeypatch.undo()
    return checks


def grid_runs():
    """Each preset's ``components`` and oracle-plan runs."""
    for pr in preset_grid():
        components(pr)
        for _, m in probe_plan(pr.equation.field).items():
            run_driver(pr.system, pr.covers, max_level=m)


def e8_graph_to_35():
    pr = preset("E8", char=0)
    build_graph(pr.system, pr.covers, 35)


def random_equation_runs():
    """The runs of ``test_driver_partitions_the_fibers_of_random_small_equations``."""
    rng = random.Random(161803)
    for field in (Field(2), Field(3), Field(3, True)):
        for _ in range(120):
            sys = JetSystem(random_base_poly(rng, field))
            for m in (1, 2, 3):
                try:
                    run_driver(sys, {}, max_level=m)
                except (EngineError, PresetError):
                    pass


def probe_outcome(sys, chart, rule) -> bool:
    try:
        six_level_probe(sys, chart, rule)
    except EngineError:
        return False
    return True


@pytest.mark.parametrize("build", [grid_runs, e8_graph_to_35, random_equation_runs])
def test_the_exact_check_agrees_with_the_six_level_probe(monkeypatch, build):
    """Every elimination the runs ask passes the exact check and the old
    six-level probe alike, and reads alike three levels past the last one
    the check read (the chain rule says every deeper level does)."""
    checks = checked_rules(monkeypatch, build)
    assert checks and all(passed for *_, passed in checks)
    for sys, chart, rule, levels, _ in checks:
        assert probe_outcome(sys, chart, rule), rule.describe()
        want = chart.simplify(sys, rule.coeff)
        for m in range(levels[-1] + 1, levels[-1] + 4):
            w, c_m, num = rule_instance(sys, chart, rule, m)
            assert chart.simplify(sys, c_m) == want and w not in num.variables(), (rule.describe(), m)


def test_the_check_reads_the_levels_its_bound_names(monkeypatch):
    """Each check reads exactly ``start_level .. max(start_level, B + 1)``.
    The grid's 420 eliminations read 1,451 levels (the six-level window read
    2,520), and 69 of them read past that window, up to 13 levels: a fixed
    window would miss them.  The E8 (char 0) graph to level 35 reads 13
    levels for its 8 eliminations (48 with the window)."""
    checks = checked_rules(monkeypatch, grid_runs)
    for _, chart, rule, levels, _ in checks:
        orders = [o for _, o in chart.zero_vars] + [o for e in chart.equations for _, o in e.variables()]
        bound = rule.offset + max(rule.offset, *orders)
        assert levels == list(range(rule.start_level, max(rule.start_level, bound + 1) + 1))
    assert (len(checks), sum(len(levels) for *_, levels, _ in checks)) == (420, 1451)
    past = [levels for _, _, rule, levels, _ in checks if levels[-1] > rule.start_level + 5]
    assert len(past) == 69 and max(map(len, past)) == 13
    e8 = checked_rules(monkeypatch, e8_graph_to_35)
    assert (len(e8), sum(len(levels) for *_, levels, _ in e8)) == (8, 13)


def test_a_rule_failing_past_the_six_level_window_raises():
    """With y9 forced to vanish, the quadric chart's rule solving y_{m-1}
    from level 2 fails at level 10 alone, where the solved coordinate is y9.
    The bound there is 1 + max(1, 9) = 10, so the check reads levels 2 to
    11; the six-level window stopped at level 7."""
    sys = JetSystem(P("z^2 + x*y"))
    op, _ = split(sys, root_stratum(), var("x", 1))
    r = P("z1^2 + x1*y1")
    pivot = find_pivot(sys, op, r)
    s = force_vanish(op, var("y", 9), 0)
    with pytest.raises(EngineError, match="at level 10: 0 != x1"):
        eliminate_tail(sys, s, 2, r, pivot)
    assert eliminate_tail(sys, op, 2, r, pivot).rule
    rule = EliminationRule("y", 1, 2, pivot.coeff)
    six_level_probe(sys, s.replace(rule=rule, consumed=2), rule)


def test_a_rule_one_offset_off_fails_the_check(monkeypatch):
    """Control: moving any grid rule's offset by one, up or down, solves the
    wrong coordinate, and the check raises."""
    checks = checked_rules(monkeypatch, grid_runs)
    variants = 0
    for sys, chart, rule, _, _ in checks:
        for step in (-1, 1):
            wrong = EliminationRule(rule.family, rule.offset + step, rule.start_level, rule.coeff)
            broken = chart.replace(rule=wrong)
            with pytest.raises(EngineError):
                strata._verify_rule(sys, broken, wrong)
            variants += 1
    assert variants == 840


# -- forced vanishing and evidence ------------------------------------------


def test_forced_vanishing_on_quadric():
    sys, chart = quadric_chart()
    # on the chart, y1 = -z1^2/x1; restricting z1 to 0 forces y1 to 0
    assert forced_vanishing(sys, chart, {var("z", 1)}, var("y", 1))
    # and transitively y2 (its numerator involves z-terms and y1 only)
    assert forced_vanishing(sys, chart, {var("z", 1), var("z", 2)}, var("y", 2))
    # but z2 is free on this chart: nothing forces it
    assert not forced_vanishing(sys, chart, {var("z", 1)}, var("z", 2))


def test_nonvanishing_evidence():
    sys, chart = quadric_chart()
    assert nonvanishing_evidence(sys, chart, var("x", 1)) == "unit"
    assert nonvanishing_evidence(sys, chart, var("z", 2)) == "free"
    assert nonvanishing_evidence(sys, chart, var("y", 2)) == "eliminated-nonzero"
    broken = force_vanish(chart, var("z", 3), 0)
    assert nonvanishing_evidence(sys, broken, var("z", 3)) is None


def test_add_equation_tracks_consumed():
    s = root_stratum()
    s2 = add_equation(s, P("z2 - y1^2"), 4)
    assert s2.consumed == 4
    assert s2.equations[-1] == P("z2 - y1^2")
