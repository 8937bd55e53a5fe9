"""Locally closed strata of jet/arc fibers and their elimination structure.

A stratum is cut out by coordinate vanishing (``zero_vars``), polynomial
relations (``equations``), invertibility conditions (``units``, arbitrary
polynomials declared nonvanishing) and, on chart leaves, one elimination
rule (``rule``) solving one tail of coordinates level by level.  Every level
divides by the same unit coefficient c, so the chart's generic point gives
each solved coordinate as N / c^k, N a polynomial in the free and unit
coordinates (``generic_point``).

A truncation to jet level ``m`` (``oracle.truncate_stratum``) is a stratum
too, with no rule and ``consumed = m``.  A stratum is a frozen record (a
key of the driver's memo; ``Stratum.replace`` copies it with changes): a
reduction modulo it is a ``Reduction`` that ``reduction_of(sys, s)`` hands
out from the derivative tower ``sys`` (the vanishing coordinates drop out,
then the rewrite rules of the equations apply to a fixpoint).  It reads
only ``(zero_vars, equations)``, so the tower keeps one per such key and
one rule per equation, shared by its driver runs, truncations and graph
and freed with it; ``reduced`` keeps the derivative levels reduced on it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .algebra import (
    Polynomial,
    Record,
    Var,
    format_poly,
    mono_vars,
    var_key,
    var_name,
)
from .hasse import JetSystem


class EngineError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# rewriting modulo stratum equations


class RewriteRule(Record):
    """Replace ``v^power``, the lead of ``equation``, by ``rhs`` (the other
    terms over minus the lead's coefficient), built at the rule's first use."""

    __slots__ = ("v", "power", "equation", "__dict__")

    def __init__(self, v: Var, power: int, equation: Polynomial) -> None:
        self.v = v
        self.power = power
        self.equation = equation

    @cached_property
    def rhs(self) -> Polynomial:
        terms, lead, field = self.equation.terms, ((self.v, self.power),), self.equation.field
        k = field.neg(field.inv(terms[lead]))
        # a product of nonzero field values is nonzero
        return Polynomial._of_terms(field, {m: field.mul(c, k) for m, c in terms.items() if m != lead})


def rewrite_rules_for(
    equations: Sequence[Polynomial], memo: Optional[dict] = None
) -> tuple[RewriteRule, ...]:
    """Extract one rewrite rule per equation when a usable lead term exists.

    Preference: a linear single-variable term with constant coefficient;
    otherwise a pure power ``c*v^d`` with the largest variable.  Equations
    with no such term contribute no rule (they still define the stratum).
    The same reduced equation recurs in every stratum of a chart's descent
    and in every truncation of it, so ``memo`` (a tower's ``lead_rules``)
    keeps each equation's rule; without one, every rule is searched afresh.
    A rule's right-hand side is built when ``rewrite`` first applies it.
    """
    memo = {} if memo is None else memo
    rules = (memo[eq] if eq in memo else memo.setdefault(eq, _lead_rule(eq)) for eq in equations)
    return tuple(rule for rule in rules if rule is not None)


def _lead_rule(eq: Polynomial) -> Optional[RewriteRule]:
    # a lead is a pure power c*v^e whose variable occurs in no other term
    occurrences: dict[Var, int] = {}
    for mono in eq.terms:
        for v, _ in mono:
            occurrences[v] = occurrences.get(v, 0) + 1
    best = None
    for mono in eq.terms:
        if len(mono) == 1 and occurrences[mono[0][0]] == 1:
            (v, e) = mono[0]
            # prefer linear leads, then high variables
            rank = (0 if e == 1 else 1, [-k for k in var_key(v)])
            if best is None or rank < best[0]:
                best = (rank, v, e)
    return None if best is None else RewriteRule(best[1], best[2], eq)


def rewrite(p: Polynomial, rules: Sequence[RewriteRule]) -> Polynomial:
    """Reduce every occurrence of each rule's lead power, to a fixpoint.

    A rule applies only where its lead ``v^power`` occurs: the top exponent
    of every variable is read from the support of ``p`` (kept on it), again
    after each rule that fires, and ``p`` is split by ``v`` only for a rule
    whose lead occurs."""
    if not rules:
        return p
    changed = True
    guard = 0
    while changed:
        changed = False
        guard += 1
        if guard > 1000:
            raise EngineError("rewriting did not terminate")
        top = p.top_exponents()
        for rule in rules:
            if top.get(rule.v, 0) < rule.power:
                continue
            field = p.field
            acc = Polynomial.zero(field)
            for d, coeff in p.split_by_degree(rule.v).items():
                q, r = divmod(d, rule.power)
                term = coeff
                if q:
                    term = term * (rule.rhs ** q)
                    changed = True
                if r:
                    term = term * Polynomial.variable(field, rule.v, r)
                acc = acc + term
            p = acc
            top = p.top_exponents()
    return p


def closure_contains(sys: JetSystem, b: Stratum, a: Stratum) -> bool:
    """Does the closure of ``b`` contain ``a``?

    ``a`` and ``b`` are strata of ``sys``, truncations included.  What the
    test decides is syntactic: whether every closed constraint of ``b``
    (vanishing coordinate, equation) is shown to hold on ``a``, a
    coordinate by vanishing there or reducing to 0, an equation by
    ``Reduction.vanishes`` (one of ``a``'s equations, or rewriting to 0).
    That the closed constraints hold is necessary for containment but not
    sufficient: the closure drops ``b``'s units and can be smaller than
    the zero set of its closed constraints.  And an answer of "not
    contained" rests on where rewriting stops: an equation of ``b`` that
    equals one of ``a``'s modulo ``a``'s zero set holds on ``a``, but it
    does not rewrite to 0 when that equation has no lead rule (E8, char 0,
    level 11: ``tests/test_jetgraph.py`` pins the pair, which is in fact
    not contained).  The level graph and ``driver._absorb_residuals`` read
    these answers as they are.
    """
    red = reduction_of(sys, a)
    return (
        all(v in a.zero_vars or not red(Polynomial.variable(sys.field, v)) for v in b.zero_vars)
        and all(red.vanishes(e) for e in b.equations)
    )


class Reduction:
    """Reduction modulo the vanishing coordinates and the equations of a
    stratum: the coordinates drop out, then, unless nothing is left, the
    rewrite rules of the equations reduced modulo them apply to a fixpoint.
    It reads nothing else of the stratum, so the strata of one tower with
    equal ``(zero_vars, equations)`` share one (``reduction_of``), with the
    tower's ``lead_rules`` and ``killed_by``; ``levels`` is ``reduced``'s memo."""

    __slots__ = (
        "zero_vars", "equations", "levels", "_lead_rules", "_killed", "_rules", "_equation_set",
        "_vanishes",
    )

    def __init__(self, s: Stratum, lead_rules: dict[Polynomial, Optional[RewriteRule]], killed: set):
        self.zero_vars = s.zero_vars
        self.equations = s.equations
        self.levels: dict[int, Polynomial] = {}
        self._lead_rules = lead_rules
        self._killed = killed
        self._rules: Optional[tuple[RewriteRule, ...]] = None
        self._equation_set: Optional[frozenset[Polynomial]] = None
        self._vanishes: dict[Polynomial, bool] = {}

    @property
    def rules(self) -> tuple[RewriteRule, ...]:
        """The rewrite rules of the equations reduced modulo the zero set,
        built on first use."""
        if self._rules is None:
            eqs = tuple(e.reduce_mod_vars(self.zero_vars) for e in self.equations)
            self._rules = rewrite_rules_for(eqs, self._lead_rules)
        return self._rules

    def __call__(self, p: Polynomial) -> Polynomial:
        r = p.reduce_mod_vars(self.zero_vars)
        return rewrite(r, self.rules) if r else r

    def vanishes(self, e: Polynomial) -> bool:
        """Does ``e`` vanish on the strata: is it one of their equations (a
        set built on first use: equal polynomials hash alike), one the zero
        set kills (kept in the tower's ``killed_by``), or does it rewrite to
        zero?  Each ``e`` is decided once, and reduced only on a miss."""
        v = self._vanishes.get(e)
        if v is None:
            if self._equation_set is None:
                self._equation_set = frozenset(self.equations)
            v = e in self._equation_set or e in self._killed
            if not v:
                r = e.reduce_mod_vars(self.zero_vars)
                if not r:
                    self._killed.add(e)
                v = not (r and rewrite(r, self.rules))
            self._vanishes[e] = v
        return v


def reduction_of(sys: JetSystem, s: Stratum) -> Reduction:
    """The reduction modulo ``s``, one per tower and (zero_vars, equations)."""
    key = (s.zero_vars, s.equations)
    red = sys.reductions.get(key)
    if red is None:
        killed = sys.killed_by.setdefault(s.zero_vars, set())
        red = sys.reductions[key] = Reduction(s, sys.lead_rules, killed)
    return red


def reduced(sys: JetSystem, s: Stratum, m: int) -> Polynomial:
    """``s.simplify(sys, sys.derivative(m, s.zero_vars))``, once per level of
    the reduction modulo ``s``, which the strata of repeated driver runs,
    their charts and their truncations share."""
    levels = reduction_of(sys, s).levels
    r = levels.get(m)
    if r is None:
        r = levels[m] = s.simplify(sys, sys.derivative(m, s.zero_vars))
    return r


# ---------------------------------------------------------------------------
# stratum data model


class EliminationRule(Record):
    """Solve the coordinate of order ``m - offset`` (family ``family``) from
    the equation at level ``m``, for every ``m >= start_level``.

    ``coeff`` is the stable unit coefficient of the solved variable; the
    numerator is recomputed per level from the reduced derivative.

    By the chain rule for jet coordinates, ``df_m/dx_k = (df/dx)_{m-k}`` in
    every characteristic, at each ``m > B = offset + max(offset, T)``, ``T``
    the top jet order of the chart's ``zero_vars`` and ``equations``, the
    solved coordinate occurs in ``f_m`` only linearly, lies outside the
    reduction and has the reduced coefficient ``simplify((df/dx)_offset)``:
    ``_verify_rule`` checks levels ``start_level .. max(start_level, B + 1)``.
    Hashed inside its chart's stratum, a memo key.
    """

    __slots__ = ("family", "offset", "start_level", "coeff")

    def __init__(self, family: str, offset: int, start_level: int, coeff: Polynomial) -> None:
        self.family = family
        self.offset = offset
        self.start_level = start_level
        self.coeff = coeff

    def solved_order(self, m: int) -> int:
        return m - self.offset

    def describe(self) -> str:
        return (
            f"{self.family}[m-{self.offset}] = ({format_poly(self.coeff)})^-1 * P_m"
            f"  for m >= {self.start_level}"
        )


class Stratum(Record):
    __slots__ = ("zero_vars", "equations", "units", "rule", "consumed")

    def __init__(
        self, zero_vars: frozenset[Var], equations: tuple[Polynomial, ...] = (),
        units: tuple[Polynomial, ...] = (), rule: Optional[EliminationRule] = None,
        consumed: int = 0,
    ) -> None:
        self.zero_vars = zero_vars
        self.equations = equations
        self.units = units
        self.rule = rule
        self.consumed = consumed

    def replace(self, **changes) -> Stratum:
        """A copy with the named fields changed (an unknown name raises
        ``TypeError``); this stratum stays as it is."""
        return Stratum(**dict(zip(self._fields, self._astuple(self)), **changes))

    # -- derived helpers ----------------------------------------------

    def simplify(self, sys: JetSystem, p: Polynomial) -> Polynomial:
        return reduction_of(sys, self)(p)

    def unit_vars(self) -> frozenset[Var]:
        """Coordinates invertible on the stratum: declared monomial units
        plus those bound to units by a two-term relation."""
        units: set[Var] = set()
        for u in self.units:
            if len(u.terms) == 1:
                units.update(mono_vars(next(iter(u.terms))))
        changed = True
        while changed:
            changed = False
            for eq in self.equations:
                if len(eq.terms) != 2:
                    continue
                monos = list(eq.terms)
                for lead, other in (monos, reversed(monos)):
                    lead_vars = mono_vars(lead)
                    if len(lead_vars) != 1:
                        continue
                    v = lead_vars[0]
                    if v in units:
                        continue
                    if all(w in units for w in mono_vars(other)):
                        units.add(v)
                        changed = True
        return frozenset(units)

    def is_unit_monomial(self, p: Polynomial) -> bool:
        if len(p.terms) != 1:
            return False
        uv = self.unit_vars()
        mono = next(iter(p.terms))
        return all(v in uv for v in mono_vars(mono))

    def describe(self) -> dict:
        return {
            "zero_vars": sorted(var_name(v) for v in self.zero_vars),
            "equations": [format_poly(e) for e in self.equations],
            "units": [format_poly(u) for u in self.units],
            "rules": [] if self.rule is None else [self.rule.describe()],
            # a slot of the report format, always empty: a monomial forced
            # to vanish is an equation
            "zero_monomials": [],
            "consumed": self.consumed,
        }


def root_stratum() -> Stratum:
    return Stratum(zero_vars=frozenset({("x", 0), ("y", 0), ("z", 0)}))


# ---------------------------------------------------------------------------
# stratum-level operations


def next_nontrivial(
    sys: JetSystem, s: Stratum, max_level: int
) -> Optional[tuple[int, Polynomial]]:
    """Smallest unconsumed level whose derivative survives reduction, with
    its simplified reduction.  None if everything vanishes up to max_level."""
    for n in range(s.consumed + 1, max_level + 1):
        r = reduced(sys, s, n)
        if r:
            return n, r
    return None


def split(sys: JetSystem, s: Stratum, v: Var) -> tuple[Stratum, Stratum]:
    """Partition into the open part (v invertible) and closed part (v = 0)."""
    open_part = s.replace(units=s.units + (Polynomial.variable(sys.field, v),))
    closed_part = s.replace(zero_vars=s.zero_vars | {v})
    return open_part, closed_part


def force_vanish(s: Stratum, v: Var, level: int) -> Stratum:
    return s.replace(zero_vars=s.zero_vars | {v}, consumed=max(s.consumed, level))


def add_equation(s: Stratum, q: Polynomial, level: int) -> Stratum:
    return s.replace(equations=s.equations + (q,), consumed=max(s.consumed, level))


# -- elimination ------------------------------------------------------------


class PivotChoice(Record):
    __slots__ = ("v", "coeff", "extra_unit")

    def __init__(self, v: Var, coeff: Polynomial, extra_unit: Optional[Polynomial]) -> None:
        self.v = v
        self.coeff = coeff  # full rewritten partial of q
        self.extra_unit = extra_unit  # non-monomial cofactor declared a unit


def find_pivot(sys: JetSystem, s: Stratum, q: Polynomial) -> Optional[PivotChoice]:
    """Choose a variable of ``q`` whose partial derivative is invertible.

    The stratum is considered with ``q`` already imposed (so unit inference
    sees the new relation).  Monomial-unit coefficients are preferred over
    coefficients of the shape (unit monomial) * (multi-term cofactor), whose
    cofactor the chart then adds to its units.
    """
    probe = s.replace(equations=s.equations + (q,))
    uv = probe.unit_vars()
    red = reduction_of(sys, probe)
    picks: list[PivotChoice] = []
    for v in q.variables():
        c = red(q.partial(v))
        if c.is_zero():
            continue
        content = c.content_monomial()
        if not all(w in uv for w in mono_vars(content)):
            continue
        cof = None if len(c.terms) == 1 else c.divide_monomial(content)
        picks.append(PivotChoice(v, c, cof))
    return max(picks, key=lambda pc: (pc.extra_unit is None, _split_key(pc.v)), default=None)


def _split_key(v: Var) -> tuple[int, int]:
    """Order by jet order, then x before y before z (used to pick split and
    pivot variables deterministically)."""
    fam_rank = {"x": 2, "y": 1, "z": 0}
    return (v[1], fam_rank.get(v[0], -1))


def eliminate_tail(
    sys: JetSystem, s: Stratum, n: int, q: Polynomial, pivot: PivotChoice
) -> Stratum:
    """Turn the stratum into a chart leaf eliminating one coordinate tail.

    The pivot variable has order ``o``; at every level ``m >= start`` the
    reduced equation, linear in the coordinate of order ``m - (n - o)`` with
    a stable unit coefficient (checked as ``EliminationRule`` says), solves it.
    A chart holds one rule: a stratum that already carries one is refused.
    """
    if s.rule is not None:
        raise EngineError(f"the stratum is already a chart: {s.rule.describe()}")
    linear = q.degree_in(pivot.v) == 1
    s2 = s
    if pivot.extra_unit is not None:
        s2 = s2.replace(units=s2.units + (pivot.extra_unit,))
    if not linear:
        s2 = add_equation(s2, q, n)
    offset = n - pivot.v[1]
    start = n if linear else n + 1
    rule = EliminationRule(pivot.v[0], offset, start, pivot.coeff)
    chart = s2.replace(rule=rule, consumed=max(s2.consumed, start))
    _verify_rule(sys, chart, rule)
    return chart


def _verify_rule(sys: JetSystem, chart: Stratum, rule: EliminationRule) -> None:
    red = reduction_of(sys, chart)
    want = red(rule.coeff)
    orders = [o for _, o in chart.zero_vars] + [o for e in chart.equations for _, o in e.variables()]
    bound = rule.offset + max([rule.offset, *orders])
    for m in range(rule.start_level, max(rule.start_level, bound + 1) + 1):
        w, c_m, num = rule_instance(sys, chart, rule, m)
        got = red(c_m)
        if got != want:
            raise EngineError(
                f"unstable elimination coefficient at level {m}: "
                f"{format_poly(got)} != {format_poly(want)}"
            )
        if w in num.variables():
            raise EngineError(f"elimination not well-founded at level {m}")


def rule_instance(
    sys: JetSystem, chart: Stratum, rule: EliminationRule, m: int
) -> tuple[Var, Polynomial, Polynomial]:
    """Return (solved variable, coefficient, numerator) at level ``m``:
    the reduced equation reads ``coeff * w - numerator = 0``."""
    if m < rule.start_level:
        raise ValueError("level below rule start")
    r = reduced(sys, chart, m)
    w = (rule.family, rule.solved_order(m))
    try:
        c_m, rest = r.coefficient_of(w)
    except ValueError:
        raise EngineError(f"level {m} is nonlinear in {var_name(w)}: the rule cannot solve it") from None
    return w, c_m, -rest


# -- generic points and soundness -------------------------------------------


def generic_point(
    sys: JetSystem, chart: Stratum, up_to: int
) -> dict[Var, tuple[Polynomial, int]]:
    """Values of the coordinates of order <= up_to that the chart's rule
    solves.  ``(N, k)`` stands for N / c^k, c = ``rule.coeff`` reduced
    modulo the chart, the coefficient of the solved coordinate at every level
    (``_verify_rule``).  Levels are solved in order, so each N involves only
    free and unit coordinates."""
    rule = chart.rule
    values: dict[Var, tuple[Polynomial, int]] = {}
    if rule is None:
        return values
    red = reduction_of(sys, chart)
    c = red(rule.coeff)
    for m in range(rule.start_level, rule.offset + up_to + 1):
        w, _, num = rule_instance(sys, chart, rule, m)
        n, k = _substitute(num, values, c)
        values[w] = (red(n), k + 1)
    return values


def _substitute(
    p: Polynomial,
    point: Mapping[Var, tuple[Polynomial, int]],
    c: Polynomial,
) -> tuple[Polynomial, int]:
    """``p`` with the coordinates of ``point`` replaced by their values
    N / c^k, as ``(N', k')`` over the common denominator c^k'."""
    depths = [sum(point[v][1] * e for v, e in mono if v in point) for mono in p.terms]
    top = max(depths, default=0)
    field = p.field
    total = Polynomial.zero(field)
    for (mono, coeff), depth in zip(p.terms.items(), depths):
        term = Polynomial.const(field, coeff) * c ** (top - depth)
        for v, e in mono:
            term = term * (point[v][0] ** e if v in point else Polynomial.variable(field, v, e))
        total = total + term
    return total, top


def check_elimination_soundness(
    sys: JetSystem, chart: Stratum, up_to: int
) -> list[int]:
    """Levels ``m <= up_to`` at which substituting the generic point into the
    reduced derivative does not yield 0 (empty list = sound)."""
    rule = chart.rule
    if rule is None:
        return []
    point = generic_point(sys, chart, up_to)
    red = reduction_of(sys, chart)
    c = red(rule.coeff)
    return [
        m
        for m in range(rule.start_level, up_to + 1)
        if red(_substitute(reduced(sys, chart, m), point, c)[0])
    ]


# -- forced vanishing --------------------------------------------------------


class RestrictionIncompatible(EngineError):
    pass


def forced_vanishing(
    sys: JetSystem,
    chart: Stratum,
    restriction: Iterable[Var],
    target: Var,
    max_level: Optional[int] = None,
    _seen: Optional[frozenset[Var]] = None,
) -> bool:
    """Does the target coordinate vanish identically on (closure of chart)
    intersected with the vanishing of the restriction coordinates?

    Mechanism: the chart's cleared elimination identity ``coeff * target =
    numerator`` holds on the closure; if the numerator restricts to zero
    while the coefficient survives, the target is forced to vanish (the
    restricted chart stays irreducible, which licenses dividing by the
    coefficient).
    """
    rs = frozenset(restriction)
    if target in rs or target in chart.zero_vars:
        return True
    uv = chart.unit_vars()
    if target in uv:
        return False
    rule = _rule_solving(chart, target)
    if rule is None:
        return False  # free coordinate: nothing forces it
    m = target[1] + rule.offset
    if max_level is not None and m > max_level:
        return False
    w, c_m, num = rule_instance(sys, chart, rule, m)
    assert w == target
    # the equations survive on the restricted set in reduced form
    restricted = reduction_of(sys, chart.replace(zero_vars=chart.zero_vars | rs))
    if restricted(c_m).is_zero():
        raise RestrictionIncompatible(
            f"restriction kills the unit coefficient of {var_name(target)}"
        )
    val = restricted(num)
    if val.is_zero():
        return True
    # terms may involve deeper eliminated coordinates that are themselves
    # forced to vanish under the same restriction
    seen = (_seen or frozenset()) | {target}
    for v in sorted(val.variables(), key=var_key):
        if v in seen:
            continue
        r2 = _rule_solving(chart, v)
        if r2 is not None and forced_vanishing(
            sys, chart, rs, v, max_level=max_level, _seen=seen
        ):
            val = val.reduce_mod_vars({v})
            if val.is_zero():
                return True
    return val.is_zero()


def _rule_solving(chart: Stratum, v: Var) -> Optional[EliminationRule]:
    rule = chart.rule
    if rule is not None and rule.family == v[0] and v[1] + rule.offset >= rule.start_level:
        return rule
    return None


def nonvanishing_evidence(
    sys: JetSystem, chart: Stratum, v: Var
) -> Optional[str]:
    """Why does the coordinate not vanish identically on the chart?

    Returns one of "unit", "free", "eliminated-nonzero", or
    None when no evidence is found (e.g. the coordinate is zero there).
    """
    if v in chart.zero_vars:
        return None
    if v in chart.unit_vars():
        return "unit"
    rule = _rule_solving(chart, v)
    if rule is None:
        return "free"
    m = v[1] + rule.offset
    _, _, num = rule_instance(sys, chart, rule, m)
    if chart.simplify(sys, num):
        return "eliminated-nonzero"
    return None
