"""Recursive stratification of the arc fiber over the singular point.

The driver walks levels upward.  At each level the surviving reduction of
the derivative dictates one of a small set of moves: force a coordinate to
vanish (radical of a power), split into an open/closed pair along a
coordinate, record a relation, or open one or more elimination charts
(optionally after localizing).  Chart leaves are the component candidates;
closed complements of final covers are terminal residuals absorbed into a
previously built component's closure.  The tree, its nodes and components
are mutable records, filled in as the driver decides.

A cover is terminal when its relation's Coxeter number equals its level
(``coxeter_number``: the relation is then the equation itself at that
level, e.g. z15^2 + x10^3 + y6^5 at level 30 for E8).  The only input
beyond the equation is ``covers``, the coordinate sets to invert at chosen
cover levels; it fixes how the charts are presented (only E8's golden
presentation uses it), not how many components there are.  Every other
move is canonical and recomputed from the equation itself.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional

from .algebra import (
    Polynomial,
    Record,
    Var,
    mono_from_pairs,
    mono_vars,
    var_key,
    var_name,
)
from .hasse import JetSystem
from .strata import (
    EngineError,
    PivotChoice,
    Stratum,
    add_equation,
    closure_contains,
    eliminate_tail,
    find_pivot,
    force_vanish,
    next_nontrivial,
    reduced,
    root_stratum,
    split,
    _split_key,
)


# cover level -> the coordinate sets to invert there, one chart per set
# (levels not listed derive them from the relation)
Covers = Mapping[int, tuple[tuple[Var, ...], ...]]


class Node(Record):
    __slots__ = (
        "nid", "level", "kind", "stratum", "children", "component", "absorbed_into"
    )
    __hash__ = None

    def __init__(self, nid: int, level: int, kind: str, stratum: Stratum) -> None:
        self.nid = nid
        self.level = level  # level of the decision that created this node
        # the node's decision: split | cover (inner nodes) or chart | residual
        # | stabilized | empty (leaves); "interior" only until it is made
        self.kind = kind
        self.stratum = stratum
        self.children: list[int] = []
        self.component: Optional[int] = None
        self.absorbed_into: Optional[int] = None


class Component(Record):
    __slots__ = ("index", "emergence", "chart_nodes")
    __hash__ = None

    def __init__(self, index: int, emergence: int) -> None:
        self.index = index
        self.emergence = emergence
        self.chart_nodes: list[int] = []

    @property
    def name(self) -> str:
        return f"K{self.index + 1}"


class StratificationTree(Record):
    __slots__ = ("nodes", "components", "max_level")
    __hash__ = None

    def __init__(self, nodes: list[Node], components: list[Component], max_level: int) -> None:
        self.nodes = nodes
        self.components = components
        self.max_level = max_level

    def leaves(self) -> list[Node]:
        return [n for n in self.nodes if not n.children]

    def residuals(self) -> list[Node]:
        return [n for n in self.nodes if n.kind == "residual"]

    def chart_of(self, comp: Component) -> Node:
        return self.nodes[comp.chart_nodes[0]]


def run_driver(
    sys: JetSystem,
    covers: Covers = MappingProxyType({}),
    max_level: int = 64,
) -> StratificationTree:
    """Stratify the fiber up to ``max_level``.  When f has a nonzero
    constant term f_0 the surface misses the origin: the fiber is empty and
    the tree is one empty root."""
    tree = StratificationTree(nodes=[], components=[], max_level=max_level)
    if sys.f.terms.get(()):
        _new_node(tree, None, 0, root_stratum()).kind = "empty"
        return tree
    _process(sys, covers, tree, root_stratum(), level=1, parent=None)
    _absorb_residuals(sys, tree)
    return tree


def _new_node(tree: StratificationTree, parent: Optional[int], level: int, s: Stratum) -> Node:
    node = Node(nid=len(tree.nodes), level=level, kind="interior", stratum=s)
    tree.nodes.append(node)
    if parent is not None:
        tree.nodes[parent].children.append(node.nid)
    return node


def _new_component(tree: StratificationTree, n: int) -> Component:
    comp = Component(index=len(tree.components), emergence=n)
    tree.components.append(comp)
    return comp


def _mark_chart(node: Node, chart: Stratum, comp: Component) -> None:
    node.stratum = chart
    node.kind = "chart"
    node.component = comp.index
    comp.chart_nodes.append(node.nid)


def _process(
    sys: JetSystem,
    covers: Covers,
    tree: StratificationTree,
    s: Stratum,
    level: int,
    parent: Optional[int],
) -> Node:
    node = _new_node(tree, parent, level, s)
    while True:
        s = _normalize(sys, s)
        node.stratum = s
        found = next_nontrivial(sys, s, tree.max_level)
        if found is None:
            node.kind = "stabilized"
            return node
        n, r = found
        content = r.content_monomial()
        unit_vars = s.unit_vars()
        loose = sorted(
            (v for v in mono_vars(content) if v not in unit_vars), key=_split_key
        )
        if len(r.terms) == 1 and len(loose) <= 1:
            # r is a single monomial with at most one non-unit coordinate
            if not loose:
                node.kind = "empty"
                return node
            s = force_vanish(s, loose[0], n)
            continue
        if loose:
            _do_split(sys, covers, tree, node, s, loose[-1], n)
            return node
        # r = (unit monomial) * q, where q has at least two terms
        q = r.divide_monomial(content)
        if mono_vars(content):
            # a unit monomial times a relation: impose the relation
            s = add_equation(s, q, n)
            continue
        if n not in covers:
            pivot = _pivot(sys, s, q)
            if pivot is not None:
                chart = _eliminate(sys, s, n, q, pivot)
                _mark_chart(node, chart, _new_component(tree, n))
                return node
        _do_cover(sys, covers, tree, node, s, n, q)
        return node


# Each driver run of a level graph re-derives the charts of the shallower
# runs (E8 to level 35: 153 eliminations of 8 distinct inputs, 531 pivot
# searches of 20, and 153 Coxeter numbers of 8 cover relations), so the
# pure moves are decided once per tower, in ``JetSystem.moves``.  Per tower,
# not process-wide: a preset builds a fresh tower per operation, so a
# process-wide cache would never hit across operations and would only keep
# dead towers alive.  A None pivot is kept; an elimination that raises
# keeps nothing and raises again on every call.  ``find_pivot``,
# ``eliminate_tail`` and ``coxeter_number`` stay the uncached reference route.


def _decided(sys: JetSystem, key: object, move, *args):
    """``move(*args)``, decided once per tower under ``key``."""
    try:
        return sys.moves[key]
    except KeyError:
        out = sys.moves[key] = move(*args)
        return out


def _pivot(sys: JetSystem, s: Stratum, q: Polynomial) -> Optional[PivotChoice]:
    return _decided(sys, (s, q), find_pivot, sys, s, q)


def _eliminate(sys: JetSystem, s: Stratum, n: int, q: Polynomial, pivot: PivotChoice) -> Stratum:
    return _decided(sys, (s, n, q, pivot), eliminate_tail, sys, s, n, q, pivot)


def _do_split(sys, covers, tree, node: Node, s: Stratum, v: Var, n: int) -> None:
    open_part, closed_part = split(sys, s, v)
    node.kind = "split"
    _process(sys, covers, tree, open_part, n, node.nid)
    _process(sys, covers, tree, closed_part, n, node.nid)


def _square_split(s: Stratum, q: Polynomial) -> Optional[tuple[Polynomial, Polynomial]]:
    """Detect ``q = a*w^2 + b*g^2`` with ``w`` a non-unit coordinate and
    ``g`` a unit monomial, over a field where ``-b/a`` is a square.

    Returns the two monic linear factors ``w - c*g, w + c*g`` (so that
    ``q = a * (w - c*g) * (w + c*g)``), or None when the shape or the
    square root is unavailable.  In characteristic 2 the factors coincide
    (``q = a * (w + c*g)^2``): one locus, not two, so None.
    """
    field = q.field
    if len(q.terms) != 2 or field.char == 2:
        return None
    units = s.unit_vars()
    items = q.sorted_terms()
    for (mw, cw), (mg, cg) in (items, items[::-1]):
        if len(mw) != 1 or mw[0][1] != 2 or mw[0][0] in units:
            continue
        if not mg or any(e % 2 for _, e in mg) or any(v not in units for v, _ in mg):
            continue
        c = field.square_root(field.neg(field.mul(cg, field.inv(cw))))
        if c is None:
            continue
        w = Polynomial.variable(field, mw[0][0])
        g = Polynomial.monomial(
            field, mono_from_pairs((v, e // 2) for v, e in mg), c
        )
        return (w - g, w + g)
    return None


def _factor_chart(sys: JetSystem, s_ch: Stratum, n: int, lin: Polynomial) -> Stratum:
    """Build the elimination chart of one linear factor of a split cover.

    On the factor lin = w - c*g (g a unit) the factor's relation is read at
    level n + 1: there f_{n+1} carries w's next coordinate with the unit
    coefficient 2*a*c*g."""
    s_f = add_equation(s_ch, lin, n)
    n2 = n + 1
    r = reduced(sys, s_f, n2)
    if not r:
        raise EngineError(f"factor chart at level {n} has no surviving relation")
    units = s_f.unit_vars()
    if any(v not in units for v in mono_vars(r.content_monomial())):
        raise EngineError(
            f"factor chart at level {n} has a non-unit content at level {n2}"
        )
    pivot = _pivot(sys, s_f, r)
    if pivot is None:
        raise EngineError(
            f"no invertible pivot on the factor chart at level {n} "
            f"in characteristic {sys.field.char}"
        )
    return _eliminate(sys, s_f, n2, r, pivot)


def _do_cover(
    sys: JetSystem,
    covers: Covers,
    tree: StratificationTree,
    node: Node,
    s: Stratum,
    n: int,
    q: Polynomial,
) -> None:
    field = sys.field
    unit_sets = covers.get(n) or _auto_cover(sys, s, q)
    terminal = _decided(sys, q, coxeter_number, q) == n
    node.kind = "cover"
    comp: Optional[Component] = None
    for uset in unit_sets:
        s_ch = s.replace(units=s.units + tuple(Polynomial.variable(field, v) for v in uset))
        factors = _square_split(s_ch, q)
        if factors is not None:
            # The localized relation is a difference of squares, so the
            # chart decomposes into two pieces, one per linear factor;
            # each gets its own component.
            for lin in factors:
                chart = _factor_chart(sys, s_ch, n, lin)
                _mark_chart(_new_node(tree, node.nid, n, chart), chart, _new_component(tree, n))
            continue
        if comp is None:
            comp = _new_component(tree, n)
        pivot = _pivot(sys, s_ch, q)
        if pivot is None:
            raise EngineError(
                f"no invertible pivot at level {n} on chart "
                f"{{{','.join(var_name(v) for v in uset)}}} in characteristic {field.char}"
            )
        chart = _eliminate(sys, s_ch, n, q, pivot)
        _mark_chart(_new_node(tree, node.nid, n, chart), chart, comp)
    # closed complement
    cover_vars = sorted({v for us in unit_sets for v in us}, key=var_key)
    if len(unit_sets) == 1 and len(unit_sets[0]) > 1:
        if not terminal:
            raise EngineError("product localization requires a terminal cover")
        # Off the one chart the product of its coordinates vanishes: one
        # more equation, appended after normalizing (it has no lead rule,
        # so it would only add reduction keys to the normalization).
        residual = _normalize(
            sys, s.replace(equations=s.equations + (q,), consumed=max(s.consumed, n))
        )
        product = Polynomial.monomial(field, mono_from_pairs((v, 1) for v in cover_vars))
        residual = residual.replace(equations=residual.equations + (product,))
    else:
        # Re-process the cover level on the complement: the relation may
        # stay nontrivial there and demand its own decision.
        residual = s.replace(
            zero_vars=s.zero_vars | set(cover_vars),
            equations=s.equations + ((q,) if terminal else ()),
            consumed=max(s.consumed, n if terminal else n - 1),
        )
        if not terminal:
            _process(sys, covers, tree, residual, n, node.nid)
            return
        residual = _normalize(sys, residual)
    _new_node(tree, node.nid, n, residual).kind = "residual"


def _row_reduce(aug: list[list[Fraction]]) -> Optional[list[list[Fraction]]]:
    """The nonzero rows of the reduced row echelon form of an augmented
    system [A | b], or None when the system has no solution."""
    echelon: list[list[Fraction]] = []
    for col in range(len(aug[0]) - 1):
        pivot = next((r for r in aug if r[col]), None)
        if pivot is None:
            continue
        pivot = [a / pivot[col] for a in pivot]
        aug, echelon = (
            [[a - r[col] * b for a, b in zip(r, pivot)] for r in part]
            for part in (aug, echelon)
        )
        aug = [r for r in aug if any(r)]
        echelon.append(pivot)
    return None if aug else echelon


def coxeter_number(f: Polynomial) -> Optional[int]:
    """The Coxeter number h of a quasi-homogeneous relation in the families
    x, y, z, or None when it has none.

    A term's exponent in a family is summed over the orders, so a base
    equation and a jet relation read alike: z^2 + x^3 + y^5 and
    z15^2 + x10^3 + y6^5 both give 30, x3*y1 + z1^4 gives 4.  Weights q
    that give every term weight 1 sum to 1 + 1/h.  The sum is exact: write
    (1, 1, 1) = Σ c_j·e_j over the terms' exponent vectors e_j, then
    Σq = Σ c_j.  None when ``f`` is not quasi-homogeneous, when (1, 1, 1)
    is no such combination (the weights leave Σq open, as for E8's
    x5^3 + y3^5), or when h is not a positive integer.
    """
    one = Fraction(1)
    exps = [
        [Fraction(sum(e for (g, _), e in mono if g == fam)) for fam in "xyz"]
        for mono in f.terms
    ]
    if _row_reduce([e + [one] for e in exps]) is None:
        return None
    # one solution c (free c_j = 0): the right side of each reduced row
    c_rows = _row_reduce([list(col) + [one] for col in zip(*exps)])
    if c_rows is None:
        return None
    excess = sum(r[-1] for r in c_rows) - 1
    if excess <= 0 or (1 / excess).denominator != 1:
        return None
    return int(1 / excess)


def _auto_cover(sys: JetSystem, s: Stratum, q: Polynomial) -> tuple[tuple[Var, ...], ...]:
    """Derive localization sets: any coordinate of a mixed monomial whose
    inversion produces a pivot gets its own chart; for pure-power equations
    a single chart at the highest-exponent workable coordinate suffices."""
    candidates = []
    for v in sorted(q.variables(), key=_split_key, reverse=True):
        probe = s.replace(units=s.units + (Polynomial.variable(q.field, v),))
        if _pivot(sys, probe, q) is not None:
            candidates.append(v)
    if not candidates:
        raise EngineError("no usable localization for cover")
    cross = {
        v
        for mono in q.terms
        for v in mono_vars(mono)
        if len(set(mono_vars(mono))) >= 2
    }
    picked = [v for v in candidates if v in cross]
    if not picked:
        picked = [max(candidates, key=lambda v: (q.degree_in(v), _split_key(v)))]
    return tuple((v,) for v in sorted(picked, key=_split_key, reverse=True))


def _normalize(sys: JetSystem, s: Stratum) -> Stratum:
    """Collapse equations that degenerate after new coordinates vanished:
    a relation reduced to (unit monomial) * v^a just forces v = 0."""
    changed = True
    while changed:
        changed = False
        kept: list[Polynomial] = []
        eqs = list(s.equations)
        uv = s.unit_vars()
        for i, eq in enumerate(eqs):
            others = tuple(e for j, e in enumerate(eqs) if j != i)
            r = s.replace(equations=others).simplify(sys, eq)
            if r.is_zero():
                changed = True
                continue
            loose = [v for v in mono_vars(r.content_monomial()) if v not in uv]
            if len(r.terms) == 1 and len(loose) == 1:
                s = s.replace(zero_vars=s.zero_vars | {loose[0]}, equations=others)
                changed = True
                break
            kept.append(eq)
        else:
            if len(kept) != len(s.equations):
                s = s.replace(equations=tuple(kept))
    return s


def _absorb_residuals(sys: JetSystem, tree: StratificationTree) -> None:
    """Attach each terminal residual to a component whose chart's closure
    visibly contains it (``closure_contains``: the chart's vanishing
    coordinates and relations all vanish on the residual); None when none
    does."""
    for node in tree.residuals():
        node.absorbed_into = next(
            (
                comp.index
                for comp in reversed(tree.components)
                if closure_contains(sys, tree.chart_of(comp).stratum, node.stratum)
            ),
            None,
        )
