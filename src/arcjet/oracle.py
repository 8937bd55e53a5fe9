"""Brute-force finite-field enumeration of truncated arc fibers.

This is the independent ground truth for the stratification machinery:
every F_p point of the fiber over the origin is found by exhaustive
search with early rejection, then tested for membership in the leaf
strata of a driver run.  Nothing here reuses the elimination rules to
*produce* points, so agreement between the two routes is evidence, not
tautology.

A point of the level-``m`` fiber assigns one residue to each coordinate
of order 1..m in the three ambient families (order 0 is pinned to the
origin).  Points are stored as flat tuples ordered x1,y1,z1,x2,y2,z2,...
so that the enumeration is lexicographic and deterministic.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product
from typing import Iterable, Mapping, Optional, Sequence

from .algebra import (
    Field,
    Gaussian,
    Polynomial,
    Var,
    var,
)
from .driver import Node, StratificationTree
from .hasse import JetSystem
from .strata import Stratum


POINT_FAMILIES = ("x", "y", "z")

JetPoint = tuple[int, ...]


class OracleError(RuntimeError):
    pass


def point_assignment(pt: JetPoint, m: int) -> dict[Var, int]:
    """Unpack a flat point tuple into a coordinate -> value mapping."""
    if len(pt) != 3 * m:
        raise ValueError(f"point has {len(pt)} entries, expected {3 * m}")
    assign: dict[Var, int] = {var(f, 0): 0 for f in POINT_FAMILIES}
    for o in range(1, m + 1):
        for j, fam in enumerate(POINT_FAMILIES):
            assign[var(fam, o)] = pt[3 * (o - 1) + j]
    return assign


def transport_scalar(c, target: Field):
    """Move a coefficient into the probe field, resolving i if needed."""
    if isinstance(c, Gaussian) and not target.i_adjoined:
        if c.im == 0:
            return target.of(c.re)
        r = target.square_root(target.of(-1))
        if r is None:
            raise OracleError(
                f"coefficient {c!r} needs a square root of -1 that "
                f"F_{target.char} lacks"
            )
        return target.add(target.of(c.re), target.mul(target.of(c.im), r))
    return target.of(c)


def transport_poly(p: Polynomial, target: Field) -> Polynomial:
    if p.field == target:
        return p
    return Polynomial(target, {m: transport_scalar(c, target) for m, c in p.terms.items()})


def probe_field(source: Field, p: int) -> Field:
    """The prime-field home for reducing ``source``-coefficient data mod p."""
    if source.char and source.char != p:
        raise OracleError(f"cannot reduce characteristic {source.char} data mod {p}")
    if source.i_adjoined and p % 4 == 3:
        return Field(p, i_adjoined=True)
    return Field(p)


def enumerate_fiber(
    f: Polynomial, p: int, m: int, budget: int = 10_000_000
) -> list[JetPoint]:
    """All F_p points of the level-``m`` fiber over the origin, in
    lexicographic order.

    Depth-first over jet orders 1..m; a partial assignment is rejected as
    soon as some fully determined derivative level is nonzero.
    """
    if p ** (3 * m) > budget:
        raise OracleError("fiber too large; reduce m or p")
    field = probe_field(f.field, p)
    sys = JetSystem(transport_poly(f, field))
    # Level n only involves orders <= n - 1 (the equation vanishes to
    # order >= 2 at the origin), so it becomes checkable once order
    # min(n - 1, ...) is assigned; group by actual max order.
    by_order: dict[int, list[Polynomial]] = {}
    for n in range(1, m + 1):
        d = sys.derivative(n)
        if d.is_zero():
            continue
        by_order.setdefault(max(d.max_order(), 1), []).append(d)

    out: list[JetPoint] = []
    assign: dict[Var, int] = {var(fam, 0): 0 for fam in POINT_FAMILIES}

    def dfs(o: int, acc: list[int]) -> None:
        if o > m:
            out.append(tuple(acc))
            return
        for vals in product(range(p), repeat=3):
            for j, fam in enumerate(POINT_FAMILIES):
                assign[var(fam, o)] = vals[j]
            if all(not d.evaluate(assign) for d in by_order.get(o, ())):
                dfs(o + 1, acc + list(vals))
        for fam in POINT_FAMILIES:
            assign.pop(var(fam, o), None)

    dfs(1, [])
    return out


def transport_stratum(T: Stratum, target: Field) -> Stratum:
    """Move a truncation's coefficients into the probe field."""
    return replace(
        T,
        equations=tuple(transport_poly(e, target) for e in T.equations),
        units=tuple(transport_poly(u, target) for u in T.units),
    )


def truncate_stratum(
    sys: JetSystem, s: Stratum, m: int, target: Optional[Field] = None
) -> Stratum:
    """The truncation of ``s`` to level ``m``: a stratum with no rules and
    ``consumed = m``, whose equations include the solved instances of every
    elimination rule that fit below the level, so membership is a plain
    evaluate-and-compare.  Coefficients are moved into ``target`` if given."""
    eqs = [e for e in s.equations if e.max_order() <= m]
    levels = sorted({lvl for rule in s.rules for lvl in range(rule.start_level, m + 1)})
    for lvl in levels:
        r = s.simplify(sys.derivative(lvl))
        if not r.is_zero() and r.max_order() <= m:
            eqs.append(r)
    T = Stratum(
        zero_vars=frozenset(v for v in s.zero_vars if v[1] <= m),
        equations=tuple(eqs),
        units=s.units,
        zero_monomials=s.zero_monomials,
        consumed=m,
    )
    return T if target is None else transport_stratum(T, target)


def stratum_membership(assign: Mapping[Var, int], T: Stratum) -> bool:
    """Does the point lie on the truncation ``T``?  ``assign`` holds the
    point's residues mod p (``point_assignment``), and ``T``'s coefficients
    must already be in the probe field of p (``transport_stratum``)."""
    return (
        not any(assign.get(v, 0) for v in T.zero_vars)
        and not any(all(assign.get(v, 0) for v, _ in mono) for mono in T.zero_monomials)
        and all(u.evaluate(assign) for u in T.units)
        and not any(e.evaluate(assign) for e in T.equations)
    )


def truncated_leaves(
    sys: JetSystem,
    tree: StratificationTree,
    m: int,
    target: Optional[Field] = None,
) -> list[tuple[Node, Stratum]]:
    """Truncations of every nonempty leaf of a driver run."""
    return [
        (node, truncate_stratum(sys, node.stratum, m, target))
        for node in tree.leaves()
        if node.kind != "empty"
    ]


def _level_of(truncations: Iterable[Stratum]) -> int:
    """The one level a batch of truncations shares, to unpack points at."""
    levels = {T.consumed for T in truncations}
    if len(levels) != 1:
        raise OracleError(f"expected truncations at one level, got levels {sorted(levels)}")
    return levels.pop()


def coverage_check(
    points: Iterable[JetPoint],
    leaves: Sequence[Stratum],
) -> list[JetPoint]:
    """Fiber points belonging to no leaf; expected empty."""
    m = _level_of(leaves)
    missing = []
    for pt in points:
        assign = point_assignment(pt, m)
        if not any(stratum_membership(assign, T) for T in leaves):
            missing.append(pt)
    return missing


def exclusive_cover_check(
    points: Iterable[JetPoint],
    leaves: Sequence[tuple[Node, Stratum]],
) -> dict:
    """Every fiber point should land in exactly one leaf *group*.

    Sibling charts of one cover overlap by design (they describe the same
    locus from different localizations), so leaves are grouped by the
    component they chart; residual and stabilized leaves stand alone.
    """
    groups: dict[object, list[Stratum]] = {}
    for node, T in leaves:
        key = ("component", node.component) if node.component is not None else ("leaf", node.nid)
        groups.setdefault(key, []).append(T)
    m = _level_of(T for _, T in leaves)
    uncovered: list[JetPoint] = []
    overlapping: list[tuple[JetPoint, list[object]]] = []
    for pt in points:
        assign = point_assignment(pt, m)
        hits = [
            key
            for key, ts in groups.items()
            if any(stratum_membership(assign, T) for T in ts)
        ]
        if not hits:
            uncovered.append(pt)
        elif len(hits) > 1:
            overlapping.append((pt, hits))
    return {
        "ok": not uncovered and not overlapping,
        "groups": len(groups),
        "uncovered": uncovered,
        "overlapping": overlapping,
    }


def split_partition_check(
    sys: JetSystem,
    tree: StratificationTree,
    points: Iterable[JetPoint],
    m: int,
    target: Optional[Field] = None,
) -> dict:
    """At every open/closed split node the parent's points must fall into
    exactly one of the two (further evolved) child strata."""
    splits = [
        (
            node.nid,
            truncate_stratum(sys, node.stratum, m, target),
            [truncate_stratum(sys, tree.node(c).stratum, m, target) for c in node.children],
        )
        for node in tree.nodes
        if node.note.startswith("split on ") and len(node.children) == 2
    ]
    failures = []
    for pt in points:
        assign = point_assignment(pt, m)
        for nid, t_parent, t_children in splits:
            if not stratum_membership(assign, t_parent):
                continue
            hits = sum(1 for t in t_children if stratum_membership(assign, t))
            if hits != 1:
                failures.append({"node": nid, "point": pt, "hits": hits})
    return {"ok": not failures, "split_nodes": len(splits), "failures": failures}
