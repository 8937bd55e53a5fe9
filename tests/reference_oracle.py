"""Reference routes of the finite-field oracle, run only by the tests.

``transport_poly`` and ``transport_stratum`` move a polynomial or a
truncation into the probe field as whole objects, the route the oracle took
before ``compile_poly`` moved each coefficient as it compiled it.  Compiling
the moved copy must give the same tables, and the same error, as compiling
the source; ``stratum_membership`` and ``Polynomial.evaluate`` read the moved
copies, on points that ``point_assignment`` unpacks.

``dfs_fiber`` is the fiber search that evaluates every derivative level
checked at an order over its whole compiled table, once per candidate
triple: ``oracle.enumerate_fiber`` folds each level's fixed prefix into its
coefficients once per prefix and must give the same ``Fiber``, the same
``tested`` count and the same budget error.  ``truncated_leaves`` truncates
every nonempty leaf of a driver run.
"""

from __future__ import annotations

from itertools import product

from arcjet.algebra import Field, Polynomial, Var, format_poly, var
from arcjet.driver import Node, StratificationTree
from arcjet.hasse import JetSystem
from arcjet.oracle import (
    ORIGIN,
    POINT_FAMILIES,
    Block,
    Compiled,
    Fiber,
    JetPoint,
    OracleError,
    compile_poly,
    transport_scalar,
    truncate_stratum,
    vanishes,
)
from arcjet.strata import Stratum


def transport_poly(p: Polynomial, target: Field) -> Polynomial:
    """``p`` over ``target``.  A coefficient that has no value there is an
    ``OracleError`` naming the lowest such term by ``mono_key``, whatever
    the order of ``p``'s terms."""
    if p.field == target:
        return p
    try:
        return Polynomial(target, {m: transport_scalar(c, target) for m, c in p.terms.items()})
    except OracleError:
        for m, c in p.sorted_terms():
            try:
                transport_scalar(c, target)
            except OracleError as e:
                raise OracleError(f"{e} (term {format_poly(Polynomial.monomial(p.field, m))})") from e
        raise


def transport_stratum(T: Stratum, target: Field) -> Stratum:
    """Move a truncation's coefficients into the probe field, its equations
    before its units."""
    return T.replace(
        equations=tuple(transport_poly(e, target) for e in T.equations),
        units=tuple(transport_poly(u, target) for u in T.units),
    )


def point_assignment(pt: JetPoint, m: int) -> dict[Var, int]:
    """Unpack a flat point tuple into a coordinate -> value mapping."""
    if len(pt) != 3 * m:
        raise ValueError(f"point has {len(pt)} entries, expected {3 * m}")
    assign: dict[Var, int] = {var(f, 0): 0 for f in POINT_FAMILIES}
    for o in range(1, m + 1):
        for j, fam in enumerate(POINT_FAMILIES):
            assign[var(fam, o)] = pt[3 * (o - 1) + j]
    return assign


def truncated_leaves(
    sys: JetSystem, tree: StratificationTree, m: int
) -> list[tuple[Node, Stratum]]:
    """Truncations of every nonempty leaf of a driver run."""
    return [
        (node, truncate_stratum(sys, node.stratum, m))
        for node in tree.leaves()
        if node.kind != "empty"
    ]


def dfs_fiber(
    sys: JetSystem, p: int, m: int, budget: int = 10_000_000
) -> Fiber:
    """All F_p points of the level-``m`` fiber over the origin of the
    equation of ``sys``, in lexicographic order.

    The derivative levels are read off ``sys`` and compiled into the probe
    field of ``p``; every coefficient of the equation moves there first
    (an ``OracleError`` if one cannot).  Depth-first over jet orders
    1..m-1 on one flat prefix list; a partial assignment is rejected as
    soon as some fully determined derivative level is nonzero.  Order
    ``m`` is one block per surviving prefix: its head tuple and the
    ``p**3`` last-order values that pass the levels checked there (one
    shared cube when none is).
    Raises ``OracleError`` after testing more than ``budget`` candidate
    triples, and before building any derivative level when the all-zero
    prefix alone, ``(m - 1) * p**3`` triples, or at ``m = 1`` the ``p**3``
    cube, exceeds it.
    """
    if compile_poly(sys.f, 0, p):
        return Fiber(m, p, ())  # f(0) != 0 mod p: the surface misses the origin
    if m == 0:
        return Fiber(0, p, (((), ((),)),))  # the origin alone
    over_budget = f"fiber search over budget ({budget} triples); reduce m or p"
    # every jet of the origin lies on the fiber and (0, 0, 0) opens every
    # cube, so the search descends the all-zero prefix to order m - 1 and
    # tests at least (m - 1) * p**3 triples; at m = 1 the cube is the fiber's
    # one block: refuse before building a level or the cube
    if max(m - 1, 1) * p**3 > budget:
        raise OracleError(over_budget)
    # Each level is checked once the highest order among its terms is
    # assigned.
    by_order: dict[int, list[Compiled]] = {}
    for n in range(1, m + 1):
        parts = compile_poly(sys.derivative(n, ORIGIN), m, p)
        if parts:
            top = max((i for t in parts for _, idx in t for i in idx), default=0)
            by_order.setdefault(top // 3 + 1, []).append(parts)

    out: list[Block] = []
    prefix = [0] * (3 * m)
    cube = (*product(range(p), repeat=3),)
    last = 3 * (m - 1)
    last_checks = by_order.get(m, ())
    # each order below m: the index of its triple in a point, and its checks
    steps = [(3 * (o - 1), by_order.get(o, ())) for o in range(1, m)]
    tested = 0

    def enter(o: int) -> bool:
        """Count order ``o``'s candidate triples; at order m, add the
        prefix's block.  True when ``o`` is below m, an order to search."""
        nonlocal tested
        if o < m or last_checks:  # p**3 candidate triples to test
            tested += len(cube)
            if tested > budget:
                raise OracleError(over_budget)
        if o < m:
            return True
        tails = cube
        if last_checks:
            kept = []
            for vals in cube:
                prefix[last:] = vals
                if all(vanishes(parts, prefix, p) for parts in last_checks):
                    kept.append(vals)
            tails = tuple(kept)
        if tails:
            out.append((tuple(prefix[:last]), tails))
        return False

    # depth first over orders 1..m-1 on an explicit stack, one cube iterator
    # per assigned order (no recursion, so m is not bounded by the
    # interpreter's recursion limit): the top's next triple that passes its
    # order's checks extends the prefix
    stack = [iter(cube)] if enter(1) else []
    while stack:
        base, checks = steps[len(stack) - 1]
        for vals in stack[-1]:
            prefix[base:base + 3] = vals
            if all(vanishes(parts, prefix, p) for parts in checks) and enter(len(stack) + 1):
                stack.append(iter(cube))
                break
        else:
            stack.pop()
    return Fiber(m, p, tuple(out))
