"""Brute-force finite-field enumeration of truncated arc fibers.

This is the independent ground truth for the stratification machinery:
every F_p point of the fiber over the origin is found by exhaustive
search with early rejection, then tested for membership in the leaf
strata of a driver run.  Nothing here reuses the elimination rules to
*produce* points, so agreement between the two routes is evidence, not
tautology.

A point of the level-``m`` fiber assigns one residue to each coordinate
of order 1..m in the three ambient families (order 0 is pinned to the
origin), as a flat tuple x1,y1,z1,x2,y2,z2,... so that the enumeration is
lexicographic; a ``Fiber`` (with its level and prime) stores prefix blocks
that share the free last jet order.  Search and audits run on integer
tables over that tuple, compiled once per prime and level: compiling is
the one place a coefficient moves from the source field (Q, Q(i) or F_p)
into the probe field, so truncations stay strata over the source field.
The search checks a level at its top order: once per prefix it sums the
terms that read only the prefix and folds the prefix into the others'
coefficients; once per candidate triple it evaluates only those folded
terms.  ``stratum_membership`` is the reference.  ``audit_tree`` is the
one tree audit (the ``*_check`` functions are views of its pass); a point
in no leaf group is uncovered, so an empty leaf set leaves all uncovered.
"""

from __future__ import annotations

from itertools import product
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .algebra import (
    Field,
    Gaussian,
    Polynomial,
    Record,
    Var,
    format_poly,
    is_prime,
    var,
)
from .driver import Node, StratificationTree
from .hasse import JetSystem
from .strata import Stratum, reduced


POINT_FAMILIES = ("x", "y", "z")
# the coordinates every point pins to 0: the fiber lies over the origin
ORIGIN = frozenset(var(f, 0) for f in POINT_FAMILIES)

JetPoint = tuple[int, ...]
# a head and its tails, the points head + tail
Block = tuple[JetPoint, tuple[JetPoint, ...]]


class Fiber(Record):
    """The F_p points of a level-``m`` fiber as blocks in lexicographic
    order: a head holds orders 1..m-1, its tails the last-order triples it
    admits (one shared cube when no derivative level tops out at order m).
    Iterating gives the points, ``len`` their count."""

    __slots__ = ("m", "p", "blocks")

    def __init__(self, m: int, p: int, blocks: tuple[Block, ...]) -> None:
        self.m = m
        self.p = p
        self.blocks = blocks

    def __len__(self) -> int:
        return sum(len(tails) for _, tails in self.blocks)

    def __iter__(self) -> Iterator[JetPoint]:
        for head, tails in self.blocks:
            for tail in tails:
                yield head + tail


class OracleError(RuntimeError):
    pass


# the largest fiber (p ** (3*m) candidate points) a routine probe enumerates:
# the coverage audits of `verify` and the level graph's same-level probe
PROBE_BUDGET = 200_000


def transport_scalar(c, target: Field):
    """Move a coefficient into the probe field, resolving i if needed."""
    try:
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
    except ZeroDivisionError as e:
        raise OracleError(
            f"coefficient {c} has a denominator that vanishes in F_{target.char}"
        ) from e


def probe_field(source: Field, p: int) -> Field:
    """The prime-field home for reducing ``source``-coefficient data mod p."""
    if not is_prime(p):
        raise OracleError(f"probe modulus {p} is not a prime")
    if source.char and source.char != p:
        raise OracleError(f"cannot reduce characteristic {source.char} data mod {p}")
    if source.i_adjoined and p % 4 == 3:
        return Field(p, i_adjoined=True)
    return Field(p)


# -- compiled route -----------------------------------------------------------
#
# Each polynomial the oracle evaluates on fiber points is compiled once per
# (prime, level) into plain data over the flat point tuple, straight from its
# source field: every coefficient moves into the probe field of p
# (``transport_scalar``), and a term becomes ``(coeff mod p, index tuple)``,
# where coordinate (family, o) has index 3*(o-1) + family, repeated once per
# unit of its exponent.  A term with an order-0 coordinate (pinned to the
# origin) or an order above the level (not in the point) reads as 0 and is
# dropped, after its coefficient has moved: a coefficient with no value mod
# p is an error wherever its term sits.  Over F_p(i) a polynomial splits
# into a real and an imaginary table; fiber points have F_p coordinates, so
# the value vanishes exactly when both parts do (``stratum_membership``, on
# truncations moved into the probe field, is the reference).

Table = tuple[tuple[int, tuple[int, ...]], ...]
# the nonzero parts of a compiled polynomial: one table, or real and imaginary
Compiled = tuple[Table, ...]


def _index(v: Var, m: int) -> Optional[int]:
    """Position of a coordinate in a level-``m`` point (None: it reads 0)."""
    fam, o = v
    return 3 * (o - 1) + POINT_FAMILIES.index(fam) if 1 <= o <= m else None


def compile_poly(f: Polynomial, m: int, p: int) -> Compiled:
    """``f`` (over Q, Q(i) or F_p) as tables over level-``m`` points, its
    coefficients moved into the probe field of ``p``.  A coefficient that has no value there is an
    ``OracleError`` naming the lowest such term by ``mono_key``, whatever
    the order of ``f``'s terms."""
    target = probe_field(f.field, p)
    terms = f.terms.items()
    if target != f.field:
        try:
            terms = [(mono, transport_scalar(c, target)) for mono, c in terms]
        except OracleError:
            for mono, c in f.sorted_terms():
                try:
                    transport_scalar(c, target)
                except OracleError as e:
                    term = format_poly(Polynomial.monomial(f.field, mono))
                    raise OracleError(f"{e} (term {term})") from e
            raise
    parts: tuple[list, list] = ([], [])
    for mono, c in terms:
        idx: list[int] = []
        for v, e in mono:
            i = _index(v, m)
            if i is None:
                break
            idx += [i] * e
        else:
            for part, a in zip(parts, (c.re, c.im) if isinstance(c, Gaussian) else (c,)):
                if a % p:
                    part.append((a % p, tuple(idx)))
    return tuple(tuple(t) for t in parts if t)


def vanishes(parts: Compiled, pt: Sequence[int], p: int) -> bool:
    """Is the compiled polynomial zero mod ``p`` at the (prefix of a) point?"""
    for table in parts:
        total = 0
        for c, idx in table:
            for i in idx:
                c *= pt[i]
            total += c
        if total % p:
            return False
    return True


class CompiledStratum(Record):
    """A truncation as plain data over flat points of its level, mod ``p``."""

    __slots__ = ("p", "zeros", "units", "equations")

    def __init__(
        self, p: int, zeros: tuple[int, ...], units: tuple[Compiled, ...],
        equations: tuple[Compiled, ...],
    ) -> None:
        self.p = p
        self.zeros = zeros
        self.units = units
        self.equations = equations

    def contains(self, pt: JetPoint) -> bool:
        # plain loops: this runs once per (point, truncation)
        for i in self.zeros:
            if pt[i]:
                return False
        p = self.p
        for e in self.equations:
            if not vanishes(e, pt, p):
                return False
        for u in self.units:
            if vanishes(u, pt, p):
                return False
        return True

    def reads(self) -> frozenset[int]:
        """The point indices ``contains`` reads: two points that agree on
        them get the same answer."""
        out = set(self.zeros)
        for parts in self.units + self.equations:
            for table in parts:
                for _, idx in table:
                    out.update(idx)
        return frozenset(out)


def point_hits(
    fiber: Fiber, compiled: Sequence[CompiledStratum]
) -> Iterator[tuple[JetPoint, tuple[JetPoint, ...], int]]:
    """The fiber's points in blocks ``(head, tails, hits)``: every point
    head + tail has the hits, one int with bit ``i`` set when ``compiled[i]``
    holds it.  The tests run once per distinct projection onto the indices
    some truncation reads (``reads``): of a block's head, for the whole
    block, when none of them is a last-order index, else of each point."""
    bits = [(1 << i, C) for i, C in enumerate(compiled)]
    idx = sorted(frozenset().union(*(C.reads() for C in compiled)))
    shared = not idx or idx[-1] < 3 * (fiber.m - 1)
    key = itemgetter(*idx) if idx else (lambda _: ())
    memo: dict[object, int] = {}
    for head, tails in fiber.blocks:
        for pt, part in [(head, tails)] if shared else [(head + t, (t,)) for t in tails]:
            k = key(pt)
            hits = memo.get(k)
            if hits is None:
                hits = 0
                for bit, C in bits:
                    if C.contains(pt):
                        hits |= bit
                memo[k] = hits
            yield head, part, hits


def compile_stratum(T: Stratum, p: int) -> CompiledStratum:
    """Compile a truncation (``consumed`` = its level) into the probe field
    of ``p``, its equations before its units."""
    m = T.consumed
    zeros = (_index(v, m) for v in T.zero_vars)
    equations = tuple(compile_poly(e, m, p) for e in T.equations)
    units = tuple(compile_poly(u, m, p) for u in T.units)
    return CompiledStratum(p, tuple(i for i in zeros if i is not None), units, equations)


def probe_plan(field: Field) -> dict[int, int]:
    """``{prime: level}``: where a finite-field probe of ``field`` data runs.
    The primes are the characteristic itself, or 2 and 3 over Q, skipping a
    prime whose probe field cannot hold the adjoined i (only p = 3 mod 4
    takes it).  A prime's level is the deepest m >= 1 whose p^(3m) box fits
    in ``PROBE_BUDGET``; a prime whose p^3 box does not fit is left out."""
    plan = {}
    for p in (field.char,) if field.char else (2, 3):
        m = 0
        while p ** (3 * (m + 1)) <= PROBE_BUDGET:
            m += 1
        if m and not (field.i_adjoined and p % 4 != 3):
            plan[p] = m
    return plan


def enumerate_fiber(sys: JetSystem, p: int, m: int, budget: int = 10_000_000) -> Fiber:
    """All F_p points of the level-``m`` fiber over the origin of the
    equation of ``sys``, in lexicographic order.

    The derivative levels are read off ``sys`` and compiled into the probe
    field of ``p`` (an ``OracleError`` if a coefficient cannot move there).
    A level is checked at its top order, and each of its tables is split
    once into the terms that read only lower orders and the terms that
    read the top order's triple.  Depth first over orders 1..m on one flat
    prefix list: once per prefix that enters an order, the first part is
    summed and the prefix's values are multiplied into the coefficients of
    the second (mod p, dropping the terms that become 0); once per triple
    of the ``p**3`` cube, only these folded terms are evaluated.  A level
    whose folded part is empty passes or fails the whole cube at once.
    Order ``m`` is one block per surviving prefix: its head tuple and the
    last-order triples that pass (the one shared cube when all do).
    Raises ``OracleError`` after testing more than ``budget`` candidate
    triples, still ``p**3`` for each order entered (at m only when some
    level tops out there), and before building any level when the
    all-zero prefix alone, ``(m - 1) * p**3`` triples, or at ``m = 1`` the
    ``p**3`` cube, exceeds it.
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
    # each order's checks: the tables of the levels that top out there, a
    # term as (coeff, prefix indices, offsets into the order's triple)
    checks: dict[int, list[list]] = {}
    for n in range(1, m + 1):
        parts = compile_poly(sys.derivative(n, ORIGIN), m, p)
        top = max((i for t in parts for _, idx in t for i in idx), default=0)
        base = top - top % 3
        checks.setdefault(top // 3 + 1, []).extend(
            [(c, [i for i in idx if i < base], tuple(i - base for i in idx if i >= base))
             for c, idx in table]
            for table in parts
        )

    out: list[Block] = []
    prefix = [0] * (3 * m)
    cube = (*product(range(p), repeat=3),)
    last = 3 * (m - 1)
    tested = 0

    def enter(o: int) -> tuple[tuple[int, ...], ...]:
        """Count order ``o``'s candidate triples and return those that pass
        its checks folded with the prefix (at order m: add its block, ())."""
        nonlocal tested
        tables = checks.get(o, ())
        if o < m or tables:  # p**3 candidate triples to test
            tested += len(cube)
            if tested > budget:
                raise OracleError(over_budget)
        tails, folded = cube, []
        for table in tables:
            # fold the prefix in: the terms that read no triple offset sum
            # to the constant
            const, terms = 0, {}
            for c, idx, t in table:
                for i in idx:
                    c *= prefix[i]
                if t:
                    terms[t] = terms.get(t, 0) + c
                else:
                    const += c
            kept = [(c % p, t) for t, c in terms.items() if c % p]
            if kept:
                folded.append((const, kept))
            elif const % p:
                tails = ()  # this level is nonzero on every triple
                break
        if tails and folded:
            passed = []
            for vals in cube:
                for total, free in folded:
                    for c, t in free:
                        for j in t:
                            c *= vals[j]
                        total += c
                    if total % p:
                        break
                else:
                    passed.append(vals)
            tails = tuple(passed)
        if o == m and tails:
            out.append((tuple(prefix[:last]), tails))
        return tails if o < m else ()

    # depth first over orders 1..m-1 on an explicit stack, one iterator over
    # the passing triples per assigned order (no recursion, so m is not
    # bounded by the interpreter's recursion limit): the top's next triple
    # extends the prefix, and the next order's passing triples are pushed
    stack = [iter(admitted)] if (admitted := enter(1)) else []
    while stack:
        base = 3 * (len(stack) - 1)
        for vals in stack[-1]:
            prefix[base:base + 3] = vals
            if admitted := enter(len(stack) + 1):
                stack.append(iter(admitted))
                break
        else:
            stack.pop()
    return Fiber(m, p, tuple(out))


def truncate_stratum(sys: JetSystem, s: Stratum, m: int) -> Stratum:
    """The truncation of ``s`` to level ``m``: a stratum with no rule and
    ``consumed = m``, whose equations include the solved instances of its
    elimination rule that fit below the level, so membership is a plain
    evaluate-and-compare; equations and units that mention an order above
    ``m`` are forgotten (a monomial forced to vanish, such as a product
    cover's ``x10*z15``, is an equation like any other).  Its coefficients
    stay in the field of ``sys``."""
    eqs = [e for e in s.equations if e.max_order() <= m]
    levels = () if s.rule is None else range(s.rule.start_level, m + 1)
    for lvl in levels:
        r = reduced(sys, s, lvl)
        if not r.is_zero() and r.max_order() <= m:
            eqs.append(r)
    return Stratum(
        zero_vars=frozenset(v for v in s.zero_vars if v[1] <= m),
        equations=tuple(eqs),
        units=tuple(u for u in s.units if u.max_order() <= m),
        consumed=m,
    )


def stratum_membership(assign: Mapping[Var, int], T: Stratum) -> bool:
    """Does the point lie on the truncation ``T``?  ``assign`` maps each
    coordinate to the point's residue mod p, and ``T``'s coefficients must
    already be in the probe field of p."""
    return (
        not any(assign.get(v, 0) for v in T.zero_vars)
        and all(u.evaluate(assign) for u in T.units)
        and not any(e.evaluate(assign) for e in T.equations)
    )


def _audit(
    fiber: Fiber,
    truncations: Sequence[Stratum],
    groups: dict[object, list[int]],
    splits: Sequence[tuple[int, int, tuple[int, ...]]],
) -> tuple[dict, dict]:
    """One pass over the fiber: each truncation is compiled once into the
    fiber's prime, and the points' hits come from ``point_hits``, a block
    at a time (a truncation of another level than a nonempty fiber's is a
    ``ValueError``, raised once for the fiber).  The hits give the
    leaf-group cover (``groups``: key -> positions in ``truncations``; a
    point in no group is uncovered) and the split partition (``splits``:
    node id, parent position, child positions).

    Groups and split children are read through precomputed masks, once per
    distinct hits value; a block's points are built only when its verdict
    adds to a report, which lists points in the fiber's order."""
    for T in truncations:
        if T.consumed != fiber.m and fiber.blocks:
            raise ValueError(f"point has {3 * fiber.m} entries, expected {3 * T.consumed}")
    compiled = [compile_stratum(T, fiber.p) for T in truncations]
    group_masks = [(key, _mask(pos)) for key, pos in groups.items()]
    split_masks = [(nid, 1 << parent, _mask(children)) for nid, parent, children in splits]

    def verdict(hits: int) -> tuple:
        """What a point with these hits adds to the reports: () when
        nothing, else the groups holding it and its failed splits as (node
        id, children hit)."""
        keys = [key for key, mask in group_masks if hits & mask]
        fails = [
            (nid, n)
            for nid, parent, children in split_masks
            if hits & parent and (n := (hits & children).bit_count()) != 1
        ]
        return (keys, fails) if fails or len(keys) != 1 else ()

    verdicts: dict[int, tuple] = {}
    uncovered: list[JetPoint] = []
    overlapping: list[tuple[JetPoint, list[object]]] = []
    failures = []
    for head, tails, hits in point_hits(fiber, compiled):
        v = verdicts.get(hits)
        if v is None:
            v = verdicts[hits] = verdict(hits)
        if not v:
            continue
        keys, fails = v
        for pt in (head + tail for tail in tails):
            if not keys:
                uncovered.append(pt)
            elif len(keys) > 1:
                overlapping.append((pt, list(keys)))
            for nid, n in fails:
                failures.append({"node": nid, "point": pt, "hits": n})
    exclusive = {
        "ok": not uncovered and not overlapping,
        "groups": len(groups),
        "uncovered": uncovered,
        "overlapping": overlapping,
    }
    return exclusive, {"ok": not failures, "split_nodes": len(splits), "failures": failures}


def _mask(positions: Iterable[int]) -> int:
    """The bitmask of a set of positions in a truncation list."""
    out = 0
    for i in positions:
        out |= 1 << i
    return out


def _leaf_groups(leaves: Iterable[tuple[Node, int]]) -> dict[object, list[int]]:
    """Positions of leaves grouped by the component they chart."""
    groups: dict[object, list[int]] = {}
    for node, i in leaves:
        key = ("component", node.component) if node.component is not None else ("leaf", node.nid)
        groups.setdefault(key, []).append(i)
    return groups


def coverage_check(fiber: Fiber, leaves: Sequence[Stratum]) -> list[JetPoint]:
    """Fiber points belonging to no leaf; expected empty."""
    groups: dict[object, list[int]] = {i: [i] for i in range(len(leaves))}
    return _audit(fiber, leaves, groups, ())[0]["uncovered"]


def exclusive_cover_check(fiber: Fiber, leaves: Sequence[tuple[Node, Stratum]]) -> dict:
    """Every fiber point should land in exactly one leaf *group*.

    Sibling charts of one cover overlap by design (they describe the same
    locus from different localizations), so leaves are grouped by the
    component they chart; residual and stabilized leaves stand alone.
    """
    groups = _leaf_groups((node, i) for i, (node, _) in enumerate(leaves))
    return _audit(fiber, [T for _, T in leaves], groups, ())[0]


def audit_tree(sys: JetSystem, tree: StratificationTree, fiber: Fiber) -> tuple[dict, dict]:
    """``exclusive_cover_check`` on the nonempty leaves and
    ``split_partition_check`` of a driver run, from one pass over the fiber
    that truncates each node the checks need once."""
    leaves = [node for node in tree.leaves() if node.kind != "empty"]
    split_nodes = [node for node in tree.nodes if node.kind == "split"]
    pos: dict[int, int] = {}
    for nid in [n.nid for n in leaves] + [k for n in split_nodes for k in (n.nid, *n.children)]:
        pos.setdefault(nid, len(pos))
    truncations = [truncate_stratum(sys, tree.nodes[nid].stratum, fiber.m) for nid in pos]
    groups = _leaf_groups((node, pos[node.nid]) for node in leaves)
    splits = [(n.nid, pos[n.nid], tuple(pos[c] for c in n.children)) for n in split_nodes]
    return _audit(fiber, truncations, groups, splits)


def split_partition_check(sys: JetSystem, tree: StratificationTree, fiber: Fiber) -> dict:
    """At every open/closed split node the parent's points must fall into
    exactly one of the two (further evolved) child strata."""
    return audit_tree(sys, tree, fiber)[1]
