"""The level graph of fiber components under truncation.

For each level ``m`` up to a window ``M`` the fiber over the origin is
decomposed by a depth-``m`` driver run; the closure-maximal leaves are the
level-``m`` components.  An edge joins a level-``m`` vertex to a
level-``m+1`` vertex when the deeper component truncates into the
shallower one's closure.  Every structural claim here is windowed to
``M``: the interesting qualitative fact is that beyond a finite threshold
the graph settles into one unbranching chain per component.

Containment of truncations (strata with ``consumed = m``) is decided
syntactically by ``strata.closure_contains`` (zero sets, rewriting by
chart relations).  Its answers of "not contained" rest on where
rewriting stops, not on a proof: a constraint that holds but does not
rewrite to 0 reads as not holding (see its docstring), and the graph is
built on those answers as they are.  Of a level's candidate pieces, a
piece is dropped when it lies in another's closure; each such question
is asked once, and only when the keep rule reads its answer.  When two
same-level vertices stay distinct syntactically but their small
finite-field point sets, tested in each prime's probe field, agree, the
pair is flagged in the report rather than merged.  The graph (mutable)
and its vertices (frozen) are records.
"""

from __future__ import annotations

import functools
from collections import Counter
from itertools import accumulate, combinations
from json.encoder import encode_basestring_ascii as _q
from typing import Callable

from .algebra import Polynomial, Record, format_poly, var_name
from .driver import Covers, run_driver
from .hasse import JetSystem
from .oracle import (
    compile_stratum,
    enumerate_fiber,
    point_hits,
    probe_plan,
    truncate_stratum,
)
from .strata import Stratum, closure_contains


def descriptor_contains(sys: JetSystem, b: Stratum, a: Stratum) -> bool:
    """Does the closure of ``b`` contain ``a``?  (See ``closure_contains``.)"""
    return closure_contains(sys, b, a)


def descriptor_key(d: Stratum, fmt: Callable[[Polynomial], str]) -> tuple:
    """Canonical, hashable, printable form of a truncated descriptor;
    ``fmt`` is ``format_poly`` or a cache of it.  The second slot, once the
    monomials forced to vanish, is always empty (such a monomial is an
    equation); it stays so that schema ``jet-component-graph/1`` keeps its
    four parts."""
    return (
        tuple(sorted(var_name(v) for v in d.zero_vars)),
        (),
        tuple(sorted(fmt(u) for u in d.units)),
        tuple(sorted(fmt(e) for e in d.equations)),
    )


class GraphVertex(Record):
    __slots__ = ("vid", "level", "label", "component_ids", "descriptor")

    def __init__(
        self, vid: int, level: int, label: str, component_ids: tuple[int, ...], descriptor: tuple
    ) -> None:
        self.vid = vid
        self.level = level
        self.label = label
        self.component_ids = component_ids  # stable components flowing through this vertex
        self.descriptor = descriptor


class JetComponentGraph(Record):
    __slots__ = ("schema", "max_level", "vertices", "edges", "flags")
    __hash__ = None

    def __init__(
        self, schema: str, max_level: int, vertices: tuple[GraphVertex, ...],
        edges: tuple[tuple[int, int], ...], flags: tuple[str, ...] = (),
    ) -> None:
        self.schema = schema
        self.max_level = max_level
        self.vertices = vertices
        self.edges = edges  # (lower vid, higher vid), level m -> m+1
        self.flags = flags

    def at_level(self, m: int) -> list[GraphVertex]:
        return [v for v in self.vertices if v.level == m]


SCHEMA = "jet-component-graph/1"

def _level_pieces(sys: JetSystem, covers: Covers, m: int) -> list[tuple[object, Stratum]]:
    """Closure-maximal fiber pieces at level ``m`` with their component
    (if the depth-m run already charted one)."""
    tree = run_driver(sys, covers, max_level=m)
    cands: list[tuple[object, Stratum]] = []
    for comp in tree.components:
        cands.append((comp.index, truncate_stratum(sys, tree.chart_of(comp).stratum, m)))
    for node in tree.leaves():
        if node.kind in ("stabilized", "residual") and node.absorbed_into is None:
            cands.append((None, truncate_stratum(sys, node.stratum, m)))
    # drop pieces strictly inside another piece's closure; of pieces with
    # equal closures keep the first.  inside(i, j): piece i lies in the
    # closure of piece j, asked once and only where the keep rule reads it.
    inside = functools.cache(
        lambda i, j: i != j and descriptor_contains(sys, cands[j][1], cands[i][1])
    )
    return [
        piece
        for i, piece in enumerate(cands)
        if not any(inside(i, j) and (j < i or not inside(j, i)) for j in range(len(cands)))
    ]


def _hit_masks(sys: JetSystem, pieces: list[Stratum], p: int, m: int) -> set[int]:
    """The distinct ``point_hits`` bitmasks of the level-``m`` fiber's F_p
    points on the pieces compiled into the probe field of ``p``: pieces i
    and j hold the same points exactly when bits i and j agree in every mask."""
    compiled = [compile_stratum(d, p) for d in pieces]
    return {hits for _, _, hits in point_hits(enumerate_fiber(sys, p, m), compiled)}


def build_graph(sys: JetSystem, covers: Covers, M: int) -> JetComponentGraph:
    # levels[m - 1]: the level-m pieces, whose vids run from first[m - 1]
    levels = [_level_pieces(sys, covers, m) for m in range(1, M + 1)]
    first = [0, *accumulate(len(pieces) for pieces in levels)]
    # deeper pieces repeat the equations of shallower ones: print each
    # distinct polynomial once per graph
    fmt = functools.cache(format_poly)

    edges: list[tuple[int, int]] = []
    flags: list[str] = []
    for m, pieces in enumerate(levels, start=1):
        # edges down to level m-1
        if m > 1:
            for idx, (_, d) in enumerate(pieces):
                cut = truncate_stratum(sys, d, m - 1)
                hits = [
                    pidx
                    for pidx, (_, pd) in enumerate(levels[m - 2])
                    if descriptor_contains(sys, pd, cut)
                ]
                if not hits:
                    flags.append(
                        f"level {m} piece {idx} has no truncation target at {m - 1}"
                    )
                edges.extend((first[m - 2] + pidx, first[m - 1] + idx) for pidx in hits)
        # undecidable-merge probe: syntactically distinct same-level pieces
        # whose finite point sets agree at every tested prime
        tested = [p for p, deepest in probe_plan(sys.field).items() if m <= deepest]
        if len(pieces) > 1 and tested:
            strata = [d for _, d in pieces]
            masks = set().union(*(_hit_masks(sys, strata, p, m) for p in tested))
            for i, j in combinations(range(len(strata)), 2):
                if not any((h >> i ^ h >> j) & 1 for h in masks):
                    flags.append(
                        f"level {m}: pieces {i} and {j} are syntactically distinct "
                        f"but share every tested F_p point set"
                    )
    edges.sort()

    # propagate stable component ids from the top level downward: an edge's
    # lower end has the smaller vid, so in descending order every vertex is
    # complete before its ids flow down
    comp_ids: list[set[int]] = [set() for _ in range(first[-1])]
    for idx, (comp, _) in enumerate(levels[M - 1]):
        if comp is not None:
            comp_ids[first[M - 1] + idx].add(int(comp))
    for a, b in reversed(edges):
        comp_ids[a] |= comp_ids[b]
    vertices = []
    for m, pieces in enumerate(levels, start=1):
        for vid, (_, d) in enumerate(pieces, start=first[m - 1]):
            ids = tuple(sorted(comp_ids[vid]))
            vertices.append(
                GraphVertex(
                    vid=vid,
                    level=m,
                    label=(f"K{ids[0] + 1}" if ids else f"V{vid}") + f"@{m}",
                    component_ids=ids,
                    descriptor=descriptor_key(d, fmt),
                )
            )
    return JetComponentGraph(
        schema=SCHEMA,
        max_level=M,
        vertices=tuple(vertices),
        edges=tuple(edges),
        flags=tuple(flags),
    )


def simple_branch_check(g: JetComponentGraph) -> dict:
    """Smallest level t such that no vertex at level >= t branches
    (has two or more next-level children) within the window."""
    out_degree = Counter(a for a, _ in g.edges)
    branch_levels = [v.level for v in g.vertices if out_degree[v.vid] > 1]
    threshold = max(branch_levels) + 1 if branch_levels else min(
        (v.level for v in g.vertices), default=1
    )
    chains = []
    if threshold <= g.max_level:
        for v in g.at_level(g.max_level):
            chains.append({"label": v.label, "component_ids": list(v.component_ids)})
    return {
        "ok": threshold <= g.max_level,
        "threshold": threshold if threshold <= g.max_level else None,
        "window": g.max_level,
        "chain_count": len(g.at_level(g.max_level)),
        "chains": chains,
        "flags": list(g.flags),
    }


def to_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` byte for byte on the C string
    encoder, for str, int, bool, None, lists and str-keyed dicts (else TypeError)."""
    chunks: list[str] = []
    put = chunks.append

    def walk(o, nl: str) -> None:
        if isinstance(o, str):
            put(_q(o))
        elif o is None or isinstance(o, bool):
            put("null" if o is None else "true" if o else "false")
        elif isinstance(o, int):
            put(int.__repr__(o))
        elif isinstance(o, dict):
            inner = nl + "  "
            for i, k in enumerate(sorted(o)):
                put(("," if i else "{") + inner + _q(k) + ": ")
                walk(o[k], inner)
            put(nl + "}" if o else "{}")
        elif isinstance(o, list):
            inner = nl + "  "
            try:  # a list of strings in one join
                put("[" + inner + ("," + inner).join(map(_q, o)) + nl + "]" if o else "[]")
            except TypeError:
                for i, v in enumerate(o):
                    put(("," if i else "[") + inner)
                    walk(v, inner)
                put(nl + "]")
        else:
            raise TypeError(f"{type(o).__name__} is not a JSON value")

    walk(obj, "\n")
    return "".join(chunks)


def export(g: JetComponentGraph, fmt: str) -> str:
    if fmt == "dot":
        lines = ["digraph jet_components {"]
        for v in g.vertices:
            lines.append(f'  n{v.vid} [label="{v.label}"];')
        for a, b in g.edges:
            lines.append(f"  n{a} -> n{b};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return to_json(
            {
                "schema": g.schema,
                "max_level": g.max_level,
                "vertices": [
                    {
                        "vid": v.vid,
                        "level": v.level,
                        "label": v.label,
                        "component_ids": list(v.component_ids),
                        "descriptor": [list(part) for part in v.descriptor],
                    }
                    for v in g.vertices
                ],
                "edges": [list(e) for e in g.edges],
                "flags": list(g.flags),
            }
        )
    raise ValueError(f"unknown export format {fmt!r}")
