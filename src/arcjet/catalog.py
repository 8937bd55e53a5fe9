"""Built-in surface singularity presets and their verification data.

Each preset bundles a defining equation (with its legal extra-term variants
per characteristic), the cover unit sets handed to the driver, the expected
number of arc components, and golden reduction tables used to cross-check
the level-by-level computation.  The driver finds the terminal cover
itself (the cover whose relation has its level as Coxeter number); the
unit sets are empty except for E8's two, at levels 15 and 30, which only
fix the golden presentation of its charts.  Certificates of
pairwise non-inclusion between component candidates are generated and
replayed here as well.  Presets, table lines and certificates are frozen
records; a preset caches its one tower (``system``) in its ``__dict__``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Optional

from .algebra import (
    Field, ParseError, Polynomial, Record, Var, format_poly, parse_poly, var, var_name,
)
from .hasse import JetSystem
from .driver import Covers, StratificationTree, run_driver
from .strata import (
    RestrictionIncompatible,
    Stratum,
    forced_vanishing,
    nonvanishing_evidence,
    reduction_of,
)

SUPPORTED_CHARS = (0, 2, 3, 5, 7)


class PresetError(ValueError):
    pass


class SingularityPreset(Record):
    __slots__ = (
        "kind", "n", "char", "variant", "equation", "covers", "expected_count", "max_level",
        "__dict__",
    )

    def __init__(
        self, kind: str, n: int, char: int, variant: str, equation: Polynomial,
        covers: Covers, expected_count: int, max_level: int,
    ) -> None:
        self.kind = kind  # "A" | "D" | "E6" | "E7" | "E8"
        self.n = n  # A: rank; D: half the rank; E-kinds: fixed
        self.char = char
        self.variant = variant  # extra term appended to the base equation ("" = none)
        self.equation = equation
        self.covers = covers
        self.expected_count = expected_count
        self.max_level = max_level

    @property
    def label(self) -> str:
        core = {"A": f"A{self.n}", "D": f"D{2 * self.n}"}.get(self.kind, self.kind)
        h = f"+{self.variant}" if self.variant else ""
        return f"{core}(char {self.char}{h})"

    @cached_property
    def system(self) -> JetSystem:
        """The preset's one derivative tower, shared by every check."""
        return JetSystem(self.equation)


def legal_variants(kind: str, n: int, char: int) -> tuple[str, ...]:
    if kind == "A":
        return ("",)
    if kind == "D":
        if char == 2:
            return ("",) + tuple(f"x*y^{n - r}*z" for r in range(1, n - 1))
        return ("",)
    if kind == "E8":
        if char == 2:
            return ("", "x*y^3*z", "x*y^2*z", "y^3*z", "x*y*z")
        if char == 3:
            return ("", "x^2*y^3", "x^2*y^2")
        if char == 5:
            return ("", "x*y^4")
        return ("",)
    if kind in ("E6", "E7"):
        return ("",)
    raise PresetError(f"unknown kind {kind!r}")


def supported_chars(kind: str) -> tuple[int, ...]:
    if kind == "E6":
        # the quartic term degenerates to a non-isolated singularity in char 2
        return (0, 3, 5, 7)
    return SUPPORTED_CHARS


def _base_equation(kind: str, n: int) -> str:
    if kind == "A":
        return f"z^{n + 1} + x*y"
    if kind == "D":
        return f"z^2 + x^2*y + x*y^{n}"
    if kind == "E6":
        return "z^2 + x^3 + y^4"
    if kind == "E7":
        return "z^2 + x^3 + x*y^3"
    if kind == "E8":
        return "z^2 + x^3 + y^5"
    raise PresetError(f"unknown kind {kind!r}")


def preset(kind: str, n: int = 0, char: int = 0, variant: str = "") -> SingularityPreset:
    if kind == "A" and n < 1:
        raise PresetError("A requires n >= 1")
    if kind == "D" and n < 2:
        raise PresetError("D requires n >= 2 (rank 2n)")
    if kind in ("E6", "E7", "E8"):
        n = int(kind[1])
    if char not in supported_chars(kind):
        raise PresetError(f"characteristic {char} not supported for {kind}")
    legal = legal_variants(kind, n, char)
    if variant not in legal:
        raise PresetError(
            f"variant {variant!r} not in legal list for {kind} char {char}: {legal}"
        )
    # The quartic cone z^2 + y^4 only factors over a field containing a
    # square root of -1, and the E6 fiber genuinely decomposes along that
    # factorization.  Adjoin i whenever the base field lacks it (char 5
    # already has one: 2^2 = -1).
    needs_i = kind == "E6" and (char == 0 or char % 4 == 3)
    field = Field(char, i_adjoined=needs_i)
    text = _base_equation(kind, n)
    if variant:
        text += " + " + variant
    try:
        eq = parse_poly(text, field)
    except ParseError as exc:  # an exponent n + 1 or n above the parser's bound
        raise PresetError(f"{kind} with n = {n}: {exc}") from None
    expected = {"A": n, "D": 2 * n, "E6": 6, "E7": 7, "E8": 8}[kind]
    max_level = {
        "A": n + 6,
        "D": 4 * n + 6,
        "E6": 22,
        "E7": 24,
        "E8": 36,
    }[kind]
    return SingularityPreset(
        kind=kind,
        n=n,
        char=char,
        variant=variant,
        equation=eq,
        # only E8 fixes which coordinates its covers at levels 15 and 30 invert
        covers=(
            {15: ((var("x", 5),),), 30: ((var("z", 15), var("x", 10)),)}
            if kind == "E8"
            else {}
        ),
        expected_count=expected,
        max_level=max_level,
    )


def preset_grid(
    a_ranks=(1, 2, 3, 4, 5, 6), d_halves=(2, 3, 4), exceptional=("E6", "E7", "E8")
) -> Iterator[SingularityPreset]:
    for n in a_ranks:
        for p in supported_chars("A"):
            yield preset("A", n, p)
    for n in d_halves:
        for p in supported_chars("D"):
            for h in legal_variants("D", n, p):
                yield preset("D", n, p, h)
    for kind in exceptional:
        for p in supported_chars(kind):
            for h in legal_variants(kind, 0, p):
                yield preset(kind, 0, p, h)


def components(preset: SingularityPreset) -> StratificationTree:
    """Run the stratification and check the component count and residual
    absorption demanded by the preset."""
    tree = run_driver(preset.system, preset.covers, preset.max_level)
    if len(tree.components) != preset.expected_count:
        raise PresetError(
            f"{preset.label}: got {len(tree.components)} components, "
            f"expected {preset.expected_count}"
        )
    for node in tree.residuals():
        if node.absorbed_into is None:
            raise PresetError(
                f"{preset.label}: residual at level {node.level} not absorbed"
            )
    return tree


# -- golden reduction tables -------------------------------------------------


class CongruenceLine(Record):
    __slots__ = ("level", "zeroed", "expected", "label", "strict")

    def __init__(
        self, level: int, zeroed: tuple[Var, ...], expected: str, label: str, strict: bool = True
    ) -> None:
        self.level = level
        self.zeroed = zeroed
        self.expected = expected
        self.label = label
        self.strict = strict


def _upto(xi: int, yj: int, zh: int, exclude: tuple[Var, ...] = ()) -> tuple[Var, ...]:
    """All variables x_{<=xi}, y_{<=yj}, z_{<=zh} (order 0 included), minus
    any excluded ones.  Negative bound = none of that family."""
    out = []
    for fam, bound in (("x", xi), ("y", yj), ("z", zh)):
        for k in range(bound + 1):
            v = var(fam, k)
            if v not in exclude:
                out.append(v)
    return tuple(out)


def golden_table(preset: SingularityPreset) -> tuple[CongruenceLine, ...]:
    strict = preset.variant == ""
    n = preset.n
    lines: list[CongruenceLine] = []

    def add(level, zeroed, expected, label):
        lines.append(CongruenceLine(level, zeroed, expected, label, strict))

    if preset.kind == "A":
        for i in range(1, n):
            add(i + 1, _upto(i - 1, 0, 0), f"x{i}*y1", f"ladder i={i}")
        add(n + 1, _upto(n - 1, 0, 0), f"z1^{n + 1} + x{n}*y1", "final level")
    elif preset.kind == "D":
        for i in range(1, n - 1):
            add(2 * i, _upto(i - 1, 0, i - 1), f"z{i}^2", f"even ladder i={i}")
            add(2 * i + 1, _upto(i - 1, 0, i), f"x{i}^2*y1", f"odd ladder i={i}")
        add(2 * n - 2, _upto(n - 2, 0, n - 2), f"z{n - 1}^2", "branch-level even")
        add(
            2 * n - 1,
            _upto(n - 2, 0, n - 1),
            f"x{n - 1}^2*y1 + x{n - 1}*y1^{n}",
            "branch-level odd",
        )
        # the context here has y_1 already forced to vanish
        add(2 * n, _upto(n - 1, 1, n - 1), f"z{n}^2", "post-branch even")
        for i in range(n, 2 * n - 2):
            add(2 * i + 1, _upto(i - 1, 1, i), "0", f"upper ladder odd i={i}")
            add(
                2 * i + 2,
                _upto(i - 1, 1, i),
                f"z{i + 1}^2 + x{i}^2*y2",
                f"upper ladder even i={i}",
            )
        add(4 * n - 3, _upto(2 * n - 3, 1, 2 * n - 2), "0", "top odd")
        add(
            4 * n - 2,
            _upto(2 * n - 3, 1, 2 * n - 2),
            f"z{2 * n - 1}^2 + x{2 * n - 2}^2*y2 + x{2 * n - 2}*y2^{n}",
            "top even",
        )
        # pairwise witness lines: the lower component forces y2 to vanish,
        # the higher one keeps it moving
        for i in range(1, 2 * n - 2):
            for j in range(i + 1, 2 * n - 2):
                add(
                    2 * i + 2,
                    _upto(j - 1, 1, j, exclude=(var("x", i),)),
                    f"x{i}^2*y2",
                    f"witness low ({i},{j})",
                )
                add(
                    2 * j + 2,
                    _upto(j - 1, 1, j),
                    f"x{j}^2*y2 + z{j + 1}^2",
                    f"witness high ({i},{j})",
                )
    elif preset.kind == "E8":
        rows = [
            (2, _upto(0, 0, 0), "z1^2"),
            (3, _upto(0, 0, 1), "x1^3"),
            (4, _upto(1, 0, 1), "z2^2"),
            (5, _upto(1, 0, 2), "y1^5"),
            (6, _upto(1, 1, 2), "z3^2 + x2^3"),
            (7, _upto(2, 1, 3), "0"),
            (8, _upto(2, 1, 3), "z4^2"),
            (9, _upto(2, 1, 4), "x3^3"),
            (10, _upto(3, 1, 4), "z5^2 + y2^5"),
            (11, _upto(3, 2, 5), "0"),
            (12, _upto(3, 2, 5), "z6^2 + x4^3"),
            (13, _upto(4, 2, 6), "0"),
            (14, _upto(4, 2, 6), "z7^2"),
            (15, _upto(4, 2, 7), "x5^3 + y3^5"),
            (16, _upto(5, 3, 7), "z8^2"),
            (17, _upto(5, 3, 8), "0"),
            (18, _upto(5, 3, 8), "z9^2 + x6^3"),
            (19, _upto(6, 3, 9), "0"),
            (20, _upto(6, 3, 9), "z10^2 + y4^5"),
            (21, _upto(6, 4, 10), "x7^3"),
            (22, _upto(7, 4, 10), "z11^2"),
            (23, _upto(7, 4, 11), "0"),
            (24, _upto(7, 4, 11), "z12^2 + x8^3"),
            (25, _upto(8, 4, 12), "y5^5"),
            (26, _upto(8, 5, 12), "z13^2"),
            (27, _upto(8, 5, 13), "x9^3"),
            (28, _upto(9, 5, 13), "z14^2"),
            (29, _upto(9, 5, 14), "0"),
            (30, _upto(9, 5, 14), "z15^2 + x10^3 + y6^5"),
        ]
        for level, zeroed, expected in rows:
            add(level, zeroed, expected, f"ladder level {level}")
    # E6/E7 are derived presets: no golden reduction lines, only invariants
    return tuple(lines)


def verify_congruence_table(preset: SingularityPreset) -> dict:
    sys = preset.system
    results = []
    ok = True
    for line in golden_table(preset):
        computed = sys.derivative(line.level, frozenset(line.zeroed))
        want = parse_poly(line.expected, sys.field)
        match = computed == want
        if line.strict and not match:
            ok = False
        results.append(
            {
                "level": line.level,
                "label": line.label,
                "expected": line.expected,
                "computed": format_poly(computed),
                "match": match,
                "strict": line.strict,
            }
        )
    return {
        "preset": preset.label,
        "lines": results,
        "discrepancies": [r for r in results if not r["match"]],
        "ok": ok,
    }


# -- non-inclusion certificates ----------------------------------------------


class WitnessCertificate(Record):
    __slots__ = ("kind", "witness", "evidence", "target", "restriction", "level")

    def __init__(
        self, kind: str, witness: Optional[str] = None, evidence: str = "",
        target: Optional[Var] = None, restriction: tuple[Var, ...] = (),
        level: Optional[int] = None,
    ) -> None:
        self.kind = kind  # "unit-vs-zero" | "equal-dimension" | "forced-vanishing"
        self.witness = witness  # vanishing polynomial (unit-vs-zero)
        self.evidence = evidence
        self.target = target  # forced-vanishing data
        self.restriction = restriction
        self.level = level


class PairVerdict(Record):
    """Whether component ``excluded`` is shown not to lie in the closure of
    component ``container``: resolved exactly when a certificate is held."""

    __slots__ = ("excluded", "container", "certificate")

    def __init__(
        self, excluded: int, container: int, certificate: Optional[WitnessCertificate]
    ) -> None:
        self.excluded = excluded
        self.container = container
        self.certificate = certificate

    def describe(self) -> dict:
        c = self.certificate
        return {
            "excluded": self.excluded,
            "container": self.container,
            "resolved": c is not None,
            "certificate": None if c is None else {
                "container": self.container, "excluded": self.excluded, "kind": c.kind,
                "witness": c.witness, "evidence": c.evidence, "level": c.level,
                "target": None if c.target is None else var_name(c.target),
                "restriction": [var_name(v) for v in c.restriction],
            },
        }


def _unit_vs_zero(sys: JetSystem, a: Stratum, b: Stratum) -> Optional[WitnessCertificate]:
    """Evidence that component a is not inside component b: something that
    vanishes on all of b but not (at least generically) on a."""
    candidates: list[Polynomial] = [
        Polynomial.variable(sys.field, v)
        for v in sorted(b.zero_vars, key=lambda v: (v[1], v[0]))
    ]
    candidates.extend(b.equations)
    red = reduction_of(sys, a)
    best: Optional[WitnessCertificate] = None
    for g in candidates:
        val = red(g)
        if val.is_zero():
            continue
        if a.is_unit_monomial(val):
            return WitnessCertificate(
                kind="unit-vs-zero",
                witness=format_poly(g),
                evidence=f"reduces to the unit {format_poly(val)}",
            )
        if best is None and len(g.terms) == 1:
            v = next(iter(g.variables()))
            ev = nonvanishing_evidence(sys, a, v)
            if ev is not None:
                best = WitnessCertificate(
                    kind="unit-vs-zero",
                    witness=format_poly(g),
                    evidence=f"coordinate is {ev}",
                )
    return best


def _deficiency(chart: Stratum, m: int) -> int:
    """Codimension of the level-m truncation of the chart inside the full
    coordinate space of orders 1..m."""
    d = sum(1 for v in chart.zero_vars if 1 <= v[1] <= m)
    # the chart's rule solves one coordinate at each level start_level .. m
    return d + len(chart.equations) + max(0, m - chart.rule.start_level + 1)


def _equal_dimension_cert(
    sys: JetSystem, a: Stratum, b: Stratum, horizon: int
) -> Optional[WitnessCertificate]:
    """When two irreducible candidates have the same truncation dimension at
    every large level, a containment would force equality; one coordinate
    vanishing identically on one side and staying nonzero on the other rules
    equality out.  Applies only to single-relation (graph-like) charts."""
    if len(a.equations) > 1 or len(b.equations) > 1:
        return None
    if any(_deficiency(a, m) != _deficiency(b, m) for m in (horizon - 1, horizon)):
        return None
    for v in sorted(a.zero_vars, key=lambda v: (v[1], v[0])):
        ev = nonvanishing_evidence(sys, b, v)
        if ev == "unit":
            return WitnessCertificate(
                kind="equal-dimension",
                witness=var_name(v),
                evidence=(
                    f"same truncation dimension at levels {horizon - 1},{horizon}; "
                    f"{var_name(v)} vanishes on the excluded set but is {ev}-nonzero "
                    "on the container, so the two equidimensional irreducible sets differ"
                ),
            )
    return None


FORCED_SEARCH_WINDOW = 8


def _forced_vanishing_cert(
    sys: JetSystem, a: Stratum, b: Stratum, max_level: int
) -> Optional[WitnessCertificate]:
    """Evidence that a ⊄ b using the chart b's elimination identity: find a
    coordinate solved on b, nonvanishing on a, whose defining numerator dies
    after restricting to a's vanishing set (minus the identity's own
    coefficient support)."""
    rule = b.rule
    coeff_vars = set(rule.coeff.variables())
    for m in range(rule.start_level, rule.start_level + FORCED_SEARCH_WINDOW):
        w = (rule.family, rule.solved_order(m))
        if w in b.zero_vars or w in a.zero_vars:
            continue
        ev = nonvanishing_evidence(sys, a, w)
        if ev is None:
            continue
        restriction = tuple(
            v
            for v in sorted(a.zero_vars, key=lambda v: (v[0], v[1]))
            if v not in coeff_vars
        )
        try:
            if forced_vanishing(sys, b, restriction, w, max_level=max_level):
                return WitnessCertificate(
                    kind="forced-vanishing",
                    target=w,
                    restriction=restriction,
                    level=m,
                    evidence=f"target {ev} on the excluded chart",
                )
        except RestrictionIncompatible:
            continue
    return None


def noninclusion_matrix(preset: SingularityPreset, tree: StratificationTree) -> dict:
    sys = preset.system
    charts = {c.index: tree.chart_of(c).stratum for c in tree.components}
    verdicts: list[PairVerdict] = []
    unresolved: list[tuple[int, int]] = []
    for ai in sorted(charts):
        for bi in sorted(charts):
            if ai == bi:
                continue
            a, b = charts[ai], charts[bi]
            cert = (
                _unit_vs_zero(sys, a, b)
                or _forced_vanishing_cert(sys, a, b, preset.max_level)
                or _equal_dimension_cert(sys, a, b, preset.max_level)
            )
            if cert is None:
                unresolved.append((ai, bi))
            verdicts.append(PairVerdict(ai, bi, cert))
    return {
        "preset": preset.label,
        "pairs": verdicts,
        "unresolved": unresolved,
        "ok": not unresolved,
    }
