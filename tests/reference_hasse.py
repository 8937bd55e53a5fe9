"""Reference routes of the derivative tower, run only by the tests.

``series_oracle`` substitutes honest truncated series (with an explicit
``t`` variable) into ``f`` and expands.  It exists purely as a cross-check
of ``arcjet.hasse.JetSystem`` and shares no logic with it beyond raw
polynomial multiplication (``substitute``): it must not call the tower.
``congruence_shape`` and ``linearize`` read off the tower the reduction
shapes that acceptance criterion 5 checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from arcjet.algebra import Polynomial, Var
from arcjet.hasse import JetSystem, frontier_of


def substitute(f: Polynomial, values: Mapping[Var, Polynomial]) -> Polynomial:
    """Substitute polynomials for variables of ``f`` (generic composition)."""
    field = f.field
    out = Polynomial.zero(field)
    pow_cache: dict[tuple[Var, int], Polynomial] = {}
    for m, c in f.terms.items():
        term = Polynomial.const(field, c)
        for v, e in m:
            if v in values:
                key = (v, e)
                if key not in pow_cache:
                    pow_cache[key] = values[v] ** e
                term = term * pow_cache[key]
            else:
                term = term * Polynomial.variable(field, v, e)
        out = out + term
    return out


def series_oracle(f: Polynomial, m: int) -> list[Polynomial]:
    """Derivatives ``f_0..f_m`` by direct truncated-series substitution."""
    field = f.field
    tvar = ("t", 1)
    subs: dict[Var, Polynomial] = {}
    for fam in ("x", "y", "z"):
        series = Polynomial.zero(field)
        for k in range(m + 1):
            series = series + Polynomial.monomial(
                field, ((( fam, k), 1), (tvar, k)) if k else (((fam, 0), 1),), 1
            )
        subs[(fam, 0)] = series
    expanded = substitute(f, subs)
    # collect coefficients of t^0..t^m
    buckets = expanded.split_by_degree(tvar)
    out = []
    for k in range(m + 1):
        out.append(buckets.get(k, Polynomial.zero(field)))
    return out


@dataclass(frozen=True)
class CongruenceShape:
    """Reduction of ``f_n`` modulo a variable ideal, with frontier data.

    ``frontier`` maps each family to the smallest order not contained in the
    ideal.  When the reduction is a sum of evaluated exponent triples of the
    original equation (each coordinate replaced by its frontier variable),
    ``exponent_set`` records those triples; otherwise it is None.
    """

    level: int
    reduced: Polynomial
    frontier: dict[str, int]
    exponent_set: Optional[frozenset[tuple[int, int, int]]]


def congruence_shape(sys: JetSystem, n: int, zero_vars: Iterable[Var]) -> CongruenceShape:
    """Reduce ``f_n`` modulo the given coordinate ideal.

    Also attempts to recognise the reduction as ``f`` restricted to a subset
    of its exponent triples, with each coordinate replaced by the frontier
    variable of its family (the shape guaranteed in large characteristic
    when all lower derivatives already lie in the ideal).
    """
    zs = frozenset(zero_vars)
    for k in range(n):
        if sys.derivative(k, zs):
            raise ValueError(f"f_{k} does not lie in the variable ideal")
    reduced = sys.derivative(n, zs)
    fr = frontier_of(zs)
    exponents = _match_exponent_set(sys, reduced, fr)
    return CongruenceShape(n, reduced, fr, exponents)


def _match_exponent_set(
    sys: JetSystem, reduced: Polynomial, fr: dict[str, int]
) -> Optional[frozenset[tuple[int, int, int]]]:
    field = sys.field
    matched: set[tuple[int, int, int]] = set()
    acc = Polynomial.zero(field)
    for mono, c in sys.f.terms.items():
        exps = {"x": 0, "y": 0, "z": 0}
        for (fam, _), e in mono:
            exps[fam] = e
        image = Polynomial.const(field, c)
        for fam in ("x", "y", "z"):
            if exps[fam]:
                image = image * Polynomial.variable(field, (fam, fr[fam]), exps[fam])
        key = next(iter(image.terms), None)
        if key is not None and key in reduced.terms:
            matched.add((exps["x"], exps["y"], exps["z"]))
            acc = acc + image
    if acc == reduced:
        return frozenset(matched)
    return None


@dataclass(frozen=True)
class Linearization:
    """``f_{n+offset}`` modulo the ideal, split into tail terms and a rest.

    ``tail_coeffs`` maps each family to the coefficient of the variable of
    order ``frontier + offset`` (zero polynomial when absent).  ``rest`` is
    what remains; ``window_ok`` states that the rest only involves, in each
    family, orders strictly below ``frontier + offset``.
    """

    level: int
    offset: int
    tail_coeffs: dict[str, Polynomial]
    rest: Polynomial
    window_ok: bool


def linearize(sys: JetSystem, n: int, zero_vars: Iterable[Var], offset: int) -> Linearization:
    """Split ``f_{n+offset}`` mod the ideal as sum of tail-variable terms plus rest."""
    if offset < 1:
        raise ValueError("offset must be >= 1")
    zs = frozenset(zero_vars)
    fr = frontier_of(zs)
    reduced = sys.derivative(n + offset, zs)
    coeffs: dict[str, Polynomial] = {}
    rest = reduced
    for fam in ("x", "y", "z"):
        tail = (fam, fr[fam] + offset)
        parts = rest.split_by_degree(tail)
        if any(d >= 2 for d in parts):
            raise ValueError(f"tail variable {fam}{fr[fam]+offset} occurs nonlinearly")
        coeffs[fam] = parts.get(1, Polynomial.zero(sys.field))
        rest = parts.get(0, Polynomial.zero(sys.field))
    window_ok = True
    for v in rest.variables():
        fam, order = v
        if fam in fr and order >= fr[fam] + offset:
            window_ok = False
            break
    return Linearization(n + offset, offset, coeffs, rest, window_ok)
