"""Higher derivatives of a defining equation along truncated jet coordinates.

For ``f`` in the order-0 variables, ``derivative(m)`` is the coefficient of
``t^m`` after substituting each coordinate by its truncated series
``x -> sum_k x_k t^k``.  Two independent implementations are provided:

* :class:`JetSystem` builds the coefficients bottom-up, one monomial of
  ``f`` at a time, by convolving power series coefficient lists.  This is a
  single code path valid in every characteristic.
* :func:`series_oracle` substitutes honest truncated series (with an
  explicit ``t`` variable) into ``f`` and expands.  It exists purely as a
  cross-check of the first route and shares no logic with it beyond raw
  polynomial multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .algebra import Polynomial, Var, var


class JetSystem:
    """Derivatives ``f_0, f_1, ...`` of one equation, memoized.

    ``f`` must involve only order-0 variables.  ``f_m`` lives in the
    coordinates of order <= m.
    """

    def __init__(self, f: Polynomial):
        for v in f.variables():
            if v[1] != 0:
                raise ValueError("defining equation must use order-0 variables only")
        self.f = f
        self.field = f.field
        self._derivs: list[Polynomial] = []
        # per (family, exponent): list of coefficient polynomials of (sum_k fam_k t^k)^e
        self._pow_lists: dict[tuple[str, int], list[Polynomial]] = {}

    def derivative(self, m: int) -> Polynomial:
        while len(self._derivs) <= m:
            self._derivs.append(self._compute(len(self._derivs)))
        return self._derivs[m]

    def _compute(self, m: int) -> Polynomial:
        out = Polynomial.zero(self.field)
        for mono, c in self.f.terms.items():
            lists = [self._power_list((fam), e, m) for (fam, _), e in mono]
            conv = self._convolve_many(lists, m)
            out = out + conv.scale(c)
        return out

    def _power_list(self, fam: str, e: int, up_to: int) -> list[Polynomial]:
        lst = self._pow_lists.setdefault((fam, e), [])
        # extend on demand
        if e == 1:
            while len(lst) <= up_to:
                k = len(lst)
                lst.append(Polynomial.variable(self.field, var(fam, k)))
            return lst
        lower = self._power_list(fam, e - 1, up_to)
        base = self._power_list(fam, 1, up_to)
        while len(lst) <= up_to:
            k = len(lst)
            acc = Polynomial.zero(self.field)
            for i in range(k + 1):
                acc = acc + lower[i] * base[k - i]
            lst.append(acc)
        return lst

    def _convolve_many(self, lists: Sequence[list[Polynomial]], m: int) -> Polynomial:
        if not lists:
            # a constant term only contributes at order 0
            return Polynomial.const(self.field, 1) if m == 0 else Polynomial.zero(self.field)
        if len(lists) == 1:
            return lists[0][m]
        # fold left: convolution coefficient at m only needs prefixes
        cur = lists[0]
        for nxt in lists[1:-1]:
            cur = [
                sum(
                    (cur[i] * nxt[k - i] for i in range(k + 1)),
                    Polynomial.zero(self.field),
                )
                for k in range(m + 1)
            ]
        last = lists[-1]
        acc = Polynomial.zero(self.field)
        for i in range(m + 1):
            acc = acc + cur[i] * last[m - i]
        return acc


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
    expanded = f.substitute(subs)
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


def frontier_of(zero_vars: Iterable[Var]) -> dict[str, int]:
    zs = set(zero_vars)
    out = {}
    for fam in ("x", "y", "z"):
        i = 0
        while (fam, i) in zs:
            i += 1
        out[fam] = i
    return out


def congruence_shape(sys: JetSystem, n: int, zero_vars: Iterable[Var]) -> CongruenceShape:
    """Reduce ``f_n`` modulo the given coordinate ideal.

    Also attempts to recognise the reduction as ``f`` restricted to a subset
    of its exponent triples, with each coordinate replaced by the frontier
    variable of its family (the shape guaranteed in large characteristic
    when all lower derivatives already lie in the ideal).
    """
    zs = frozenset(zero_vars)
    for k in range(n):
        if sys.derivative(k).reduce_mod_vars(zs):
            raise ValueError(f"f_{k} does not lie in the variable ideal")
    reduced = sys.derivative(n).reduce_mod_vars(zs)
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
    reduced = sys.derivative(n + offset).reduce_mod_vars(zs)
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
