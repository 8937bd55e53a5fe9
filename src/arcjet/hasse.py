"""Higher derivatives of a defining equation along truncated jet coordinates.

For ``f`` in the order-0 variables, ``f_m`` is the coefficient of ``t^m``
after substituting each coordinate by its truncated series
``x -> sum_k x_k t^k``.

:class:`JetSystem` builds the coefficients bottom-up, one monomial of
``f`` at a time, without multiplying polynomials.  For every factor prefix
of the monomial it memoises integer tables: the coefficient of ``t^k`` in
the product of the factor series, as a map from jet monomials to
multinomial counts (reduced mod p in characteristic p, so counts divisible
by p drop out).  One more factor inserts one coordinate into each monomial
of the prefix's table.  Each coefficient of ``f`` is multiplied once by
each distinct count.  This is a single code path valid in every
characteristic.  The independent route that substitutes honest truncated
series into ``f`` and expands lives with the tests
(``tests/reference_hasse.py``), as do the congruence-shape and
linearization checks read off the tower.

Every consumer reads ``f_m`` modulo coordinates that vanish, and the tower
reads that reduction off a shallower level.  If ``x_0..x_{a-1}``,
``y_0..y_{b-1}`` and ``z_0..z_{c-1}`` vanish (the *frontier* ``(a, b, c)``),
then ``x = t^a * sum_j x_{a+j} t^j`` and likewise for y and z, so a monomial
``x^i y^j z^k`` of ``f`` contributes to ``f_m`` modulo these coordinates
exactly its level ``m - (a*i + b*j + c*k)`` with every order ``o`` of a
family raised by that family's frontier.  That shifted table is the full
level-``m`` table filtered to orders at or above the frontier, in the same
insertion order.  Vanishing coordinates beyond the frontier (a gap such as
``x_2`` with ``x_1`` free) are dropped from the result afterwards.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from .algebra import Mono, Polynomial, Scalar, Var

if TYPE_CHECKING:
    from .strata import Reduction, RewriteRule


class _Relabel(dict):
    """Pairs ``((fam, o), e)`` of jet monomials mapped to ``((fam, o + s), e)``
    for the shift ``s`` of ``fam``, each shifted pair built once and then
    shared by every monomial that holds it."""

    __slots__ = ("shift",)

    def __init__(self, shift: dict[str, int]):
        super().__init__()
        self.shift = shift

    def __missing__(self, pair):
        (fam, order), e = pair
        out = self[pair] = ((fam, order + self.shift[fam]), e)
        return out


class JetSystem:
    """Derivatives ``f_0, f_1, ...`` of one equation modulo vanishing
    coordinates.  The memos of the reductions modulo strata, with their
    levels, and of the driver's moves live here and die with the tower.

    ``f`` must involve only order-0 variables of the families x, y and z
    (the arc parameter ``t`` is not a coordinate).  ``f_m`` lives in the
    coordinates of order <= m.
    """

    def __init__(self, f: Polynomial):
        for fam, order in f.variables():
            if fam not in ("x", "y", "z"):
                raise ValueError(f"defining equation must use x, y and z only, not {fam}")
            if order != 0:
                raise ValueError("defining equation must use order-0 variables only")
        self.f = f
        self.field = f.field
        # per monomial of f: its factor tuple (("x", "y", "y", "z") for
        # x*y^2*z), its degree in each family, its coefficient, and that
        # coefficient's product with each count met so far
        self._monos: list[tuple[tuple[str, ...], tuple[int, ...], Scalar, dict[int, Scalar]]] = []
        for mono, c in f.terms.items():
            key = tuple(fam for (fam, _), e in mono for _ in range(e))
            self._monos.append((key, tuple(map(key.count, "xyz")), c, {}))
        # per factor tuple: level k maps each jet monomial to its count (mod
        # p in characteristic p) in the coefficient of t^k of the product of
        # the series sum_k fam_k t^k; the empty product is the series 1
        self._tables: dict[tuple[str, ...], list[dict[Mono, int]]] = {(): [{(): 1}]}
        # frontier (a, b, c) -> its interned relabelling of jet-monomial pairs
        self._relabels: dict[tuple[int, int, int], _Relabel] = {}
        # reductions modulo strata, equation -> rewrite rule or None, zero
        # set -> the polynomials it reduces to 0 (all kept by ``strata``); the
        # driver's moves keyed by their full arguments: (s, q) -> pivot,
        # (s, n, q, pivot) -> chart, q -> Coxeter number
        self.reductions: dict[tuple, Reduction] = {}
        self.lead_rules: dict[Polynomial, Optional[RewriteRule]] = {}
        self.killed_by: dict[frozenset[Var], set[Polynomial]] = {}
        self.moves: dict[object, object] = {}

    def derivative(self, m: int, zero_vars: Iterable[Var] = frozenset()) -> Polynomial:
        """``f_m`` modulo the coordinates ``zero_vars``: each monomial of
        ``f`` read at its level shifted by the frontier of ``zero_vars``
        (module docstring), then the coordinates past the frontier dropped.
        The empty zero set is ``f_m`` itself."""
        zs = frozenset(zero_vars)
        fr = frontier_of(zs)
        shift = (fr["x"], fr["y"], fr["z"])
        relabel = None
        if any(shift):
            relabel = self._relabels.get(shift)
            if relabel is None:
                relabel = self._relabels[shift] = _Relabel(fr)
            relabel = relabel.__getitem__
        p = self.field.char
        # distinct monomials of f differ in the degree of some family, and
        # so do all the jet monomials they contribute: nothing collides
        out: dict[Mono, Scalar] = {}
        for key, degs, c, products in self._monos:
            level = m - sum(d * s for d, s in zip(degs, shift))
            if level < 0:
                continue
            for jm, n in self._series(key, level)[level].items():
                val = products.get(n)
                if val is None:
                    val = products[n] = c * n % p if p else c * n
                if val:
                    out[tuple(map(relabel, jm)) if relabel else jm] = val
        f_m = Polynomial._of_terms(self.field, out)
        # the initial segments left nothing to drop: only a gap can
        return f_m.reduce_mod_vars(zs) if len(zs) > sum(shift) else f_m

    def _series(self, key: tuple[str, ...], up_to: int) -> list[dict[Mono, int]]:
        """Count tables of t^0..t^up_to of the product over ``key`` of the
        family series, extended on demand.  The table of ``key`` is that of
        its prefix ``key[:-1]`` times one more series: level k collects,
        for each i, the monomials of the prefix's level i with the
        coordinate ``(fam, k - i)`` inserted.  So a power of one family is
        a prefix of every higher power, and a monomial in several families
        reuses the table of its leading factors.  The prefixes are extended
        shortest first, in a loop: a monomial's degree is not bounded by the
        interpreter's recursion limit."""
        tables = self._tables
        lst = tables.get(key)
        if lst is not None and len(lst) > up_to:
            return lst
        lower = tables[()]
        lower.extend({} for _ in range(up_to + 1 - len(lower)))
        p = self.field.char
        for length in range(1, len(key) + 1):
            fam = key[length - 1]
            lst = tables.setdefault(key[:length], [])
            while len(lst) <= up_to:
                k = len(lst)
                level: dict[Mono, int] = {}
                get = level.get
                for i in range(k + 1):
                    order = k - i
                    v = (fam, order)
                    single = ((v, 1),)
                    for jm, n in lower[i].items():
                        # the pairs of fam trail jm (key is sorted by family),
                        # in increasing order: find where v goes among them
                        j = len(jm)
                        while j and jm[j - 1][0][0] == fam and jm[j - 1][0][1] > order:
                            j -= 1
                        if j and jm[j - 1][0] == v:
                            new = jm[: j - 1] + ((v, jm[j - 1][1] + 1),) + jm[j:]
                        else:
                            new = jm[:j] + single + jm[j:]
                        level[new] = get(new, 0) + n
                if p:
                    level = {jm: r for jm, n in level.items() if (r := n % p)}
                lst.append(level)
            lower = lst
        return lower


def frontier_of(zero_vars: Iterable[Var]) -> dict[str, int]:
    zs = set(zero_vars)
    out = {}
    for fam in ("x", "y", "z"):
        i = 0
        while (fam, i) in zs:
            i += 1
        out[fam] = i
    return out
