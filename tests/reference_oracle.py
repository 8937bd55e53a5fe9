"""Reference route of the finite-field oracle, run only by the tests.

``transport_poly`` and ``transport_stratum`` move a polynomial or a
truncation into the probe field as whole objects, the route the oracle took
before ``compile_poly`` moved each coefficient as it compiled it.  Compiling
the moved copy must give the same tables, and the same error, as compiling
the source; ``stratum_membership`` and ``Polynomial.evaluate`` read the moved
copies.
"""

from __future__ import annotations

from arcjet.algebra import Field, Polynomial, format_poly
from arcjet.oracle import OracleError, transport_scalar
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
