"""Derivative tower: recursive route vs series route, shapes, linearization."""

import pytest
from hypothesis import given, settings, strategies as st

from arcjet.algebra import Field, Polynomial, QQ, parse_poly, var
from arcjet.catalog import preset_grid
from arcjet.hasse import (
    JetSystem,
    congruence_shape,
    frontier_of,
    linearize,
    series_oracle,
)


FIELDS = [QQ, Field(2), Field(3), Field(5)]


def base_poly_strategy(field, max_exp=2, max_terms=5, max_degree=6):
    """Polynomials in x0, y0, z0 only (base equations)."""
    coeff = st.integers(min_value=-9, max_value=9).filter(bool)
    exp = st.integers(0, max_exp)
    mono = st.tuples(exp, exp, exp).filter(lambda e: sum(e) <= max_degree)
    term = st.tuples(mono, coeff)
    def build(terms):
        acc = Polynomial.zero(field)
        for (ex, ey, ez), c in terms:
            m = Polynomial.const(field, c)
            for fam, e in (("x", ex), ("y", ey), ("z", ez)):
                if e:
                    m = m * Polynomial.variable(field, var(fam, 0), e)
            acc = acc + m
        return acc
    return st.lists(term, min_size=1, max_size=max_terms).map(build)


# -- the two derivative routes must agree -----------------------------------


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_derivatives_match_series_route(field, data):
    f = data.draw(base_poly_strategy(field))
    m = data.draw(st.integers(0, 8))
    sys = JetSystem(f)
    expected = series_oracle(f, m)
    for k in range(m + 1):
        assert sys.derivative(k) == expected[k], f"mismatch at order {k} for {f}"


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_derivatives_match_series_route_high_powers(field, data):
    """Exponents up to 5: the inserted coordinate lands inside runs of
    repeated same-family coordinates, and counts divisible by p vanish."""
    f = data.draw(base_poly_strategy(field, max_exp=5, max_terms=3))
    m = data.draw(st.integers(0, 7))
    sys = JetSystem(f)
    expected = series_oracle(f, m)
    for k in range(m + 1):
        assert sys.derivative(k) == expected[k], f"mismatch at order {k} for {f}"


@pytest.mark.parametrize("field", FIELDS)
def test_e8_derivatives_match_series_route_to_level_12(field):
    f = parse_poly("z^2 + x^3 + y^5", field)
    sys = JetSystem(f)
    expected = series_oracle(f, 12)
    for k in range(13):
        assert sys.derivative(k) == expected[k], f"mismatch at order {k} over {field}"


@pytest.mark.parametrize("text", ["z^2 + x*y + t", "z^2 + x*y*t^2", "z^2 + x1*y"])
def test_equation_outside_the_order_zero_coordinates_is_rejected(text):
    """The arc parameter t is not a coordinate, and the tower's input is in
    x0, y0 and z0 only."""
    with pytest.raises(ValueError):
        JetSystem(parse_poly(text, QQ))


def test_derivatives_match_series_route_on_the_grid():
    """The tower against the series route on every equation of the preset
    grid, in its own field: powers up to y^5 (E8), Q(i) and F_p(i) (E6),
    and the variants with three families in one monomial."""
    equations = list(dict.fromkeys(pr.equation for pr in preset_grid()))
    assert any(len(mono) == 3 for f in equations for mono in f.terms)
    for f in equations:
        sys = JetSystem(f)
        expected = series_oracle(f, 7)
        for k in range(8):
            assert sys.derivative(k) == expected[k], f"mismatch at order {k} for {f}"


def test_derivative_examples():
    sys = JetSystem(parse_poly("z^2 + x*y", QQ))
    assert sys.derivative(0) == parse_poly("z0^2 + x0*y0", QQ)
    assert sys.derivative(1) == parse_poly("2*z0*z1 + x0*y1 + x1*y0", QQ)
    assert sys.derivative(2) == parse_poly(
        "z1^2 + 2*z0*z2 + x0*y2 + x1*y1 + x2*y0", QQ
    )
    # squares drop out in characteristic 2
    sys2 = JetSystem(parse_poly("z^2 + x*y", Field(2)))
    assert sys2.derivative(1) == parse_poly("x0*y1 + x1*y0", Field(2))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_derivative_additivity(data):
    # d_m is linear in the base equation
    field = data.draw(st.sampled_from(FIELDS))
    f = data.draw(base_poly_strategy(field))
    g = data.draw(base_poly_strategy(field))
    m = data.draw(st.integers(0, 5))
    assert JetSystem(f + g).derivative(m) == JetSystem(f).derivative(m) + JetSystem(
        g
    ).derivative(m)


# -- congruence shape -------------------------------------------------------


def test_frontier_of():
    zs = {var("x", 0), var("x", 1), var("z", 0)}
    assert frontier_of(zs) == {"x": 2, "y": 0, "z": 1}
    assert frontier_of(()) == {"x": 0, "y": 0, "z": 0}


def test_congruence_shape_requires_lower_vanishing():
    sys = JetSystem(parse_poly("z^2 + x*y", QQ))
    with pytest.raises(ValueError):
        congruence_shape(sys, 2, {var("x", 0)})  # f_0 = z0^2 + x0 y0 survives


def test_congruence_shape_basic():
    sys = JetSystem(parse_poly("z^3 + x*y", QQ))
    zs = {var("x", 0), var("y", 0), var("z", 0)}
    shape = congruence_shape(sys, 2, zs)
    assert shape.reduced == parse_poly("x1*y1", QQ)
    assert shape.frontier == {"x": 1, "y": 1, "z": 1}
    assert shape.exponent_set == frozenset({(1, 1, 0)})


def grid_shapes():
    """In-regime ideals (char 0 or char > total degree) for a few equations."""
    eqs = [
        ("z^2 + x*y", [QQ, Field(3), Field(5)]),
        ("z^3 + x*y", [QQ, Field(5)]),
        ("z^2 + x^3 + y^5", [QQ, Field(7)]),
    ]
    for text, fields in eqs:
        for field in fields:
            sys = JetSystem(parse_poly(text, field))
            for i in range(3):
                for j in range(3):
                    for h in range(3):
                        zs = (
                            {var("x", k) for k in range(i)}
                            | {var("y", k) for k in range(j)}
                            | {var("z", k) for k in range(h)}
                        )
                        yield sys, zs


def test_congruence_shape_in_regime():
    """When every lower derivative vanishes, the reduction is an
    exponent-triple sum in the frontier variables and the shape is recognised."""
    checked = 0
    out_of_reach = 0
    for sys, zs in grid_shapes():
        # find the first level whose reduction is nonzero
        n = 0
        while n < 40 and not sys.derivative(n).reduce_mod_vars(zs):
            n += 1
        if n == 40:
            out_of_reach += 1
            continue
        shape = congruence_shape(sys, n, zs)
        assert shape.exponent_set is not None, (sys.f, sorted(zs), n)
        checked += 1
    assert checked >= 50
    assert out_of_reach == 0


def test_congruence_shape_out_of_regime_never_crashes():
    """Small characteristic: the reduction is always computed; the structured
    form may or may not be recognised.  Unrecognised cases are tolerated, not
    fatal."""
    unrecognised = 0
    for text, p in (("z^2 + x^3 + y^5", 2), ("z^2 + x^2*y + x*y^2", 2),
                    ("z^2 + x^3 + x*y^3", 3)):
        sys = JetSystem(parse_poly(text, Field(p)))
        for i in range(3):
            for h in range(3):
                zs = {var("x", k) for k in range(i)} | {var("z", k) for k in range(h)}
                n = 0
                while n < 25 and not sys.derivative(n).reduce_mod_vars(zs):
                    n += 1
                if n == 25:
                    continue
                shape = congruence_shape(sys, n, zs)
                assert shape.reduced
                if shape.exponent_set is None:
                    unrecognised += 1
    # the loop itself is the assertion: no crash, every reduction computed


def test_congruence_shape_gap_zero_set():
    # zero sets with gaps are tolerated; the frontier is the first missing
    # order of each family and the reduction is still taken literally
    sys = JetSystem(parse_poly("z^3 + x*y", QQ))
    zs = {var("x", 0), var("y", 0), var("z", 0), var("x", 2)}
    shape = congruence_shape(sys, 2, zs)
    assert shape.reduced == parse_poly("x1*y1", QQ)
    assert shape.frontier["x"] == 1
    assert shape.exponent_set == frozenset({(1, 1, 0)})


# -- linearization ----------------------------------------------------------


def test_linearize_quadric_cone():
    sys = JetSystem(parse_poly("z^2 + x*y", QQ))
    zs = {var("x", 0), var("y", 0), var("z", 0)}
    lin = linearize(sys, 2, zs, 1)
    assert lin.tail_coeffs["z"] == parse_poly("2*z1", QQ)
    assert lin.tail_coeffs["x"] == parse_poly("y1", QQ)
    assert lin.tail_coeffs["y"] == parse_poly("x1", QQ)
    assert lin.rest.is_zero()
    assert lin.window_ok


def test_linearize_deep_ideal():
    sys = JetSystem(parse_poly("z^2 + x^3 + y^5", QQ))
    zs = (
        {var("x", 0), var("x", 1)}
        | {var("y", 0), var("y", 1)}
        | {var("z", k) for k in range(3)}
    )
    lin = linearize(sys, 6, zs, 1)
    assert lin.tail_coeffs["z"] == parse_poly("2*z3", QQ)
    assert lin.tail_coeffs["x"] == parse_poly("3*x2^2", QQ)
    assert lin.window_ok
    # same ideal in characteristic 2: the z-coefficient dies
    sys2 = JetSystem(parse_poly("z^2 + x^3 + y^5", Field(2)))
    lin2 = linearize(sys2, 6, zs, 1)
    assert lin2.tail_coeffs["z"].is_zero()
    assert lin2.tail_coeffs["x"] == parse_poly("x2^2", Field(2))


def test_linearize_rejects_bad_offset():
    sys = JetSystem(parse_poly("z^2 + x*y", QQ))
    with pytest.raises(ValueError):
        linearize(sys, 1, set(), 0)


def test_linearize_rejects_nonlinear_tail():
    sys = JetSystem(parse_poly("z^2", QQ))
    # f_4 mod (z0) contains z2^2, and z2 is the tail variable here
    with pytest.raises(ValueError):
        linearize(sys, 3, {var("z", 0)}, 1)


def test_linearize_consistency_with_derivative():
    """tail terms + rest reassemble the reduced derivative."""
    sys = JetSystem(parse_poly("z^2 + x^3 + x*y^3", QQ))
    zs = {var("x", 0), var("y", 0), var("z", 0), var("z", 1)}
    for offset in (1, 2, 3):
        n = 3
        lin = linearize(sys, n, zs, offset)
        fr = frontier_of(zs)
        total = lin.rest
        for fam in ("x", "y", "z"):
            total = total + lin.tail_coeffs[fam] * Polynomial.variable(
                sys.field, var(fam, fr[fam] + offset)
            )
        assert total == sys.derivative(n + offset).reduce_mod_vars(zs)
