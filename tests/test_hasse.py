"""Derivative tower: recursive route vs series route, shapes, linearization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arcjet.algebra import Field, Gaussian, Polynomial, QQ, parse_poly, var
from arcjet.catalog import preset_grid
from arcjet.hasse import JetSystem, frontier_of

from reference_hasse import congruence_shape, linearize, series_oracle


FIELDS = [QQ, Field(2), Field(3), Field(5)]


def base_poly_strategy(field, max_exp=2, max_terms=5, max_degree=6, coeff=None):
    """Polynomials in x0, y0, z0 only (base equations); nonzero integer
    coefficients unless ``coeff`` draws them."""
    if coeff is None:
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


def test_series_route_does_not_call_the_tower(monkeypatch):
    """The series route is the tower's independent cross-check: with every
    entry of ``JetSystem`` broken it still expands the E8 equation."""

    def broken(*args, **kwargs):
        raise AssertionError("series_oracle called the tower")

    entries = [name for name, v in vars(JetSystem).items() if callable(v)]
    assert {"__init__", "derivative", "_series"} <= set(entries)
    for name in entries:
        monkeypatch.setattr(JetSystem, name, broken)
    f = parse_poly("z^2 + x^3 + y^5", QQ)
    assert series_oracle(f, 5)[0] == parse_poly("z0^2 + x0^3 + y0^5", QQ)


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


def test_a_monomial_past_the_recursion_limit_has_a_tower():
    # eleven factors x^100 parse (only each power is bounded) into x^1100,
    # whose 1,100 prefix tables are built in a loop, shortest first
    f = parse_poly("*".join(["x^100"] * 11), QQ)
    sys = JetSystem(f)
    x0, x1 = var("x", 0), var("x", 1)
    assert sys.derivative(1) == Polynomial.monomial(QQ, ((x0, 1099), (x1, 1)), 1100)
    assert [sys.derivative(m) for m in range(2)] == series_oracle(f, 1)


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


# -- the shifted route: f_m modulo vanishing coordinates -----------------------

# Q, Q(i), F_p and F_p(i) (p = 3 mod 4 takes i)
SHIFT_FIELDS = [QQ, Field(0, True), Field(2), Field(3), Field(5), Field(3, True), Field(7, True)]


def scalar_strategy(field):
    """Rational coefficients (denominators prime to p), Gaussian ones when
    i is adjoined; zero is allowed and drops out of the polynomial."""
    den = st.integers(1, 6)
    if field.char:
        den = den.filter(lambda d: d % field.char)
    base = st.builds(Fraction, st.integers(-6, 6), den)
    return st.builds(Gaussian, base, base) if field.i_adjoined else base


def zero_set_strategy():
    """An initial segment in each family, plus coordinates past it (gaps)
    or none."""
    segments = st.tuples(*(st.integers(0, 3) for _ in "xyz"))
    extra = st.lists(st.tuples(st.sampled_from("xyz"), st.integers(0, 6)), max_size=3)
    return st.builds(
        lambda seg, more: frozenset(
            [var(fam, k) for fam, n in zip("xyz", seg) for k in range(n)]
            + [var(fam, k) for fam, k in more]
        ),
        segments,
        extra,
    )


def shifted_route_mismatch(route, sys, m, zs, level):
    """Why ``route(sys, m, zs)`` is not ``f_m`` modulo ``zs``: a wrong value
    against ``level``, the series route's ``f_m``, or the right terms in
    another order than the unshifted level filtered by ``reduce_mod_vars``;
    None when it is."""
    got = route(sys, m, zs)
    want = level.reduce_mod_vars(zs)
    if got != want:
        return f"value {got} != {want}"
    filtered = sys.derivative(m).reduce_mod_vars(zs)
    if list(got.terms) != list(filtered.terms):
        return "term order differs from the filtered unshifted level"
    return None


def reads_level_m(sys, m, zs):
    # control: the orders are shifted but the level is not
    fr = frontier_of(zs)
    shifted = {
        tuple(((fam, o + fr[fam]), e) for (fam, o), e in mono): c
        for mono, c in sys.derivative(m).terms.items()
    }
    return Polynomial(sys.field, shifted).reduce_mod_vars(zs)


def skips_the_gaps(sys, m, zs):
    # control: only the initial segments of the zero set are dropped
    fr = frontier_of(zs)
    return sys.derivative(m, {var(fam, k) for fam in "xyz" for k in range(fr[fam])})


@pytest.mark.parametrize("field", SHIFT_FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shifted_derivative_matches_series_route(field, data):
    """``derivative(m, Z)`` reads each monomial of f at its level shifted by
    the frontier of Z: it equals the series route reduced modulo Z, with
    the terms in the order of the unshifted level filtered by Z."""
    f = data.draw(base_poly_strategy(field, 3, 4, 5, coeff=scalar_strategy(field)))
    sys = JetSystem(f)
    zs = data.draw(zero_set_strategy())
    series = series_oracle(sys.f, data.draw(st.integers(0, 6)))
    for m, level in enumerate(series):
        mismatch = shifted_route_mismatch(JetSystem.derivative, sys, m, zs, level)
        assert mismatch is None, (sys.f, sorted(zs), m, mismatch)


CONTROL_CASES = [
    ("z^3 + x*y", QQ, {var("x", 0), var("y", 0), var("z", 0)}),
    ("z^3 + x*y", QQ, {var("x", 0), var("y", 0), var("z", 0), var("x", 2)}),
    ("z^2 + x^3 + y^5", Field(3), {var("x", 0), var("y", 0), var("z", 0), var("y", 3)}),
    ("z^2 + x^2*y + y^3", Field(3, True), {var("x", 0), var("z", 0), var("z", 1), var("x", 3)}),
]


@pytest.mark.parametrize("control", [reads_level_m, skips_the_gaps], ids=lambda c: c.__name__)
def test_broken_shifts_fail_the_differential_check(control):
    caught = []
    for text, field, zs in CONTROL_CASES:
        sys = JetSystem(parse_poly(text, field))
        for m, level in enumerate(series_oracle(sys.f, 7)):
            # the check accepts the tower itself on the same cases
            assert shifted_route_mismatch(JetSystem.derivative, sys, m, frozenset(zs), level) is None
            if shifted_route_mismatch(control, sys, m, frozenset(zs), level):
                caught.append((text, m))
    assert caught, f"{control.__name__} passes the check"


def test_shifted_route_builds_shallow_tables():
    # modulo x0, y0, z0 the E8 equation's level 12 reads its monomials at
    # levels 10, 9 and 7: no table is built deeper than that
    sys = JetSystem(parse_poly("z^2 + x^3 + y^5", QQ))
    sys.derivative(12, {var(fam, 0) for fam in "xyz"})
    assert max(len(levels) - 1 for levels in sys._tables.values()) == 10


def test_shifted_pairs_are_interned_per_frontier():
    sys = JetSystem(parse_poly("z^2 + x^3 + y^5", Field(5)))
    zs = frozenset({var(fam, 0) for fam in "xyz"})
    first, again = sys.derivative(9, zs), sys.derivative(9, zs)
    assert first == again
    pairs = {id(pair) for f in (first, again) for mono in f.terms for pair in mono}
    assert len(pairs) == len({pair for mono in first.terms for pair in mono})


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
