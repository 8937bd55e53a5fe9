"""Exact arithmetic layer: fields, polynomials, parsing, printing."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arcjet.algebra import (
    FAMILIES,
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_TERMS,
    Field,
    Gaussian,
    ParseError,
    Polynomial,
    QQ,
    _fmt_scalar,
    format_poly,
    mono_from_pairs,
    mono_key,
    mono_mul,
    parse_poly,
    var,
    var_key,
    var_name,
)
from arcjet.catalog import preset_grid

from reference_hasse import substitute


FIELDS = [Field(0), Field(2), Field(3), Field(5), Field(7)]
# the same, then the fields with i adjoined
ALL_FIELDS = FIELDS + [
    Field(3, i_adjoined=True),
    Field(7, i_adjoined=True),
    Field(0, i_adjoined=True),
]


def poly_strategy(field, max_terms=5, max_order=2, max_exp=3):
    coeff = st.integers(min_value=-9, max_value=9)
    variable = st.tuples(st.sampled_from("xyz"), st.integers(0, max_order))
    mono = st.lists(st.tuples(variable, st.integers(1, max_exp)), max_size=3)
    term = st.tuples(mono, coeff)
    def build(terms):
        acc = Polynomial.zero(field)
        for mono_pairs, c in terms:
            m = Polynomial.const(field, c)
            for v, e in mono_pairs:
                m = m * Polynomial.variable(field, v, e)
            acc = acc + m
        return acc
    return st.lists(term, max_size=max_terms).map(build)


def draw_poly(data, field):
    """A drawn polynomial; over a field with i adjoined it also has
    coefficients with a nonzero imaginary part."""
    f = data.draw(poly_strategy(field))
    if field.i_adjoined:
        i = field.square_root(field.of(-1))
        f = f + data.draw(poly_strategy(field)).scale(i)
    return f


# -- field scalars ----------------------------------------------------------


def test_field_basics():
    assert QQ.of(3) == Fraction(3)
    assert Field(5).of(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5
    with pytest.raises(ZeroDivisionError):
        Field(5).of(Fraction(1, 5))
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(-1)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((1,), {}, "invalid characteristic 1"),
        ((4,), {}, "characteristic 4 is not prime"),
        ((5,), {"i_adjoined": True}, "-1 is already a square mod 5; nothing to adjoin"),
    ],
)
def test_field_checks_its_arguments_as_it_is_built(args, kwargs, message):
    with pytest.raises(ValueError) as raised:
        Field(*args, **kwargs)
    assert str(raised.value) == message


@pytest.mark.parametrize("field", FIELDS)
def test_field_inverse(field):
    for a in (1, 2, 3, 6, -5):
        if field.char and a % field.char == 0:
            continue
        x = field.of(a)
        assert field.mul(x, field.inv(x)) == field.one


def test_i_adjoined_fields():
    for F in (Field(0, i_adjoined=True), Field(3, i_adjoined=True), Field(7, i_adjoined=True)):
        i = F.square_root(F.of(-1))
        assert i is not None
        assert F.mul(i, i) == F.of(-1)
        # inverse of a generic element via the norm
        a = F.of(Gaussian(1, 2))
        assert F.mul(a, F.inv(a)) == F.one
    # -1 is already a square mod 5, so the extension is refused
    with pytest.raises(ValueError):
        Field(5, i_adjoined=True)
    assert Field(5).square_root(Field(5).of(-1)) == 2
    # plain fields refuse genuinely imaginary values
    with pytest.raises(ValueError):
        Field(0).of(Gaussian(Fraction(0), Fraction(1)))


def test_gaussian_interop():
    g = Gaussian(2, 0)
    assert g == 2 and hash(g) == hash(2)
    assert Gaussian(1, 1) * Gaussian(1, -1) == 2
    assert not Gaussian(0, 0)
    assert Gaussian(5, 7) % 3 == Gaussian(2, 1)


# -- monomials ----------------------------------------------------------------


def mono_strategy():
    """Monomials over all four families, t included: ("t", 1) < ("x", 0) as
    tuples, but t sorts last in ``var_key``."""
    variable = st.tuples(st.sampled_from(FAMILIES), st.integers(0, 3))
    pairs = st.lists(st.tuples(variable, st.integers(1, 3)), max_size=5)
    return pairs.map(mono_from_pairs)


@settings(max_examples=300, deadline=None)
@given(a=mono_strategy(), b=mono_strategy())
def test_mono_mul_matches_mono_from_pairs(a, b):
    """The merge product against the dict-and-sort reference."""
    assert mono_mul(a, b) == mono_from_pairs(a + b)


# -- polynomial ring axioms -------------------------------------------------


@pytest.mark.parametrize("field", ALL_FIELDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ring_axioms(field, data):
    f = draw_poly(data, field)
    g = draw_poly(data, field)
    h = draw_poly(data, field)
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert f + (-f) == Polynomial.zero(field)


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_parse_format_round_trip(field, data):
    f = data.draw(poly_strategy(field))
    assert parse_poly(format_poly(f), field) == f


def test_parse_syntax():
    f = parse_poly("z3^2 + x2^3", QQ)
    assert f.degree_in(var("z", 3)) == 2
    assert parse_poly("2*x1y1 - 1/2 z0", QQ) == parse_poly("2 x1 y1 - 1/2 z0", QQ)
    assert parse_poly("x", QQ) == Polynomial.variable(QQ, var("x", 0))
    with pytest.raises(ParseError):
        parse_poly("x1 +", QQ)
    with pytest.raises(ParseError):
        parse_poly("w2", QQ)
    with pytest.raises(ParseError):
        parse_poly("i*x1", QQ)  # no i in the plain rationals
    Fi = Field(0, i_adjoined=True)
    p = parse_poly("z2 - i*y1^2", Fi)
    q = parse_poly("z2 + i*y1^2", Fi)
    assert p * q == parse_poly("z2^2 + y1^4", Fi)
    assert format_poly(p) == "z2 - i*y1^2"


def test_parse_bounds_exponents_before_expanding(monkeypatch):
    # a power above the bound is refused before it is computed: no test
    # here may reach Polynomial.__pow__ with such an exponent
    power = Polynomial.__pow__

    def bounded(self, n):
        assert n <= MAX_EXPONENT, n
        return power(self, n)

    monkeypatch.setattr(Polynomial, "__pow__", bounded)
    z = var("z", 0)
    assert parse_poly(f"z^{MAX_EXPONENT}", QQ) == Polynomial.variable(QQ, z, MAX_EXPONENT)
    assert parse_poly("(z^2)^64 + z^128*z^128", QQ).degree_in(z) == 256
    for text in (
        "z^99999999999",
        f"x + z^{MAX_EXPONENT + 1}",
        "(z^2)^65",
        "((2^99)^99)^99",
        "(x*(y + z^64))^3",
    ):
        with pytest.raises(ParseError, match="above"):
            parse_poly(text, QQ)


def nested(k: int, body: str = "x") -> str:
    return "(" * k + body + ")" * k


def test_parse_bounds_parenthesis_nesting():
    # the parser descends three calls per parenthesis: a nesting past
    # MAX_NESTING is refused, and siblings do not add up
    x = Polynomial.variable(QQ, var("x", 0))
    assert parse_poly(nested(MAX_NESTING), QQ) == x
    assert parse_poly(" + ".join([nested(MAX_NESTING)] * 3), QQ) == x.scale(3)
    assert parse_poly(nested(MAX_NESTING - 1, nested(1, "x") + "*y"), QQ) == parse_poly("x*y", QQ)
    for text in (nested(MAX_NESTING + 1), nested(400), nested(MAX_NESTING, nested(1, "y") + "*x")):
        with pytest.raises(ParseError, match="nest deeper than"):
            parse_poly(text, QQ)


def product_chain(k):
    """``(x1+y1)*(x2+y2)*...*(xk+yk)``: 2**k terms from a text of ~9k characters."""
    return "*".join(f"(x{i}+y{i})" for i in range(1, k + 1))


def test_parse_bounds_term_counts_before_expanding(monkeypatch):
    # each step of a product or power, the running product times one more
    # factor, is refused before it runs when it would touch more than
    # MAX_TERMS term pairs: no parse here may hand Polynomial.__mul__ more
    mul = Polynomial.__mul__

    def bounded(self, other):
        assert len(self.terms) * len(other.terms) <= MAX_TERMS, (len(self.terms), len(other.terms))
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", bounded)
    k = MAX_TERMS.bit_length() - 1
    assert len(parse_poly(product_chain(k), QQ).terms) == 2**k <= MAX_TERMS
    assert len(parse_poly("(x + y)^128", QQ).terms) == 129
    assert parse_poly("(x1 + y1)^2*(x1 - y1)^2", QQ) == parse_poly("x1^4 - 2*x1^2*y1^2 + y1^4", QQ)
    # the bound is on each step's actual term counts, not on the product of
    # the factors' counts: 13 copies of (x + y) never pass 14 by 2 terms
    repeated = parse_poly("*".join(["(x + y)"] * (k + 1)), QQ)
    assert 2 ** (k + 1) > MAX_TERMS and repeated == parse_poly(f"(x + y)^{k + 1}", QQ)
    assert len(repeated.terms) == k + 2
    for text in (
        product_chain(k + 1),
        product_chain(40),
        "x + (x + y + z)^100",
        "(x1 + y1 + z1 + x2)^30",
        f"({' + '.join(f'x{i}' for i in range(1, 70))})^2",
    ):
        with pytest.raises(ParseError, match="past"):
            parse_poly(text, QQ)
    # every preset equation still parses
    assert len(list(preset_grid())) == 69


@pytest.mark.parametrize(
    "text,field", [("1/0", QQ), ("x + 1/0", Field(5)), ("z^2 + 1/3", Field(3))]
)
def test_parse_rejects_a_fraction_without_value(text, field):
    with pytest.raises(ParseError, match="no value"):
        parse_poly(text, field)


@pytest.mark.parametrize("field", ALL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_hash_is_cached_and_follows_equality(field, data):
    f = draw_poly(data, field)
    twin = Polynomial(field, dict(f.terms))  # equal, built apart
    assert f == twin
    assert hash(f) == hash(twin) == hash((field.char, frozenset(f.terms.items())))
    assert f._hash == hash(f)  # kept after the first call
    # no cache crosses a pickle: string hashes differ by process, and every
    # private slot (``_hash``, ``_top`` and any later one) is a cache
    f.max_order()
    caches = [slot for slot in Polynomial.__slots__ if slot.startswith("_")]
    assert {"_hash", "_top"} <= set(caches)
    assert all(getattr(f, slot) is not None for slot in caches)
    copy = pickle.loads(pickle.dumps(f))
    assert copy == f and all(getattr(copy, slot) is None for slot in caches)
    assert hash(copy) == hash(f) and copy.top_exponents() == f.top_exponents()


def test_polynomials_with_equal_terms_over_other_fields_differ():
    """Field identity is only the fast path of the field comparison: the
    constant 1 over Q and over Q(i) has equal terms (``Gaussian(1, 0) ==
    1``), yet the polynomials differ and their sum is refused; an equal
    field built apart is the same field."""
    one = Polynomial(QQ, {(): 1})
    gaussian_one = Polynomial(Field(0, i_adjoined=True), {(): 1})
    assert Gaussian(1, 0) == 1 and one.terms == gaussian_one.terms
    assert one != gaussian_one and gaussian_one != one
    with pytest.raises(ValueError, match="mixed coefficient fields"):
        one + gaussian_one
    twin = Polynomial(Field(0), {(): 1})
    assert twin.field is not QQ and twin == one
    assert twin + one == Polynomial(QQ, {(): 2})


def test_reduce_mod_vars_returns_an_untouched_polynomial_itself():
    f = parse_poly("x1*z1 + y2", QQ)
    assert f.reduce_mod_vars({var("x", 2)}) is f
    assert f.reduce_mod_vars(frozenset()) is f
    assert f.reduce_mod_vars({var("z", 1)}) == parse_poly("y2", QQ)


def reference_divide(f: Polynomial, m) -> Polynomial:
    """Term-by-term division through ``mono_from_pairs``, the route that
    division by 1 took before it returned its receiver."""
    terms = {}
    for mm, c in f.terms.items():
        d = dict(mm)
        for v, e in m:
            d[v] -= e
        terms[mono_from_pairs(d.items())] = c
    return Polynomial(f.field, terms)


@pytest.mark.parametrize("field", ALL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_division_by_one_returns_the_receiver(field, data):
    f = draw_poly(data, field)
    assert f.divide_monomial(()) is f
    assert f == reference_divide(f, ())
    content = f.content_monomial()
    assert f.divide_monomial(content) == reference_divide(f, content)
    # control: a true division is a new polynomial
    g = f * parse_poly("x1*y2^2", field)
    if g:
        assert g.divide_monomial(g.content_monomial()) is not g


def scanned_support(f: Polynomial) -> dict:
    """Each variable's top exponent, from a fresh scan of the terms."""
    top = {}
    for m in f.terms:
        for v, e in m:
            top[v] = max(top.get(v, 0), e)
    return top


def assert_support_matches_a_fresh_scan(p: Polynomial) -> None:
    top = scanned_support(p)
    assert p.top_exponents() == top
    assert p._top == top  # kept after the first call
    assert p.max_order() == max((o for _, o in top), default=-1)
    assert p.variables() == set(top)
    for v in {*top, var("x", 1), var("t", 0)}:
        assert p.degree_in(v) == top.get(v, 0)


@pytest.mark.parametrize("field", ALL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cached_max_order_matches_a_fresh_scan(field, data):
    """The support kept on a polynomial, and ``max_order``, ``degree_in``
    and ``variables``, which read it, agree with a fresh scan, also on
    derived polynomials."""
    f, g = draw_poly(data, field), draw_poly(data, field)
    e = data.draw(st.integers(0, 3))
    derived = (
        f * g,
        f + g,
        f.partial(var("x", 1)),
        f.reduce_mod_vars({var("y", 2)}),
        Polynomial.variable(field, var("z", 2), e),
    )
    for p in (f, g, *derived):
        assert_support_matches_a_fresh_scan(p)
        assert_support_matches_a_fresh_scan(p)


def test_a_stale_order_fails_the_differential_test():
    """Control: a support kept from other terms is caught by the scan."""
    f = parse_poly("x1*z3 + y2", QQ)
    assert_support_matches_a_fresh_scan(f)
    f._top = {var("x", 1): 1, var("z", 2): 1, var("y", 2): 1}
    assert f.max_order() == 2 and max(o for _, o in scanned_support(f)) == 3
    with pytest.raises(AssertionError):
        assert_support_matches_a_fresh_scan(f)


@pytest.mark.parametrize("field", ALL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_reduce_mod_vars_returns_self_exactly_when_no_term_meets_the_zero_set(field, data):
    f = draw_poly(data, field)
    zs = set(data.draw(st.lists(st.tuples(st.sampled_from("xyz"), st.integers(0, 2)), max_size=3)))
    met = any(v in zs for m in f.terms for v, _ in m)
    kept = {m: c for m, c in f.terms.items() if not any(v in zs for v, _ in m)}
    if data.draw(st.booleans()):
        f.top_exponents()  # the support is already kept, or read on the call
    got = f.reduce_mod_vars(zs)
    assert (got is f) == (not met)
    assert got == Polynomial(field, kept)


@pytest.mark.parametrize("field", ALL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(fam=st.sampled_from(FAMILIES), order=st.integers(0, 9), e=st.integers(0, 5))
def test_variable_matches_the_normalised_route(field, fam, order, e):
    """``Polynomial.variable`` builds its term directly; the reference goes
    through ``mono_from_pairs`` and ``Field.of``."""
    v = var(fam, order)
    got = Polynomial.variable(field, v, e)
    want = Polynomial(field, {mono_from_pairs([(v, e)]): field.one})
    assert got == want and hash(got) == hash(want)
    assert [(m, type(c)) for m, c in got.terms.items()] == [
        (m, type(c)) for m, c in want.terms.items()
    ]


def reference_mono_key(m) -> tuple:
    """The nested sort key that ``mono_key`` replaced."""
    return (sum(e for _, e in m), tuple((var_key(v), e) for v, e in m))


def reference_format_poly(p: Polynomial) -> str:
    """``format_poly`` as it was before the flat key, the sign test on the
    numerator and the inlined factors: the reference of the printed text."""
    if p.is_zero():
        return "0"
    parts = []
    for m, c in sorted(p.terms.items(), key=lambda kv: reference_mono_key(kv[0])):
        sign = "+"
        if p.field.char == 0:
            if isinstance(c, Gaussian):
                if (c.im == 0 and c.re < 0) or (c.re == 0 and c.im < 0):
                    sign = "-"
                    c = -c
            elif c < 0:
                sign = "-"
                c = -c
        factor = [var_name(v) if e == 1 else f"{var_name(v)}^{e}" for v, e in m]
        factors = ["*".join(factor)] if m else []
        if c != 1 or not m:
            factors.insert(0, _fmt_scalar(c))
        body = "*".join(f for f in factors if f)
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


@st.composite
def printed_polys(draw) -> Polynomial:
    """Polynomials over Q, Q(i), F_p and F_p(i) in all four families, with
    negative, fractional and (with i) Gaussian coefficients whose parts
    may vanish."""
    field = draw(st.sampled_from(ALL_FIELDS))
    part = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(
            lambda c: not field.char or c.denominator % field.char
        ),
    )
    coeff = st.builds(Gaussian, part, part) if field.i_adjoined else part
    return Polynomial(field, draw(st.dictionaries(mono_strategy(), coeff, max_size=8)))


@settings(max_examples=200, deadline=None)
@given(f=printed_polys(), a=mono_strategy(), b=mono_strategy())
def test_format_poly_and_mono_key_match_the_references(f, a, b):
    assert format_poly(f) == reference_format_poly(f)
    monos = list(f.terms)
    assert sorted(monos, key=mono_key) == sorted(monos, key=reference_mono_key)
    assert (mono_key(a) < mono_key(b)) == (reference_mono_key(a) < reference_mono_key(b))
    assert (mono_key(a) == mono_key(b)) == (a == b)


def test_a_key_on_the_raw_pairs_fails_the_differential_test():
    """Control: raw (family, order) tuples put t before x, unlike
    ``var_key``; the differential test's inputs tell the two apart."""
    monos = list(parse_poly("t1 + x1", QQ).terms)
    raw = sorted(monos, key=lambda m: (sum(e for _, e in m), m))
    assert raw != sorted(monos, key=reference_mono_key) == sorted(monos, key=mono_key)
    assert format_poly(parse_poly("t1 + x1", QQ)) == "x1 + t1"


def test_structural_operations():
    f = parse_poly("x1^2*y1 + x1*y1^2", QQ)
    assert f.content_monomial() == (((("x", 1)), 1), ((("y", 1)), 1))
    g = f.divide_monomial(f.content_monomial())
    assert g == parse_poly("x1 + y1", QQ)
    with pytest.raises(ValueError):
        parse_poly("x1 + y1", QQ).divide_monomial(f.content_monomial())
    c, rest = parse_poly("2*z1*x1 + y1", QQ).coefficient_of(var("z", 1))
    assert c == parse_poly("2*x1", QQ) and rest == parse_poly("y1", QQ)
    with pytest.raises(ValueError):
        parse_poly("z1^2", QQ).coefficient_of(var("z", 1))
    assert parse_poly("x1*z1 + y2", QQ).reduce_mod_vars({var("z", 1)}) == parse_poly("y2", QQ)


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_evaluate_respects_ring_ops(field, data):
    f = data.draw(poly_strategy(field))
    g = data.draw(poly_strategy(field))
    point = {var(fam, o): data.draw(st.integers(0, 6)) for fam in "xyz" for o in range(3)}
    lhs = (f * g).evaluate(point)
    rhs = field.mul(f.evaluate(point), g.evaluate(point))
    assert lhs == rhs


@pytest.mark.parametrize("field", ALL_FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_evaluate_matches_substitution(field, data):
    """``evaluate`` uses integer coordinates as they are; the reference
    substitutes them as constant polynomials (normalised into the field)
    and reads off the constant term."""
    f = draw_poly(data, field)
    point = {var(fam, o): data.draw(st.integers(0, 6)) for fam in "xyz" for o in range(3)}
    ref = substitute(f, {v: Polynomial.const(field, a) for v, a in point.items()})
    assert f.evaluate(point) == ref.terms.get((), field.zero)


def test_partial_derivative():
    f = parse_poly("x1^3 + x1*y1", QQ)
    assert f.partial(var("x", 1)) == parse_poly("3*x1^2 + y1", QQ)
    # the exponent multiplier vanishes mod p
    f3 = parse_poly("x1^3", Field(3))
    assert f3.partial(var("x", 1)).is_zero()
