"""Exact sparse polynomial arithmetic over Q and over prime fields.

Variables are indexed coordinates ``x0, x1, ..., y0, ..., z0, ...`` (one
family per ambient coordinate, the index is the jet order).  A monomial is a
sorted tuple of ``(variable, exponent)`` pairs and a polynomial a mapping
from monomials to nonzero coefficients.  Coefficients are
``fractions.Fraction`` in characteristic 0 and canonical residues
``0 <= c < p`` in characteristic ``p``.

Everything here is exact; there is no floating point anywhere in the
package.  Its records (``Field``, ``Stratum``, ...) are plain slotted classes
on ``Record``, written out rather than generated, since a generator would
load ``inspect`` and compile them on every start-up.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
import re
from typing import Iterable, Mapping, Optional, Union


FAMILIES = ("x", "y", "z", "t")
_FAMILY_INDEX = {f: i for i, f in enumerate(FAMILIES)}

# A variable is a (family, order) pair, e.g. ("z", 3) prints as "z3".
Var = tuple[str, int]
# A monomial is a tuple of (variable, exponent) pairs sorted by variable.
Mono = tuple[tuple[Var, int], ...]

ONE_MONO: Mono = ()


def var(family: str, order: int) -> Var:
    if family not in _FAMILY_INDEX:
        raise ValueError(f"unknown variable family {family!r}")
    if order < 0:
        raise ValueError("variable order must be >= 0")
    return (family, order)


def var_key(v: Var) -> tuple[int, int]:
    """Total order on variables: by family (x < y < z < t), then by order."""
    return (_FAMILY_INDEX[v[0]], v[1])


def var_name(v: Var) -> str:
    return f"{v[0]}{v[1]}"


def mono_from_pairs(pairs: Iterable[tuple[Var, int]]) -> Mono:
    acc: dict[Var, int] = {}
    for v, e in pairs:
        if e:
            acc[v] = acc.get(v, 0) + e
    return tuple(sorted(((v, e) for v, e in acc.items() if e), key=lambda p: var_key(p[0])))


def mono_mul(a: Mono, b: Mono) -> Mono:
    """Product of two monomials: a merge of their sorted pairs, keyed by
    (family index, order) as ``var_key`` orders them."""
    if not a:
        return b
    if not b:
        return a
    fi = _FAMILY_INDEX
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        (va, ea), (vb, eb) = a[i], b[j]
        ka, kb = (fi[va[0]], va[1]), (fi[vb[0]], vb[1])
        if ka < kb:
            out.append(a[i])
            i += 1
        elif kb < ka:
            out.append(b[j])
            j += 1
        else:
            out.append((va, ea + eb))
            i += 1
            j += 1
    return tuple(out) + a[i:] + b[j:]


def mono_vars(m: Mono) -> tuple[Var, ...]:
    return tuple(v for v, _ in m)


def mono_key(m: Mono) -> tuple[int, ...]:
    """Deterministic sort key for monomials: graded, then lexicographic in
    the pairs, each read as (family index, order, exponent).  One flat
    tuple of ints orders as the nested ``(degree, ((var_key(v), e), ...))``
    and is cheaper to build and to compare."""
    fi = _FAMILY_INDEX
    deg = 0
    key: list[int] = []
    for (f, o), e in m:
        deg += e
        key += (fi[f], o, e)
    return (deg, *key)


class Gaussian:
    """A scalar ``re + im*i`` in a quadratic extension adjoining i.

    Both parts live in the base domain (Fraction in characteristic 0,
    canonical residues in characteristic p).  Instances compare equal to
    plain base scalars when the imaginary part vanishes, so the rest of
    the polynomial layer never needs to care which domain it is in.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def _coerced(self, other):
        if isinstance(other, Gaussian):
            return other
        if isinstance(other, (int, Fraction)):
            return Gaussian(other, 0)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return Gaussian(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return Gaussian(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return Gaussian(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __neg__(self):
        return Gaussian(-self.re, -self.im)

    def __mod__(self, p: int) -> "Gaussian":
        return Gaussian(self.re % p, self.im % p)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Gaussian):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        # Must agree with the plain scalar an im == 0 value equals.
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __repr__(self) -> str:
        return f"Gaussian({self.re!r}, {self.im!r})"


Scalar = Union[int, Fraction, Gaussian]


class Record:
    """A record's fields are its ``__slots__`` in order (``__dict__`` aside).
    Records of one class compare and hash as the tuple of their fields, but
    never equal that tuple, which memo dicts key beside them.  A mutable
    record sets ``__hash__ = None``; no method assigns to the others."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        # a C callable, read through the class: ``self._astuple(self)``
        cls._astuple = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Field(Record):
    """Q (char == 0) or the prime field F_p (char == p).

    With ``i_adjoined`` the scalars are Gaussian values over the base:
    Q(i), or F_p(i) for p = 3 mod 4 (so that -1 is a non-square and the
    extension is a field).  Primes p = 1 mod 4 never need the flag since
    -1 already has a square root in F_p.
    """

    __slots__ = ("char", "i_adjoined")

    def __init__(self, char: int, i_adjoined: bool = False) -> None:
        self.char = char
        self.i_adjoined = i_adjoined
        if self.char < 0 or self.char == 1:
            raise ValueError(f"invalid characteristic {self.char}")
        if self.char > 1 and not is_prime(self.char):
            raise ValueError(f"characteristic {self.char} is not prime")
        if self.i_adjoined and self.char and self.char % 4 != 3:
            raise ValueError(
                f"-1 is already a square mod {self.char}; nothing to adjoin"
            )

    def _base_of(self, value) -> Scalar:
        if self.char == 0:
            return value if isinstance(value, Fraction) else Fraction(value)
        if isinstance(value, Fraction):
            den = value.denominator % self.char
            if den == 0:
                raise ZeroDivisionError("denominator vanishes in F_p")
            return (value.numerator * pow(den, -1, self.char)) % self.char
        return value % self.char

    def of(self, value: Scalar) -> Scalar:
        if self.i_adjoined:
            if isinstance(value, Gaussian):
                return Gaussian(self._base_of(value.re), self._base_of(value.im))
            return Gaussian(self._base_of(value), self._base_of(0))
        if isinstance(value, Gaussian):
            if value.im != 0:
                raise ValueError("imaginary scalar in a field without i")
            return self._base_of(value.re)
        return self._base_of(value)

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.char if self.char else a + b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.char if self.char else a * b

    def neg(self, a: Scalar) -> Scalar:
        return (-a) % self.char if self.char else -a

    def inv(self, a: Scalar) -> Scalar:
        if self.i_adjoined:
            a = self.of(a)
            norm = a.re * a.re + a.im * a.im
            ninv = self._base_inv(norm % self.char if self.char else norm)
            return self.mul(Gaussian(a.re, -a.im), ninv)
        if isinstance(a, Gaussian):
            a = self.of(a)
        return self._base_inv(a)

    def _base_inv(self, a) -> Scalar:
        if self.char:
            if a % self.char == 0:
                raise ZeroDivisionError("inverse of 0 in F_p")
            return pow(a, -1, self.char)
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return Fraction(1, 1) / a

    @property
    def zero(self) -> Scalar:
        if self.i_adjoined:
            return Gaussian(self._base_of(0), self._base_of(0))
        return 0 if self.char else Fraction(0)

    @property
    def one(self) -> Scalar:
        if self.i_adjoined:
            return Gaussian(self._base_of(1), self._base_of(0))
        return 1 if self.char else Fraction(1)

    def square_root(self, c: Scalar) -> Optional[Scalar]:
        """A square root of ``c`` in this field, or None if there is none
        (or, in characteristic 0, none expressible over Q(i))."""
        c = self.of(c)
        if self.char:
            if self.i_adjoined:
                for a in range(self.char):
                    for b in range(self.char):
                        g = Gaussian(a, b)
                        if self.mul(g, g) == c:
                            return g
                return None
            for a in range(self.char):
                if (a * a) % self.char == c:
                    return a
            return None
        if self.i_adjoined:
            if c.im != 0:
                return None
            r = _fraction_sqrt(abs(c.re))
            if r is None:
                return None
            return Gaussian(r, Fraction(0)) if c.re >= 0 else Gaussian(Fraction(0), r)
        if c < 0:
            return None
        return _fraction_sqrt(c)


def _fraction_sqrt(c: Fraction) -> Optional[Fraction]:
    import math

    rn = math.isqrt(c.numerator)
    rd = math.isqrt(c.denominator)
    if rn * rn == c.numerator and rd * rd == c.denominator:
        return Fraction(rn, rd)
    return None


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


QQ = Field(0)


class Polynomial:
    """Immutable sparse multivariate polynomial over a fixed Field."""

    # ``_hash`` and ``_top`` (the support: each variable's top exponent)
    # are computed on first use: no method mutates ``terms`` after
    # construction, and every ``_of_terms`` caller hands over a dict it
    # built for the new polynomial alone
    __slots__ = ("field", "terms", "_hash", "_top")

    def __init__(self, field: Field, terms: Mapping[Mono, Scalar]):
        norm: dict[Mono, Scalar] = {}
        for m, c in terms.items():
            c = field.of(c)
            if c:
                norm[m] = c
        self.field = field
        self.terms = norm
        self._hash = self._top = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def _of_terms(field: Field, terms: dict[Mono, Scalar]) -> "Polynomial":
        """Wrap ``terms`` whose coefficients are already nonzero values of
        ``field`` (no ``Field.of`` pass)."""
        out = Polynomial.__new__(Polynomial)
        out.field = field
        out.terms = terms
        out._hash = out._top = None
        return out

    @staticmethod
    def zero(field: Field) -> "Polynomial":
        return Polynomial(field, {})

    @staticmethod
    def const(field: Field, c: Scalar) -> "Polynomial":
        return Polynomial(field, {ONE_MONO: c})

    @staticmethod
    def variable(field: Field, v: Var, exp: int = 1) -> "Polynomial":
        return Polynomial._of_terms(field, {((v, exp),) if exp else ONE_MONO: field.one})

    @staticmethod
    def monomial(field: Field, m: Mono, c: Scalar = 1) -> "Polynomial":
        return Polynomial(field, {m: c})

    # -- basic structure ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        # terms first: dicts of different sizes differ at once; most share one field object
        return self.terms == other.terms and (self.field is other.field or self.field == other.field)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.field.char, frozenset(self.terms.items())))
        return h

    def __reduce__(self):
        # a string hash differs between processes: never pickle ``_hash``
        # (nor ``_top``: the copy scans its terms again on first use)
        return Polynomial._of_terms, (self.field, self.terms)

    def sorted_terms(self) -> list[tuple[Mono, Scalar]]:
        return sorted(self.terms.items(), key=lambda kv: mono_key(kv[0]))

    def top_exponents(self) -> dict[Var, int]:
        """The support: each variable's highest exponent, read in one scan on
        first use and kept (callers must not mutate it)."""
        top = self._top
        if top is None:
            top = self._top = {}
            get = top.get
            for m in self.terms:
                for v, e in m:
                    if e > get(v, 0):
                        top[v] = e
        return top

    def variables(self) -> set[Var]:
        return set(self.top_exponents())

    def max_order(self) -> int:
        """The highest jet order among the variables (-1 for a constant)."""
        return max([order for _, order in self.top_exponents()], default=-1)

    def degree_in(self, v: Var) -> int:
        return self.top_exponents().get(v, 0)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        if not other.terms:
            return self
        terms = dict(self.terms)
        get = terms.get
        p = self.field.char
        # plain + (an absent term reads 0, also for Gaussian values), then
        # one reduction mod p per touched term
        for m, c in other.terms.items():
            s = get(m, 0) + c
            if p:
                s %= p
            if s:
                terms[m] = s
            else:
                del terms[m]
        return Polynomial._of_terms(self.field, terms)

    def __neg__(self) -> "Polynomial":
        f = self.field
        return Polynomial._of_terms(f, {m: f.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms: dict[Mono, Scalar] = {}
        get = terms.get
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                terms[m] = get(m, 0) + c1 * c2
        # one reduction mod p per result term; zero sums drop out
        p = self.field.char
        if p:
            terms = {m: r for m, c in terms.items() if (r := c % p)}
        else:
            terms = {m: c for m, c in terms.items() if c}
        return Polynomial._of_terms(self.field, terms)

    def scale(self, c: Scalar) -> "Polynomial":
        f = self.field
        c = f.of(c)
        if not c:
            return Polynomial.zero(f)
        # a product of nonzero field values is nonzero
        return Polynomial._of_terms(f, {m: f.mul(cc, c) for m, cc in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.const(self.field, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def _check(self, other: "Polynomial") -> None:
        if self.field is not other.field and self.field != other.field:
            raise ValueError("mixed coefficient fields")

    # -- structural operations ----------------------------------------

    def reduce_mod_vars(self, zero_vars: Iterable[Var]) -> "Polynomial":
        """Drop every term containing one of the given variables.

        This is reduction modulo the ideal generated by the variables.
        When no term drops, which the support tells without a scan, ``self``
        itself is returned (with its hash).
        """
        zs = zero_vars if isinstance(zero_vars, (set, frozenset)) else set(zero_vars)
        if zs.isdisjoint(self.top_exponents()):
            return self
        terms: dict[Mono, Scalar] = {}
        for m, c in self.terms.items():
            for v, _ in m:
                if v in zs:
                    break
            else:
                terms[m] = c
        return Polynomial._of_terms(self.field, terms)

    def partial(self, v: Var) -> "Polynomial":
        """Formal partial derivative (matches the usual one; in char p the
        exponent multiplier is reduced mod p)."""
        f = self.field
        terms: dict[Mono, Scalar] = {}
        for m, c in self.terms.items():
            for i, (w, e) in enumerate(m):
                if w == v:
                    coeff = f.mul(c, e)
                    if not coeff:
                        break
                    rest = list(m)
                    if e == 1:
                        rest.pop(i)
                    else:
                        rest[i] = (w, e - 1)
                    mm = tuple(rest)
                    s = f.add(terms.get(mm, f.zero), coeff)
                    if s:
                        terms[mm] = s
                    else:
                        terms.pop(mm, None)
                    break
        return Polynomial._of_terms(f, terms)

    def split_by_degree(self, v: Var) -> dict[int, "Polynomial"]:
        """Write self as a polynomial in ``v``; maps degree -> coefficient."""
        buckets: dict[int, dict[Mono, Scalar]] = {}
        for m, c in self.terms.items():
            deg = 0
            rest = []
            for w, e in m:
                if w == v:
                    deg = e
                else:
                    rest.append((w, e))
            buckets.setdefault(deg, {})[tuple(rest)] = c
        return {d: Polynomial._of_terms(self.field, t) for d, t in buckets.items()}

    def coefficient_of(self, v: Var) -> tuple["Polynomial", "Polynomial"]:
        """Split ``self = c*v + rest`` with ``rest`` free of ``v``.

        Raises ValueError if ``v`` occurs with exponent >= 2.
        """
        parts = self.split_by_degree(v)
        if any(d >= 2 for d in parts):
            raise ValueError(f"{var_name(v)} occurs nonlinearly")
        c = parts.get(1, Polynomial.zero(self.field))
        rest = parts.get(0, Polynomial.zero(self.field))
        return c, rest

    def content_monomial(self) -> Mono:
        """Greatest common monomial factor of all terms (1 for the zero poly)."""
        if not self.terms:
            return ONE_MONO
        common: Optional[dict[Var, int]] = None
        for m in self.terms:
            d = dict(m)
            if common is None:
                common = d
            else:
                common = {v: min(e, d[v]) for v, e in common.items() if v in d}
            if not common:
                return ONE_MONO
        assert common is not None
        return mono_from_pairs(common.items())

    def divide_monomial(self, m: Mono) -> "Polynomial":
        """Exact division of every term by the monomial ``m``.  Division by
        1 returns ``self`` itself (with its hash), as ``reduce_mod_vars``
        does when nothing drops."""
        if not m:
            return self
        need = dict(m)
        terms: dict[Mono, Scalar] = {}
        for mm, c in self.terms.items():
            d = dict(mm)
            for v, e in need.items():
                if d.get(v, 0) < e:
                    raise ValueError("monomial does not divide all terms")
                d[v] -= e
            terms[mono_from_pairs(d.items())] = c
        return Polynomial._of_terms(self.field, terms)

    def evaluate(self, point: Mapping[Var, Scalar]) -> Scalar:
        """Evaluate at a point; unassigned variables default to 0.  The values
        must be scalars of the field or integers: they are used as given."""
        f = self.field
        total = f.zero
        for m, c in self.terms.items():
            val = c
            for v, e in m:
                a = point.get(v, 0)
                if not a:
                    val = f.zero
                    break
                for _ in range(e):
                    val = f.mul(val, a)
            if val:
                total = f.add(total, val)
        return total

    # -- printing / parsing -------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.field.char}, {format_poly(self)})"


def format_poly(p: Polynomial) -> str:
    """Canonical plain-text form, e.g. ``z3^2 + x2^3`` or ``2*x1*y1 - z0``.

    One pass over the sorted terms.  Residues mod p are never negative, so
    the sign test needs no look at the characteristic; the text of each
    (variable, exponent) pair is built once per call."""
    terms = p.terms
    if not terms:
        return "0"
    names: dict[tuple[Var, int], str] = {}
    get = names.get
    out: list[str] = []
    for m in sorted(terms, key=mono_key):
        c = terms[m]
        if type(c) is Gaussian:
            neg = (c.im == 0 and c.re < 0) or (c.re == 0 and c.im < 0)
            coeff = _fmt_scalar(-c if neg else c)
        else:  # int or Fraction
            n, d = c.numerator, c.denominator
            neg = n < 0
            coeff = str(-n if neg else n) if d == 1 else f"{-n if neg else n}/{d}"
        out.append((" - " if neg else " + ") if out else ("-" if neg else ""))
        if m:
            body = "*".join([get(pair) or _pair_name(names, pair) for pair in m])
            out.append(body if coeff == "1" else f"{coeff}*{body}")
        else:
            out.append(coeff)
    return "".join(out)


def _pair_name(names: dict[tuple[Var, int], str], pair: tuple[Var, int]) -> str:
    (f, o), e = pair
    name = names[pair] = f"{f}{o}" if e == 1 else f"{f}{o}^{e}"
    return name


def _fmt_scalar(c: Scalar) -> str:
    if isinstance(c, Gaussian):
        if not c.im:
            return _fmt_scalar(c.re)
        if not c.re:
            return _fmt_imag(c.im)
        if isinstance(c.im, Fraction) and c.im < 0:
            return f"({_fmt_scalar(c.re)} - {_fmt_imag(-c.im)})"
        return f"({_fmt_scalar(c.re)} + {_fmt_imag(c.im)})"
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c))


def _fmt_imag(b) -> str:
    if b == 1:
        return "i"
    if b == -1:
        return "-i"
    return f"{_fmt_scalar(b)}*i"


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<imag>i)|(?P<var>[xyzt]\d*)|(?P<op>[-+*^()]))"
)


class ParseError(ValueError):
    pass


# the largest product of the exponents any number or variable of a parsed
# polynomial is raised to: it bounds the power one factor can ask for, and so
# the size of its coefficients (``z^99999999999``, ``((2^99)^99)^99``).  It
# does not bound the degree: a product of factors adds their degrees, so
# ``z^128*z^128`` has degree 256, and its size is bounded by ``MAX_TERMS``
MAX_EXPONENT = 128

# the deepest nesting of parentheses: the parser descends three calls per
# level, so this keeps it well under the interpreter's recursion limit
MAX_NESTING = 64

# the most term pairs one multiplication in a parsed polynomial may touch:
# a product (and a power, one factor at a time) is multiplied out left to
# right, and each step, the running product's terms times the next factor's,
# is refused before it runs when it passes this bound.  ``(x1+y1)*(x2+y2)*...``
# doubles with each factor, so a short text could otherwise ask for
# millions of terms
MAX_TERMS = 4096


def parse_poly(text: str, field: Field) -> Polynomial:
    """Parse the plain-text syntax: ``z3^2 + x2^3``, ``2*x1y1 - 1/2 z0``.

    A bare family letter (``x``) means order 0 (``x0``).  The ``*`` between
    factors is optional.  ``^`` denotes powers with nonnegative integer
    exponents; nested powers multiply, and their product may not exceed
    ``MAX_EXPONENT``.  Products and powers are multiplied out one factor at
    a time, and a step whose running product's term count times the next
    factor's passes ``MAX_TERMS`` is rejected before it runs.  Parentheses
    nest at most ``MAX_NESTING`` deep.
    """
    tokens = _tokenize(text)
    pos = 0
    depth = 0

    def peek() -> Optional[str]:
        return tokens[pos][0] if pos < len(tokens) else None

    def take() -> tuple[str, str]:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of input")
        tok = tokens[pos]
        pos += 1
        return tok

    def product(a: Polynomial, b: Polynomial) -> Polynomial:
        if len(a.terms) * len(b.terms) > MAX_TERMS:
            raise ParseError(
                f"a product of {len(a.terms)} by {len(b.terms)} terms "
                f"could expand past {MAX_TERMS} terms"
            )
        return a * b

    # each parse_* returns its polynomial and the largest exponent product
    # applied inside it (1 for a plain number or variable)
    def parse_expr() -> tuple[Polynomial, int]:
        sign = 1
        while peek() == "op" and tokens[pos][1] in "+-":
            if take()[1] == "-":
                sign = -sign
        acc, power = parse_term()
        acc = acc.scale(sign)
        while peek() == "op" and tokens[pos][1] in "+-":
            sign = 1
            while peek() == "op" and tokens[pos][1] in "+-":
                if take()[1] == "-":
                    sign = -sign
            term, p = parse_term()
            acc, power = acc + term.scale(sign), max(power, p)
        return acc, power

    def parse_term() -> tuple[Polynomial, int]:
        acc, power = parse_factor()
        while True:
            nxt = peek()
            if nxt == "op" and tokens[pos][1] == "*":
                take()
            elif not (nxt in ("num", "var", "imag") or (nxt == "op" and tokens[pos][1] == "(")):
                return acc, power
            factor, p = parse_factor()
            acc, power = product(acc, factor), max(power, p)

    def parse_factor() -> tuple[Polynomial, int]:
        nonlocal depth
        kind, text_ = take()
        power = 1
        if kind == "num":
            if "/" in text_:
                a, b = text_.split("/")
                try:
                    base = Polynomial.const(field, Fraction(int(a), int(b)))
                except ZeroDivisionError:
                    raise ParseError(
                        f"{text_} has no value in characteristic {field.char}"
                    ) from None
            else:
                base = Polynomial.const(field, int(text_))
        elif kind == "imag":
            if not field.i_adjoined:
                raise ParseError("i is not available in this field")
            base = Polynomial.const(field, Gaussian(0, 1))
        elif kind == "var":
            fam = text_[0]
            order = int(text_[1:]) if len(text_) > 1 else 0
            base = Polynomial.variable(field, var(fam, order))
        elif kind == "op" and text_ == "(":
            depth += 1
            if depth > MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}")
            base, power = parse_expr()
            depth -= 1
            k, t = take() if pos < len(tokens) else ("", "")
            if (k, t) != ("op", ")"):
                raise ParseError("unbalanced parentheses")
        else:
            raise ParseError(f"unexpected token {text_!r}")
        if peek() == "op" and tokens[pos][1] == "^":
            take()
            k, t = take() if pos < len(tokens) else ("", "")
            if k != "num" or "/" in t:
                raise ParseError("exponent must be a nonnegative integer")
            e = int(t)
            if power * e > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {t} raises a factor to a power above {MAX_EXPONENT}"
                )
            result = Polynomial.const(field, 1)
            for _ in range(e):
                result = product(result, base)
            base = result
            power *= max(e, 1)
        return base, power

    result, _ = parse_expr()
    if pos != len(tokens):
        raise ParseError(f"trailing input near {tokens[pos][1]!r}")
    return result


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"bad character {text[pos]!r}")
            break
        pos = m.end()
        for kind in ("num", "imag", "var", "op"):
            if m.group(kind) is not None:
                tokens.append((kind, m.group(kind)))
                break
    return tokens
