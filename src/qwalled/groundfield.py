"""Exact scalar arithmetic in the parameters q and rho.

Four coefficient fields are supported:

* ``generic``   -- the rational function field Q(q, rho),
* ``one-var``   -- Q(q) with rho specialized to +-q^n,
* ``rational``  -- Q with numeric values for q and rho,
* ``gfp``       -- an odd prime field GF(p) with chosen units for q and rho.

A scalar is a raw value of its field -- an int mod p, a Fraction, or one
of the values below -- and the field is its only API: the raw_* methods
compute with raw values, and a field holds q, rho, one and qdiff =
q - q^{-1} as raw values.  Every raw value is canonical when it is made,
so equal scalars are equal Python objects and == is their equality.

All arithmetic is exact.  Generic and one-variable values that lie in the
ring R = Z[q^{+-1}, rho^{+-1}, (q - 1)^{-1}, (q + 1)^{-1}] -- every closure
pivot and every action-table coefficient does -- are kept natively, with no
gcd: a raw value (N, i, j) is N / ((q - 1)^i (q + 1)^j), N a dict
{(a, b): int} of Laurent terms c q^a rho^b (b = 0 over Q(q)).  In canonical
form i is 0 or N(1, rho) != 0, and j is 0 or N(-1, rho) != 0; a factor
q -+ 1 is tested by evaluating N at q = +-1 and removed by synthetic
division.  A product takes the product of the numerators and adds
exponents, sums first bring both operands to common exponents, and a
quotient is native when the divisor is a unit of R: stripped of its factors
q -+ 1, it is +-q^a rho^b.  Any other quotient falls back to a polynomial
fraction (``_Frac``: numerator and denominator dicts over Z[q, rho] with
exponents >= 0), counted in ``fallbacks``; operations with a fallback
operand lift the other one.  Every fraction is reduced as it is made, by a
native heuristic gcd (``heugcd``, the GCDHEU that sympy uses over
Z[q, rho]), which raises FieldError in the rare case that its evaluation
points run out; its denominator gets a positive leading coefficient, and a
fraction whose denominator is a unit of R becomes an (N, i, j) value.  No
module imports sympy; the tests use it as their reference.  Text
("num / den", the denominator's lex-leading coefficient positive) is
written and read natively.

Laurent data (a terms dict {(a, b): c} of nonzero integers, as read from
text by ``laurent_from_text`` or taken from a generic value by
``to_laurent_fraction``) become field values in one pass through
``Field.raw_from_laurent``; the function fields evaluate each term at their
q and rho directly, with no intermediate field elements.  Parsing, engine
cache loads and the generic-to-field transfer all go through it, so loading
a cached engine costs far less than the closure it replaces.

Sparse vectors are dicts from keys to nonzero raw values.  Every
accumulate loop goes through one in-place kernel per field,
``Field.vec_iaxpy(u, c, v)``, which adds c * v into u and deletes the keys
that cancel.  Its contract: the caller owns the accumulator u (a dict it
made and has not handed out), v is only read, and a vector that has been
stored (an action-table row, a substitution, a pivot row or combination)
is never passed as u.  ``PrimeField`` overrides the kernel with one integer
``%`` per term.
"""
import math
import operator

from collections import namedtuple
from math import gcd as _int_gcd


class FieldError(Exception):
    """Raised for invalid field constructions or illegal arithmetic."""


def laurent_text(terms):
    """The text of a Laurent terms dict {(a, b): c}: "c*q^a*rho^b" terms,
    zero exponents left out, joined by " + " in exponent order; "0" when
    empty."""
    if not terms:
        return "0"
    parts = []
    for (a, b) in sorted(terms):
        factors = [str(terms[(a, b)])]
        if a:
            factors.append("q^%d" % a)
        if b:
            factors.append("rho^%d" % b)
        parts.append("*".join(factors))
    return " + ".join(parts)


def laurent_from_text(text):
    """The terms dict of a Laurent polynomial read from text in the form
    laurent_text writes, zero terms dropped."""
    text = text.strip()
    if text == "0":
        return {}
    terms = {}
    for part in text.split("+"):
        part = part.strip()
        if not part:
            raise FieldError("empty term in %r" % text)
        coeff, a, b = 1, 0, 0
        for factor in part.split("*"):
            factor = factor.strip()
            if factor.startswith("q^"):
                a += int(factor[2:])
            elif factor == "q":
                a += 1
            elif factor.startswith("rho^"):
                b += int(factor[4:])
            elif factor == "rho":
                b += 1
            else:
                coeff *= int(factor)
        terms[(a, b)] = terms.get((a, b), 0) + coeff
    return {k: c for k, c in terms.items() if c}


class Field:
    """Base class for the scalar fields.

    A field's scalars are its raw values, handled only through its
    methods.  Each concrete field sets, through _set_constants, the raw
    values q, rho, one and qdiff = q - q^{-1}.
    """

    # the attributes that the repr shows
    _repr_args = ()

    def _set_constants(self, q, rho):
        self.q = q
        self.rho = rho
        self.one = self.raw_from_int(1)
        self.qdiff = self.raw_sub(q, self.raw_div(self.one, q))

    # spec_string is canonical, so it is the field's identity
    def __eq__(self, other):
        return type(other) is type(self) \
            and other.spec_string() == self.spec_string()

    def __hash__(self):
        return hash(self.spec_string())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%s" % (name, getattr(self, name)) for name in self._repr_args))

    # -- raw value protocol -------------------------------------------------
    raw_add = staticmethod(operator.add)
    raw_sub = staticmethod(operator.sub)
    raw_mul = staticmethod(operator.mul)
    raw_neg = staticmethod(operator.neg)

    def raw_div(self, a, b):
        if self.raw_is_zero(b):
            raise FieldError("division by zero")
        return a / b

    def raw_pow(self, a, n):
        """a^n for an integer n of either sign."""
        if n < 0:
            a, n = self.raw_div(self.one, a), -n
        out = self.one
        while n:
            if n & 1:
                out = self.raw_mul(out, a)
            n >>= 1
            if n:
                a = self.raw_mul(a, a)
        return out

    def raw_is_zero(self, a):
        return not a

    def raw_is_unit(self, a):
        """Whether dividing by a stays in the field's native values."""
        return not self.raw_is_zero(a)

    def raw_size(self, a):
        """The number of polynomial terms a raw value holds: the cost of
        arithmetic with it.  Constant over fields of numbers."""
        return 1

    def raw_from_int(self, n):
        raise NotImplementedError

    def raw_from_laurent(self, terms):
        """The raw value of a Laurent terms dict at the field's q and rho."""
        add, mul, power = self.raw_add, self.raw_mul, self.raw_pow
        out = self.raw_from_int(0)
        for (a, b), c in terms.items():
            out = add(out, mul(self.raw_from_int(c),
                               mul(power(self.q, a), power(self.rho, b))))
        return out

    def vec_iaxpy(self, u, c, v):
        """u += c * v in place, deleting keys that cancel; returns u.

        u is a dict the caller owns; v is only read.  Neither holds zero
        values, and u never will.
        """
        if self.raw_is_zero(c):
            return u
        # products with one (fresh states, unit coefficients) are skipped;
        # == on raw values is exact and never slower than a product
        one = self.one
        if c != one:
            mul = self.raw_mul
            v = {k: c if a == one else mul(c, a) for k, a in v.items()}
        add, is_zero = self.raw_add, self.raw_is_zero
        for k, ca in v.items():
            if k in u:
                x = add(u[k], ca)
                if is_zero(x):
                    del u[k]
                else:
                    u[k] = x
            else:
                u[k] = ca
        return u

    def delta(self):
        """The loop parameter (rho - rho^-1) / (q - q^-1); raises FieldError
        where q - q^-1 = 0."""
        if self.raw_is_zero(self.qdiff):
            raise FieldError("q-q^{-1} not invertible")
        rho = self.rho
        return self.raw_div(self.raw_sub(rho, self.raw_div(self.one, rho)),
                            self.qdiff)

    def quantum_characteristic(self):
        """Least e >= 1 with 1 + q^2 + ... + q^(2(e-1)) = 0, else math.inf."""
        return math.inf

    def to_text(self, a):
        raise NotImplementedError

    def parse(self, text):
        """The raw value written by to_text."""
        raise NotImplementedError


# -- Laurent numerators: dicts {(a, b): c} for sum c q^a rho^b, c != 0 ------
# A numerator dict is never mutated once it is part of a raw value.

def _terms_mul(x, y):
    if len(x) > len(y):
        x, y = y, x
    if len(x) == 1:
        for (a1, b1), c1 in x.items():
            return {(a1 + a2, b1 + b2): c1 * c2 for (a2, b2), c2 in y.items()}
    out = {}
    get = out.get
    for (a1, b1), c1 in x.items():
        for (a2, b2), c2 in y.items():
            k = (a1 + a2, b1 + b2)
            out[k] = get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _terms_add(x, y):
    out = dict(x)
    for k, c in y.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def _vanishes(x, s):
    """Whether x is zero at q = s (s = +-1), as a polynomial in rho."""
    at = {}
    for (a, b), c in x.items():
        at[b] = at.get(b, 0) + (-c if s < 0 and a & 1 else c)
    return not any(at.values())


def _times_linear(x, s, k):
    """x * (q - s)^k."""
    for _ in range(k):
        out = {}
        for (a, b), c in x.items():
            out[(a + 1, b)] = out.get((a + 1, b), 0) + c
            out[(a, b)] = out.get((a, b), 0) - s * c
        x = {key: c for key, c in out.items() if c}
    return x


def _over_linear(x, s):
    """x / (q - s) by synthetic division, for x divisible by q - s."""
    rows = {}
    for (a, b), c in x.items():
        rows.setdefault(b, {})[a] = c
    out = {}
    for b, row in rows.items():
        d = 0
        # the coefficient of q^a in (q - s) * out is d_{a-1} - s d_a
        for a in range(min(row), max(row)):
            d = s * (d - row.get(a, 0))
            if d:
                out[(a, b)] = d
    return out


def _shift(x):
    """The powers of q and rho that make every exponent of x non-negative."""
    return (max(0, -min(a for a, _ in x)), max(0, -min(b for _, b in x)))


def _den_terms(u, v, i, j):
    """q^u rho^v (q - 1)^i (q + 1)^j."""
    return _times_linear(_times_linear({(u, v): 1}, 1, i), -1, j)


# -- raw values of R = Z[q^+-1, rho^+-1, (q - 1)^-1, (q + 1)^-1] -------------

_ZERO = ({}, 0, 0)

# divisions whose quotient left R and so took the _Frac fallback
fallbacks = 0


def _strip(x, i, j):
    """The canonical form of x / ((q - 1)^i (q + 1)^j)."""
    while i and _vanishes(x, 1):
        x = _over_linear(x, 1)
        i -= 1
    while j and _vanishes(x, -1):
        x = _over_linear(x, -1)
        j -= 1
    return (x, i, j)


def _add(x, y):
    n1, i1, j1 = x
    n2, i2, j2 = y
    if not n1:
        return y
    if not n2:
        return x
    i, j = max(i1, i2), max(j1, j2)
    if i1 != i2 or j1 != j2:
        n1 = _times_linear(_times_linear(n1, 1, i - i1), -1, j - j1)
        n2 = _times_linear(_times_linear(n2, 1, i - i2), -1, j - j2)
    n = _terms_add(n1, n2)
    if not n:
        return _ZERO
    # where one exponent was larger, its numerator keeps the sum off zero
    if (i and i1 == i2) or (j and j1 == j2):
        return _strip(n, i, j)
    return (n, i, j)


def _mul(x, y):
    n1, i1, j1 = x
    n2, i2, j2 = y
    if not n1 or not n2:
        return _ZERO
    n = _terms_mul(n1, n2)
    # a factor q -+ 1 can only cancel against an operand whose exponent is 0
    if (not i1) != (not i2) or (not j1) != (not j2):
        return _strip(n, i1 + i2, j1 + j2)
    return (n, i1 + i2, j1 + j2)


def _linear_factors(x):
    """(y, a, b) with x = y (q - 1)^a (q + 1)^b and y(+-1, rho) != 0."""
    a = b = 0
    while _vanishes(x, 1):
        x = _over_linear(x, 1)
        a += 1
    while _vanishes(x, -1):
        x = _over_linear(x, -1)
        b += 1
    return x, a, b


def _inverse(y):
    """1 / y when y != 0 is a unit of R, else None."""
    n, a, b = _linear_factors(y[0])
    if len(n) != 1:
        return None
    ((u, v), c), = n.items()
    if c not in (1, -1):
        return None
    # 1 / y = c q^-u rho^-v (q - 1)^di (q + 1)^dj
    di, dj = y[1] - a, y[2] - b
    n = _times_linear(_times_linear({(-u, -v): c}, 1, max(di, 0)),
                      -1, max(dj, 0))
    return (n, max(-di, 0), max(-dj, 0))


# -- polynomials of Z[q, rho] and their heuristic gcd -----------------------
# A polynomial is a dict {m: c} of nonzero integers over exponent tuples
# m >= 0, compared lexicographically: (a, b) for c q^a rho^b, and (b,) over
# Z[rho] once q is evaluated.  heugcd is GCDHEU (Char, Geddes and Gonnet
# 1989, as analysed by Liao and Fateman 1995), with the evaluation points,
# interpolation and cofactor checks of sympy's ``heugcd``.

# evaluation points heugcd tries before it gives up
HEU_GCD_MAX = 6

def _exact_quo(f, g):
    """f / g when g divides f, else None.

    Lex long division, stopped at the first leading term that the leading
    term of g does not divide (from then on the remainder is nonzero).
    """
    lm = max(g)
    lc = g[lm]
    rest = [(m, c) for m, c in g.items() if m != lm]
    p = dict(f)
    quo = {}
    while p:
        m = max(p)
        c = p.pop(m)
        e = tuple(map(operator.sub, m, lm))
        if min(e) < 0 or c % lc:
            return None
        t = c // lc
        quo[e] = t
        for d, cg in rest:
            k = tuple(map(operator.add, e, d))
            v = p.get(k, 0) - t * cg
            if v:
                p[k] = v
            else:
                del p[k]
    return quo


def _evaluate(f, x):
    """f at its first variable = x, a polynomial in the others."""
    powers = [1]
    for _ in range(max(m[0] for m in f)):
        powers.append(powers[-1] * x)
    out = {}
    for m, c in f.items():
        k = m[1:]
        out[k] = out.get(k, 0) + c * powers[m[0]]
    return {k: c for k, c in out.items() if c}


def _interpolate(h, x):
    """The polynomial whose values at first variable = x are h, read off
    from the symmetric base-x digits of h's coefficients, with its leading
    coefficient made positive."""
    out = {}
    half = x // 2
    i = 0
    while h:
        rest = {}
        for m, c in h.items():
            d = c % x
            if d > half:
                d -= x
            if d:
                out[(i,) + m] = d
            if c != d:
                rest[m] = (c - d) // x
        h = rest
        i += 1
    if out[max(out)] < 0:
        return {m: -c for m, c in out.items()}
    return out


def _scaled(f, c):
    return f if c == 1 else {m: v * c for m, v in f.items()}


def _primitive(f):
    g = _int_gcd(*f.values())
    return f if g == 1 else {m: v // g for m, v in f.items()}


def _gcd_candidates(f, g, h, cff, cfg, x):
    """The candidates for gcd(f, g) from the images h = gcd(f(x), g(x)),
    cff = f(x) / h and cfg = g(x) / h, each built only when asked for: h
    interpolated, then f and g over their interpolated cofactors (None when
    that division leaves a remainder)."""
    yield _primitive(_interpolate(h, x))
    yield _exact_quo(f, _interpolate(cff, x))
    yield _exact_quo(g, _interpolate(cfg, x))


def heugcd(f, g):
    """(h, f / h, g / h) with h = gcd(f, g), for nonzero polynomials f and
    g in the same variables.

    f and g are evaluated at a growing integer x for their first variable;
    the gcd of the images (an integer gcd after the last variable) is
    interpolated back to a candidate h, and a candidate whose division of
    f and g leaves no remainder is the gcd.  Raises FieldError when
    HEU_GCD_MAX points give no candidate.
    """
    content = _int_gcd(_int_gcd(*f.values()), _int_gcd(*g.values()))
    f = {m: c // content for m, c in f.items()}
    g = {m: c // content for m, c in g.items()}
    f_norm = max(map(abs, f.values()))
    g_norm = max(map(abs, g.values()))
    bound = 2 * min(f_norm, g_norm) + 29
    x = max(min(bound, 99 * math.isqrt(bound)),
            2 * min(f_norm // abs(f[max(f)]), g_norm // abs(g[max(g)])) + 4)
    last = len(next(iter(f))) == 1
    for _ in range(HEU_GCD_MAX):
        ff, gg = _evaluate(f, x), _evaluate(g, x)
        if ff and gg:
            if last:
                a, b = ff[()], gg[()]
                h = _int_gcd(a, b)
                h, cff, cfg = {(): h}, {(): a // h}, {(): b // h}
            else:
                h, cff, cfg = heugcd(ff, gg)
            # a candidate that divides f and g is the gcd
            for cand in _gcd_candidates(f, g, h, cff, cfg, x):
                quo_f = cand and _exact_quo(f, cand)
                quo_g = quo_f and _exact_quo(g, cand)
                if quo_g:
                    return _scaled(cand, content), quo_f, quo_g
        x = 73794 * x * math.isqrt(math.isqrt(x)) // 27011
    raise FieldError("heuristic gcd failed at %d evaluation points"
                     % HEU_GCD_MAX)


# A value outside R: num / den for polynomials of Z[q, rho] with no common
# factor, den with a positive leading coefficient and not a unit of R.
# Neither dict is mutated once it is part of a _Frac.
_Frac = namedtuple("_Frac", "num den")

_POLY_ONE = {(0, 0): 1}


def _lift(x):
    """A raw value as a (numerator, denominator) pair of polynomials with no
    common factor; a pair is not a raw value."""
    if x.__class__ is _Frac:
        return x.num, x.den
    n, i, j = x
    if not n:
        return {}, _POLY_ONE
    u, v = _shift(n)
    return ({(a + u, b + v): c for (a, b), c in n.items()},
            _den_terms(u, v, i, j))


def _reduced(num, den):
    """The raw value num / den, for polynomials num and den != 0."""
    if not num:
        return _ZERO
    _, num, den = heugcd(num, den)
    if den[max(den)] < 0:
        num = {m: -c for m, c in num.items()}
        den = {m: -c for m, c in den.items()}
    inv = _inverse((den, 0, 0))
    if inv is None:
        return _Frac(num, den)
    return _mul((num, 0, 0), inv)


class _FunctionField(Field):
    """Q(q, rho) or Q(q), with the values of R kept natively.

    A raw value of R is a tuple (N, i, j) standing for
    N / ((q - 1)^i (q + 1)^j), N a numerator dict, in canonical form.  Any
    other value is a reduced _Frac; an operation with a _Frac operand lifts
    the other operand and reduces its result.  A _Frac, a pair, never
    equals a tuple of R, a triple.
    """

    def raw_from_int(self, n):
        return ({(0, 0): n}, 0, 0) if n else _ZERO

    def raw_from_laurent(self, terms):
        terms = self._exponent_terms(terms)
        return (dict(terms), 0, 0) if terms else _ZERO

    def raw_is_zero(self, a):
        return not a[0]

    def raw_is_unit(self, a):
        return (a.__class__ is tuple and bool(a[0])
                and _inverse(a) is not None)

    def raw_size(self, a):
        if a.__class__ is tuple:
            return len(a[0])
        return len(a.num) + len(a.den)

    def raw_neg(self, a):
        if a.__class__ is tuple:
            n, i, j = a
            return ({k: -c for k, c in n.items()}, i, j)
        return _Frac({k: -c for k, c in a.num.items()}, a.den)

    def raw_add(self, a, b):
        if a.__class__ is tuple and b.__class__ is tuple:
            return _add(a, b)
        (n1, d1), (n2, d2) = _lift(a), _lift(b)
        if d1 == d2:
            return _reduced(_terms_add(n1, n2), d1)
        return _reduced(_terms_add(_terms_mul(n1, d2), _terms_mul(n2, d1)),
                        _terms_mul(d1, d2))

    def raw_sub(self, a, b):
        return self.raw_add(a, self.raw_neg(b))

    def raw_mul(self, a, b):
        if a.__class__ is tuple and b.__class__ is tuple:
            return _mul(a, b)
        (n1, d1), (n2, d2) = _lift(a), _lift(b)
        return _reduced(_terms_mul(n1, n2), _terms_mul(d1, d2))

    def raw_div(self, a, b):
        global fallbacks
        if self.raw_is_zero(b):
            raise FieldError("division by zero")
        if a.__class__ is tuple and b.__class__ is tuple:
            inv = _inverse(b)
            if inv is not None:
                return _mul(a, inv)
            fallbacks += 1
        (n1, d1), (n2, d2) = _lift(a), _lift(b)
        return _reduced(_terms_mul(n1, d2), _terms_mul(d1, n2))

    def to_laurent_fraction(self, a):
        """The (numerator, denominator) of a raw value as Laurent terms
        dicts: polynomials with no common factor, the denominator's leading
        coefficient (q before rho, lexicographically) positive."""
        return _lift(a)

    def to_text(self, a):
        num, den = _lift(a)
        if den == _POLY_ONE:
            return laurent_text(num)
        return "%s / %s" % (laurent_text(num), laurent_text(den))

    def parse(self, text):
        parts = text.split("/")
        if len(parts) > 2:
            raise FieldError("too many '/' in %r" % text)
        num = self.raw_from_laurent(laurent_from_text(parts[0]))
        if len(parts) == 1:
            return num
        return self.raw_div(num, self.raw_from_laurent(
            laurent_from_text(parts[1])))


class GenericField(_FunctionField):
    """The generic rational function field Q(q, rho)."""

    def __init__(self):
        self._set_constants(({(1, 0): 1}, 0, 0), ({(0, 1): 1}, 0, 0))

    @staticmethod
    def _exponent_terms(terms):
        return terms

    def spec_string(self):
        return "generic"


# the largest |n| of a field rho = +-q^n
EXPONENT_MAX = 100


class OneVarField(_FunctionField):
    """Q(q) with rho specialized to sign * q^n; every exponent of rho in a
    raw value is 0."""

    _repr_args = ("n", "sign")

    def __init__(self, n, sign=1):
        if sign not in (1, -1):
            raise FieldError("sign must be +-1")
        self.n = int(n)
        if abs(self.n) > EXPONENT_MAX:
            # delta = (rho - rho^-1) / (q - q^-1) has |n| terms
            raise FieldError("|n| in rho = +-q^n must be at most %d"
                             % EXPONENT_MAX)
        self.sign = sign
        self._set_constants(({(1, 0): 1}, 0, 0), ({(self.n, 0): sign}, 0, 0))

    def _exponent_terms(self, terms):
        # c q^a rho^b = c sign^b q^(a + n b)
        out = {}
        for (a, b), c in terms.items():
            key = (a + self.n * b, 0)
            out[key] = out.get(key, 0) + (-c if self.sign < 0 and b % 2 else c)
        return {m: c for m, c in out.items() if c}

    def spec_string(self):
        base = "q-power:%d" % self.n
        return base + (":neg" if self.sign < 0 else "")


# the largest digit count of the numerator, the denominator and the exponent
# of a rational q or rho as written, and the largest |exponent|: Fraction
# takes superlinear time in the exponent, and the spec is written back as
# text
RATIONAL_DIGITS_MAX = 100
RATIONAL_EXPONENT_MAX = 100


def _bounded_number(text):
    """text, once its digit counts and exponent are within the bounds."""
    mantissa, _, exp = text.lower().partition("e")
    num, _, den = mantissa.partition("/")
    if max(sum(map(str.isdigit, part)) for part in (num, den, exp)) \
            > RATIONAL_DIGITS_MAX \
            or (exp.strip() and abs(int(exp)) > RATIONAL_EXPONENT_MAX):
        raise FieldError("rational q and rho take at most %d digits above "
                         "and below the bar and exponents up to %d"
                         % (RATIONAL_DIGITS_MAX, RATIONAL_EXPONENT_MAX))
    return text


class RationalField(Field):
    """Q with numeric q and rho, given as numbers or text that Fraction
    reads, within the bounds of _bounded_number."""

    _repr_args = ("q", "rho")

    def __init__(self, q, rho):
        # only rational fields pay for importing fractions (and decimal)
        from fractions import Fraction
        self._fraction = Fraction
        q, rho = (Fraction(_bounded_number(str(x))) for x in (q, rho))
        if q == 0 or rho == 0:
            raise FieldError("q and rho must be nonzero")
        if q * q == 1:
            raise FieldError("q-q^{-1} not invertible")
        self._set_constants(q, rho)

    def raw_from_int(self, n):
        return self._fraction(n)

    def to_text(self, a):
        if a.denominator == 1:
            return str(a.numerator)
        return "%d / %d" % (a.numerator, a.denominator)

    def parse(self, text):
        return self._fraction(text.replace(" ", ""))

    def spec_string(self):
        return "rational:%s,%s" % (self.q, self.rho)


# GF(p) takes p below this bound, so that the trial divisions testing p and
# factoring p - 1 take at most about 10^6 steps each
PRIME_BOUND = 10 ** 12


def _prime_factors(n):
    """The distinct prime factors of n >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _is_prime(p):
    return p > 1 and _prime_factors(p) == [p]


class PrimeField(Field):
    """GF(p), p an odd prime, with unit values for q and rho.

    Construction permits q^2 = 1 so that the quantum characteristic of such
    specializations is still computable, but delta() raises in that case.
    """

    _repr_args = ("p", "q", "rho")

    def __init__(self, p, q, rho):
        if p >= PRIME_BOUND:
            raise FieldError("p must be below %d" % PRIME_BOUND)
        if p % 2 == 0 or not _is_prime(p):
            raise FieldError("p must be an odd prime")
        q, rho = q % p, rho % p
        if q == 0 or rho == 0:
            raise FieldError("q and rho must be units")
        self.p = p
        self._set_constants(q, rho)

    def raw_add(self, a, b):
        return (a + b) % self.p

    def raw_sub(self, a, b):
        return (a - b) % self.p

    def raw_mul(self, a, b):
        return (a * b) % self.p

    def raw_neg(self, a):
        return (-a) % self.p

    def raw_div(self, a, b):
        if b % self.p == 0:
            raise FieldError("division by zero")
        return (a * pow(b, -1, self.p)) % self.p

    def raw_from_int(self, n):
        return n % self.p

    def vec_iaxpy(self, u, c, v):
        # one % per term in place of three raw-protocol calls
        if not c:
            return u
        p = self.p
        get = u.get
        for k, a in v.items():
            x = (get(k, 0) + c * a) % p
            if x:
                u[k] = x
            else:
                u.pop(k, None)
        return u

    def quantum_characteristic(self):
        qq = (self.q * self.q) % self.p
        if qq == 1:
            return self.p
        # least e with (q^{2e}-1)/(q^2-1) = 0, i.e. the order of q^2: it
        # divides p - 1, so strip from p - 1 each prime factor l for which
        # q^(2e/l) is still 1
        e = self.p - 1
        for ell in _prime_factors(e):
            while e % ell == 0 and pow(qq, e // ell, self.p) == 1:
                e //= ell
        return e

    def to_text(self, a):
        return str(a)

    def parse(self, text):
        return self.raw_from_int(int(text))

    def spec_string(self):
        return "gfp:%d,%d,%d" % (self.p, self.q, self.rho)


def transfer_from_generic(value, field):
    """Map a raw value of the generic field into another field by
    evaluating q and rho.

    Valid whenever the reduced denominator does not vanish in the target
    field; values of the base ring Z[q^{+-1}, rho^{+-1}, (q-q^{-1})^{-1}]
    always transfer.
    """
    return field.raw_div(*_specialize(_lift(value), field))


def vanishes_under(fraction, field):
    """Whether the generic value with reduced Laurent (numerator,
    denominator) fraction is zero in a field.

    Read from the numerator at the field's q and rho, with no quotient
    formed; raises FieldError where transfer_from_generic does, when the
    denominator vanishes.
    """
    return field.raw_is_zero(_specialize(fraction, field)[0])


def _specialize(fraction, field):
    """The raw values of a reduced Laurent (numerator, denominator) at the
    field's q and rho; the denominator's is nonzero."""
    num, den = fraction
    den_raw = field.raw_from_laurent(den)
    if field.raw_is_zero(den_raw):
        raise FieldError("denominator vanishes under the specialization")
    return field.raw_from_laurent(num), den_raw


def fields_from_spec(spec):
    """Parse a command-line field spec into a list of fields.

    Specs: ``generic``, ``q-power:<n>`` (rho = q^n), ``rho2:<a>`` (both sign
    branches rho = +-q^a), ``delta-zero`` (rho = 1), ``delta-zero:neg``
    (rho = -1), ``rational:<q>,<rho>``, ``gfp:<p>,<q>,<rho>``.  A malformed
    spec raises FieldError.
    """
    head, _, rest = spec.partition(":")
    try:
        if spec == "generic":
            return [GenericField()]
        if head == "q-power":
            n, sep, tail = rest.partition(":")
            if tail == "neg":
                return [OneVarField(int(n), -1)]
            if sep:
                raise FieldError("bad q-power spec %r" % spec)
            return [OneVarField(int(n))]
        if head == "rho2":
            a = int(rest)
            return [OneVarField(a, 1), OneVarField(a, -1)]
        if head == "delta-zero":
            if rest == "neg":
                return [OneVarField(0, -1)]
            if spec == "delta-zero":
                return [OneVarField(0, 1)]
            raise FieldError("bad delta-zero spec %r" % spec)
        if head == "rational":
            qs, rs = rest.split(",")
            return [RationalField(qs, rs)]
        if head == "gfp":
            ps, qs, rs = rest.split(",")
            return [PrimeField(int(ps), int(qs), int(rs))]
    except (ValueError, ZeroDivisionError):
        raise FieldError("bad field spec %r" % spec) from None
    raise FieldError("unknown field spec %r" % spec)
