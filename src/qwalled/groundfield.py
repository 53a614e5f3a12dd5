"""Exact scalar arithmetic in the parameters q and rho.

Four coefficient fields are supported:

* ``generic``   -- the rational function field Q(q, rho),
* ``one-var``   -- Q(q) with rho specialized to +-q^n,
* ``rational``  -- Q with numeric values for q and rho,
* ``gfp``       -- an odd prime field GF(p) with chosen units for q and rho.

All arithmetic is exact; generic and one-variable values are kept in
gcd-reduced canonical form so that equality of values implies equality of
stored representations.

Laurent data (a ``LaurentPoly``, as read from text or taken from a generic
value by ``to_laurent_fraction``) become field values in one pass through
``Field.raw_from_laurent``: each term is evaluated at the field's q and rho
directly, with no intermediate field elements, and the result needs at most
one normalization.  Parsing, engine cache loads and the generic-to-field
transfer all go through it, so loading a cached engine costs far less than
the closure it replaces.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction

from math import gcd as _int_gcd

from sympy.polys.domains import ZZ
from sympy.polys.rings import ring as _sympy_ring


class FieldError(Exception):
    """Raised for invalid field constructions or illegal arithmetic."""


_GENERIC_RING, _GQ, _GRHO = _sympy_ring("q,rho", ZZ)
_ONEVAR_RING, _OQ = _sympy_ring("q", ZZ)


class LaurentPoly:
    """An integer Laurent polynomial in q and rho.

    Terms are stored as a map from exponent pairs ``(a, b)`` (power of q,
    power of rho; either may be negative) to nonzero integers.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exps, coeff in dict(terms).items():
                a, b = exps
                if coeff:
                    clean[(int(a), int(b))] = int(coeff)
        self.terms = clean

    @classmethod
    def monomial(cls, coeff, a=0, b=0):
        return cls({(a, b): coeff})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, 0) + coeff
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentPoly(out)

    def to_text(self):
        if not self.terms:
            return "0"
        parts = []
        for (a, b) in sorted(self.terms):
            coeff = self.terms[(a, b)]
            factors = [str(coeff)]
            if a:
                factors.append("q^%d" % a)
            if b:
                factors.append("rho^%d" % b)
            parts.append("*".join(factors))
        return " + ".join(parts)

    @classmethod
    def from_text(cls, text):
        text = text.strip()
        if text == "0":
            return cls()
        terms = {}
        for part in text.split("+"):
            part = part.strip()
            if not part:
                raise FieldError("empty term in %r" % text)
            coeff, a, b = 1, 0, 0
            seen_coeff = False
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
                    seen_coeff = True
            if not seen_coeff and not part:
                raise FieldError("bad term %r" % part)
            terms[(a, b)] = terms.get((a, b), 0) + coeff
        return cls(terms)

    def __repr__(self):
        return "LaurentPoly(%s)" % self.to_text()


class FieldElement:
    """An exact scalar attached to its field; immutable."""

    __slots__ = ("field", "val")

    def __init__(self, field, val):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "val", field.normalize(val))

    def __setattr__(self, *a):
        raise AttributeError("FieldElement is immutable")

    def _other(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldError("mixed field tags: %s vs %s"
                                 % (self.field, other.field))
            return other.val
        if isinstance(other, int):
            return self.field.raw_from_int(other)
        return NotImplemented

    def __add__(self, other):
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.raw_add(self.val, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.raw_sub(self.val, v))

    def __rsub__(self, other):
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.raw_sub(v, self.val))

    def __mul__(self, other):
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.raw_mul(self.val, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.raw_div(self.val, v))

    def __rtruediv__(self, other):
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.raw_div(v, self.val))

    def __neg__(self):
        return FieldElement(self.field, self.field.raw_neg(self.val))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (1 / self) ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (FieldElement, int)):
            v = self._other(other)
            return self.field.raw_eq(self.val, v)
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.field.to_text(self)))

    def __bool__(self):
        return not self.field.raw_is_zero(self.val)

    def is_zero(self):
        return self.field.raw_is_zero(self.val)

    def inverse(self):
        return 1 / self

    def to_text(self):
        return self.field.to_text(self)

    def __repr__(self):
        return "FieldElement(%s)" % self.to_text()


class Field:
    """Base class for the scalar fields; concrete fields fix q and rho."""

    tag = None

    # -- raw value protocol (operates on unwrapped backend values) --------
    raw_add = staticmethod(operator.add)
    raw_sub = staticmethod(operator.sub)
    raw_mul = staticmethod(operator.mul)
    raw_neg = staticmethod(operator.neg)

    def raw_div(self, a, b):
        if self.raw_is_zero(b):
            raise FieldError("division by zero")
        return a / b

    def raw_is_zero(self, a):
        return not a

    def raw_eq(self, a, b):
        return a == b

    def raw_from_int(self, n):
        raise NotImplementedError

    def raw_from_laurent(self, lp):
        """The canonical raw value of a LaurentPoly at the field's q and
        rho."""
        raise NotImplementedError

    def normalize(self, v):
        return v

    # -- wrapped constructors ---------------------------------------------
    def __call__(self, n):
        return FieldElement(self, self.raw_from_int(n))

    def zero(self):
        return self(0)

    def one(self):
        return self(1)

    def from_int(self, n):
        return self(n)

    def q(self):
        return FieldElement(self, self._q_val)

    def rho(self):
        return FieldElement(self, self._rho_val)

    def q_power(self, n):
        return self.q() ** n

    def rho_power(self, n):
        return self.rho() ** n

    def delta(self):
        """The loop parameter (rho - rho^-1) / (q - q^-1)."""
        q, rho = self.q(), self.rho()
        denom = q - 1 / q
        if denom.is_zero():
            raise FieldError("q-q^{-1} not invertible")
        return (rho - 1 / rho) / denom

    def quantum_characteristic(self):
        """Least e >= 1 with 1 + q^2 + ... + q^(2(e-1)) = 0, else math.inf."""
        raise NotImplementedError

    def to_text(self, elem):
        raise NotImplementedError

    def parse(self, text):
        raise NotImplementedError

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq


def _poly_to_laurent(poly, two_vars):
    terms = {}
    for monom, coeff in poly.terms():
        if two_vars:
            a, b = monom
        else:
            (a,), b = monom, 0
        terms[(a, b)] = int(coeff)
    return LaurentPoly(terms)


class _Frac:
    """A quotient of two polynomial-ring elements, not necessarily reduced.

    The raw arithmetic layer postpones gcd cancellation; values are reduced
    when they cross into FieldElement or when they grow past a size
    threshold.  num == 0 exactly characterizes the zero value, so zero
    testing never needs a reduction.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def __repr__(self):
        return "_Frac(%s, %s)" % (self.num, self.den)


class _FracFieldBase(Field):
    """Common behavior for the polynomial-quotient backed tags."""

    _ring = None
    _two_vars = True
    # reduce lazily once numerator or denominator gets this many terms
    _reduce_len = 24

    def raw_from_int(self, n):
        return _Frac(self._ring.ground_new(self._ring.domain(n)),
                     self._ring.one)

    def raw_is_zero(self, a):
        return not a.num

    def raw_eq(self, a, b):
        if a.den == b.den:
            return a.num == b.num
        return a.num * b.den == b.num * a.den

    def _maybe_reduce(self, v):
        if len(v.den) > 1 and (len(v.num) > self._reduce_len
                               or len(v.den) > self._reduce_len):
            return self.reduce_raw(v)
        return v

    def raw_add(self, a, b):
        if a.den == b.den:
            return self._maybe_reduce(_Frac(a.num + b.num, a.den))
        return self._maybe_reduce(
            _Frac(a.num * b.den + b.num * a.den, a.den * b.den))

    def raw_sub(self, a, b):
        if a.den == b.den:
            return self._maybe_reduce(_Frac(a.num - b.num, a.den))
        return self._maybe_reduce(
            _Frac(a.num * b.den - b.num * a.den, a.den * b.den))

    def raw_mul(self, a, b):
        return self._maybe_reduce(_Frac(a.num * b.num, a.den * b.den))

    def raw_neg(self, a):
        return _Frac(-a.num, a.den)

    def raw_div(self, a, b):
        if not b.num:
            raise FieldError("division by zero")
        return self._maybe_reduce(_Frac(a.num * b.den, a.den * b.num))

    def _strip_common_monomial(self, num, den):
        # divide both polynomials by their common monomial-with-content factor
        nvars = 2 if self._two_vars else 1
        mins = [None] * nvars
        content = 0
        for poly in (num, den):
            for monom, coeff in poly.terms():
                content = _int_gcd(content, int(coeff))
                for i in range(nvars):
                    e = monom[i]
                    if mins[i] is None or e < mins[i]:
                        mins[i] = e
        if content == 1 and not any(mins):
            return num, den
        ring = self._ring
        dom = ring.domain

        def shift(poly):
            return ring.from_dict({
                tuple(m[i] - mins[i] for i in range(nvars)): dom(int(c) // content)
                for m, c in poly.terms()})
        return shift(num), shift(den)

    def reduce_raw(self, v):
        """Return the canonical reduced form of a raw value."""
        if not v.num:
            return _Frac(self._ring.zero, self._ring.one)
        num, den = v.num, v.den
        if len(den) == 1 or len(num) == 1:
            num, den = self._strip_common_monomial(num, den)
        else:
            g = num.gcd(den)
            if len(g) > 1 or g != self._ring.one:
                num = num.quo(g)
                den = den.quo(g)
        if den.LC < 0:
            num, den = -num, -den
        return _Frac(num, den)

    def normalize(self, v):
        return self.reduce_raw(v)

    def to_laurent_fraction(self, elem):
        """Return (numerator, denominator) as LaurentPoly values."""
        v = elem.val  # a FieldElement is reduced on construction
        return (_poly_to_laurent(v.num, self._two_vars),
                _poly_to_laurent(v.den, self._two_vars))

    def raw_from_laurent(self, lp):
        # shifting the exponents to be non-negative and moving the shift
        # into a monomial denominator gives a numerator and denominator
        # with no common monomial, content 1 and positive leading
        # coefficient: the form reduce_raw returns, with no gcd
        terms = self._exponent_terms(lp)
        ring = self._ring
        if not terms:
            return _Frac(ring.zero, ring.one)
        shift = [max(0, -min(m[i] for m in terms)) for i in range(ring.ngens)]
        dom = ring.domain
        num = ring.from_dict({tuple(e + k for e, k in zip(m, shift)): dom(c)
                              for m, c in terms.items()})
        return _Frac(num, ring.from_dict({tuple(shift): dom.one}))

    def to_text(self, elem):
        num, den = self.to_laurent_fraction(elem)
        if den == LaurentPoly.monomial(1):
            return num.to_text()
        return "%s / %s" % (num.to_text(), den.to_text())

    def parse(self, text):
        parts = text.split("/")
        if len(parts) > 2:
            raise FieldError("too many '/' in %r" % text)
        num = self.raw_from_laurent(LaurentPoly.from_text(parts[0]))
        if len(parts) == 1:
            return FieldElement(self, num)
        den = self.raw_from_laurent(LaurentPoly.from_text(parts[1]))
        return FieldElement(self, self.raw_div(num, den))


class GenericField(_FracFieldBase):
    """The generic rational function field Q(q, rho)."""

    tag = "generic"
    _ring = _GENERIC_RING
    _q_val = _Frac(_GQ, _GENERIC_RING.one)
    _rho_val = _Frac(_GRHO, _GENERIC_RING.one)
    _two_vars = True

    @staticmethod
    def _exponent_terms(lp):
        return lp.terms

    def quantum_characteristic(self):
        return math.inf

    def __eq__(self, other):
        return isinstance(other, GenericField)

    def __hash__(self):
        return hash(self.tag)

    def spec_string(self):
        return "generic"

    def __repr__(self):
        return "GenericField()"


class OneVarField(_FracFieldBase):
    """Q(q) with rho specialized to sign * q^n."""

    tag = "one-var"
    _ring = _ONEVAR_RING
    _q_val = _Frac(_OQ, _ONEVAR_RING.one)
    _two_vars = False

    def __init__(self, n, sign=1):
        if sign not in (1, -1):
            raise FieldError("sign must be +-1")
        self.n = int(n)
        self.sign = sign
        if self.n >= 0:
            self._rho_val = _Frac(sign * _OQ ** self.n, _ONEVAR_RING.one)
        else:
            self._rho_val = _Frac(_ONEVAR_RING(sign), _OQ ** (-self.n))

    def _exponent_terms(self, lp):
        # c q^a rho^b = c sign^b q^(a + n b)
        out = {}
        for (a, b), c in lp.terms.items():
            key = (a + self.n * b,)
            out[key] = out.get(key, 0) + (-c if self.sign < 0 and b % 2 else c)
        return {m: c for m, c in out.items() if c}

    def quantum_characteristic(self):
        return math.inf

    def __eq__(self, other):
        return (isinstance(other, OneVarField)
                and (self.n, self.sign) == (other.n, other.sign))

    def __hash__(self):
        return hash((self.tag, self.n, self.sign))

    def spec_string(self):
        base = "q-power:%d" % self.n
        return base + (":neg" if self.sign < 0 else "")

    def __repr__(self):
        return "OneVarField(n=%d, sign=%d)" % (self.n, self.sign)


class RationalField(Field):
    """Q with numeric q and rho."""

    tag = "rational"

    def __init__(self, q, rho):
        q = Fraction(q)
        rho = Fraction(rho)
        if q == 0 or rho == 0:
            raise FieldError("q and rho must be nonzero")
        if q * q == 1:
            raise FieldError("q-q^{-1} not invertible")
        self._q_val = q
        self._rho_val = rho

    def raw_from_int(self, n):
        return Fraction(n)

    def raw_from_laurent(self, lp):
        q, rho = self._q_val, self._rho_val
        return sum((c * q ** a * rho ** b for (a, b), c in lp.terms.items()),
                   Fraction(0))

    def quantum_characteristic(self):
        return math.inf

    def to_text(self, elem):
        v = elem.val
        if v.denominator == 1:
            return str(v.numerator)
        return "%d / %d" % (v.numerator, v.denominator)

    def parse(self, text):
        return FieldElement(self, Fraction(text.replace(" ", "")))

    def __eq__(self, other):
        return (isinstance(other, RationalField)
                and (self._q_val, self._rho_val) == (other._q_val, other._rho_val))

    def __hash__(self):
        return hash((self.tag, self._q_val, self._rho_val))

    def spec_string(self):
        return "rational:%s,%s" % (self._q_val, self._rho_val)

    def __repr__(self):
        return "RationalField(q=%s, rho=%s)" % (self._q_val, self._rho_val)


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeField(Field):
    """GF(p), p an odd prime, with unit values for q and rho.

    Construction permits q^2 = 1 so that the quantum characteristic of such
    specializations is still computable, but delta() raises in that case.
    """

    tag = "gfp"

    def __init__(self, p, q, rho):
        if p % 2 == 0 or not _is_prime(p):
            raise FieldError("p must be an odd prime")
        q, rho = q % p, rho % p
        if q == 0 or rho == 0:
            raise FieldError("q and rho must be units")
        self.p = p
        self._q_val = q
        self._rho_val = rho

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

    def raw_from_laurent(self, lp):
        p, q, rho = self.p, self._q_val, self._rho_val
        return sum(c * pow(q, a, p) * pow(rho, b, p)
                   for (a, b), c in lp.terms.items()) % p

    def quantum_characteristic(self):
        qq = (self._q_val * self._q_val) % self.p
        if qq == 1:
            return self.p
        # least e with (q^{2e}-1)/(q^2-1) = 0, i.e. the order of q^2
        acc, e = qq, 1
        while acc != 1:
            acc = (acc * qq) % self.p
            e += 1
        return e

    def to_text(self, elem):
        return str(elem.val)

    def parse(self, text):
        return self(int(text))

    def __eq__(self, other):
        return (isinstance(other, PrimeField)
                and (self.p, self._q_val, self._rho_val)
                == (other.p, other._q_val, other._rho_val))

    def __hash__(self):
        return hash((self.tag, self.p, self._q_val, self._rho_val))

    def spec_string(self):
        return "gfp:%d,%d,%d" % (self.p, self._q_val, self._rho_val)

    def __repr__(self):
        return "PrimeField(p=%d, q=%d, rho=%d)" % (self.p, self._q_val, self._rho_val)


def transfer_from_generic(elem, field):
    """Map a generic scalar into another field by evaluating q and rho.

    Valid whenever the reduced denominator does not vanish in the target
    field; values of the base ring Z[q^{+-1}, rho^{+-1}, (q-q^{-1})^{-1}]
    always transfer.
    """
    src = elem.field
    if not isinstance(src, GenericField):
        raise FieldError("transfer source must be the generic field")
    num, den = src.to_laurent_fraction(elem)
    den_raw = field.raw_from_laurent(den)
    if field.raw_is_zero(den_raw):
        raise FieldError("denominator vanishes under the specialization")
    return FieldElement(field,
                        field.raw_div(field.raw_from_laurent(num), den_raw))


def fields_from_spec(spec):
    """Parse a command-line field spec into a list of fields.

    Specs: ``generic``, ``q-power:<n>`` (rho = q^n), ``rho2:<a>`` (both sign
    branches rho = +-q^a), ``delta-zero`` (rho = 1), ``delta-zero:neg``
    (rho = -1), ``rational:<q>,<rho>``, ``gfp:<p>,<q>,<rho>``.  A malformed
    spec raises FieldError.
    """
    head, _, rest = spec.partition(":")
    try:
        if head == "generic":
            return [GenericField()]
        if head == "q-power":
            n, _, tail = rest.partition(":")
            if tail == "neg":
                return [OneVarField(int(n), -1)]
            if tail:
                raise FieldError("bad q-power spec %r" % spec)
            return [OneVarField(int(n))]
        if head == "rho2":
            a = int(rest)
            return [OneVarField(a, 1), OneVarField(a, -1)]
        if head == "delta-zero":
            if rest == "neg":
                return [OneVarField(0, -1)]
            if rest == "":
                return [OneVarField(0, 1)]
            raise FieldError("bad delta-zero spec %r" % spec)
        if head == "rational":
            qs, rs = rest.split(",")
            return [RationalField(Fraction(qs), Fraction(rs))]
        if head == "gfp":
            ps, qs, rs = rest.split(",")
            return [PrimeField(int(ps), int(qs), int(rs))]
    except (ValueError, ZeroDivisionError):
        raise FieldError("bad field spec %r" % spec) from None
    raise FieldError("unknown field spec %r" % spec)
