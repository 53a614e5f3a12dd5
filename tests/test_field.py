"""Tests for exact scalar arithmetic in q and rho."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.rings import ring

from qwalled import groundfield
from qwalled.cellular import cell_labels
from qwalled.engine import build_engine
from qwalled.groundfield import (
    Field,
    FieldError,
    GenericField,
    OneVarField,
    PrimeField,
    RationalField,
    fields_from_spec,
    laurent_from_text,
    laurent_text,
    transfer_from_generic,
    vanishes_under,
)
from qwalled.repthy import central_scalar

GEN = GenericField()

ALL_FIELDS = [
    GEN,
    OneVarField(3),
    OneVarField(0, -1),
    RationalField(2, 4),
    PrimeField(11, 2, 3),
]


def inv(field, a):
    return field.raw_div(field.one, a)


def random_elements(field, rng, count):
    f = field
    out = []
    for _ in range(count):
        e = f.raw_from_int(rng.randrange(-3, 4))
        for _ in range(rng.randrange(0, 3)):
            e = f.raw_mul(e, f.raw_pow(f.q, rng.randrange(-2, 3)))
            e = f.raw_add(e, f.raw_pow(f.rho, rng.randrange(-1, 2)))
        out.append(e)
    return out


# ---------------------------------------------------------------------------
# Laurent terms and their text

@st.composite
def laurent_terms(draw):
    """A terms dict {(a, b): c}; some coefficients may be zero."""
    n = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n):
        key = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
        terms[key] = draw(st.integers(-5, 5))
    return terms


def laurent_polys():
    """A terms dict with no zero coefficient."""
    return laurent_terms().map(
        lambda terms: {k: c for k, c in terms.items() if c})


@given(laurent_terms())
def test_laurent_no_zero_terms(terms):
    # a text with zero terms ("0*q^1") reads back without them
    p = laurent_from_text(laurent_text(terms))
    assert all(c != 0 for c in p.values())
    assert p == {k: c for k, c in terms.items() if c}


@given(laurent_polys())
def test_laurent_text_roundtrip(p):
    assert laurent_from_text(laurent_text(p)) == p


# ---------------------------------------------------------------------------
# basic arithmetic

def test_inverse_pair():
    q = GEN.q
    assert GEN.raw_mul(q, inv(GEN, q)) == GEN.one


def test_delta_as_division():
    q, rho = GEN.q, GEN.rho
    d = GEN.raw_div(GEN.raw_sub(rho, inv(GEN, rho)),
                    GEN.raw_sub(q, inv(GEN, q)))
    assert d == GEN.delta()
    # with rho -> q^n the same quotient is the quantum integer [n]
    for n in (1, 2, 3):
        f = OneVarField(n)
        qn = f.raw_pow(f.q, n)
        quantum_int = f.raw_div(f.raw_sub(qn, inv(f, qn)),
                                f.raw_sub(f.q, inv(f, f.q)))
        assert f.delta() == quantum_int


def test_delta_rational_oracle():
    f = RationalField(2, 4)
    # (4 - 1/4) / (2 - 1/2) = 5/2
    assert f.delta() == f.parse("5/2")
    assert f.to_text(f.delta()) == "5 / 2"


def test_division_by_zero():
    with pytest.raises(FieldError):
        GEN.raw_div(GEN.one, GEN.raw_from_int(0))


# ---------------------------------------------------------------------------
# delta

def _delta_is_zero(field):
    return field.raw_is_zero(field.delta())


def test_delta_zero_iff_rho_squared_one():
    assert _delta_is_zero(OneVarField(0, 1))
    assert _delta_is_zero(OneVarField(0, -1))
    assert not _delta_is_zero(OneVarField(1))
    assert not _delta_is_zero(GEN)
    assert _delta_is_zero(RationalField(3, 1))
    assert _delta_is_zero(RationalField(3, -1))
    assert not _delta_is_zero(RationalField(3, 2))
    p = PrimeField(11, 2, 1)
    assert _delta_is_zero(p)
    assert (p.rho * p.rho) % 11 == 1
    assert not _delta_is_zero(PrimeField(11, 2, 3))


def test_delta_generic_reduced_form():
    num, den = GEN.to_laurent_fraction(GEN.delta())
    # delta = (rho^2 - 1) q / (rho (q^2 - 1)) up to the emitted normal form
    assert num == {(1, 2): 1, (1, 0): -1}
    assert den == {(2, 1): 1, (0, 1): -1}


def test_delta_needs_q_invertible():
    with pytest.raises(FieldError):
        RationalField(1, 2)
    with pytest.raises(FieldError):
        PrimeField(11, 10, 2).delta()  # 10^2 = 1 mod 11


# ---------------------------------------------------------------------------
# quantum characteristic

def test_quantum_characteristic():
    assert GEN.quantum_characteristic() == math.inf
    assert OneVarField(2).quantum_characteristic() == math.inf
    assert RationalField(2, 3).quantum_characteristic() == math.inf
    assert PrimeField(3, 1, 1).quantum_characteristic() == 3
    # q^2 = 13 is a primitive 4th root of unity mod 17
    assert PrimeField(17, 9, 2).quantum_characteristic() == 4
    assert PrimeField(7, 3, 1).quantum_characteristic() == 3


def test_quantum_characteristic_matches_defining_sum():
    for p, qv in [(3, 1), (17, 9), (7, 3), (11, 4)]:
        f = PrimeField(p, qv, 1)
        e = f.quantum_characteristic()
        q2 = f.raw_pow(f.q, 2)
        acc = f.raw_from_int(0)
        for k in range(e):
            if k:
                assert not f.raw_is_zero(acc)
            acc = f.raw_add(acc, f.raw_pow(q2, k))
        assert f.raw_is_zero(acc)


def _order_by_stepping(p, qv):
    # the order of q^2 by walking its powers: O(p) steps
    qq = qv * qv % p
    if qq == 1:
        return p
    acc, e = qq, 1
    while acc != 1:
        acc = acc * qq % p
        e += 1
    return e


def test_quantum_characteristic_matches_stepping():
    for p in range(3, 200, 2):
        if not groundfield._is_prime(p):
            continue
        for qv in range(1, p):
            assert (PrimeField(p, qv, 1).quantum_characteristic()
                    == _order_by_stepping(p, qv)), (p, qv)


@pytest.mark.parametrize("p,qv", [(1_000_000_007, 2), (999_999_999_989, 3)])
def test_quantum_characteristic_of_large_primes(p, qv):
    # 4 is a square mod 10^9 + 7, whose p - 1 is 2 * 500000003; the second
    # is the largest prime below the bound, where p - 1 = 2^2 11 124847 182041
    e = PrimeField(p, qv, 1).quantum_characteristic()
    qq = qv * qv % p
    assert pow(qq, e, p) == 1
    assert all(pow(qq, e // ell, p) != 1
               for ell in groundfield._prime_factors(e))
    if p == 1_000_000_007:
        assert e == 500_000_003


def test_prime_factors():
    def prime(d):
        return d > 1 and all(d % k for k in range(2, d))
    for n in range(500):
        assert groundfield._is_prime(n) == prime(n)
        if n:
            assert groundfield._prime_factors(n) == [
                d for d in range(2, n + 1) if n % d == 0 and prime(d)]


# ---------------------------------------------------------------------------
# ring axioms and canonicity

@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_field_axioms(field):
    import random
    rng = random.Random(7)
    f = field
    elems = random_elements(f, rng, 12)
    for a in elems:
        assert f.raw_add(a, f.raw_from_int(0)) == a
        assert f.raw_mul(a, f.one) == a
        if not f.raw_is_zero(a):
            assert f.raw_mul(a, inv(f, a)) == f.one
            assert f.raw_mul(f.raw_pow(a, 3), f.raw_pow(a, -3)) == f.one
    for a, b in zip(elems, elems[1:]):
        assert f.raw_add(a, b) == f.raw_add(b, a)
        assert f.raw_mul(a, b) == f.raw_mul(b, a)
        assert f.raw_sub(f.raw_add(a, b), b) == a


@pytest.mark.parametrize("field", [GEN, OneVarField(2)], ids=repr)
def test_reduction_canonicity(field):
    f = field
    q, rho = f.q, f.rho
    x = f.raw_mul(f.raw_add(q, rho), f.raw_sub(q, rho))
    y = f.raw_sub(f.raw_mul(q, q), f.raw_mul(rho, rho))
    # values of R are (numerator, i, j) tuples, equal exactly when equal
    assert type(x) is tuple and x == y
    d1 = f.delta()
    d2 = f.raw_div(f.raw_sub(rho, inv(f, rho)), f.raw_sub(q, inv(f, q)))
    assert type(d1) is tuple and d1 == d2


def test_specialization_homomorphism():
    import random
    rng = random.Random(5)
    spec = RationalField(2, 4)

    def image(e):
        num, den = GEN.to_laurent_fraction(e)
        return spec.raw_div(_term_by_term(spec, num),
                            _term_by_term(spec, den))

    elems = random_elements(GEN, rng, 8)
    for a, b in zip(elems, elems[1:]):
        assert image(GEN.raw_mul(a, b)) == spec.raw_mul(image(a), image(b))
        assert image(GEN.raw_add(a, b)) == spec.raw_add(image(a), image(b))


# ---------------------------------------------------------------------------
# values of R against a sympy fraction reference

R_FIELDS = [GEN, OneVarField(2), OneVarField(-1, -1)]

# Z[q, rho] as a sympy polynomial ring: the reference for gcds and text
ZQR = ring("q,rho", ZZ)[0]


def _sympy_poly(terms):
    """A dict {(a, b): c} with a, b >= 0 as a polynomial of ZQR."""
    return ZQR.from_dict({m: ZZ(c) for m, c in terms.items()})


def _terms(poly):
    """A polynomial of ZQR as a dict {(a, b): c}."""
    return {m: int(c) for m, c in poly.terms()}


def _mul(*factors):
    """The product of term dicts {(a, b): c}, zero terms dropped."""
    out = {(0, 0): 1}
    for g in factors:
        acc = {}
        for (a1, b1), c1 in out.items():
            for (a2, b2), c2 in g.items():
                key = (a1 + a2, b1 + b2)
                acc[key] = acc.get(key, 0) + c1 * c2
        out = {m: c for m, c in acc.items() if c}
    return out


@st.composite
def r_values(draw, field):
    """(raw value, reference numerator and denominator as sympy
    polynomials) for N (q - 1)^k (q + 1)^l / ((q - 1)^i (q + 1)^j).

    N is a +-1 monomial (so the value is a unit of R) or a small Laurent
    polynomial; over Q(q) its rho exponents are 0.
    """
    rho_exps = (-2, 2) if isinstance(field, GenericField) else (0, 0)
    exps = st.tuples(st.integers(-3, 3), st.integers(*rho_exps))
    if draw(st.booleans()):
        n = {draw(exps): draw(st.sampled_from([1, -1]))}
    else:
        n = draw(st.dictionaries(exps, st.integers(-3, 3), max_size=4))
    k, l, i, j = (draw(st.integers(0, 2)) for _ in range(4))
    minus = {(1, 0): 1, (0, 0): -1}
    plus = {(1, 0): 1, (0, 0): 1}
    num = _mul(n, *[minus] * k, *[plus] * l)
    den = _mul(*[minus] * i, *[plus] * j)
    raw = field.raw_div(field.raw_from_laurent(num),
                        field.raw_from_laurent(den))
    q, rho = ZQR.gens
    u = max([0] + [-a for a, _ in num])
    v = max([0] + [-b for _, b in num])
    ref_num = ZQR.zero
    for (a, b), c in num.items():
        ref_num += c * q ** (a + u) * rho ** (b + v)
    return raw, (ref_num, q ** u * rho ** v * (q - 1) ** i * (q + 1) ** j)


def _ref_text(num, den):
    """The canonical text of num / den, reduced by sympy's cancel."""
    num, den = num.cancel(den)
    top = laurent_text(_terms(num))
    if den == 1:
        return top
    bottom = laurent_text(_terms(den))
    return "%s / %s" % (top, bottom)


def _ref_in_r(num, den):
    """Whether the reduced den is a +-monomial times powers of q -+ 1."""
    if not num:
        return True
    q = den.ring.gens[0]
    den = num.cancel(den)[1]
    for lin in (q - 1, q + 1):
        while not den % lin:
            den = den // lin
    return len(den) == 1 and abs(den.LC) == 1


@pytest.mark.parametrize("field", R_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_r_values_match_sympy_reference(field, data):
    (x, (xn, xd)), (y, (yn, yd)) = (data.draw(r_values(field))
                                    for _ in range(2))
    for raw, ref in [(x, (xn, xd)),
                     (field.raw_add(x, y), (xn * yd + yn * xd, xd * yd)),
                     (field.raw_sub(x, y), (xn * yd - yn * xd, xd * yd)),
                     (field.raw_mul(x, y), (xn * yn, xd * yd))]:
        # sums, differences and products of values of R stay in R
        assert type(raw) is tuple
        text = _ref_text(*ref)
        assert field.to_text(raw) == text
        back = field.parse(text)
        assert type(back) is tuple and back == raw
    assert (x == y) == (_ref_text(xn, xd) == _ref_text(yn, yd))
    if field.raw_is_zero(y):
        return
    before = groundfield.fallbacks
    quo = field.raw_div(x, y)
    assert field.to_text(quo) == _ref_text(xn * yd, xd * yn)
    assert (type(quo) is tuple) == _ref_in_r(xn * yd, xd * yn)
    # only a divisor that is not a unit of R takes the fallback
    unit = _ref_in_r(yd, yn)
    assert field.raw_is_unit(y) == unit
    assert groundfield.fallbacks == before + (not unit)
    # a non-unit over itself falls back and comes back as the tuple one
    assert field.raw_div(y, y) == field.one
    assert field.raw_mul(y, quo) == x


def test_fallback_outside_r():
    # delta = (rho^2 - 1) q / (rho (q^2 - 1)) is in R; its inverse is not
    before = groundfield.fallbacks
    d_inv = inv(GEN, GEN.delta())
    assert groundfield.fallbacks == before + 1
    assert type(d_inv) is not tuple
    assert GEN.to_text(d_inv) \
        == "-1*rho^1 + 1*q^2*rho^1 / -1*q^1 + 1*q^1*rho^2"
    q, rho = GEN.q, GEN.rho
    assert d_inv == GEN.raw_div(GEN.raw_sub(q, inv(GEN, q)),
                                GEN.raw_sub(rho, inv(GEN, rho)))
    assert GEN.raw_mul(d_inv, GEN.delta()) == GEN.one


# ---------------------------------------------------------------------------
# values outside R: native fractions and their heuristic gcd against sympy

@st.composite
def polys(draw, field, min_size=1):
    """A nonzero {(a, b): c} of Z[q, rho], exponents >= 0 (b = 0 over
    Q(q))."""
    rho_max = 2 if isinstance(field, GenericField) else 0
    exps = st.tuples(st.integers(0, 3), st.integers(0, rho_max))
    return draw(st.dictionaries(exps, st.integers(-4, 4).filter(bool),
                                min_size=min_size, max_size=4))


@st.composite
def common_factors(draw, field):
    """c q^a rho^b P: content c, a monomial, and a polynomial P of two or
    more terms (a non-unit of R for most draws), each possibly trivial."""
    rho_max = 2 if isinstance(field, GenericField) else 0
    monomial = (draw(st.integers(0, 2)), draw(st.integers(0, rho_max)))
    content = draw(st.integers(1, 6)) * draw(st.sampled_from([1, -1]))
    out = {monomial: content}
    if draw(st.booleans()):
        out = _mul(out, draw(polys(field, min_size=2)))
    return out


@st.composite
def fractions_outside_r(draw, field):
    """(the raw value n h / (d h), made by raw_div, with h a common factor
    of both, and its unreduced sympy numerator and denominator); a value
    outside R for most draws."""
    h = draw(common_factors(field))
    num = _mul(draw(polys(field)), h)
    den = _mul(draw(polys(field)), h)
    return (field.raw_div(field.raw_from_laurent(num),
                          field.raw_from_laurent(den)),
            (_sympy_poly(num), _sympy_poly(den)))


@pytest.mark.parametrize("field", R_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fractions_match_sympy_cancel(field, data):
    (x, (xn, xd)), (y, (yn, yd)) = (data.draw(fractions_outside_r(field))
                                    for _ in range(2))
    for raw, ref in [(x, (xn, xd)),
                     (field.raw_add(x, y), (xn * yd + yn * xd, xd * yd)),
                     (field.raw_sub(x, y), (xn * yd - yn * xd, xd * yd)),
                     (field.raw_mul(x, y), (xn * yn, xd * yd)),
                     (field.raw_div(x, y), (xn * yd, xd * yn))]:
        assert field.to_text(raw) == _ref_text(*ref)


@pytest.mark.parametrize("field", R_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fractions_are_canonical_when_made(field, data):
    # a value outside R is one Python object whichever way it is made
    x, y = (data.draw(fractions_outside_r(field))[0] for _ in range(2))
    assume(type(x) is not tuple and type(y) is not tuple)
    assert field.raw_div(field.raw_mul(x, y), y) == x
    assert field.parse(field.to_text(x)) == x


# ---------------------------------------------------------------------------
# hash-consed values of R and the memoized sums and products

def _plain(op, x, y):
    """op(x, y) by the kernels alone, with no table or memo: _add, _mul and
    _inverse on values of R, else the fraction path on both lifts."""
    if type(x) is tuple and type(y) is tuple:
        if op == "add":
            return groundfield._add(x, y)
        if op == "mul":
            return groundfield._mul(x, y)
        inv_y = groundfield._inverse(y)
        if inv_y is not None:
            return groundfield._mul(x, inv_y)
    (n1, d1), (n2, d2) = groundfield._lift(x), groundfield._lift(y)
    terms_mul = groundfield._terms_mul
    if op == "add":
        num = groundfield._terms_add(terms_mul(n1, d2), terms_mul(n2, d1))
        return groundfield._reduced(num, terms_mul(d1, d2))
    if op == "mul":
        return groundfield._reduced(terms_mul(n1, n2), terms_mul(d1, d2))
    return groundfield._reduced(terms_mul(n1, d2), terms_mul(d1, n2))


def _plain_neg(x):
    if type(x) is tuple:
        return ({k: -c for k, c in x[0].items()}, x[1], x[2])
    return groundfield._Frac({k: -c for k, c in x.num.items()}, x.den)


# two instances of each family, each with its own tables
FIELD_PAIRS = [(GenericField(), GenericField()),
               (OneVarField(2), OneVarField(2)),
               (OneVarField(-1, -1), OneVarField(-1, -1))]


@pytest.mark.parametrize("pair", FIELD_PAIRS, ids=lambda p: repr(p[0]))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_memoized_ops_match_plain_kernels(pair, data):
    field, other = pair
    # values of R and fractions outside it, and their copies in the other
    # instance, read back from text
    values = [data.draw(st.one_of(r_values(field),
                                  fractions_outside_r(field)))[0]
              for _ in range(2)]
    copies = [other.parse(field.to_text(x)) for x in values]
    x, y = values
    ops = {"add": field.raw_add, "mul": field.raw_mul}
    if not field.raw_is_zero(y):
        ops["div"] = field.raw_div
    made = [x, y]
    for name, op in ops.items():
        out = op(x, y)
        assert out == _plain(name, x, y)
        assert getattr(other, "raw_" + name)(*copies) == out
        if name != "div":
            assert op(y, x) == out
        if type(out) is tuple:
            # a second call, and for a sum or a product the swapped
            # operands, find the first result
            assert op(x, y) is out
            assert name == "div" or op(y, x) is out
        made.append(out)
    neg = field.raw_neg(x)
    assert neg == _plain_neg(x) and other.raw_neg(copies[0]) == neg
    made.append(neg)
    for value in made:
        if type(value) is tuple:
            # equal values of R from one field are one object
            assert field.parse(field.to_text(value)) is value
            assert field.raw_sub(field.raw_add(value, y), y) is value
            assert other.parse(field.to_text(value)) == value


@pytest.mark.parametrize("cap", [groundfield.TABLE_MAX, 64])
@pytest.mark.parametrize("pair", FIELD_PAIRS, ids=lambda p: repr(p[0]))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_function_field_kernel_matches_the_base_kernel(pair, cap, data):
    # the function fields' vec_iaxpy reads memo hits by the operands' ids:
    # it must add as Field.vec_iaxpy does, with values of R, fractions
    # outside R, one, a value equal to one that is not field.one (the other
    # instance's), sums that cancel, and, under a cap of 64, tables that
    # are cleared in the middle of a call
    field, other = pair
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groundfield, "TABLE_MAX", cap)
        values = st.one_of(r_values(field), fractions_outside_r(field)) \
            .map(lambda x: x[0]).filter(lambda x: not field.raw_is_zero(x))
        values = st.one_of(values, st.sampled_from([field.one, other.one]))
        keys = st.integers(0, 5)
        v = data.draw(st.dictionaries(keys, values, max_size=4))
        c = data.draw(st.one_of(values, st.just(field.raw_from_int(0))))
        u = data.draw(st.dictionaries(keys, values, max_size=4))
        for k in v:
            if not field.raw_is_zero(c) and data.draw(st.booleans()):
                u[k] = field.raw_neg(field.raw_mul(c, v[k]))
        before = dict(v)
        # first mostly memo misses, then mostly hits
        first = field.vec_iaxpy(dict(u), c, v)
        base = Field.vec_iaxpy(field, dict(u), c, v)
        again = field.vec_iaxpy(u, c, v)
    assert again is u
    assert first == base == again
    assert not any(map(field.raw_is_zero, again.values()))
    assert v == before


TRANSFER_TARGETS = [OneVarField(2), OneVarField(-1, -1), RationalField(2, 4),
                    PrimeField(11, 2, 3)]


def _outcome(fn, *args):
    """fn(*args), or FieldError where it raises one."""
    try:
        return fn(*args)
    except FieldError:
        return FieldError


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_boundary_functions_read_reduced_fractions(data):
    # a value is reduced when it is made: its Laurent fraction is sympy's
    # reduction, and a transfer agrees with evaluating the unreduced n h and
    # d h wherever d h does not vanish
    x, (xn, xd) = data.draw(fractions_outside_r(GEN))
    fraction = GEN.to_laurent_fraction(x)
    assert fraction == tuple(_terms(p) for p in xn.cancel(xd))
    for field in TRANSFER_TARGETS:
        vanishes = _outcome(vanishes_under, fraction, field)
        moved = _outcome(transfer_from_generic, x, field)
        if moved is FieldError:
            assert vanishes is FieldError
            continue
        assert field.raw_is_zero(moved) == vanishes
        num, den = (field.raw_from_laurent(_terms(p)) for p in (xn, xd))
        if not field.raw_is_zero(den):
            assert moved == field.raw_div(num, den)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_heugcd_matches_sympy_gcd(data):
    field = data.draw(st.sampled_from(R_FIELDS))
    h = data.draw(common_factors(field))
    f = _mul(data.draw(polys(field)), h)
    g = _mul(data.draw(polys(field)), h)
    gcd, cff, cfg = groundfield.heugcd(f, g)
    assert _mul(gcd, cff) == f
    assert _mul(gcd, cfg) == g
    ref = _sympy_poly(f).gcd(_sympy_poly(g))
    assert _sympy_poly(gcd) in (ref, -ref)


def test_exact_quo():
    quo = groundfield._exact_quo
    rho_plus_one = {(0, 1): 1, (0, 0): 1}
    assert quo({(1, 1): 1, (1, 0): 1}, rho_plus_one) == {(1, 0): 1}
    assert quo({(2, 0): 1, (0, 2): -1}, {(1, 0): 1, (0, 1): -1}) \
        == {(1, 0): 1, (0, 1): 1}
    # q is lex-larger than rho but not divisible by it
    assert quo({(1, 0): 1}, rho_plus_one) is None
    assert quo({(2, 0): 1, (0, 0): 1}, {(1, 0): 1, (0, 0): 1}) is None
    assert quo({(1,): 6, (0,): 3}, {(1,): 2, (0,): 1}) == {(0,): 3}


def test_heugcd_out_of_points_raises(monkeypatch):
    f = {(1, 0): 1, (0, 1): 1}
    g = {(2, 0): 1, (0, 2): -1}
    assert groundfield.heugcd(f, g) \
        == (f, {(0, 0): 1}, {(1, 0): 1, (0, 1): -1})
    monkeypatch.setattr(groundfield, "HEU_GCD_MAX", 0)
    with pytest.raises(FieldError):
        groundfield.heugcd(f, g)
    # a quotient by a non-unit of R is reduced as it is made
    x = GEN.raw_from_laurent({(1, 0): 1, (0, 0): 1})
    y = GEN.raw_from_laurent({(1, 1): 1, (0, 0): 1})
    with pytest.raises(FieldError):
        GEN.raw_div(x, y)


# ---------------------------------------------------------------------------
# evaluation of Laurent data

def _term_by_term(field, terms):
    """Reference evaluation through raw products and powers."""
    f = field
    out = f.raw_from_int(0)
    for (a, b), c in terms.items():
        out = f.raw_add(out, f.raw_mul(
            f.raw_from_int(c),
            f.raw_mul(f.raw_pow(f.q, a), f.raw_pow(f.rho, b))))
    return out


def _same_raw(x, y):
    return type(x) is type(y) and x == y


@pytest.mark.parametrize("field", ALL_FIELDS + [OneVarField(-2, -1)],
                         ids=repr)
@given(lp=laurent_polys())
def test_raw_from_laurent_matches_term_by_term(field, lp):
    # the one-pass value is the reference value in its canonical form
    assert _same_raw(field.raw_from_laurent(lp), _term_by_term(field, lp))


# ---------------------------------------------------------------------------
# the in-place sparse-vector kernel

def _iaxpy_reference(field, u, c, v):
    """u + c * v term by term through raw sums and products, zeros
    dropped."""
    out = dict(u)
    for k, a in v.items():
        out[k] = field.raw_add(out.get(k, field.raw_from_int(0)),
                               field.raw_mul(c, a))
    return {k: x for k, x in out.items() if not field.raw_is_zero(x)}


def _raw_vector(data, field):
    vec = {}
    for k in data.draw(st.lists(st.integers(0, 6), max_size=5, unique=True)):
        x = field.raw_from_laurent(data.draw(laurent_polys()))
        if not field.raw_is_zero(x):
            vec[k] = x
    return vec


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
@settings(max_examples=60)
@given(data=st.data())
def test_vec_iaxpy_matches_term_by_term(field, data):
    u = _raw_vector(data, field)
    kind = data.draw(st.sampled_from(["any", "zero", "cancel"]))
    c = field.raw_from_laurent(data.draw(laurent_polys()))
    if kind == "zero":
        c = field.raw_from_int(0)
    elif field.raw_is_zero(c):
        c = field.raw_from_int(1)
    if kind == "cancel":
        # v = -u / c: every key of u cancels
        v = {k: field.raw_div(field.raw_neg(a), c) for k, a in u.items()}
    else:
        v = _raw_vector(data, field)
    expect = _iaxpy_reference(field, u, c, v)
    v_before = dict(v)
    out = field.vec_iaxpy(u, c, v)
    assert out is u
    assert v == v_before
    assert not any(field.raw_is_zero(x) for x in out.values())
    assert out == expect
    if kind == "cancel":
        assert out == {}


# ---------------------------------------------------------------------------
# text round-trips

@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_text_roundtrip(field):
    import random
    rng = random.Random(3)
    for e in random_elements(field, rng, 10):
        text = field.to_text(e)
        back = field.parse(text)
        assert back == e
        assert field.to_text(back) == text


def _generic_values():
    """delta, 1/delta, qdiff, the (3, 2) central scalars and the (2, 2)
    action-table coefficients over Q(q, rho)."""
    values = [GEN.delta(), inv(GEN, GEN.delta()), GEN.qdiff]
    values += [central_scalar(label, GEN) for label in cell_labels(3, 2)]
    values += [c for row in build_engine(2, 2, GEN).act_table.values()
               for c in row.values()]
    return values


@pytest.mark.parametrize("spec", ["gfp:13,2,6", "gfp:5,2,1", "rational:2,3",
                                  "q-power:1", "q-power:0:neg"])
def test_every_field_reads_generic_text(spec):
    # a field reads the text of a generic value as its transfer; where the
    # denominator vanishes (1/delta at rho^2 = 1) both raise FieldError
    field, = fields_from_spec(spec)
    outcomes = set()
    for x in _generic_values():
        moved = _outcome(transfer_from_generic, x, field)
        assert _outcome(field.parse, GEN.to_text(x)) == moved
        outcomes.add(moved is FieldError)
    assert outcomes == ({False, True} if spec in ("gfp:5,2,1", "q-power:0:neg")
                        else {False})


# ---------------------------------------------------------------------------
# field specs

def test_fields_from_spec():
    assert fields_from_spec("generic") == [GenericField()]
    assert fields_from_spec("q-power:2") == [OneVarField(2)]
    assert fields_from_spec("rho2:3") == [OneVarField(3, 1), OneVarField(3, -1)]
    assert fields_from_spec("delta-zero") == [OneVarField(0, 1)]
    assert fields_from_spec("delta-zero:neg") == [OneVarField(0, -1)]
    assert fields_from_spec("rational:2,4") == [RationalField(2, 4)]
    assert fields_from_spec("gfp:11,2,3") == [PrimeField(11, 2, 3)]
    with pytest.raises(FieldError):
        fields_from_spec("other")


def test_prime_field_validation():
    with pytest.raises(FieldError):
        PrimeField(4, 1, 1)
    with pytest.raises(FieldError):
        PrimeField(2, 1, 1)
    with pytest.raises(FieldError):
        PrimeField(11, 0, 1)
    with pytest.raises(FieldError, match="below"):
        PrimeField(groundfield.PRIME_BOUND + 39, 2, 3)  # a prime


def test_rational_bound():
    digits = groundfield.RATIONAL_DIGITS_MAX
    exp = groundfield.RATIONAL_EXPONENT_MAX
    top = "9" * digits
    assert RationalField("%s/%s" % (top, top[1:]), "-1e%d" % exp).rho \
        == -10 ** exp
    assert RationalField("2", "1.5e-%d" % exp).rho \
        == Fraction(15, 10 ** (exp + 1))
    for q in (top + "9", "1/" + top + "9", "0.%s" % top, "1e%d" % (exp + 1),
              "1e-%d" % (exp + 1), "1e" + "0" * digits + "1"):
        with pytest.raises(FieldError, match="digits"):
            RationalField(q, 2)
    with pytest.raises(FieldError, match="digits"):
        RationalField(10 ** (digits + 1), 2)


def test_exponent_bound():
    n = groundfield.EXPONENT_MAX
    assert OneVarField(-n, -1).n == -n
    for spec in ("q-power:%d" % (n + 1), "q-power:-%d:neg" % (n + 1),
                 "rho2:%d" % (n + 1)):
        with pytest.raises(FieldError, match="at most"):
            fields_from_spec(spec)

