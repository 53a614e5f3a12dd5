"""Tests for exact scalar arithmetic in q and rho."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from qwalled.groundfield import (
    FieldElement,
    FieldError,
    GenericField,
    LaurentPoly,
    OneVarField,
    PrimeField,
    RationalField,
    fields_from_spec,
)

GEN = GenericField()

ALL_FIELDS = [
    GEN,
    OneVarField(3),
    OneVarField(0, -1),
    RationalField(2, 4),
    PrimeField(11, 2, 3),
]


def random_elements(field, rng, count):
    out = []
    q, rho = field.q(), field.rho()
    for _ in range(count):
        e = field(rng.randrange(-3, 4))
        for _ in range(rng.randrange(0, 3)):
            e = e * q ** rng.randrange(-2, 3) + rho ** rng.randrange(-1, 2)
        out.append(e)
    return out


# ---------------------------------------------------------------------------
# LaurentPoly

@st.composite
def laurent_polys(draw):
    n = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n):
        key = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
        terms[key] = draw(st.integers(-5, 5))
    return LaurentPoly(terms)


@given(laurent_polys())
def test_laurent_no_zero_terms(p):
    assert all(c != 0 for c in p.terms.values())


@given(laurent_polys(), laurent_polys())
def test_laurent_commutative(p, r):
    assert p + r == r + p
    assert p * r == r * p


@given(laurent_polys(), laurent_polys(), laurent_polys())
@settings(max_examples=50)
def test_laurent_associative_distributive(p, r, s):
    assert (p + r) + s == p + (r + s)
    assert (p * r) * s == p * (r * s)
    assert p * (r + s) == p * r + p * s


@given(laurent_polys())
def test_laurent_text_roundtrip(p):
    assert LaurentPoly.from_text(p.to_text()) == p


# ---------------------------------------------------------------------------
# basic arithmetic

def test_inverse_pair():
    q = GEN.q()
    assert q * q.inverse() == 1


def test_delta_as_division():
    q, rho = GEN.q(), GEN.rho()
    d = (rho - rho.inverse()) / (q - q.inverse())
    assert d == GEN.delta()
    # with rho -> q^n the same quotient is the quantum integer [n]
    for n in (1, 2, 3):
        f = OneVarField(n)
        qn = f.q() ** n
        quantum_int = (qn - qn.inverse()) / (f.q() - f.q().inverse())
        assert f.delta() == quantum_int


def test_delta_rational_oracle():
    f = RationalField(2, 4)
    # (4 - 1/4) / (2 - 1/2) = 5/2
    assert f.delta() == f.parse("5/2")
    assert f.delta().to_text() == "5 / 2"


def test_division_by_zero():
    with pytest.raises(FieldError):
        GEN.one() / GEN.zero()


def test_mixed_tags_rejected():
    with pytest.raises(FieldError):
        GEN.one() + OneVarField(1).one()


# ---------------------------------------------------------------------------
# delta

def test_delta_zero_iff_rho_squared_one():
    assert OneVarField(0, 1).delta().is_zero()
    assert OneVarField(0, -1).delta().is_zero()
    assert not OneVarField(1).delta().is_zero()
    assert not GEN.delta().is_zero()
    assert RationalField(3, 1).delta().is_zero()
    assert RationalField(3, -1).delta().is_zero()
    assert not RationalField(3, 2).delta().is_zero()
    p = PrimeField(11, 2, 1)
    assert p.delta().is_zero()
    assert p.raw_eq((p._rho_val * p._rho_val) % 11, 1)
    assert not PrimeField(11, 2, 3).delta().is_zero()


def test_delta_generic_reduced_form():
    num, den = GEN.to_laurent_fraction(GEN.delta())
    # delta = (rho^2 - 1) q / (rho (q^2 - 1)) up to the emitted normal form
    assert num == LaurentPoly({(1, 2): 1, (1, 0): -1})
    assert den == LaurentPoly({(2, 1): 1, (0, 1): -1})


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
        q2 = f.q() ** 2
        acc = f.zero()
        for k in range(e):
            if k:
                assert not acc.is_zero()
            acc = acc + q2 ** k
        assert acc.is_zero()


# ---------------------------------------------------------------------------
# ring axioms and canonicity

@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_field_axioms(field):
    import random
    rng = random.Random(7)
    elems = random_elements(field, rng, 12)
    for a in elems:
        assert a + field.zero() == a
        assert a * field.one() == a
        if not a.is_zero():
            assert a * a.inverse() == 1
    for a, b in zip(elems, elems[1:]):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) - b == a


@pytest.mark.parametrize("field", [GEN, OneVarField(2)], ids=repr)
def test_reduction_canonicity(field):
    q, rho = field.q(), field.rho()
    x = (q + rho) * (q - rho)
    y = q * q - rho * rho
    assert x.val.num == y.val.num and x.val.den == y.val.den
    d1 = field.delta()
    d2 = (rho - 1 / rho) / (q - 1 / q)
    assert d1.val.num == d2.val.num and d1.val.den == d2.val.den


def test_specialization_homomorphism():
    import random
    rng = random.Random(5)
    spec = RationalField(2, 4)

    def image(e):
        num, den = GEN.to_laurent_fraction(e)

        def ev(lp):
            out = spec.zero()
            for (a, b), c in lp.terms.items():
                out = out + spec(c) * spec.q() ** a * spec.rho() ** b
            return out
        return ev(num) / ev(den)

    elems = random_elements(GEN, rng, 8)
    for a, b in zip(elems, elems[1:]):
        assert image(a * b) == image(a) * image(b)
        assert image(a + b) == image(a) + image(b)


# ---------------------------------------------------------------------------
# evaluation of Laurent data

def _term_by_term(field, lp):
    """Reference evaluation through FieldElement products and powers."""
    out = field.zero()
    for (a, b), c in lp.terms.items():
        out = out + field(c) * field.q() ** a * field.rho() ** b
    return out


def _same_raw(x, y):
    if hasattr(x, "num"):
        return x.num == y.num and x.den == y.den
    return type(x) is type(y) and x == y


@pytest.mark.parametrize("field", ALL_FIELDS + [OneVarField(-2, -1)],
                         ids=repr)
@given(lp=laurent_polys())
def test_raw_from_laurent_matches_term_by_term(field, lp):
    # the one-pass value is the reference value in its canonical form
    assert _same_raw(field.raw_from_laurent(lp),
                     _term_by_term(field, lp).val)


# ---------------------------------------------------------------------------
# the in-place sparse-vector kernel

def _iaxpy_reference(field, u, c, v):
    """u + c * v term by term through FieldElement, zeros dropped."""
    out = {k: FieldElement(field, a) for k, a in u.items()}
    cc = FieldElement(field, c)
    for k, a in v.items():
        out[k] = out.get(k, field.zero()) + cc * FieldElement(field, a)
    return {k: x for k, x in out.items() if not x.is_zero()}


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
    assert {k: FieldElement(field, x) for k, x in out.items()} == expect
    if kind == "cancel":
        assert out == {}


# ---------------------------------------------------------------------------
# text round-trips

@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_text_roundtrip(field):
    import random
    rng = random.Random(3)
    for e in random_elements(field, rng, 10):
        text = e.to_text()
        back = field.parse(text)
        assert back == e
        assert back.to_text() == text


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


def test_immutability():
    e = GEN.one()
    with pytest.raises(AttributeError):
        e.val = None
