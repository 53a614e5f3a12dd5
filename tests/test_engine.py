"""Tests for the walled Brauer algebra engine."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from qwalled.combinat import coset_count, coset_reps
from qwalled.engine import (
    AlgebraElement,
    AlgebraEngine,
    E_TOK,
    EngineError,
    build_engine,
    central_element,
    engine_from_json,
    engine_to_json,
    g_tok,
    gs_tok,
    layer_dimension,
    multiply,
    sigma,
    token_from_text,
    token_text,
    verify_relations,
)
from qwalled.groundfield import (
    GenericField,
    OneVarField,
    PrimeField,
    RationalField,
    transfer_from_generic,
)
from qwalled.linalg import Echelon

GEN = GenericField()


@pytest.fixture(scope="module")
def b22():
    return build_engine(2, 2, GEN)


@pytest.fixture(scope="module")
def b32():
    return build_engine(3, 2, GEN)


def test_dimensions():
    assert build_engine(1, 1, GEN).dim == 2
    assert build_engine(2, 1, GEN).dim == 6
    assert build_engine(1, 2, GEN).dim == 6


def test_dim_11_basis_by_hand():
    eng = build_engine(1, 1, GEN)
    # basis {1, e_1}: e_1 is independent of 1 and e_1^2 = delta e_1
    one, e1 = eng.one(), eng.e1()
    assert not (e1 - one).is_zero() and not e1.is_zero()
    assert e1 * e1 == e1.scale(GEN.delta())


def test_dimension_is_factorial(b22, b32):
    assert b22.dim == 24
    assert b32.dim == 120


def test_multiply_examples(b22):
    e1 = b22.e1()
    assert e1 * e1 == e1.scale(GEN.delta())
    assert e1 * b22.g_el(1) * e1 == e1.scale(GEN.rho)
    assert b22.g_el(1) * b22.g_el(1, -1) == b22.one()
    assert b22.gs_el(1) * b22.gs_el(1, -1) == b22.one()
    x = b22.g_el(1) * e1
    assert x * b22.one() == x
    assert multiply(x, b22.one()) == x


def test_associativity(b32):
    rng = random.Random(17)

    def rand_elem():
        terms = {}
        for _ in range(4):
            terms[rng.randrange(b32.dim)] = GEN.raw_from_int(
                rng.randrange(-2, 3))
        return b32.element(terms)

    for _ in range(20):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert (x * y) * z == x * (y * z)


def test_sigma_properties(b22):
    g1, gs1, e1 = b22.g_el(1), b22.gs_el(1), b22.e1()
    assert sigma(g1) == g1 and sigma(gs1) == gs1 and sigma(e1) == e1
    assert sigma(g1 * gs1 * e1) == e1 * gs1 * g1
    e12 = b22.e_single(1) * b22.e_single(2)
    assert sigma(e12) == e12
    rng = random.Random(23)
    for _ in range(50):
        terms = {rng.randrange(b22.dim): GEN.raw_from_int(rng.randrange(1, 4))
                 for _ in range(3)}
        x = b22.element(terms)
        assert sigma(sigma(x)) == x
    for _ in range(10):
        x = b22.element({rng.randrange(b22.dim): GEN.raw_from_int(1)})
        y = b22.element({rng.randrange(b22.dim): GEN.raw_from_int(1)})
        assert sigma(x * y) == sigma(y) * sigma(x)


def test_special_elements(b22):
    assert b22.e_ij(1, 1) == b22.e1()
    # rho^{-1} e_1 g*_1 and rho^{-1} e_1 g_1
    rho_inv = GEN.raw_div(GEN.one, GEN.rho)
    et = (b22.e1() * b22.gs_el(1)).scale(rho_inv)
    f21 = (b22.e1() * b22.g_el(1)).scale(rho_inv)
    assert et * et == et
    assert f21 * f21 == f21
    e1, e2 = b22.e_single(1), b22.e_single(2)
    assert e1 * e2 == e2 * e1
    assert e1 == b22.e1()
    assert e1 * e2 == e1 * b22.g_el(1) * b22.gs_el(1, -1) * e1

    def g_d(rep):
        return b22.from_letters([(tok, 1) for tok in rep.word_pairs()])
    for f in (0, 1, 2):
        for rep in coset_reps(2, 2, f):
            assert not g_d(rep).is_zero()
    assert g_d(coset_reps(2, 2, 0)[0]) == b22.one()


def test_central_element(b22, b32):
    for eng in (b22, b32):
        c = central_element(eng)
        for i in range(1, eng.r):
            assert c * eng.g_el(i) == eng.g_el(i) * c
        for j in range(1, eng.s):
            assert c * eng.gs_el(j) == eng.gs_el(j) * c
        assert c * eng.e1() == eng.e1() * c
        assert sigma(c) == c
    e11 = build_engine(1, 1, GEN)
    assert central_element(e11) == e11.e1()


def test_verify_relations(b22, b32):
    for eng in (b22, b32):
        report = verify_relations(eng)
        assert report and all(ok for _, ok in report)
        names = [n for n, _ in report]
        assert "def.f" in names and "def.m" in names and "def.n" in names
        assert any(n.startswith("tool.eii1") for n in names)


def test_verify_relations_specialized():
    for field in (OneVarField(3), RationalField(2, 5), PrimeField(13, 2, 6)):
        eng = build_engine(2, 2, field)
        assert all(ok for _, ok in verify_relations(eng))


def _transports(source, target, image):
    """Whether the generator images in target satisfy every defining
    relation of the source engine."""
    for rel in source.relations:
        total = target.zero()
        for coeff, word in rel:
            prod = target.one()
            for tok in word:
                prod = prod * image[tok]
            total = total + prod.scale(coeff)
        if not total.is_zero():
            return False
    return True


def test_subalgebra_maps(b22):
    # level 1: the shifted copy of B_{1,1}, the copy of B_{1,2} with e_1
    # conjugated by g_1, and the Hecke quotient H_1 (x) H_1 of B_{1,1}
    assert _transports(build_engine(1, 1, GEN), b22,
                       {E_TOK: b22.e_single(2)})
    assert _transports(build_engine(1, 2, GEN), b22,
                       {E_TOK: b22.g_el(1, -1) * b22.e1() * b22.g_el(1),
                        gs_tok(1): b22.gs_el(1)})
    quotient = build_engine(1, 1, GEN, layer=0)
    assert quotient.dim == 1 and quotient.e1().is_zero()


def test_subalgebra_maps_hecke_quotient_dim():
    # the level-1 subalgebra of B_{3,2} is B_{2,1}; its Hecke quotient
    quotient = build_engine(2, 1, GEN, layer=0)
    assert quotient.dim == math.factorial(2) * math.factorial(1)
    assert quotient.e1().is_zero()


def test_swap_isomorphism():
    # g_i <-> g*_i, e_1 -> e_1 transports all relations to the (s,r) engine
    for (r, s) in [(2, 1), (2, 2), (3, 2)]:
        other = build_engine(s, r, GEN)
        image = {E_TOK: other.e1()}
        for i in range(1, r):
            image[g_tok(i)] = other.gs_el(i)
        for j in range(1, s):
            image[gs_tok(j)] = other.g_el(j)
        assert _transports(build_engine(r, s, GEN), other, image)


def test_e1_sandwich_span(b22, b32):
    # e_1 B e_1 agrees with the span of B(1) e_1
    for eng in (b22, b32):
        f = eng.field
        e1 = eng.e1()
        left = Echelon(f)
        for t in range(eng.dim):
            left.insert((e1 * eng.element({t: 1}) * e1).terms)
        gens = [eng.e_single(2)]
        gens += [eng.g_el(i) for i in range(2, eng.r)]
        gens += [eng.gs_el(j) for j in range(2, eng.s)]
        right = Echelon(f)
        right.insert(e1.terms)
        frontier = [e1]
        while frontier:
            new = []
            for x in frontier:
                for gen in gens:
                    y = gen * x
                    if right.insert(y.terms):
                        new.append(y)
            frontier = new
        assert left.rank == right.rank
        assert not any(right.reduce(v)[0] for v in left.rows.values())


def test_dim_b_e1(b22, b32):
    for eng in (b22, b32):
        ech = Echelon(eng.field)
        e1 = eng.e1()
        for t in range(eng.dim):
            ech.insert((eng.element({t: 1}) * e1).terms)
        assert ech.rank == math.factorial(eng.r + eng.s - 1)


def test_json_roundtrip(b22):
    js = engine_to_json(b22)
    assert engine_to_json(b22) == js  # deterministic
    eng2 = engine_from_json(js)
    assert eng2.dim == b22.dim
    assert eng2.basis_words == b22.basis_words
    x = b22.g_el(1) * b22.e1() * b22.gs_el(1)
    y = eng2.g_el(1) * eng2.e1() * eng2.gs_el(1)
    assert x.terms.keys() == y.terms.keys()
    assert engine_to_json(eng2) == js
    assert all(ok for _, ok in verify_relations(eng2))


@pytest.mark.parametrize("spec", ["generic", "q-power:1", "q-power:0:neg",
                                  "rational:2,3", "gfp:13,2,6"])
def test_json_load_matches_closure(spec):
    eng = build_engine(2, 2, spec)
    js = engine_to_json(eng)
    loaded = engine_from_json(js)
    assert engine_to_json(loaded) == js
    f = eng.field
    assert loaded.field == f
    assert loaded.act_table.keys() == eng.act_table.keys()
    for key, row in eng.act_table.items():
        other = loaded.act_table[key]
        assert other.keys() == row.keys()
        assert all(f.raw_eq(c, other[k]) for k, c in row.items())


def test_json_load_parses_each_text_once(b32, monkeypatch):
    import json
    js = engine_to_json(b32)
    texts = {val for triplets in json.loads(js)["act"].values()
             for _, _, val in triplets}
    parsed = []
    parse = GenericField.parse

    def counting_parse(self, text):
        parsed.append(text)
        return parse(self, text)

    monkeypatch.setattr(GenericField, "parse", counting_parse)
    engine_from_json(js)
    assert sorted(parsed) == sorted(texts)
    assert len(parsed) == 20


def test_json_schema_guard(b22):
    import json
    data = json.loads(engine_to_json(b22))
    data["schema_version"] = 999
    with pytest.raises(EngineError):
        engine_from_json(json.dumps(data))


def test_token_text_roundtrip():
    for tok in [E_TOK, g_tok(1), g_tok(12), gs_tok(3)]:
        assert token_from_text(token_text(tok)) == tok
    with pytest.raises(EngineError):
        token_from_text("x7")


def test_errors(b22):
    with pytest.raises(EngineError):
        b22.apply_token(b22.one(), E_TOK, -1)  # e_1 is not invertible
    with pytest.raises(EngineError):
        b22.g_el(5)
    with pytest.raises(EngineError):
        b22.e_ij(3, 1)
    other = build_engine(2, 1, GEN)
    with pytest.raises(EngineError):
        multiply(b22.one(), other.one())
    with pytest.raises(EngineError):
        build_engine(0, 1, GEN)
    for layer in (-1, 3):
        with pytest.raises(EngineError, match="layer"):
            build_engine(2, 2, GEN, layer=layer)


def test_dimension_mismatch(monkeypatch):
    import qwalled.engine
    monkeypatch.setattr(qwalled.engine, "layer_dimension",
                        lambda r, s, f: 7)
    with pytest.raises(EngineError, match="closure dimension 6, expected 7"):
        AlgebraEngine(2, 1, GEN)


def test_quotient_closure():
    # adding e_1 = 0 yields the product of two Hecke algebras
    quo = build_engine(2, 2, GEN, layer=0)
    assert quo.dim == 4
    assert quo.e1().is_zero()
    assert all(ok for _, ok in verify_relations(quo))


@pytest.mark.parametrize("r,s", [(1, 1), (2, 1), (2, 2), (3, 2), (2, 3),
                                 (3, 3), (4, 2)])
def test_layer_quotient_dimensions(r, s):
    # below the top the engine is the block e^f B/J_{f+1}, of dimension
    # |D^f| (r-f)! (s-f)!; (r+s)! at f = min(r, s)
    top = min(r, s)
    assert layer_dimension(r, s, top) == math.factorial(r + s)
    field = PrimeField(13, 2, 6)
    for f in range(top):
        if r + s <= 5 or f <= 1:
            quo = build_engine(r, s, field, layer=f)
            assert quo.layer == f
            assert quo.dim == layer_dimension(r, s, f) \
                == coset_count(r, s, f) * math.factorial(r - f) \
                * math.factorial(s - f)


def test_layer_generator_is_e_power():
    # the generator of J_{f+1} is e^{f+1} up to a unit on the right:
    # e_1, e_1 e_2, and e_1 e_2 e_3 (g_1 g*_1^{-1})^{-1}
    eng = build_engine(3, 3, "gfp:13,2,6")
    e = [eng.e_single(i) for i in (1, 2, 3)]
    gens = [eng.from_letters(eng._layer_letters(f)) for f in (0, 1, 2)]
    assert gens[0] == e[0]
    assert gens[1] == e[0] * e[1]
    assert gens[2] * eng.g_el(1) * eng.gs_el(1, -1) == e[0] * e[1] * e[2]


@pytest.mark.parametrize("spec", ["generic", "delta-zero"])
def test_root_relation_identity(spec):
    # the root relation of the block rests on e^f g_1 ... g_f e^f =
    # rho^f e^f, which holds with delta = 0, where e^f e^f = 0
    eng = build_engine(3, 3, spec)
    for f in (1, 2):
        ef = eng.from_letters(eng.ecap_letters(f))
        x_f = eng.from_letters([(g_tok(k), 1) for k in range(1, f + 1)], ef)
        assert x_f * ef == ef.scale(eng.field.raw_pow(eng.field.rho, f))
        assert (ef * ef).is_zero() == (spec == "delta-zero")


@pytest.fixture(scope="module")
def block22():
    return build_engine(2, 2, GEN, layer=1)


def test_block_refuses_multiply(block22):
    with pytest.raises(EngineError, match="right module"):
        multiply(block22.one(), block22.e1())
    # the layer-0 block is the algebra H_2 (x) H_2
    quo = build_engine(2, 2, GEN, layer=0)
    assert multiply(quo.g_el(1), quo.g_el(1)) \
        == quo.g_el(1).scale(quo.field.qdiff) + quo.one()


def test_block_refuses_sigma(block22):
    with pytest.raises(EngineError, match="right module"):
        sigma(block22.e1())


def test_block_refuses_central_element(block22):
    with pytest.raises(EngineError, match="right module"):
        central_element(block22)


def test_layer_quotient_is_not_serialized(b22):
    quo = build_engine(2, 2, GEN, layer=1)
    with pytest.raises(EngineError, match="quotient"):
        engine_to_json(quo)
    # the quotient and the full engine are different presentations
    assert not quo.same_presentation(b22)
    assert not b22.same_presentation(quo)
    with pytest.raises(EngineError):
        multiply(quo.one(), b22.one())


def test_prime_field_engine_dim():
    eng = build_engine(2, 2, PrimeField(11, 2, 3))
    assert eng.dim == 24
    assert all(ok for _, ok in verify_relations(eng))


# SHA-256 of engine_to_json, recorded from the closure without the prefix
# memo: the memo must leave basis words and action tables unchanged
CLOSURE_PINS = {
    (3, 2, "gfp:13,2,6"):
        "d084410a4c04dd1c9754a0269eb7830a6ab4d9f23c12491d717f6afa53f218fc",
    (3, 2, "generic"):
        "5a29639fb4c681f7b3891d77dda8b5a15290abe7b065434e4e99652c787fd44f",
    (2, 2, "q-power:1"):
        "370153fbe873b904a3bebaf2a3298c1ebe4746d181a22a6078944b5e6704b260",
}


@pytest.mark.parametrize("r,s,spec", sorted(CLOSURE_PINS))
def test_closure_output_pinned(r, s, spec, b32):
    import hashlib
    eng = b32 if (r, s, spec) == (3, 2, "generic") else build_engine(r, s, spec)
    digest = hashlib.sha256(engine_to_json(eng).encode()).hexdigest()
    assert digest == CLOSURE_PINS[(r, s, spec)]


@pytest.mark.parametrize("r,s,calls", [(3, 2, 4824), (2, 2, 722)])
@pytest.mark.parametrize("spec", ["gfp:13,2,6", "q-power:1"])
def test_closure_applies_each_prefix_once(r, s, calls, spec, monkeypatch):
    # one memo per state: without it the closure makes 8,904 and 1,370
    # applications; the count does not depend on the field
    count = [0]
    apply_build = AlgebraEngine._apply_build

    def counting(self, vec, tok):
        count[0] += 1
        return apply_build(self, vec, tok)

    monkeypatch.setattr(AlgebraEngine, "_apply_build", counting)
    build_engine(r, s, spec)
    assert count[0] == calls


def test_max_states_guard():
    with pytest.raises(EngineError, match="exceeded 200 states"):
        AlgebraEngine(3, 2, PrimeField(13, 2, 6), max_states=200)
    with pytest.raises(EngineError, match="exceeded 100 states"):
        build_engine(3, 3, PrimeField(13, 2, 6), layer=1, max_states=100)


def test_block_closure_size_guard():
    # the (4, 3) block of layer 1 creates 1,298 states to keep 144
    with pytest.raises(EngineError, match="exceeded 1000 states"):
        build_engine(4, 3, "gfp:13,2,6", layer=1, max_states=1000)


def test_closure_never_multiplies_by_one(monkeypatch):
    # fresh states enter as {state: 1} and many relation coefficients are
    # +-1: the kernel adds such terms without a product
    one = GEN.raw_from_int(1)
    building, unit_products = [False], []
    raw_mul, build = GenericField.raw_mul, AlgebraEngine._build

    def counting_mul(self, a, b):
        if building[0] and (a == one or b == one):
            unit_products.append((a, b))
        return raw_mul(self, a, b)

    def flagged_build(self):
        building[0] = True
        try:
            build(self)
        finally:
            building[0] = False

    monkeypatch.setattr(GenericField, "raw_mul", counting_mul)
    monkeypatch.setattr(AlgebraEngine, "_build", flagged_build)
    assert AlgebraEngine(3, 2, GEN).dim == 120
    assert unit_products == []


@pytest.fixture(scope="module")
def b22_images():
    return [build_engine(2, 2, spec) for spec in ("gfp:13,2,6", "q-power:1")]


@st.composite
def small_elements(draw, eng):
    """An element with up to four terms whose coefficients are Laurent
    polynomials with small exponents and coefficients."""
    terms = {}
    for i in draw(st.lists(st.integers(0, eng.dim - 1), max_size=4,
                           unique=True)):
        lp = draw(st.dictionaries(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
            st.integers(-3, 3), min_size=1, max_size=2))
        terms[i] = GEN.raw_from_laurent({k: c for k, c in lp.items() if c})
    return AlgebraElement(eng, terms)


def _transferred(x, eng):
    return AlgebraElement(eng, {
        i: transfer_from_generic(c, eng.field)
        for i, c in x.terms.items()})


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_transfer_commutes_with_products(b22, b22_images, data):
    x, y = data.draw(small_elements(b22)), data.draw(small_elements(b22))
    for eng in b22_images:
        assert eng.basis_words == b22.basis_words
        assert _transferred(x * y, eng) \
            == _transferred(x, eng) * _transferred(y, eng)
