"""Tests for the walled Brauer algebra engine."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from paper_checks import product
from qwalled.cellular import coset_letters
from qwalled.combinat import coset_count, coset_reps
from qwalled.engine import (
    AlgebraEngine,
    E_TOK,
    EngineError,
    act,
    build_engine,
    central_element,
    engine_from_json,
    engine_to_json,
    evaluate_factors,
    g_tok,
    gs_tok,
    layer_dimension,
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
E = [(E_TOK, 1)]


def G(i, p=1):
    return [(g_tok(i), p)]


def GS(j, p=1):
    return [(gs_tok(j), p)]


def ev(eng, letters, x=None):
    """x (default the identity) times the letters."""
    return act(eng, {0: eng.field.one} if x is None else x, letters)


def scale(eng, x, c):
    return eng.field.vec_iaxpy({}, c, x)


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
    one, e1 = {0: GEN.one}, ev(eng, E)
    assert e1 and e1 != one
    assert ev(eng, E, e1) == scale(eng, e1, GEN.delta())


def test_dimension_is_factorial(b22, b32):
    assert b22.dim == 24
    assert b32.dim == 120


def test_multiply_examples(b22):
    one, e1 = {0: GEN.one}, ev(b22, E)
    assert product(b22, e1, e1) == scale(b22, e1, GEN.delta())
    assert ev(b22, E + G(1) + E) == scale(b22, e1, GEN.rho)
    assert ev(b22, G(1) + G(1, -1)) == one
    assert ev(b22, GS(1) + GS(1, -1)) == one
    x = ev(b22, G(1) + E)
    assert product(b22, x, one) == x
    assert product(b22, one, x) == x


def test_associativity(b32):
    rng = random.Random(17)

    def rand_elem():
        terms = {}
        for _ in range(4):
            terms[rng.randrange(b32.dim)] = rng.randrange(-2, 3)
        return {t: GEN.raw_from_int(c) for t, c in terms.items() if c}

    for _ in range(20):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert product(b32, product(b32, x, y), z) \
            == product(b32, x, product(b32, y, z))


def test_sigma_properties(b22):
    for letters in (G(1), GS(1), E):
        x = ev(b22, letters)
        assert sigma(b22, x) == x
    assert sigma(b22, ev(b22, G(1) + GS(1) + E)) == ev(b22, E + GS(1) + G(1))
    e12 = ev(b22, b22.e_ij_letters(1, 1) + b22.e_ij_letters(2, 2))
    assert sigma(b22, e12) == e12
    rng = random.Random(23)
    for _ in range(50):
        x = {rng.randrange(b22.dim): GEN.raw_from_int(rng.randrange(1, 4))
             for _ in range(3)}
        assert sigma(b22, sigma(b22, x)) == x
    for _ in range(10):
        x = {rng.randrange(b22.dim): GEN.one}
        y = {rng.randrange(b22.dim): GEN.one}
        assert sigma(b22, product(b22, x, y)) \
            == product(b22, sigma(b22, y), sigma(b22, x))


def test_special_elements(b22):
    one = {0: GEN.one}
    assert evaluate_factors(
        b22, [[(GEN.one, b22.e_ij_letters(1, 1))]], one) == ev(b22, E)
    # rho^{-1} e_1 g*_1 and rho^{-1} e_1 g_1
    rho_inv = GEN.raw_div(GEN.one, GEN.rho)
    et = scale(b22, ev(b22, E + GS(1)), rho_inv)
    f21 = scale(b22, ev(b22, E + G(1)), rho_inv)
    assert product(b22, et, et) == et
    assert product(b22, f21, f21) == f21
    e1, e2 = b22.e_ij_letters(1, 1), b22.e_ij_letters(2, 2)
    assert ev(b22, e1 + e2) == ev(b22, e2 + e1)
    assert ev(b22, e1) == ev(b22, E)
    assert ev(b22, e1 + e2) == ev(b22, e1 + G(1) + GS(1, -1) + e1)

    def g_d(rep):
        return ev(b22, coset_letters(rep))
    for f in (0, 1, 2):
        for rep in coset_reps(2, 2, f):
            assert g_d(rep)
    assert g_d(coset_reps(2, 2, 0)[0]) == one


def test_central_element(b22, b32):
    for eng in (b22, b32):
        c = evaluate_factors(eng, [central_element(eng)], {0: GEN.one})
        gens = [G(i) for i in range(1, eng.r)] \
            + [GS(j) for j in range(1, eng.s)] + [E]
        for gen in gens:
            assert ev(eng, gen, c) == product(eng, ev(eng, gen), c)
        assert sigma(eng, c) == c
    e11 = build_engine(1, 1, GEN)
    assert evaluate_factors(e11, [central_element(e11)],
                            {0: GEN.one}) == ev(e11, E)


def test_verify_relations(b22, b32):
    for eng in (b22, b32):
        report = verify_relations(eng)
        assert report and all(ok for _, ok in report)
        names = [n for n, _ in report]
        assert "def.f" in names and "def.m" in names and "def.n" in names
        assert any(n.startswith("tool.eii1") for n in names)


def test_verify_relations_can_fail():
    # a wrong row of the action table (the identity times g_1 read as the
    # identity) breaks the quadratic relation of g_1 and its commutation
    # with g*_1
    eng = build_engine(2, 2, "gfp:13,2,6")
    assert all(ok for _, ok in verify_relations(eng))
    eng.act_table[(0, g_tok(1))] = {0: eng.field.one}
    report = verify_relations(eng)
    failed = {name for name, ok in report if not ok}
    assert {"def.a[1]", "def.g[1,1]"} <= failed
    assert [name for name, _ in report] \
        == [name for name, _ in verify_relations(build_engine(2, 2, GEN))]


def test_verify_relations_specialized():
    for field in (OneVarField(3), RationalField(2, 5), PrimeField(13, 2, 6)):
        eng = build_engine(2, 2, field)
        assert all(ok for _, ok in verify_relations(eng))


def _transports(source, target, image):
    """Whether the generator images in target satisfy every defining
    relation of the source engine."""
    for rel in source.relations:
        total = {}
        for coeff, word in rel:
            prod = {0: target.field.one}
            for tok in word:
                prod = product(target, prod, image[tok])
            target.field.vec_iaxpy(total, coeff, prod)
        if total:
            return False
    return True


def test_subalgebra_maps(b22):
    # level 1: the shifted copy of B_{1,1}, the copy of B_{1,2} with e_1
    # conjugated by g_1, and the Hecke quotient H_1 (x) H_1 of B_{1,1}
    assert _transports(build_engine(1, 1, GEN), b22,
                       {E_TOK: ev(b22, b22.e_ij_letters(2, 2))})
    assert _transports(build_engine(1, 2, GEN), b22,
                       {E_TOK: ev(b22, G(1, -1) + E + G(1)),
                        gs_tok(1): ev(b22, GS(1))})
    quotient = build_engine(1, 1, GEN, layer=0)
    assert quotient.dim == 1 and not ev(quotient, E)


def test_subalgebra_maps_hecke_quotient_dim():
    # the level-1 subalgebra of B_{3,2} is B_{2,1}; its Hecke quotient
    quotient = build_engine(2, 1, GEN, layer=0)
    assert quotient.dim == math.factorial(2) * math.factorial(1)
    assert not ev(quotient, E)


def test_swap_isomorphism():
    # g_i <-> g*_i, e_1 -> e_1 transports all relations to the (s,r) engine
    for (r, s) in [(2, 1), (2, 2), (3, 2)]:
        other = build_engine(s, r, GEN)
        image = {E_TOK: ev(other, E)}
        for i in range(1, r):
            image[g_tok(i)] = ev(other, GS(i))
        for j in range(1, s):
            image[gs_tok(j)] = ev(other, G(j))
        assert _transports(build_engine(r, s, GEN), other, image)


def test_e1_sandwich_span(b22, b32):
    # e_1 B e_1 agrees with the span of B(1) e_1
    for eng in (b22, b32):
        f = eng.field
        e1 = ev(eng, E)
        left = Echelon(f)
        for t in range(eng.dim):
            left.insert(ev(eng, E, product(eng, e1, {t: f.one})))
        gens = [ev(eng, eng.e_ij_letters(2, 2))]
        gens += [ev(eng, G(i)) for i in range(2, eng.r)]
        gens += [ev(eng, GS(j)) for j in range(2, eng.s)]
        right = Echelon(f)
        right.insert(e1)
        frontier = [e1]
        while frontier:
            new = []
            for x in frontier:
                for gen in gens:
                    y = product(eng, gen, x)
                    if right.insert(y):
                        new.append(y)
            frontier = new
        assert left.rank == right.rank
        for v in left.rows.values():
            right.express(v)


def test_dim_b_e1(b22, b32):
    for eng in (b22, b32):
        ech = Echelon(eng.field)
        for t in range(eng.dim):
            ech.insert(ev(eng, E, {t: eng.field.one}))
        assert ech.rank == math.factorial(eng.r + eng.s - 1)


def test_json_roundtrip(b22):
    js = engine_to_json(b22)
    assert engine_to_json(b22) == js  # deterministic
    eng2 = engine_from_json(js)
    assert eng2.dim == b22.dim
    assert eng2.basis_words == b22.basis_words
    x = ev(b22, G(1) + E + GS(1))
    y = ev(eng2, G(1) + E + GS(1))
    assert x.keys() == y.keys()
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
    assert loaded.act_table == eng.act_table


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
        ev(b22, [(E_TOK, -1)])  # e_1 is not invertible
    with pytest.raises(EngineError):
        ev(b22, [(g_tok(1), 2)])
    with pytest.raises(EngineError):
        b22.e_ij_letters(3, 1)
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
    assert not ev(quo, E)
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
    e = [eng.e_ij_letters(i, i) for i in (1, 2, 3)]
    gens = [ev(eng, eng._layer_letters(f)) for f in (0, 1, 2)]
    assert gens[0] == ev(eng, e[0])
    assert gens[1] == ev(eng, e[0] + e[1])
    assert ev(eng, G(1) + GS(1, -1), gens[2]) == ev(eng, e[0] + e[1] + e[2])


@pytest.mark.parametrize("spec", ["generic", "delta-zero"])
def test_root_relation_identity(spec):
    # the root relation of the block rests on e^f g_1 ... g_f e^f =
    # rho^f e^f, which holds with delta = 0, where e^f e^f = 0
    eng = build_engine(3, 3, spec)
    for f in (1, 2):
        ef = ev(eng, eng.ecap_letters(f))
        x_f = ev(eng, [(g_tok(k), 1) for k in range(1, f + 1)], ef)
        assert ev(eng, eng.ecap_letters(f), x_f) \
            == scale(eng, ef, eng.field.raw_pow(eng.field.rho, f))
        assert (not ev(eng, eng.ecap_letters(f), ef)) \
            == (spec == "delta-zero")


@pytest.fixture(scope="module")
def block22():
    return build_engine(2, 2, GEN, layer=1)


def test_layer_zero_block_is_an_algebra():
    # the layer-0 block is the algebra H_2 (x) H_2: g_1^2 = qdiff g_1 + 1,
    # and sigma acts on it
    quo = build_engine(2, 2, GEN, layer=0)
    g1 = ev(quo, G(1))
    assert product(quo, g1, g1) == quo.field.vec_iaxpy(
        scale(quo, g1, quo.field.qdiff), GEN.one, {0: GEN.one})
    assert sigma(quo, g1) == g1


def test_block_refuses_sigma(block22):
    with pytest.raises(EngineError, match="right module"):
        sigma(block22, ev(block22, E))


def test_layer_quotient_is_not_serialized(b22):
    quo = build_engine(2, 2, GEN, layer=1)
    with pytest.raises(EngineError, match="quotient"):
        engine_to_json(quo)


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
    """A vector with up to four terms whose coefficients are Laurent
    polynomials with small exponents and coefficients."""
    terms = {}
    for i in draw(st.lists(st.integers(0, eng.dim - 1), max_size=4,
                           unique=True)):
        lp = draw(st.dictionaries(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
            st.integers(-3, 3), min_size=1, max_size=2))
        terms[i] = GEN.raw_from_laurent({k: c for k, c in lp.items() if c})
    return {i: c for i, c in terms.items() if not GEN.raw_is_zero(c)}


def _transferred(x, eng):
    moved = {i: transfer_from_generic(c, eng.field) for i, c in x.items()}
    return {i: c for i, c in moved.items() if not eng.field.raw_is_zero(c)}


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_transfer_commutes_with_products(b22, b22_images, data):
    x, y = data.draw(small_elements(b22)), data.draw(small_elements(b22))
    for eng in b22_images:
        assert eng.basis_words == b22.basis_words
        assert _transferred(product(b22, x, y), eng) == product(
            eng, _transferred(x, eng), _transferred(y, eng))
