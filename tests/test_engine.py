"""Tests for the walled Brauer algebra engine."""

import math
import random

import pytest

from qwalled.combinat import coset_reps
from qwalled.engine import (
    AlgebraEngine,
    E_TOK,
    EngineError,
    build_engine,
    central_element,
    engine_from_json,
    engine_to_json,
    g_tok,
    gs_tok,
    multiply,
    sigma,
    special_elements,
    subalgebra_maps,
    token_from_text,
    token_text,
    verify_relations,
)
from qwalled.groundfield import (
    GenericField,
    OneVarField,
    PrimeField,
    RationalField,
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
    assert e1 * b22.g_el(1) * e1 == e1.scale(GEN.rho())
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
    assert sigma(b22.e_cap(2)) == b22.e_cap(2)
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
    sp = special_elements(b22)
    assert sp[("e", 1, 1)] == b22.e1()
    et, f21 = sp[("etilde12",)], sp[("f21",)]
    assert et * et == et
    assert f21 * f21 == f21
    assert sp[("e", 1)] * sp[("e", 2)] == sp[("e", 2)] * sp[("e", 1)]
    assert sp[("ecap", 0)] == b22.one()
    assert sp[("ecap", 2)] == sp[("e", 1)] * sp[("e", 2)]
    for f in (0, 1, 2):
        for rep in coset_reps(2, 2, f):
            assert ("gd", rep) in sp
    identity_rep = coset_reps(2, 2, 0)[0]
    assert sp[("gd", identity_rep)] == b22.one()


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


def test_subalgebra_maps(b22):
    maps = subalgebra_maps(b22, 1)
    assert maps["shift"]["verified"]
    assert maps["conjugate"]["verified"]
    hq = maps["hecke_quotient"]
    assert hq["kills_e"] and hq["verified"]
    # f = r = s: the level subalgebra degenerates to the scalars
    top = subalgebra_maps(b22, 2)
    assert top["shift"]["verified"]
    with pytest.raises(EngineError):
        subalgebra_maps(b22, 3)


def test_subalgebra_maps_hecke_quotient_dim(b32):
    hq = subalgebra_maps(b32, 1)["hecke_quotient"]
    assert hq["dim"] == math.factorial(2) * math.factorial(1)


def test_swap_isomorphism():
    # g_i <-> g*_i, e_1 -> e_1 transports all relations to the (s,r) engine
    for (r, s) in [(2, 1), (2, 2), (3, 2)]:
        eng = build_engine(r, s, GEN)
        other = build_engine(s, r, GEN)
        image = {E_TOK: other.e1()}
        for i in range(1, r):
            image[g_tok(i)] = other.gs_el(i)
        for j in range(1, s):
            image[gs_tok(j)] = other.g_el(j)
        for rel in eng.relations:
            total = other.zero()
            for coeff, word in rel:
                prod = other.one()
                for tok in word:
                    prod = prod * image[tok]
                total = total + prod.scale(coeff)
            assert total.is_zero()


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
        assert all(right.contains(v) for v in left.rows.values())


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
        AlgebraEngine(2, 1, GEN, expected_dim=7)
    with pytest.raises(EngineError):
        build_engine(0, 1, GEN)


def test_quotient_closure():
    # adding e_1 = 0 yields the product of two Hecke algebras
    one = GEN.raw_from_int(1)
    quo = AlgebraEngine(2, 2, GEN, extra_relations=[[(one, (E_TOK,))]],
                        expected_dim=4)
    assert quo.dim == 4
    assert quo.e1().is_zero()
    assert all(ok for _, ok in verify_relations(quo))


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
