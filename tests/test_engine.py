"""Tests for the walled Brauer algebra engine."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from paper_checks import product
from qwalled import groundfield
from qwalled.cellular import (
    cell_labels,
    cell_module,
    cellular_data,
    coset_letters,
    gram_determinant,
)
from qwalled.combinat import coset_count, coset_reps
from qwalled.engine import (
    AlgebraEngine,
    E_TOK,
    INV,
    EngineError,
    act,
    build_engine,
    central_element,
    defining_identities,
    engine_from_json,
    engine_to_json,
    evaluate_factors,
    g_tok,
    gs_tok,
    inv_letters,
    layer_dimension,
    sigma,
    verify_relations,
)
from qwalled.groundfield import (
    Field,
    GenericField,
    OneVarField,
    PrimeField,
    RationalField,
    fields_from_spec,
    transfer_from_generic,
)
from qwalled.linalg import Echelon

GEN = GenericField()
E = [E_TOK]


def G(i):
    return [g_tok(i)]


def GS(j):
    return [gs_tok(j)]


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
    assert ev(b22, G(1) + inv_letters(G(1))) == one
    assert ev(b22, GS(1) + inv_letters(GS(1))) == one
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
    assert ev(b22, e1 + e2) == ev(b22, e1 + G(1) + inv_letters(GS(1)) + e1)

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
    eng = build_engine(2, 2, PrimeField(13, 2, 6))
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
    relation of the source engine.  A relation word keeps its inverse
    letters: the image of g^-1 = g - (q - q^{-1}) is the image of g minus
    qdiff times the vector."""
    field = target.field
    for rel in source.relations:
        total = {}
        for coeff, word in rel:
            prod = {0: field.one}
            for tok in word:
                base = tok.removesuffix(INV)
                step = product(target, prod, image[base])
                if base != tok:
                    field.vec_iaxpy(step, field.raw_neg(field.qdiff), prod)
                prod = step
            field.vec_iaxpy(total, coeff, prod)
        if total:
            return False
    return True


def test_subalgebra_maps(b22):
    # level 1: the shifted copy of B_{1,1}, the copy of B_{1,2} with e_1
    # conjugated by g_1, and the Hecke quotient H_1 (x) H_1 of B_{1,1}
    assert _transports(build_engine(1, 1, GEN), b22,
                       {E_TOK: ev(b22, b22.e_ij_letters(2, 2))})
    assert _transports(build_engine(1, 2, GEN), b22,
                       {E_TOK: ev(b22, inv_letters(G(1)) + E + G(1)),
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
    eng2 = engine_from_json(js, 2, 2, GEN)
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
    eng = build_engine(2, 2, fields_from_spec(spec)[0])
    js = engine_to_json(eng)
    loaded = engine_from_json(js, 2, 2, eng.field)
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
    engine_from_json(js, 3, 2, GEN)
    assert sorted(parsed) == sorted(texts)
    assert len(parsed) == 20


@pytest.mark.parametrize("change,key", [
    ({"schema_version": 999}, (2, 2, GEN)),
    ({}, (3, 1, GEN)),
    ({}, (2, 3, GEN)),
    ({}, (2, 2, OneVarField(1))),
    ({"dim": 25}, (2, 2, GEN)),
    (None, (2, 2, GEN)),
], ids=["schema", "r", "s", "field", "dim", "not-json"])
def test_json_schema_guard(b22, change, key):
    # the loader is the one judge of a cache file's text: it refuses a
    # schema, r, s, field spec or dim (here not (r+s)!) other than the
    # ones asked for, and text that is not JSON
    import json
    js = engine_to_json(b22)
    assert engine_from_json(js, 2, 2, GEN).dim == 24
    text = "not json" if change is None \
        else json.dumps(dict(json.loads(js), **change))
    with pytest.raises(EngineError):
        engine_from_json(text, *key)


def test_inverse_tokens_undo_their_generators(b32):
    # t^-1 = t - (q - q^{-1}) undoes t on every basis vector, on either
    # side, and inverting twice gives the word back
    for tok in b32.tokens:
        if tok == E_TOK:
            continue
        inv = inv_letters([tok])
        assert inv_letters(inv) == [tok]
        for i in range(b32.dim):
            x = {i: GEN.one}
            assert ev(b32, [tok] + inv, x) == x
            assert ev(b32, inv + [tok], x) == x


def test_errors(b22):
    with pytest.raises(EngineError, match="not invertible"):
        ev(b22, inv_letters(E))
    with pytest.raises(EngineError):
        b22.e_ij_letters(3, 1)
    with pytest.raises(EngineError):
        build_engine(0, 1, GEN)
    for layer in (-1, 3):
        with pytest.raises(EngineError, match="layer"):
            build_engine(2, 2, GEN, layer=layer)


def test_relation_collapsing_the_identity(monkeypatch):
    # with g_1 = 1 the quadratic relation of g_1 reads q - q^{-1} = 0, so
    # the identity state is zero and the closure refuses
    import qwalled.engine

    def with_g1_one(engine):
        one = engine.field.one
        return defining_identities(engine) \
            + [("extra", [(one, [g_tok(1)])], [(one, [])])]
    monkeypatch.setattr(qwalled.engine, "defining_identities", with_g1_one)
    with pytest.raises(EngineError, match="collapse the identity"):
        build_engine(2, 1, PrimeField(13, 2, 6))


def test_dimension_mismatch(monkeypatch):
    # a block is checked against layer_dimension(r, s, f); the full
    # algebra against (r+s)! alone
    import qwalled.engine
    monkeypatch.setattr(qwalled.engine, "layer_dimension",
                        lambda r, s, f: 7)
    with pytest.raises(EngineError, match="closure dimension 2, expected 7"):
        AlgebraEngine(2, 1, GEN, layer=1)
    full = AlgebraEngine(2, 1, GEN)
    assert full.dim == 6 and full.layer is None


def test_quotient_closure():
    # adding e_1 = 0 yields the product of two Hecke algebras
    quo = build_engine(2, 2, GEN, layer=0)
    assert quo.dim == 4
    assert not ev(quo, E)
    assert all(ok for _, ok in verify_relations(quo))


@pytest.mark.parametrize("r,s", [(1, 1), (2, 1), (2, 2), (3, 2), (2, 3),
                                 (3, 3), (4, 2)])
def test_layer_quotient_dimensions(r, s):
    # the engine of layer f is the block e^f B/J_{f+1}, of dimension
    # |D^f| (r-f)! (s-f)!; at the top layer f = min(r, s), J_{f+1} = 0 and
    # the block is e^f B, which has no presentation here when r = s
    top = min(r, s)
    field = PrimeField(13, 2, 6)
    for f in range(top + 1):
        assert layer_dimension(r, s, f) == coset_count(r, s, f) \
            * math.factorial(r - f) * math.factorial(s - f)
        if f == top and r == s:
            with pytest.raises(EngineError, match="no block"):
                build_engine(r, s, field, layer=f)
        elif r + s <= 6:
            quo = build_engine(r, s, field, layer=f)
            assert quo.layer == f
            assert quo.dim == layer_dimension(r, s, f)


@pytest.fixture(scope="module")
def b33p():
    return build_engine(3, 3, PrimeField(13, 2, 6))


def test_layer_generator_is_e_power(b33p):
    # the generator of J_{f+1} is e^{f+1} up to a unit on the right:
    # e_1, e_1 e_2, and e_1 e_2 e_3 (g_1 g*_1^{-1})^{-1}
    eng = b33p
    e = [eng.e_ij_letters(i, i) for i in (1, 2, 3)]
    gens = [ev(eng, eng._layer_letters(f)) for f in (0, 1, 2)]
    assert gens[0] == ev(eng, e[0])
    assert gens[1] == ev(eng, e[0] + e[1])
    assert ev(eng, G(1) + inv_letters(GS(1)), gens[2]) \
        == ev(eng, e[0] + e[1] + e[2])


def test_ecap_letters_is_e_power(b33p):
    # the word of e^f by tool.d.1 is the product e_{1,1} ... e_{f,f}
    eng = b33p
    e = [eng.e_ij_letters(i, i) for i in (1, 2, 3)]
    assert eng.ecap_letters(0) == []
    for f in (1, 2, 3):
        assert ev(eng, eng.ecap_letters(f)) \
            == ev(eng, [x for word in e[:f] for x in word])


@pytest.mark.parametrize("spec", ["generic", "delta-zero"])
def test_root_relation_identity(spec):
    # the root relation of the block rests on e^f g_1 ... g_f e^f =
    # rho^f e^f, which holds with delta = 0, where e^f e^f = 0
    eng = build_engine(3, 3, fields_from_spec(spec)[0])
    for f in (1, 2):
        ef = ev(eng, eng.ecap_letters(f))
        x_f = ev(eng, [g_tok(k) for k in range(1, f + 1)], ef)
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


# SHA-256 of the closure's basis words and action table (_closure_digest),
# keyed (r, s, spec) for the full algebra and (r, s, spec, f) for the
# block of layer f.  Full engines were recorded from the closure without
# the prefix memo, when relation words first kept their inverse letters;
# blocks from the closure that evaluated relations through a per-state
# memo of word tuples.  Closure order decides basis words, so the pins
# hold it fixed
CLOSURE_PINS = {
    (3, 2, "gfp:13,2,6"):
        "ed5781c1e4b76ea6ad7b0393a21a5ddef8972267cf20152bdb05e009ecb73c05",
    (3, 2, "generic"):
        "8229c75af0851acdb4b79802d539a500f668d4da335d83494f8f3ec47d9ac7c0",
    (2, 2, "q-power:1"):
        "d4d18424f289dd7970c67bc85f59fd3a3dcc3d74fa44b7feefe160feafec5b49",
    # the blocks that gfp-large, generic-session and sweep close
    (4, 3, "gfp:13,2,6", 1):
        "cef37205f19c26f792009e50c00fe9afec6355b25dc11ebdc4bd67f2e256058e",
    (3, 2, "generic", 0):
        "5a64a11ec107f3d5d17ea053231fedcb315dbf155b2e39fd38e420ff3c407532",
    (3, 2, "generic", 1):
        "605770a48803b372a56dc29833548532e6ecba2fa314dc79abca4b71da2a0b4e",
    (3, 2, "generic", 2):
        "5b4286ce1c80ad68f6fd17788c6e4c22e62addd77a516ad48411902ab5cea6b2",
}
PINNED_BLOCKS = sorted(key for key in CLOSURE_PINS if len(key) == 4)


@pytest.mark.parametrize("r,s,spec", sorted(key for key in CLOSURE_PINS
                                            if len(key) == 3))
def test_closure_output_pinned(r, s, spec, b32):
    eng = b32 if (r, s, spec) == (3, 2, "generic") \
        else build_engine(r, s, fields_from_spec(spec)[0])
    assert _closure_digest(eng) == CLOSURE_PINS[(r, s, spec)]


@pytest.mark.parametrize("r,s,spec,f", PINNED_BLOCKS)
def test_block_closure_output_pinned(r, s, spec, f):
    eng = build_engine(r, s, fields_from_spec(spec)[0], layer=f)
    assert _closure_digest(eng) == CLOSURE_PINS[(r, s, spec, f)]


def _closure_digest(eng):
    """The full algebra's engine_to_json; a block, which has no serialized
    form, as its basis words and its action table of (i, k, text)
    triplets by token."""
    import hashlib
    import json
    if eng.layer is None:
        text = engine_to_json(eng)
    else:
        to_text = eng.field.to_text
        table = {tok: [[i, k, to_text(row[k])] for i in range(eng.dim)
                       for row in [eng.act_table[(i, tok)]]
                       for k in sorted(row)]
                 for tok in eng.tokens}
        text = json.dumps({"basis_words": eng.basis_words, "act": table},
                          sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("r,s,spec,f", PINNED_BLOCKS)
def test_block_satisfies_the_algebra_identities(r, s, spec, f):
    # verify_relations needs an algebra: on a block, check the module
    # against the identities themselves, through act at every basis vector
    eng = build_engine(r, s, fields_from_spec(spec)[0], layer=f)
    field = eng.field
    units = [{i: field.one} for i in range(eng.dim)]
    for name, lhs, rhs in defining_identities(eng):
        assert all(evaluate_factors(eng, [lhs], x)
                   == evaluate_factors(eng, [rhs], x) for x in units), name
    # J_{f+1}, generated by e^{f+1}, is zero in the block
    if f < min(r, s):
        assert all(act(eng, x, eng.ecap_letters(f + 1)) == {} for x in units)
    # x_f = rho^f at the identity: x_f = e^f g_1 ... g_f, the g* at f = r
    tok = gs_tok if f == r else g_tok
    x_f = eng.ecap_letters(f) + [tok(i) for i in range(1, f + 1)]
    assert act(eng, units[0], x_f) == {0: field.raw_pow(field.rho, f)}


def _interned_pipeline(field):
    """A (3, 2) closure over the field, its cellular data and the Gram
    determinants of its f = 1 labels, closed from the full engine."""
    eng = build_engine(3, 2, field)
    cellular_data(eng)
    dets = [field.to_text(gram_determinant(cell_module(eng, lab)))
            for lab in cell_labels(3, 2) if lab.f == 1]
    return eng, dets


def _table_holds(field):
    """Whether every interned value still matches its key, and every
    memoized sum and product is still its operands' sum and product."""
    return all(key == (frozenset(v[0].items()), v[1], v[2])
               for key, v in field._values.items()) \
        and all(out == groundfield._add(a, b)
                for a, b, out in field._sums.values()) \
        and all(out == groundfield._mul(a, b)
                for a, b, out in field._products.values())


def test_interned_values_are_never_mutated(monkeypatch):
    # the memos trust the operands' identities, so a numerator dict that
    # changed after it was interned would corrupt every later sum and
    # product taken with it
    field = GenericField()
    eng, dets = _interned_pipeline(field)
    assert _table_holds(field)
    size = len(field._values)
    assert _closure_digest(eng) == CLOSURE_PINS[(3, 2, "generic")]
    # past a small cap each table is cleared and fills again: the same
    # engine and determinants, from tables that never exceed it
    cap = 64
    assert size > 10 * cap
    monkeypatch.setattr(groundfield, "TABLE_MAX", cap)
    capped = GenericField()
    eng, capped_dets = _interned_pipeline(capped)
    assert capped_dets == dets
    assert _closure_digest(eng) == CLOSURE_PINS[(3, 2, "generic")]
    assert 0 < len(capped._values) \
        and len(capped._values) + len(capped._sums) \
        + len(capped._products) <= cap
    assert _table_holds(capped)


def test_function_field_kernel_leaves_the_tables_of_the_base_kernel(
        monkeypatch):
    # the function fields' vec_iaxpy reads memo hits inline and calls
    # raw_mul and raw_add on a miss: it removes call overhead only, so the
    # tables (under the default cap, never cleared here) hold what
    # Field.vec_iaxpy leaves in them
    def tables(field):
        _interned_pipeline(field)
        return (field._held, len(field._sums), len(field._products),
                set(field._values))

    fast = tables(GenericField())
    monkeypatch.setattr(groundfield._FunctionField, "vec_iaxpy",
                        Field.vec_iaxpy)
    assert tables(GenericField()) == fast


@pytest.mark.parametrize("r,s,calls", [(3, 2, 4224), (2, 2, 602)])
@pytest.mark.parametrize("spec", ["gfp:13,2,6", "q-power:1"])
def test_closure_applies_each_prefix_once(r, s, calls, spec, monkeypatch):
    # each node of the relations' prefix tree is applied at most once per
    # state, and imposing a coincidence re-applies through the same step;
    # without shared prefixes the closure makes 6,984 and 986
    # applications.  The count does not depend on the field
    count = [0]
    apply_build = AlgebraEngine._apply_build

    def counting(self, *args):
        count[0] += 1
        return apply_build(self, *args)

    monkeypatch.setattr(AlgebraEngine, "_apply_build", counting)
    build_engine(r, s, fields_from_spec(spec)[0])
    assert count[0] == calls


def test_max_states_guard():
    with pytest.raises(EngineError, match="exceeded 200 states"):
        AlgebraEngine(3, 2, PrimeField(13, 2, 6), max_states=200)
    with pytest.raises(EngineError, match="exceeded 100 states"):
        build_engine(3, 3, PrimeField(13, 2, 6), layer=1, max_states=100)


def test_block_closure_size_guard():
    # the (4, 3) block of layer 1 creates 1,298 states to keep 144
    with pytest.raises(EngineError, match="exceeded 1000 states"):
        build_engine(4, 3, PrimeField(13, 2, 6), layer=1, max_states=1000)


@pytest.mark.parametrize("r,s,dim", [(4, 3, 24), (5, 3, 120), (4, 4, 96)])
def test_layer_three_block_closes(r, s, dim):
    # relation words keep their inverse letters, which the closure applies
    # as act does.  These blocks create 987, 2,323 and 13,933 states, all
    # under the default cap of their algebra, max(200, 50 (r+s)!); the
    # (4, 4) block would exceed 50 times its own dimension, 4,800
    eng = build_engine(r, s, PrimeField(13, 2, 6), layer=3)
    assert eng.dim == dim == layer_dimension(r, s, 3)


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
    return [build_engine(2, 2, field)
            for field in (PrimeField(13, 2, 6), OneVarField(1))]


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
