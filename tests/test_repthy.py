"""Tests for the representation-theory layer."""

import functools

import pytest
from hypothesis import example, given, settings, strategies as st

from paper_checks import module_matrix, module_row, product
from qwalled.combinat import Bipartition, nodes_removable
from qwalled.cellular import (
    CellLabel,
    cell_label,
    cell_labels,
    cell_module,
    gram_determinant,
    gram_determinant_fraction,
    radical_rank,
)
from qwalled.engine import (
    E_TOK,
    act,
    build_engine,
    central_element,
    evaluate_factors,
    g_tok,
    gs_tok,
    sigma,
)
from qwalled.groundfield import (
    FieldError,
    GenericField,
    OneVarField,
    PrimeField,
    RationalField,
    transfer_from_generic,
    vanishes_under,
)
from qwalled.linalg import Echelon
from qwalled.repthy import (
    CentralCharacter,
    RepError,
    SemisimplicityVerdict,
    _y_alpha,
    _z_beta,
    branching_check,
    branching_sections,
    central_character,
    central_scalar,
    classify_simples,
    gram_singular_labels,
    is_quasi_hereditary,
    semisimplicity,
)

GEN = GenericField()

# one engine per (r, s, field) for the whole module
engine = functools.lru_cache(maxsize=None)(build_engine)


def lab(r, s, f, first, second):
    return cell_label(r, s, f, Bipartition(first, second))


def test_central_scalar_examples():
    assert central_scalar(lab(1, 1, 1, (), ()), GEN) == GEN.delta()
    assert GEN.raw_is_zero(central_scalar(lab(1, 1, 0, (1,), (1,)), GEN))
    assert central_scalar(lab(2, 1, 0, (2,), (1,)), GEN) \
        == GEN.raw_div(GEN.q, GEN.rho)


def test_central_scalar_box_contents():
    # removing one box from a label moves its central scalar by -rho^{-1}
    # (first component) or -rho (second) times the box's content scalar
    f = GEN

    def box_scalar(shape, smaller):
        diff = f.raw_sub(central_scalar(CellLabel(0, Bipartition(*shape)), f),
                         central_scalar(CellLabel(0, Bipartition(*smaller)),
                                        f))
        weight = f.rho if shape[1] == smaller[1] else f.raw_div(f.one, f.rho)
        return f.raw_neg(f.raw_mul(weight, diff))

    assert f.raw_is_zero(box_scalar(((1,), ()), ((), ())))
    assert f.raw_is_zero(box_scalar(((), (2, 2)), ((), (2, 1))))
    assert box_scalar(((2,), ()), ((1,), ())) == f.raw_neg(f.q)
    assert box_scalar(((), (2,)), ((), (1,))) == f.raw_neg(f.raw_pow(f.q, -1))
    # first component at content k: (1 - q^{2k}) / (q - q^{-1})
    k = 3
    expect = f.raw_div(f.raw_sub(f.one, f.raw_pow(f.q, 2 * k)),
                       f.raw_sub(f.q, f.raw_pow(f.q, -1)))
    assert box_scalar(((1 + k,), ()), ((k,), ())) == expect


def test_central_character_verifies_action():
    fields = [GEN, OneVarField(1), RationalField(2, 3)]
    for field in fields:
        for r, s in [(1, 1), (2, 1)]:
            for label in cell_labels(r, s):
                cc = central_character(cell_module(engine(r, s, field), label))
                assert isinstance(cc, CentralCharacter)
                assert cc.scalar == central_scalar(label, field)
    # one bigger case over the generic field
    for label in cell_labels(2, 2):
        central_character(cell_module(engine(2, 2, GEN), label))


def test_central_element_subrange_is_central():
    one = {0: GEN.one}

    def commutes(eng, c, letters):
        return act(eng, c, letters) == product(eng, act(eng, one, letters), c)

    eng = engine(2, 2, GEN)
    c = evaluate_factors(eng, [central_element(eng, 1, 2)], one)
    assert commutes(eng, c, [gs_tok(1)])
    assert commutes(eng, c, [E_TOK])
    assert sigma(eng, c) == c
    eng32 = engine(3, 2, GEN)
    c = evaluate_factors(eng32, [central_element(eng32, 2, 2)], one)
    for tok in (g_tok(1), gs_tok(1), E_TOK):
        assert commutes(eng32, c, [tok])


def test_central_character_refuses_a_zero_action(monkeypatch):
    # a row that lacks its diagonal entry is no scalar action: an action
    # matrix of zero rows must not pass for a nonzero scalar
    from qwalled.cellular import CellModule
    label = lab(2, 1, 1, (1,), ())
    assert not GEN.raw_is_zero(central_scalar(label, GEN))
    monkeypatch.setattr(CellModule, "factors_matrix",
                        lambda self, factors: [{} for _ in range(self.dim)])
    with pytest.raises(RepError, match="not scalar"):
        central_character(cell_module(engine(2, 1, GEN), label))


def test_central_scalars_separate_labels():
    for r, s in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]:
        scalars = [central_scalar(label, GEN) for label in cell_labels(r, s)]
        for i, a in enumerate(scalars):
            assert a not in scalars[i + 1:]


def test_classify_simples():
    got = classify_simples(1, 1, GEN)
    assert got == [lab(1, 1, 1, (), ()), lab(1, 1, 0, (1,), (1,))]
    # delta = 0 at r = s drops the top layer
    got = classify_simples(1, 1, OneVarField(0))
    assert got == [lab(1, 1, 0, (1,), (1,))]
    # finite quantum characteristic drops non-restricted shapes
    field = PrimeField(5, 2, 2)
    assert field.quantum_characteristic() == 2
    got = classify_simples(2, 1, field)
    assert lab(2, 1, 0, (2,), (1,)) not in got
    assert lab(2, 1, 0, (1, 1), (1,)) in got
    assert lab(2, 1, 1, (1,), ()) in got


def test_classify_simples_matches_gram_ranks():
    fields = [GEN, OneVarField(1), OneVarField(0), OneVarField(2, -1),
              PrimeField(5, 2, 2)]
    for field in fields:
        for r, s in [(1, 1), (2, 1), (2, 2), (3, 1)]:
            eng = engine(r, s, field)
            simple = set(classify_simples(r, s, field))
            positive = {label for label in cell_labels(r, s)
                        if radical_rank(cell_module(eng, label))[0] > 0}
            assert simple == positive, (field, r, s)


def test_quasi_hereditary():
    assert is_quasi_hereditary(2, 1, GEN)
    assert is_quasi_hereditary(2, 2, GEN)
    assert not is_quasi_hereditary(2, 2, OneVarField(0))
    assert is_quasi_hereditary(2, 1, OneVarField(0))
    assert not is_quasi_hereditary(2, 1, PrimeField(5, 2, 2))


def test_semisimplicity_closed_form():
    v = semisimplicity(2, 1, OneVarField(5))
    assert v.verdict and v.reason == "generic"
    v = semisimplicity(2, 1, OneVarField(1))
    assert not v.verdict and v.reason == "rho-power coincidence"
    v = semisimplicity(2, 1, OneVarField(0))
    assert v.verdict and v.reason == "delta-zero exceptional list"
    v = semisimplicity(2, 2, OneVarField(0))
    assert not v.verdict
    v = semisimplicity(2, 1, PrimeField(5, 2, 2))
    assert not v.verdict and v.reason == "quantum characteristic too small"
    with pytest.raises(RepError):
        semisimplicity(2, 1, GEN, mode="bogus")


def test_semisimplicity_grid_both_modes():
    # rho^2 = q^{2a} sweep, both signs, two past the criterion bound
    for r, s in [(2, 1), (2, 2)]:
        bound = r + s - 2
        for a in range(-(r + s), r + s + 1):
            for sign in (1, -1):
                field = OneVarField(a, sign)
                v = semisimplicity(r, s, field, mode="both",
                                   generic=lambda f: engine(r, s, GEN))
                assert isinstance(v, SemisimplicityVerdict)
                if field.raw_is_zero(field.delta()):
                    expected = (r, s) in {(1, 2), (2, 1), (1, 3), (3, 1)}
                else:
                    expected = abs(a) > bound
                assert v.verdict == expected, (r, s, a, sign)
                if not v.verdict:
                    assert v.witnesses


def test_semisimplicity_grid_32():
    for a in range(-5, 6):
        for sign in (1, -1):
            field = OneVarField(a, sign)
            v = semisimplicity(3, 2, field, mode="both",
                               generic=lambda f: engine(3, 2, GEN))
            if field.raw_is_zero(field.delta()):
                assert not v.verdict
            else:
                assert v.verdict == (abs(a) > 3), (a, sign)


def test_semisimplicity_witness_example():
    v = semisimplicity(2, 1, OneVarField(1), mode="gram",
                       generic=lambda f: engine(2, 1, GEN))
    assert v.witnesses == (lab(2, 1, 1, (1,), ()),)


def test_gram_singular_labels_fallback():
    # rational points exercise the generic-transfer path with exact values
    field = RationalField(2, 2)  # rho = q, inside the coincidence band
    bad = gram_singular_labels(2, 1, lambda f: engine(2, 1, GEN), field)
    assert bad == [lab(2, 1, 1, (1,), ())]
    assert gram_singular_labels(2, 1, lambda f: engine(2, 1, GEN), GEN) == []


def test_gram_singular_labels_needs_generic_engines():
    # the engine of each layer must be over Q(q, rho) and of the same (r, s)
    for wrong in (engine(2, 1, PrimeField(13, 2, 6)), engine(1, 2, GEN)):
        with pytest.raises(RepError, match="generic field"):
            gram_singular_labels(2, 1, lambda f: wrong, GEN)
    with pytest.raises(RepError, match="generic engines"):
        semisimplicity(2, 1, GEN, mode="gram")


def test_gram_singular_labels_blocked_transfer(monkeypatch):
    # at q = 1 the denominator of the f = 1 determinant at (2, 1) vanishes:
    # the FieldError of vanishes_under propagates, and no engine is closed
    import qwalled.engine
    generic = engine(2, 1, GEN)

    def no_closure(self):
        raise AssertionError("closure")

    monkeypatch.setattr(qwalled.engine.AlgebraEngine, "_build", no_closure)
    with pytest.raises(FieldError, match="denominator vanishes"):
        gram_singular_labels(2, 1, lambda f: generic, PrimeField(13, 1, 6))


@st.composite
def points(draw):
    """A q-power, gfp or rational point; a gfp point may have q = +-1,
    where the denominators of the generic determinants vanish."""
    kind = draw(st.sampled_from(["q-power", "gfp", "rational"]))
    if kind == "q-power":
        return OneVarField(draw(st.integers(-5, 5)),
                           draw(st.sampled_from([1, -1])))
    if kind == "gfp":
        p = draw(st.sampled_from([3, 5, 7, 13]))
        return PrimeField(p, draw(st.integers(1, p - 1)),
                          draw(st.integers(1, p - 1)))
    nonzero = st.fractions(min_value=-4, max_value=4,
                           max_denominator=5).filter(bool)
    return RationalField(draw(nonzero.filter(lambda q: q * q != 1)),
                         draw(nonzero))


@settings(max_examples=40, deadline=None)
@given(field=points())
@example(field=PrimeField(13, 1, 6))
@example(field=PrimeField(13, 12, 6))
def test_vanishing_test_matches_transfer(field):
    for r, s in [(2, 2), (3, 1)]:
        generic = engine(r, s, GEN)
        for label in cell_labels(r, s):
            mod = cell_module(generic, label)
            fraction = gram_determinant_fraction(mod)
            try:
                want = field.raw_is_zero(
                    transfer_from_generic(gram_determinant(mod), field))
            except FieldError:
                with pytest.raises(FieldError, match="denominator"):
                    vanishes_under(fraction, field)
                continue
            assert vanishes_under(fraction, field) == want


def test_vanishing_test_raises_where_denominator_vanishes():
    # the (2, 2) f = 1 determinant has denominator rho^4 (q^2 - 1)^4
    det = gram_determinant(cell_module(engine(2, 2, GEN),
                                       lab(2, 2, 1, (1,), (1,))))
    field = PrimeField(13, 1, 6)
    with pytest.raises(FieldError, match="denominator"):
        transfer_from_generic(det, field)
    with pytest.raises(FieldError, match="denominator"):
        vanishes_under(GEN.to_laurent_fraction(det), field)


def test_branching_dimension_example():
    eng = engine(2, 1, GEN)
    rep = branching_check(cell_module(eng, lab(2, 1, 1, (1,), ())))
    assert rep["ok"]
    assert [sec["dim"] for sec in rep["sections"]] == [1, 1]


def test_branching_layer_zero_is_hecke():
    secs = branching_sections(lab(2, 2, 0, (2,), (2,)))
    assert all(kind == "remove" for kind, _, _ in secs)


def test_branching_all_labels():
    for r, s in [(2, 1), (2, 2), (3, 2)]:
        eng = engine(r, s, GEN)
        for label in cell_labels(r, s):
            rep = branching_check(cell_module(eng, label))
            assert rep["ok"], (r, s, label, rep)


def test_branching_specialized_trace():
    eng = engine(2, 2, OneVarField(3))
    for label in cell_labels(2, 2):
        assert branching_check(cell_module(eng, label))["ok"]


@pytest.mark.parametrize("field", [GEN, PrimeField(13, 2, 6), OneVarField(1)],
                         ids=lambda f: f.spec_string())
@pytest.mark.parametrize("r,s", [(3, 2), (2, 3)])
def test_module_actions_match_engine_products(r, s, field):
    """The central matrices and the section-generator rows, taken in the
    cell module from factors, equal the engine products taken to module
    coordinates, for every label."""
    eng = engine(r, s, field)
    for z in (central_element(eng), central_element(eng, r - 1, s)):
        x = evaluate_factors(eng, [z], {0: field.one})
        for label in cell_labels(r, s):
            mod = cell_module(eng, label)
            assert mod.factors_matrix([z]) == module_matrix(mod, x)
    for label in cell_labels(r, s):
        mod = cell_module(eng, label)
        for kind, node, _ in branching_sections(label):
            gen = (_y_alpha if kind == "remove" else _z_beta)(eng, label, node)
            want = module_row(mod, mod.anchor,
                              evaluate_factors(eng, [gen], {0: field.one}))
            assert want
            assert evaluate_factors(
                mod, [gen], {mod.anchor_index: field.one}) == want


def test_branching_generators_act_on_the_anchor_vector(monkeypatch):
    # each section generator acts once, on the anchor's unit vector of the
    # cell module, not on the module's whole basis
    import qwalled.repthy
    eng = engine(3, 2, GEN)
    calls = []
    evaluate = qwalled.repthy.evaluate_factors

    def recording(owner, factors, vec):
        calls.append((owner, factors, vec))
        return evaluate(owner, factors, vec)

    monkeypatch.setattr(qwalled.repthy, "evaluate_factors", recording)
    for label in cell_labels(3, 2):
        del calls[:]
        mod = cell_module(eng, label)
        assert branching_check(mod)["ok"]
        gens = [(_y_alpha if kind == "remove" else _z_beta)(eng, label, node)
                for kind, node, _ in branching_sections(label)]
        assert [factors for _, factors, _ in calls] == [[gen] for gen in gens]
        assert all(owner is mod and vec == {mod.anchor_index: GEN.one}
                   for owner, _, vec in calls)


def test_central_character_on_block_modules():
    # a factor acts on any right module: on the layer-1 block the central
    # element acts on each cell module of layer 1 by its scalar
    block = build_engine(3, 2, PrimeField(13, 2, 6), layer=1)
    for label in cell_labels(3, 2):
        if label.f == 1:
            central_character(cell_module(block, label))


def _detected_hom_is_explained(r, s, source, target, field):
    """A nonzero map C(0, source) -> C(1, target) must remove one node
    per component with rho^2 = q^{2(res1 + res2)}."""
    pairs = []
    for p1 in nodes_removable(source.shape.first):
        for p2 in nodes_removable(source.shape.second):
            if (source.shape.first.remove_node(p1) == target.shape.first
                    and source.shape.second.remove_node(p2)
                    == target.shape.second):
                pairs.append((p1, p2))
    rho2 = field.raw_mul(field.rho, field.rho)
    return any(rho2 == field.raw_pow(
        field.q, 2 * (p1.col - p1.row + p2.col - p2.row)) for p1, p2 in pairs)


def _hom_dimension(engine, source, target):
    """Dimension of the space of module maps C(source) -> C(target),
    computed from the generator intertwining equations."""
    ma = cell_module(engine, source)
    mb = cell_module(engine, target)
    f = engine.field
    d0, d1 = ma.dim, mb.dim
    ech = Echelon(f)
    for tok in engine.tokens:
        for i in range(d0):
            for k in range(d1):
                row = {}
                for m, c in ma.act_table[(i, tok)].items():
                    key = m * d1 + k
                    row[key] = f.raw_add(row.get(key, f.raw_from_int(0)), c)
                for j in range(d1):
                    c = mb.act_table[(j, tok)].get(k)
                    if c is not None:
                        key = i * d1 + j
                        row[key] = f.raw_sub(row.get(key, f.raw_from_int(0)),
                                             c)
                ech.insert(row)
    return d0 * d1 - ech.rank


def test_detected_homs_have_residue_condition():
    points = [OneVarField(1), OneVarField(-1), OneVarField(2),
              OneVarField(1, -1), OneVarField(3)]
    for field in points:
        for r, s in [(2, 1), (2, 2)]:
            eng = engine(r, s, field)
            zeros = [l for l in cell_labels(r, s) if l.f == 0]
            ones = [l for l in cell_labels(r, s) if l.f == 1]
            for src in zeros:
                for dst in ones:
                    if _hom_dimension(eng, src, dst) > 0:
                        assert _detected_hom_is_explained(
                            r, s, src, dst, field), (field, src, dst)


def test_hom_detection_positive_case():
    eng = engine(2, 1, OneVarField(1))
    assert _hom_dimension(eng, lab(2, 1, 0, (2,), (1,)),
                         lab(2, 1, 1, (1,), ())) == 1
    eng = engine(2, 1, OneVarField(5))
    assert _hom_dimension(eng, lab(2, 1, 0, (2,), (1,)),
                         lab(2, 1, 1, (1,), ())) == 0
