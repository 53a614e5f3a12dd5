"""Tests for the cell structure layer."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from qwalled.combinat import Bipartition, count_std, labels
from qwalled.engine import E_TOK, build_engine, sigma
from qwalled.groundfield import (
    GenericField,
    LaurentPoly,
    OneVarField,
    PrimeField,
    transfer_from_generic,
)
from qwalled.cellular import (
    CellularError,
    anchor_label,
    basis_labels,
    cell_label,
    cell_labels,
    cell_module,
    cellular_basis,
    cellular_data,
    cellular_factors,
    evaluate_factors,
    gram_determinant,
    gram_matrix,
    gram_to_csv,
    gram_to_json,
    gram_via_truncation,
    label_symmetrizers,
    laurent_unit_split,
    module_dimension,
    radical_rank,
    sigma_factors,
    validate_cell_datum,
)

GEN = GenericField()


@pytest.fixture(scope="module")
def b21():
    return build_engine(2, 1, GEN)


@pytest.fixture(scope="module")
def b22():
    return build_engine(2, 2, GEN)


@pytest.fixture(scope="module")
def b32():
    return build_engine(3, 2, GEN)


def _same_matrix(field, a, b):
    zero = field.raw_from_int(0)
    return len(a) == len(b) and all(
        field.raw_eq(ra.get(k, zero), rb.get(k, zero))
        for ra, rb in zip(a, b) for k in set(ra) | set(rb))


@pytest.mark.parametrize("r,s,field", [(2, 2, GEN),
                                       (3, 2, PrimeField(13, 2, 6))])
def test_two_evaluators_agree(r, s, field):
    """Both evaluators of sigma(C_{(u,a) b}) give the same action."""
    eng = build_engine(r, s, field)
    for label in cell_labels(r, s):
        mod = cell_module(eng, label)
        syms = label_symmetrizers(eng, label)
        for b in mod.basis:
            factors = sigma_factors(cellular_factors(
                eng, label, anchor_label(label), b, syms))
            assert _same_matrix(
                field, mod.factors_matrix(factors),
                mod.action_matrix(evaluate_factors(eng, factors)))


@pytest.mark.parametrize("r,s,field", [(2, 2, GEN),
                                       (3, 2, PrimeField(13, 2, 6))])
def test_cellular_element_involution(r, s, field):
    data = cellular_data(build_engine(r, s, field))
    for label, left, right, elem in data.items:
        assert sigma(elem) == data.items[data.index[(label, right, left)]][3]


def test_label_bookkeeping():
    for r, s in [(1, 1), (2, 1), (2, 2), (3, 2), (4, 1)]:
        labs = cell_labels(r, s)
        total = sum(module_dimension(lab, r, s) ** 2 for lab in labs)
        assert total == math.factorial(r + s)
        # fixed linear extension: layers weakly decrease
        fs = [lab.f for lab in labs]
        assert fs == sorted(fs, reverse=True)


def test_cell_label_validation():
    lab = cell_label(2, 1, 1, Bipartition((1,), ()))
    assert lab.f == 1
    with pytest.raises(CellularError):
        cell_label(2, 1, 1, Bipartition((2,), ()))
    with pytest.raises(CellularError):
        cell_label(2, 1, 3, Bipartition((), ()))


def test_basis_small_cases(b21):
    e11 = build_engine(1, 1, GEN)
    items = cellular_basis(e11)
    assert len(items) == 2
    by_f = {lab.f: elem for lab, _, _, elem in items}
    assert by_f[1] == e11.e1()
    assert by_f[0] == e11.one()

    items = cellular_basis(b21)
    assert len(items) == 6
    per_label = {}
    for lab, _, _, _ in items:
        per_label[lab] = per_label.get(lab, 0) + 1
    assert sorted(per_label.values()) == [1, 1, 4]


def test_basis_is_ordered_and_spans(b22):
    items = cellular_basis(b22)
    assert len(items) == 24
    seen = [lab for lab, _, _, _ in items]
    # ordering follows the label list
    order = [lab for lab in cell_labels(2, 2) for _ in
             range(module_dimension(lab, 2, 2) ** 2)]
    assert seen == order


def test_module_dimensions(b21, b22):
    lab = cell_label(2, 1, 1, Bipartition((1,), ()))
    assert cell_module(b21, lab).dim == 2
    for f, lam in labels(2, 2):
        lab = cell_label(2, 2, f, lam)
        mod = cell_module(b22, lab)
        assert mod.dim == module_dimension(lab, 2, 2)
        assert mod.dim == len(basis_labels(2, 2, lab))
        if f == 0:
            assert mod.dim == count_std(lam)


def test_11_module_action():
    e11 = build_engine(1, 1, GEN)
    lab = cell_label(1, 1, 1, Bipartition((), ()))
    mod = cell_module(e11, lab)
    assert mod.dim == 1
    row = mod.token_matrix(E_TOK)[0]
    assert GEN.raw_eq(row[0], GEN.delta().val)
    gram = gram_matrix(mod)
    assert gram[0][0] == GEN.delta()


def test_gram_21_example(b21):
    # [[rho^{-1} delta, 1], [1, rho^{-1} delta + q - q^{-1}]] up to the
    # overall unit rho coming from the basis normalization
    lab = cell_label(2, 1, 1, Bipartition((1,), ()))
    gram = gram_matrix(cell_module(b21, lab))
    q, rho, delta = GEN.q(), GEN.rho(), GEN.delta()
    expected = [[delta / rho, GEN.one()],
                [GEN.one(), delta / rho + q - 1 / q]]
    for i in range(2):
        for j in range(2):
            assert gram[i][j] == rho * expected[i][j]
    det = gram_determinant(cell_module(b21, lab))
    # vanishing locus rho^2 in {q^2, q^-2}
    factored = (q ** 2 - rho ** 2) * (1 - q ** 2 * rho ** 2) \
        / (q * rho * (q - 1 / q)) ** 2
    assert det == factored or det == -factored


def test_gram_symmetric(b22, b32):
    for eng in (b22, b32):
        for lab in cell_labels(eng.r, eng.s):
            gram = gram_matrix(cell_module(eng, lab))
            for i in range(len(gram)):
                for j in range(i):
                    assert gram[i][j] == gram[j][i]


def test_gram_generic_nondegenerate(b21, b22, b32):
    for eng in (b21, b22, b32):
        for lab in cell_labels(eng.r, eng.s):
            mod = cell_module(eng, lab)
            rank, rad = radical_rank(mod)
            assert rad == 0 and rank == mod.dim


def test_gram_choice_independence(b22):
    for lab in cell_labels(2, 2):
        mod = cell_module(b22, lab)
        gram = gram_matrix(mod)
        for anchor in basis_labels(2, 2, lab)[:3]:
            other = cell_module(b22, lab, anchor=anchor)
            gram2 = gram_matrix(other)
            for i in range(mod.dim):
                for j in range(mod.dim):
                    assert gram[i][j] == gram2[i][j]


def test_truncation_path_agrees(b22, b32):
    for eng in (b22, b32):
        for lab in cell_labels(eng.r, eng.s):
            if lab.f >= min(eng.r, eng.s):
                with pytest.raises(CellularError):
                    gram_via_truncation(eng, lab)
                continue
            gram = gram_matrix(cell_module(eng, lab))
            gram2 = gram_via_truncation(eng, lab)
            assert all(gram[i][j] == gram2[i][j]
                       for i in range(len(gram)) for j in range(len(gram)))


def test_truncation_path_specialized():
    fld = OneVarField(1)
    eng = build_engine(2, 2, fld)
    lab = cell_label(2, 2, 1, Bipartition((1,), (1,)))
    gram = gram_matrix(cell_module(eng, lab))
    gram2 = gram_via_truncation(eng, lab)
    n = len(gram)
    assert all(gram[i][j] == gram2[i][j] for i in range(n) for j in range(n))
    # one-sided labels have no truncated picture
    eng = build_engine(2, 1, fld)
    lab = cell_label(2, 1, 1, Bipartition((1,), ()))
    with pytest.raises(CellularError):
        gram_via_truncation(eng, lab)


def test_radical_specialized():
    # rho = q makes the one-arc (2,1) module degenerate
    eng = build_engine(2, 1, OneVarField(1))
    lab = cell_label(2, 1, 1, Bipartition((1,), ()))
    rank, rad = radical_rank(cell_module(eng, lab))
    assert rad >= 1
    # delta = 0 kills the form on the top layer of B_{1,1}
    eng = build_engine(1, 1, OneVarField(0))
    lab = cell_label(1, 1, 1, Bipartition((), ()))
    rank, rad = radical_rank(cell_module(eng, lab))
    assert rank == 0 and rad == 1


def test_validate_cell_datum(b21, b22):
    e11 = build_engine(1, 1, GEN)
    for eng in (e11, b21, b22):
        report = validate_cell_datum(eng)
        assert report["ok"], report["failures"]
        assert report["basis"] and report["involution"] \
            and report["triangular"]


def test_validate_cell_datum_32(b32):
    report = validate_cell_datum(b32, alternate_anchors=3)
    assert report["ok"], report["failures"]


def test_phi_nondegeneracy_transfer():
    # rank(G_{f,lambda}) > 0 iff the layer-zero form of the small algebra
    # is nonzero, for labels with r != s or f < r
    fields = [GEN, OneVarField(1), OneVarField(0), OneVarField(2, -1)]
    for fld in fields:
        for (r, s) in [(2, 1), (2, 2)]:
            eng = build_engine(r, s, fld)
            for lab in cell_labels(r, s):
                if lab.f == r == s:
                    continue
                if lab.f == 0:
                    continue
                rank, _ = radical_rank(cell_module(eng, lab))
                if r - lab.f < 1 or s - lab.f < 1:
                    # one component empty: the small form is a one-sided
                    # Murphy form, nonzero in every field
                    assert rank > 0
                    continue
                small = build_engine(r - lab.f, s - lab.f, fld)
                lab0 = cell_label(r - lab.f, s - lab.f, 0, lab.shape)
                rank0, _ = radical_rank(cell_module(small, lab0))
                assert (rank > 0) == (rank0 > 0)


def test_gram_determinant_denominators_clear(b21, b22):
    # generic determinants live in the base ring: some power of q - q^{-1}
    # clears every denominator
    q = GEN.q()
    for eng in (b21, b22):
        for lab in cell_labels(eng.r, eng.s):
            mod = cell_module(eng, lab)
            det = gram_determinant(mod)
            cleared = False
            for m in range(mod.dim * (lab.f + 1) + 2):
                _, den = GEN.to_laurent_fraction(det * (q - 1 / q) ** m)
                if len(den.terms) == 1:
                    cleared = True
                    break
            assert cleared


def test_transfer_matches_direct():
    lab_args = (2, 1, 1, Bipartition((1,), ()))
    det_gen = gram_determinant(cell_module(build_engine(2, 1, GEN),
                                           cell_label(*lab_args)))
    for fld in (OneVarField(1), OneVarField(3), OneVarField(0, -1)):
        moved = transfer_from_generic(det_gen, fld)
        direct = gram_determinant(cell_module(build_engine(2, 1, fld),
                                              cell_label(*lab_args)))
        assert moved == direct
    assert transfer_from_generic(det_gen, OneVarField(1)).is_zero()
    assert not transfer_from_generic(det_gen, OneVarField(3)).is_zero()


@pytest.fixture(scope="module")
def generic_dets(b22):
    """The generic Gram determinants at (2, 2) and (3, 1), by label."""
    return {(eng.r, eng.s): {lab: gram_determinant(cell_module(eng, lab))
                             for lab in cell_labels(eng.r, eng.s)}
            for eng in (b22, build_engine(3, 1, GEN))}


@st.composite
def special_fields(draw):
    if draw(st.booleans()):
        p = draw(st.sampled_from([7, 11, 13, 101]))
        # q != +-1, so q - q^{-1} is invertible
        return PrimeField(p, draw(st.integers(2, p - 2)),
                          draw(st.integers(1, p - 1)))
    return OneVarField(draw(st.integers(-3, 3)), draw(st.sampled_from([1, -1])))


@settings(max_examples=12, deadline=None)
@given(field=special_fields())
def test_transfer_matches_gram_determinant(generic_dets, field):
    for (r, s), dets in generic_dets.items():
        eng = build_engine(r, s, field)
        for lab, det in dets.items():
            assert transfer_from_generic(det, field) \
                == gram_determinant(cell_module(eng, lab))


def test_transfer_normalizes_once(generic_dets, b32, monkeypatch):
    dets = [det for by_label in generic_dets.values()
            for det in by_label.values()]
    # (3, 2) adds numerators past the lazy-reduction threshold of 24 terms
    dets += [gram_determinant(cell_module(b32, lab))
             for lab in cell_labels(3, 2)]
    calls = []
    reduce_raw = OneVarField.reduce_raw

    def counting_reduce(self, v):
        calls.append(v)
        return reduce_raw(self, v)

    monkeypatch.setattr(OneVarField, "reduce_raw", counting_reduce)
    sizes = set()
    for det in dets:
        sizes.add(len(GEN.to_laurent_fraction(det)[0].terms))
        calls.clear()
        transfer_from_generic(det, OneVarField(3, -1))
        assert len(calls) == 1
    # the count does not grow with the determinant's term count
    assert len(sizes) > 5 and max(sizes) > 100


def test_exports(b21):
    lab = cell_label(2, 1, 1, Bipartition((1,), ()))
    mod = cell_module(b21, lab)
    js = gram_to_json(mod)
    assert gram_to_json(mod) == js
    data = json.loads(js)
    assert data["dim"] == 2 and len(data["entries"]) == 2
    csv = gram_to_csv(mod)
    assert csv.count("\n") == 2
    unit, prim = laurent_unit_split(LaurentPoly({(-2, 0): 2, (1, 0): -4}))
    assert unit == {"coeff": -2, "q_power": -2}
    assert prim == LaurentPoly({(0, 0): -1, (3, 0): 2})


def test_quotient_engine_rejected():
    from qwalled.engine import AlgebraEngine
    one = GEN.raw_from_int(1)
    quo = AlgebraEngine(2, 1, GEN, extra_relations=[[(one, (E_TOK,))]],
                        expected_dim=2)
    with pytest.raises(CellularError):
        cellular_basis(quo)
