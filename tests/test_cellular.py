"""Tests for the cell structure layer."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from paper_checks import module_matrix
from qwalled import groundfield
from qwalled.combinat import Bipartition, count_std, labels
from qwalled.engine import E_TOK, act, build_engine, evaluate_factors, sigma
from qwalled.groundfield import (
    GenericField,
    OneVarField,
    PrimeField,
    fields_from_spec,
    transfer_from_generic,
)
from qwalled.cellular import (
    CellModule,
    CellularError,
    anchor_label,
    basis_labels,
    cell_label,
    cell_labels,
    cell_module,
    cellular_data,
    gram_determinant,
    gram_matrix,
    label_symmetrizers,
    left_factors,
    module_dimension,
    radical_rank,
    right_letters,
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


@pytest.mark.parametrize("r,s,field", [(2, 2, GEN),
                                       (3, 2, PrimeField(13, 2, 6))])
def test_two_evaluators_agree(r, s, field):
    """The action of sigma(C_{(u,a) b}) through the module's act_table
    equals the engine product taken to module coordinates."""
    eng = build_engine(r, s, field)
    one = {0: field.one}
    for label in cell_labels(r, s):
        mod = cell_module(eng, label)
        syms = label_symmetrizers(eng, label)
        for b in mod.basis:
            factors = sigma_factors(
                left_factors(eng, label, anchor_label(label), syms)
                + [[(field.one, right_letters(b))]])
            assert mod.factors_matrix(factors) == module_matrix(
                mod, evaluate_factors(eng, factors, one))


@pytest.mark.parametrize("r,s,field", [(2, 2, GEN),
                                       (3, 2, PrimeField(13, 2, 6))])
def test_cellular_element_involution(r, s, field):
    eng = build_engine(r, s, field)
    data = cellular_data(eng)
    for label, left, right, vec in data.items:
        mate = data.items[data.index[(label, right, left)]][3]
        assert sigma(eng, vec) == mate


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
    items = cellular_data(e11).items
    assert len(items) == 2
    by_f = {lab.f: vec for lab, _, _, vec in items}
    one = {0: GEN.one}
    assert by_f[1] == act(e11, one, [E_TOK])
    assert by_f[0] == one

    items = cellular_data(b21).items
    assert len(items) == 6
    per_label = {}
    for lab, _, _, _ in items:
        per_label[lab] = per_label.get(lab, 0) + 1
    assert sorted(per_label.values()) == [1, 1, 4]


def test_basis_is_ordered_and_spans(b22):
    items = cellular_data(b22).items
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
    row = mod.act_table[(0, E_TOK)]
    assert row[0] == GEN.delta()
    gram = gram_matrix(mod)
    assert gram[0][0] == GEN.delta()


def test_gram_21_example(b21):
    # [[rho^{-1} delta, 1], [1, rho^{-1} delta + q - q^{-1}]] up to the
    # overall unit rho coming from the basis normalization
    lab = cell_label(2, 1, 1, Bipartition((1,), ()))
    gram = gram_matrix(cell_module(b21, lab))
    f = GEN
    delta_rho = f.raw_div(f.delta(), f.rho)
    expected = [[delta_rho, f.one], [f.one, f.raw_add(delta_rho, f.qdiff)]]
    for i in range(2):
        for j in range(2):
            assert gram[i][j] == f.raw_mul(f.rho, expected[i][j])
    det = gram_determinant(cell_module(b21, lab))
    # vanishing locus rho^2 in {q^2, q^-2}:
    # (q^2 - rho^2) (1 - q^2 rho^2) / (q rho (q - q^{-1}))^2
    poly = f.raw_from_laurent
    factored = f.raw_div(
        f.raw_mul(poly({(2, 0): 1, (0, 2): -1}),
                  poly({(0, 0): 1, (2, 2): -1})),
        f.raw_pow(f.raw_mul(poly({(1, 1): 1}), f.qdiff), 2))
    assert det == factored or det == f.raw_neg(factored)


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
    # the form does not depend on the anchor; a block holds only the anchors
    # whose coset rep is the identity, one per label at (3, 3) and up to two
    # at (4, 3)
    def same_forms(eng, anchors):
        for lab in cellular_data(eng).labels:
            gram = gram_matrix(cell_module(eng, lab))
            for anchor in anchors(lab):
                assert gram_matrix(CellModule(eng, lab, anchor)) == gram

    def identity_rep(eng):
        return lambda lab: [b for b in basis_labels(eng.r, eng.s, lab)
                            if b.rep == anchor_label(lab).rep][:3]

    same_forms(b22, lambda lab: basis_labels(2, 2, lab)[:3])
    for eng in (build_engine(3, 2, PrimeField(13, 2, 6)),
                build_engine(3, 3, GEN, layer=1),
                build_engine(4, 3, PrimeField(13, 2, 6), layer=1)):
        same_forms(eng, identity_rep(eng))


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


def test_validate_cell_datum_reports_triangular_failures(b22, monkeypatch):
    # a module that cannot be built at one anchor, and another whose action
    # differs from the first one built, each break axiom (c)
    import qwalled.cellular
    data = cellular_data(b22)
    label = next(lab for lab in data.labels if len(data.by_label[lab]) >= 3)
    anchors = data.by_label[label]

    def flawed(engine, lab, anchor):
        if lab == label and anchor == anchors[0]:
            raise CellularError("no module at this anchor")
        mod = CellModule(engine, lab, anchor)
        if lab == label and anchor == anchors[2]:
            mod.act_table = {}
        return mod
    monkeypatch.setattr(qwalled.cellular, "CellModule", flawed)
    report = validate_cell_datum(b22)
    assert report["basis"] and report["involution"]
    assert not report["triangular"] and not report["ok"]
    assert report["failures"] == [("triangular", label, anchors[0]),
                                  ("left-index", label, anchors[2])]


@pytest.mark.parametrize("anchors", [0, -1])
def test_validate_cell_datum_needs_an_anchor(b21, anchors):
    # axiom (c) checked on no anchor (or all but the last) is no check
    with pytest.raises(CellularError):
        validate_cell_datum(b21, alternate_anchors=anchors)


def test_block_cellular_data():
    # the block of layer 1 holds the layer-1 elements whose left index has
    # the identity coset rep; it is no cellular algebra, and a left index
    # outside it is no anchor
    blk = build_engine(3, 2, PrimeField(13, 2, 6), layer=1)
    data = cellular_data(blk)
    assert data.labels == [lab for lab in cell_labels(3, 2) if lab.f == 1]
    assert len(data.items) == blk.dim == 12
    assert {left.rep for _, left, _, _ in data.items} \
        == {anchor_label(data.labels[0]).rep}
    label = data.labels[0]
    other = next(b for b in data.by_label[label]
                 if b.rep != anchor_label(label).rep)
    with pytest.raises(CellularError, match="anchor"):
        CellModule(blk, label, other)
    for eng in (blk, build_engine(2, 2, GEN, layer=0)):
        with pytest.raises(CellularError, match="block"):
            validate_cell_datum(eng)


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
    for eng in (b21, b22):
        for lab in cell_labels(eng.r, eng.s):
            mod = cell_module(eng, lab)
            det = gram_determinant(mod)
            cleared = False
            for m in range(mod.dim * (lab.f + 1) + 2):
                _, den = GEN.to_laurent_fraction(
                    GEN.raw_mul(det, GEN.raw_pow(GEN.qdiff, m)))
                if len(den) == 1:
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
    for n, vanishes in ((1, True), (3, False)):
        fld = OneVarField(n)
        assert fld.raw_is_zero(transfer_from_generic(det_gen, fld)) == vanishes


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


def test_transfer_normalizes_once(generic_dets, b32):
    # the determinants are values of R, so a transfer into Q(q) strips
    # factors q -+ 1 natively and never takes the fraction fallback
    dets = [det for by_label in generic_dets.values()
            for det in by_label.values()]
    dets += [gram_determinant(cell_module(b32, lab))
             for lab in cell_labels(3, 2)]
    sizes = set()
    for det in dets:
        sizes.add(len(GEN.to_laurent_fraction(det)[0]))
        before = groundfield.fallbacks
        moved = transfer_from_generic(det, OneVarField(3, -1))
        assert groundfield.fallbacks == before
        assert type(moved) is tuple
    # the count does not depend on the determinant's term count
    assert len(sizes) > 5 and max(sizes) > 100


# SHA-256 of the generic Gram determinant texts, one per line in
# cell_labels order, recorded with sympy's gcd reducing the fractions that
# leave R (the (3, 3) texts while determinant still took the first unit or
# else the first nonzero entry as pivot); the golden CLI replay stops at
# r + s <= 4
GENERIC_DET_PINS = {
    (3, 2): "d12787db77deb62177f4998f7069e671a50ba6f42acd7bb26c7908e1b9c469ab",
    (2, 3): "a3522857ec8aae19d23de20d93804faa7b44ba64f40e391eb610bfb25b4bbd0e",
    (3, 3): "af4fa91991478076544e81111149000921e55988fbc635aad2c3fe4f6b4f57b0",
}


@pytest.mark.parametrize("r,s", sorted(GENERIC_DET_PINS))
def test_generic_gram_determinants_pinned(r, s, b32):
    import hashlib
    eng = b32 if (r, s) == (3, 2) else build_engine(r, s, GEN)
    text = "\n".join(GEN.to_text(gram_determinant(cell_module(eng, lab)))
                     for lab in cell_labels(r, s))
    assert hashlib.sha256(text.encode()).hexdigest() \
        == GENERIC_DET_PINS[(r, s)]


def test_gram_entries_lie_in_r():
    # at (3, 3), f = 1 over Q(q, rho) the cellular coordinates leave R
    # through the fraction fallback, yet every Gram entry is a value of R
    before = groundfield.fallbacks
    eng = build_engine(3, 3, GEN, layer=1)
    for lab in cell_labels(3, 3):
        if lab.f == 1:
            for row in gram_matrix(cell_module(eng, lab)):
                assert all(type(e) is tuple for e in row)
    assert groundfield.fallbacks > before


def test_generic_determinants_pivot_on_small_values(b32, monkeypatch):
    # a pivot with the fewest terms among the non-units: the nine (3, 2)
    # determinants reduce 36 fractions, each as it is made (84 while
    # fractions were reduced only on demand or past a size threshold, with
    # 139 when the first nonzero entry of a column without units was the
    # pivot)
    from qwalled.linalg import determinant
    mats = [gram_matrix(cell_module(b32, lab)) for lab in cell_labels(3, 2)]
    depth, calls = [0], [0]
    heugcd = groundfield.heugcd

    def counting(f, g):
        calls[0] += depth[0] == 0
        depth[0] += 1
        try:
            return heugcd(f, g)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(groundfield, "heugcd", counting)
    for mat in mats:
        determinant(GEN, mat)
    assert calls[0] == 36


def test_quotient_cellular_labels():
    # the layer-0 quotient holds exactly the f = 0 labels; a label of a
    # higher layer is not one of its cell modules
    quo = build_engine(2, 1, GEN, layer=0)
    data = cellular_data(quo)
    assert data.labels == [lab for lab in cell_labels(2, 1) if lab.f == 0]
    assert {label for label, _, _, _ in data.items} == set(data.labels)
    with pytest.raises(CellularError, match="layer 0"):
        cell_module(quo, cell_label(2, 1, 1, ((1,), ())))


@pytest.mark.parametrize("r,s,spec", [
    (r, s, spec)
    for r, s in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (2, 4)]
    for spec in ["gfp:13,2,6", "q-power:0:neg", "generic", "delta-zero"]
    if spec not in ("generic", "delta-zero") or r + s <= 5]
    + [(4, 3, "gfp:13,2,6")])
def test_layer_quotient_gram_matches_full_engine(r, s, spec):
    # C(f, lambda) and its form live in the block e^f B/J_{f+1}: the block
    # of the label's layer gives the Gram matrix and determinant of the full
    # engine, at every layer, the top layer included when r != s
    field = fields_from_spec(spec)[0]
    full = build_engine(r, s, field)
    for f in range(min(r, s) + 1):
        if f == r == s:
            continue
        quo = build_engine(r, s, field, layer=f)
        for label in cell_labels(r, s):
            if label.f != f:
                continue
            a, b = cell_module(quo, label), cell_module(full, label)
            text = full.field.to_text
            assert [[text(e) for e in row] for row in gram_matrix(a)] \
                == [[text(e) for e in row] for row in gram_matrix(b)]
            assert text(gram_determinant(a)) == text(gram_determinant(b))


# SHA-256 of every cellular basis element, one line per item of
# cellular_data(engine).items: label, left, right and the canonical text of
# each term in basis order; recorded when each element was still evaluated
# as one product per (left, right) pair.  The entry at layer 1 holds the
# elements of the block e_1 B/J_2 and was recorded when the block replaced
# the quotient algebra B/J_2.  The two full-algebra entries were recorded
# again, each checked against one product per pair, when relation words
# kept their inverse letters and the normal basis order changed
CELLULAR_PINS = {
    (3, 2, "generic", None):
        "d5ee9ab23cec59d7a5c7cdda3840f813d075e13b093f437b5c2fa39099091a96",
    (2, 2, "q-power:1", None):
        "94186513d761074558bad5d2f4ea63bdd3906b51b518faa0c3683e4362958914",
    (4, 3, "gfp:13,2,6", 1):
        "6c426d1ad28b7a9c25748ea0d65e7fa9dcd73bd66d29b3d7040cd52c61bb140a",
}


def _cellular_digest(engine):
    import hashlib
    lines = []
    for label, left, right, vec in cellular_data(engine).items:
        terms = ";".join("%d:%s" % (i, engine.field.to_text(vec[i]))
                         for i in sorted(vec))
        lines.append("%r|%r|%r|%s" % (label, left, right, terms))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("r,s,spec,layer", list(CELLULAR_PINS))
def test_cellular_elements_pinned(r, s, spec, layer, b32):
    if (r, s, spec) == (3, 2, "generic"):
        eng = b32
    else:
        eng = build_engine(r, s, fields_from_spec(spec)[0], layer=layer)
    assert _cellular_digest(eng) == CELLULAR_PINS[(r, s, spec, layer)]


def test_cellular_data_evaluates_each_head_once(monkeypatch):
    # the left factors are evaluated once per left index, not once per
    # (left, right) pair; the tails go through a prefix memo
    from qwalled import cellular
    eng = build_engine(3, 2, PrimeField(13, 2, 6))
    count = [0]
    evaluate = cellular.evaluate_factors

    def counting(engine, factors, vec):
        count[0] += 1
        return evaluate(engine, factors, vec)

    monkeypatch.setattr(cellular, "evaluate_factors", counting)
    cellular_data(eng)
    assert count[0] == sum(module_dimension(label, 3, 2)
                           for label in cell_labels(3, 2))


def test_one_term_factor_keeps_its_coefficient():
    # a factor of one term is a sum like any other: 2 e_1 is twice e_1, on
    # the engine and on every cell module where e_1 acts
    eng = build_engine(2, 1, PrimeField(13, 2, 6))
    f = eng.field
    two = f.raw_from_int(2)
    twice, once = [[(two, [E_TOK])]], [[(f.one, [E_TOK])]]
    one = {0: f.one}
    e1 = evaluate_factors(eng, once, one)
    assert e1 and evaluate_factors(eng, twice, one) == f.vec_iaxpy({}, two, e1)
    acted = 0
    for label in cell_labels(2, 1):
        mod = cell_module(eng, label)
        for i in range(mod.dim):
            row = evaluate_factors(mod, once, {i: f.one})
            acted += bool(row)
            assert evaluate_factors(mod, twice, {i: f.one}) \
                == f.vec_iaxpy({}, two, row)
    assert acted
