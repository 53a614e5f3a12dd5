"""Acceptance gate: one test per headline criterion, exact arithmetic only.

Each test prints a single "criterion N: PASS/FAIL" line; run with -v (or -s)
to see them.  All checks are zero tolerance.
"""

import functools
import math
from itertools import permutations

from paper_checks import (
    m_factor,
    module_matrix,
    module_row,
    perm_mul,
    perm_pair,
    product,
)
from qwalled.cellular import (
    cell_label,
    cell_labels,
    cell_module,
    gram_determinant,
    gram_determinant_fraction,
    module_dimension,
    radical_rank,
    symmetrizer_factor,
    validate_cell_datum,
)
from qwalled.combinat import (
    Bipartition,
    Partition,
    coset_count,
    coset_reps,
    count_std,
)
from qwalled.engine import (
    E_TOK,
    act,
    build_engine,
    central_element,
    evaluate_factors,
    g_tok,
    gs_tok,
    verify_relations,
)
from qwalled.groundfield import (
    GenericField,
    OneVarField,
    PrimeField,
    vanishes_under,
)
from qwalled.linalg import Echelon
from qwalled.repthy import (
    DELTA_ZERO_SEMISIMPLE,
    branching_check,
    central_character,
    classify_simples,
    semisimplicity,
)

GEN = GenericField()

# one engine per (r, s, field) for the whole module
engine = functools.lru_cache(maxsize=None)(build_engine)


def _pairs(max_total):
    return [(r, s) for r in range(1, max_total) for s in range(1, max_total)
            if r + s <= max_total]


def _rank(vectors):
    ech = Echelon(GEN)
    for v in vectors:
        ech.insert(v)
    return ech.rank


def _verdict(num, title, ok):
    print("criterion %2d: %s - %s" % (num, "PASS" if ok else "FAIL", title))
    assert ok, "criterion %d failed: %s" % (num, title)


def test_criterion_01_dimension_counts():
    """Engine closure has dimension (r+s)!, and the cell-module squares
    add up to it, generically through total 5 and over GF(p) through 6."""
    ok = True
    for r, s in _pairs(5):
        ok = ok and engine(r, s, GEN).dim == math.factorial(r + s)
    gfp = PrimeField(13, 2, 6)
    for r, s in _pairs(6):
        ok = ok and build_engine(r, s, gfp).dim == math.factorial(r + s)
        total = sum(module_dimension(lab, r, s) ** 2
                    for lab in cell_labels(r, s))
        ok = ok and total == math.factorial(r + s)
    _verdict(1, "dimension counts", ok)


def test_criterion_02_relation_suite():
    """Every defining relation and every derived e_i identity holds as an
    exact identity, for all shapes with total at most 5."""
    seen = set()
    ok = True
    for r, s in _pairs(5):
        for name, good in verify_relations(engine(r, s, GEN)):
            ok = ok and good
            seen.add(".".join(name.split("[")[0].split(".")[:2]))
    wanted = {"def.%s" % c for c in "abcdefghijklmn"}
    wanted |= {"tool.%s" % c for c in "abcdefg"}
    ok = ok and wanted <= seen
    _verdict(2, "relation suite", ok)


def _perm_subgroup(r, s, f):
    """The stabilizer: a diagonal copy of S_f on the first f letters of
    both factors, times S_{r-f} x S_{s-f} on the remaining letters."""
    out = []
    for w in permutations(range(1, f + 1)):
        for pu in permutations(range(f + 1, r + 1)):
            for pv in permutations(range(f + 1, s + 1)):
                out.append((w + pu, w + pv))
    return out


def test_criterion_03_coset_counts():
    """The distinguished reps hit each coset of the arc stabilizer exactly
    once, and their number is C(r,f) C(s,f) f!."""
    ok = True
    for r in range(1, 5):
        for s in range(1, 5):
            for f in range(min(r, s) + 1):
                sub = _perm_subgroup(r, s, f)
                reps = coset_reps(r, s, f)
                cosets = set()
                for d in reps:
                    u, v = perm_pair(d, r, s)
                    cosets.add(frozenset(
                        (perm_mul(hu, u), perm_mul(hv, v))
                        for hu, hv in sub))
                count = math.comb(r, f) * math.comb(s, f) * math.factorial(f)
                ok = ok and len(reps) == count == coset_count(r, s, f)
                ok = ok and len(cosets) == len(reps)
                ok = ok and (len(cosets) * len(sub)
                             == math.factorial(r) * math.factorial(s))
    _verdict(3, "coset counts", ok)


def test_criterion_04_cell_datum():
    """Basis, involution swap, and anchor-independent triangular action,
    checked over every anchor for all shapes with total at most 5."""
    ok = True
    for r, s in _pairs(5):
        report = validate_cell_datum(engine(r, s, GEN))
        ok = (ok and report["ok"] and report["basis"]
              and report["involution"] and report["triangular"]
              and not report["failures"])
    _verdict(4, "cell datum", ok)


def test_criterion_05_central_element():
    """The central element commutes with every generator and acts on every
    cell module by the content-sum scalar."""
    ok = True
    for r, s in _pairs(5):
        eng = engine(r, s, GEN)
        one = {0: GEN.one}
        c = evaluate_factors(eng, [central_element(eng)], one)
        toks = ([g_tok(i) for i in range(1, r)]
                + [gs_tok(j) for j in range(1, s)] + [E_TOK])
        for tok in toks:
            g = act(eng, one, [(tok, 1)])
            ok = ok and act(eng, c, [(tok, 1)]) == product(eng, g, c)
        for lab in cell_labels(r, s):
            central_character(eng, lab)
    _verdict(5, "central element", ok)


def test_criterion_06_onearc_zero_loci():
    """The one-arc hook Gram determinants vanish exactly on the stated
    rho-power lines, independent of the sign branch."""
    ok = True
    for r in (2, 3, 4):
        # det G_{1,lambda} for the row and the column hook, sampled over
        # rho^2 = q^{2a} with |a| <= r+1 in both sign branches
        for shape, expected in ((Bipartition((r - 1,), ()), [-1, r - 1]),
                                (Bipartition((1,) * (r - 1), ()), [1 - r, 1])):
            fraction = gram_determinant_fraction(cell_module(
                engine(r, 1, GEN), cell_label(r, 1, 1, shape)))
            vanishing = []
            for a in range(-(r + 1), r + 2):
                hits = [vanishes_under(fraction, OneVarField(a, sign))
                        for sign in (1, -1)]
                ok = ok and hits[0] == hits[1]
                if hits[0]:
                    vanishing.append(a)
            ok = ok and vanishing == expected
    _verdict(6, "one-arc zero loci", ok)


def test_criterion_07_semisimplicity_grid():
    """Closed-form and Gram-determinant verdicts agree on the whole
    rho = +-q^a grid; the extreme powers are semisimple and the delta = 0
    points are semisimple exactly on the exceptional list."""
    ok = True
    for r, s in _pairs(5):
        for a in range(-(r + s), r + s + 1):
            for sign in (1, -1):
                v = semisimplicity(r, s, OneVarField(a, sign), mode="both",
                                   generic=engine(r, s, GEN))
                if a == 0:
                    expected = (r, s) in DELTA_ZERO_SEMISIMPLE
                else:
                    expected = abs(a) > r + s - 2
                ok = ok and v.verdict == expected
                if not v.verdict:
                    ok = ok and len(v.witnesses) > 0
                if abs(a) == r + s:
                    ok = ok and v.verdict
    ok = ok and not semisimplicity(2, 2, OneVarField(0, 1), mode="both",
                                   generic=engine(2, 2, GEN)).verdict
    _verdict(7, "semisimplicity grid", ok)


def test_criterion_08_delta_zero_determinants():
    """The three delta = 0 Gram determinants of sizes 6 and 8 all vanish
    at both rho = 1 and rho = -1.  Below the top layer they are taken on
    the layer-1 block, as gram takes them."""
    ok = True
    sizes = set()
    for r, s, shape in ((3, 2, Bipartition((2,), (1,))),
                        (4, 1, Bipartition((2, 1), ())),
                        (4, 2, Bipartition((1, 1, 1), (1,)))):
        label = cell_label(r, s, 1, shape)
        sizes.add(module_dimension(label, r, s))
        for sign in (1, -1):
            eng = build_engine(r, s, OneVarField(0, sign),
                               layer=1 if 1 < min(r, s) else None)
            ok = ok and eng.field.raw_is_zero(
                gram_determinant(cell_module(eng, label)))
    ok = ok and sorted(sizes) == [6, 8]
    _verdict(8, "delta-zero determinants", ok)


def test_criterion_09_branching():
    """Restriction filtration: section dimensions add up, the restricted
    central element has the predicted trace, and the explicit section
    generators are nonzero, for every label with total at most 5."""
    ok = True
    for r, s in _pairs(5):
        if r < 2:
            continue
        eng = engine(r, s, GEN)
        for lab in cell_labels(r, s):
            report = branching_check(eng, lab)
            ok = (ok and report["ok"] and report["dim_ok"]
                  and report["trace_ok"] and report["generators_nonzero"])
    _verdict(9, "branching", ok)


def test_criterion_10_schur_truncation():
    """Both corner idempotents cut each cell module down to the one-level-
    lower dimension, and the corner subspace of the whole algebra has
    dimension (r+s-1)!."""
    ok = True
    for r, s in _pairs(5):
        eng = engine(r, s, GEN)
        # e_tilde = rho^{-1} e_1 g*_1 and f21 = rho^{-1} e_1 g_1
        corners = [gs_tok(1)] if s >= 2 else []
        corners += [g_tok(1)] if r >= 2 else []
        rho_inv = GEN.raw_div(GEN.one, GEN.rho)
        for tok in corners:
            idem = act(eng, {0: rho_inv}, [(E_TOK, 1), (tok, 1)])
            # the corner subspace B idem has dimension (r+s-1)!
            ok = ok and _rank(product(eng, {t: GEN.one}, idem)
                              for t in range(eng.dim)) \
                == math.factorial(r + s - 1)
            for lab in cell_labels(r, s):
                expected = 0 if lab.f == 0 else \
                    count_std(lab.shape) * coset_count(r - 1, s - 1, lab.f - 1)
                ok = ok and _rank(module_matrix(cell_module(eng, lab), idem)) \
                    == expected
    _verdict(10, "Schur truncation", ok)


def test_criterion_11_simple_classification():
    """The restricted-label list coincides with the set of labels whose
    Gram form has nonzero rank, over a generic, a delta = 0, and a
    quantum-characteristic-3 field."""
    e3 = PrimeField(13, 4, 2)
    ok = e3.quantum_characteristic() == 3
    for field in (GEN, OneVarField(0, 1), e3):
        for r, s in _pairs(4):
            eng = engine(r, s, field)
            listed = set(classify_simples(r, s, field))
            positive = {lab for lab in cell_labels(r, s)
                        if radical_rank(cell_module(eng, lab))[0] > 0}
            ok = ok and listed == positive
    _verdict(11, "simple classification", ok)


def _witness_ok(eng, kind, on_locus):
    """The vector v = C_anchor m (m_lam or n_lam of the full row shapes) of
    C(1, mu) is nonzero, v e_1 is a multiple of the anchor, and v e_1 and
    the predicted scalar both vanish exactly on the locus."""
    r, s, field = eng.r, eng.s, eng.field
    n = r + s - 2
    if kind == "row":
        mu = Bipartition((r - 1,), (s - 1,))
        sym, power = symmetrizer_factor, -2 * n
    else:
        mu = Bipartition((1,) * (r - 1), (1,) * (s - 1))
        sym, power = m_factor, 2 * n
    # delta - rho (1 - q^power) / (q - q^{-1})
    scalar = field.raw_sub(field.delta(), field.raw_div(
        field.raw_mul(field.rho,
                      field.raw_sub(field.one, field.raw_pow(field.q, power))),
        field.qdiff))
    label = cell_label(r, s, 1, mu)
    mod = cell_module(eng, label)
    m = [sym(eng, Partition((r,)), 0, False),
         sym(eng, Partition((s,)), 0, True)]
    one = {0: field.one}
    v = module_row(mod, mod.anchor, evaluate_factors(eng, m, one))
    e1v = module_row(mod, mod.anchor, evaluate_factors(
        eng, m + [[(field.one, [(E_TOK, 1)])]], one))
    return (bool(v) and set(e1v) <= {mod.anchor_index}
            and (not e1v) == field.raw_is_zero(scalar) == on_locus)


def test_criterion_12_submodule_witnesses():
    """The explicit one-arc vector is killed by e_1 exactly on the extreme
    rho-power line: the positive power for the row witness, the negative
    one for the column witness."""
    ok = True
    for r, s in ((2, 2), (3, 2)):
        n = r + s - 2
        fields = [(GEN, None)]
        for sign in (1, -1):
            fields.append((OneVarField(n, sign), n))
            fields.append((OneVarField(-n, sign), -n))
        for kind in ("row", "column"):
            locus = n if kind == "row" else -n
            for field, a in fields:
                ok = ok and _witness_ok(engine(r, s, field), kind, a == locus)
    _verdict(12, "submodule witnesses", ok)
