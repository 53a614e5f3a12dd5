"""Tests for the Young symmetrizers and for H_n as the engine's layer-0
quotient (e_1 = 0), build_engine(n, 1, F, layer=0)."""

import math
import random
from itertools import permutations

import pytest

from paper_checks import m_factor, perm_mul, product
from qwalled.cellular import cellular_data, symmetrizer_factor
from qwalled.combinat import (
    Partition,
    StdTableau,
    d_perm,
    partitions,
    perm_length,
    reduced_word,
    std_tableaux,
    t_row,
)
from qwalled.engine import act, build_engine, evaluate_factors, g_tok, sigma
from qwalled.groundfield import GenericField, PrimeField
from qwalled.hecke import HeckeAlgebra, HeckeError
from qwalled.linalg import Echelon

GEN = GenericField()
FIELDS = (GEN, PrimeField(5, 2, 3))


def _letters(w):
    return [(g_tok(i), 1) for i in reduced_word(w)]


def _ev(hq, letters, x=None):
    """x (default the identity) times the letters."""
    return act(hq, {0: hq.field.one} if x is None else x, letters)


def _g_perm(hq, w):
    return _ev(hq, _letters(w))


def _sym(hq, lam, kind):
    """m_lam or n_lam of H_n evaluated in the quotient engine."""
    factor = m_factor if kind == "m" else symmetrizer_factor
    return evaluate_factors(hq, [factor(hq, lam, 0, False)],
                            {0: hq.field.one})


def test_quadratic_relation():
    hq = build_engine(3, 1, GEN, layer=0)
    q, q_inv = GEN.q, GEN.raw_div(GEN.one, GEN.q)
    one = {0: GEN.one}
    for i in (1, 2):
        g = [(GEN.one, [(g_tok(i), 1)])]
        assert not evaluate_factors(
            hq, [g + [(GEN.raw_neg(q), [])], g + [(q_inv, [])]], one)
        assert _ev(hq, [(g_tok(i), 1), (g_tok(i), -1)]) == one


def test_braid_and_commuting():
    hq = build_engine(4, 1, GEN, layer=0)

    def g(*word):
        return _ev(hq, [(g_tok(i), 1) for i in word])
    assert g(1, 2, 1) == g(2, 1, 2)
    assert g(2, 3, 2) == g(3, 2, 3)
    assert g(1, 3) == g(3, 1)


def test_g_perm_length_additive():
    # g_u g_v = g_{uv} whenever lengths add: the reduced words of combinat
    # and the engine's right action agree on the order of letters
    hq = build_engine(4, 1, GEN, layer=0)
    for u in permutations(range(1, 5)):
        for v in permutations(range(1, 5)):
            uv = perm_mul(u, v)
            if perm_length(uv) == perm_length(u) + perm_length(v):
                assert product(hq, _g_perm(hq, u),
                               _g_perm(hq, v)) == _g_perm(hq, uv)


def test_symmetrizer_eigenvalues():
    # m_lam g_a = q m_lam and n_lam g_a = -q^{-1} n_lam for a, a+1 in a row
    for field in FIELDS:
        q = field.q
        minus_q_inv = field.raw_neg(field.raw_div(field.one, q))
        for n in (2, 3, 4):
            hq = build_engine(n, 1, field, layer=0)
            for lam in partitions(n):
                m, nn = _sym(hq, lam, "m"), _sym(hq, lam, "n")
                for row in t_row(lam).rows:
                    for a, b in zip(row, row[1:]):
                        assert b == a + 1
                        assert _ev(hq, [(g_tok(a), 1)], m) \
                            == field.vec_iaxpy({}, q, m)
                        assert _ev(hq, [(g_tok(a), 1)], nn) \
                            == field.vec_iaxpy({}, minus_q_inv, nn)


def test_symmetrizer_identity_coefficient():
    h4 = HeckeAlgebra(4, GEN)
    for lam in partitions(4):
        ident = tuple(range(1, 5))
        assert h4.n_sym(lam)[ident] == GEN.raw_from_int(1)
        size = math.prod(math.factorial(p) for p in lam.parts)
        assert len(h4.n_sym(lam)) == size


def test_sigma_antiautomorphism():
    # sigma fixes each g_i, so it fixes both symmetrizers
    for field in FIELDS:
        for n in (2, 3, 4):
            hq = build_engine(n, 1, field, layer=0)
            for i in range(1, n):
                g = _ev(hq, [(g_tok(i), 1)])
                assert sigma(hq, g) == g
            for lam in partitions(n):
                for kind in ("m", "n"):
                    x = _sym(hq, lam, kind)
                    assert sigma(hq, x) == x


def test_offset_symmetrizer():
    h = HeckeAlgebra(4, GEN)
    lam = Partition((2,))
    n = h.n_sym(lam, offset=2)
    # acts on letters 3,4 only
    assert set(n) == {(1, 2, 3, 4), (1, 2, 4, 3)}
    with pytest.raises(HeckeError):
        h.n_sym(Partition((3,)), offset=2)


def test_dimension_of_cell_chunks():
    # sum over shapes of |Std|^2 = n!
    for n in (2, 3, 4, 5):
        total = sum(len(std_tableaux(lam)) ** 2 for lam in partitions(n))
        assert total == math.factorial(n)


def test_small_symmetrizers():
    h = HeckeAlgebra(2, GEN)
    one = GEN.one
    minus_q_inv = GEN.raw_neg(GEN.raw_div(one, GEN.q))
    assert h.n_sym(Partition((2,))) == {(1, 2): one, (2, 1): minus_q_inv}
    # trivial Young subgroup: the symmetrizer is the identity
    assert h.n_sym(Partition((1, 1))) == {(1, 2): one}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_full_murphy_basis_invertible(n):
    # the cellular data of the layer-0 quotient are the f = 0 elements, the
    # Murphy basis of H_n; building them checks that they are independent
    # and as many as the dimension n!
    for field in FIELDS:
        data = cellular_data(build_engine(n, 1, field, layer=0))
        assert len(data.items) == data.ech.rank == math.factorial(n)
        for label, left, right, _ in data.items:
            assert label.f == 0
            assert left.tab[0].shape == right.tab[0].shape \
                == label.shape.first


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_specht_dimensions(n):
    # m_lam g_{d(t^lam')} n_lam' g_{d(t)}, t standard of the conjugate
    # shape, are independent
    hq = build_engine(n, 1, GEN, layer=0)
    for lam in partitions(n):
        conj = Partition(sum(1 for p in lam.parts if p > j)
                         for j in range(lam[0]))
        # the column-reading tableau t_lam is the transpose of t^{lam'}
        cols = t_row(conj).rows
        t_col = StdTableau([[col[i] for col in cols if i < len(col)]
                            for i in range(len(lam))])
        head = evaluate_factors(hq, [
            m_factor(hq, lam, 0, False),
            [(GEN.raw_from_int(1), _letters(d_perm(t_col)))],
            symmetrizer_factor(hq, conj, 0, False)], {0: GEN.one})
        ech = Echelon(GEN)
        tabs = std_tableaux(conj)
        for t in tabs:
            assert ech.insert(_ev(hq, _letters(d_perm(t)), head))
        assert ech.rank == len(tabs)


def test_normal_form_independence():
    rng = random.Random(9)
    hq = build_engine(4, 1, GEN, layer=0)
    for _ in range(100):
        word = [rng.randrange(1, 4) for _ in range(rng.randrange(0, 7))]
        direct = _ev(hq, [(g_tok(i), 1) for i in word])
        # evaluate in a random association order via explicit products
        parts = [_ev(hq, [(g_tok(i), 1)]) for i in word] or [{0: GEN.one}]
        while len(parts) > 1:
            k = rng.randrange(len(parts) - 1)
            parts[k:k + 2] = [product(hq, parts[k], parts[k + 1])]
        assert parts[0] == direct


def test_cell_branching_counts():
    from qwalled.combinat import count_std, nodes_removable
    for n in range(2, 6):
        for lam in partitions(n):
            total = sum(count_std(lam.remove_node(p))
                        for p in nodes_removable(lam))
            assert total == count_std(lam)
