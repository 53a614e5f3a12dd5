"""Tests for the Hecke algebra layer."""

import math
from itertools import permutations

import pytest

from qwalled.combinat import (
    Partition,
    partitions,
    perm_length,
    perm_mul,
    std_tableaux,
    t_row,
)
from qwalled.groundfield import GenericField, PrimeField, RationalField
from qwalled.hecke import HeckeAlgebra, HeckeError
from qwalled.linalg import Echelon

GEN = GenericField()


@pytest.fixture(scope="module")
def h3():
    return HeckeAlgebra(3, GEN)


@pytest.fixture(scope="module")
def h4():
    return HeckeAlgebra(4, GEN)


def test_quadratic_relation(h3):
    q = GEN.q()
    for i in (1, 2):
        g = h3.g(i)
        assert ((g - q.val * h3.one()) * (g + (1 / q).val * h3.one())) \
            .is_zero()
        # inverse through times_word
        gi = h3.times_word(h3.one(), [i], inverse=True)
        assert g * gi == h3.one()


def test_braid_and_commuting(h4):
    g1, g2, g3 = h4.g(1), h4.g(2), h4.g(3)
    assert g1 * g2 * g1 == g2 * g1 * g2
    assert g2 * g3 * g2 == g3 * g2 * g3
    assert g1 * g3 == g3 * g1


def test_g_perm_length_additive(h4):
    # g_u g_v = g_{uv} whenever lengths add
    for u in permutations(range(1, 5)):
        for v in permutations(range(1, 5)):
            uv = perm_mul(u, v)
            if perm_length(uv) == perm_length(u) + perm_length(v):
                assert h4.g_perm(u) * h4.g_perm(v) == h4.g_perm(uv)


def test_group_algebra_specialization():
    # at q = 1 the product is the group algebra product
    f = PrimeField(5, 1, 2)
    h = HeckeAlgebra(3, f)
    for u in permutations(range(1, 4)):
        for v in permutations(range(1, 4)):
            prod = h.g_perm(u) * h.g_perm(v)
            assert prod == h.element({perm_mul(u, v): 1})


def test_symmetrizer_eigenvalues(h4):
    q = GEN.q()
    for lam in partitions(4):
        m = h4.m_sym(lam)
        n = h4.n_sym(lam)
        rows = t_row(lam).rows
        for row in rows:
            for a, b in zip(row, row[1:]):
                assert b == a + 1
                g = h4.g(a)
                assert m * g == q.val * m
                assert n * g == (-(1 / q)).val * n


def test_symmetrizer_identity_coefficient(h4):
    for lam in partitions(4):
        ident = tuple(range(1, 5))
        assert GEN.raw_eq(h4.m_sym(lam).terms[ident], GEN.raw_from_int(1))
        size = math.prod(math.factorial(p) for p in lam.parts)
        assert len(h4.m_sym(lam).terms) == size


def test_sigma_antiautomorphism(h3):
    import random
    rng = random.Random(2)
    elems = []
    for _ in range(4):
        terms = {}
        for p in permutations(range(1, 4)):
            terms[p] = GEN.raw_from_int(rng.randrange(-2, 3))
        elems.append(h3.element(terms))
    for x in elems:
        for y in elems:
            assert (x * y).sigma() == y.sigma() * x.sigma()
    for i in (1, 2):
        assert h3.g(i).sigma() == h3.g(i)
    assert h3.n_sym(Partition((2, 1))).sigma() == h3.n_sym(Partition((2, 1)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_murphy_basis_spans(n):
    h = HeckeAlgebra(n, GEN)
    ech = Echelon(GEN)
    count = 0
    for lam in partitions(n):
        for _, elem in h.murphy_basis_of_shape(lam):
            assert ech.insert(elem.terms)
            count += 1
    assert count == ech.rank == math.factorial(n)


def test_murphy_basis_prime_field():
    f = PrimeField(5, 2, 3)
    h = HeckeAlgebra(3, f)
    ech = Echelon(f)
    for lam in partitions(3):
        for _, elem in h.murphy_basis_of_shape(lam):
            assert ech.insert(elem.terms)
    assert ech.rank == 6


def test_offset_symmetrizer():
    h = HeckeAlgebra(4, GEN)
    lam = Partition((2,))
    m = h.m_sym(lam, offset=2)
    # acts on letters 3,4 only
    assert set(m.terms) == {(1, 2, 3, 4), (1, 2, 4, 3)}
    with pytest.raises(HeckeError):
        h.m_sym(Partition((3,)), offset=2)


def test_dimension_of_cell_chunks():
    # sum over shapes of |Std|^2 = n!
    for n in (2, 3, 4, 5):
        total = sum(len(std_tableaux(lam)) ** 2 for lam in partitions(n))
        assert total == math.factorial(n)


def test_small_symmetrizers():
    h = HeckeAlgebra(2, GEN)
    q = GEN.q()
    assert h.m_sym(Partition((2,))) == h.one() + q.val * h.g(1)
    assert h.n_sym(Partition((2,))) == h.one() - (1 / q).val * h.g(1)
    # trivial Young subgroup: both symmetrizers are the identity
    trivial = Partition((1, 1))
    assert h.m_sym(trivial) == h.n_sym(trivial) == h.one()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_full_murphy_basis_invertible(n):
    h = HeckeAlgebra(n, GEN)
    ech = Echelon(GEN)
    items = h.murphy_basis()
    assert len(items) == math.factorial(n)
    for label, elem in items:
        assert label.s.shape == label.t.shape == label.shape
        assert ech.insert(elem.terms)
    assert ech.rank == math.factorial(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_specht_dimensions(n):
    h = HeckeAlgebra(n, GEN)
    for lam in partitions(n):
        basis = h.specht_basis(lam)
        assert len(basis) == len(std_tableaux(lam.conjugate()))
        ech = Echelon(GEN)
        for elem in basis:
            assert ech.insert(elem.terms)
        assert ech.rank == len(basis)


def test_normal_form_independence():
    import random
    rng = random.Random(9)
    h = HeckeAlgebra(4, GEN)
    for _ in range(100):
        word = [rng.randrange(1, 4) for _ in range(rng.randrange(0, 7))]
        direct = h.g_word(word)
        # evaluate in a random association order via explicit products
        parts = [h.g(i) for i in word] or [h.one()]
        while len(parts) > 1:
            k = rng.randrange(len(parts) - 1)
            parts[k:k + 2] = [parts[k] * parts[k + 1]]
        assert parts[0] == direct


def test_cell_branching_counts():
    from qwalled.combinat import count_std, nodes_removable
    for n in range(2, 6):
        for lam in partitions(n):
            total = sum(count_std(lam.remove_node(p))
                        for p in nodes_removable(lam))
            assert total == count_std(lam)
