"""Tests for the sparse exact linear algebra helpers."""

import random
from fractions import Fraction

import pytest

from qwalled.groundfield import GenericField, RationalField
from qwalled.linalg import (
    Echelon,
    LinAlgError,
    determinant,
    matrix_rank,
    rank,
)

GEN = GenericField()
RAT = RationalField(2, 4)


def raw(field, n):
    return field.raw_from_int(n)


def test_echelon_rank_and_membership():
    f = RAT
    e = Echelon(f)
    v1 = {0: raw(f, 1), 1: raw(f, 2)}
    v2 = {1: raw(f, 3)}
    assert e.insert(v1)
    assert e.insert(v2)
    assert not e.insert({0: raw(f, 2), 1: raw(f, 7)})
    assert e.rank == 2
    assert e.contains({0: raw(f, 5)})
    assert not e.contains({2: raw(f, 1)})


def test_echelon_express():
    f = RAT
    e = Echelon(f)
    e.insert({0: raw(f, 2), 1: raw(f, 1)})
    e.insert({1: raw(f, 1), 2: raw(f, 1)})
    target = {0: raw(f, 2), 1: raw(f, 3), 2: raw(f, 2)}
    coeffs = e.express(target)
    # rebuild from the pivot rows and compare
    acc = {}
    for piv, c in coeffs.items():
        f.vec_iaxpy(acc, c, e.rows[piv])
    assert acc == {k: f.normalize(v) for k, v in target.items()} or \
        all(f.raw_eq(acc[k], target[k]) for k in target)
    with pytest.raises(LinAlgError):
        e.express({3: raw(f, 1)})


def test_combo_tracking():
    f = RAT
    e = Echelon(f, track=True)
    vecs = {"a": {0: raw(f, 1), 1: raw(f, 1)},
            "b": {1: raw(f, 1), 2: raw(f, 1)},
            "c": {0: raw(f, 3), 2: raw(f, 5)}}
    for tag, v in vecs.items():
        e.insert(v, tag=tag)
    # every stored row must equal its recorded combination of inputs
    for piv, row in e.rows.items():
        acc = {}
        for tag, c in e.combos[piv].items():
            f.vec_iaxpy(acc, c, vecs[tag])
        assert set(acc) == set(row)
        for k in row:
            assert f.raw_eq(acc[k], row[k])


def test_rank_random_rational_oracle():
    rng = random.Random(11)
    for _ in range(20):
        n, m = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = [[rng.randrange(-3, 4) for _ in range(m)] for _ in range(n)]
        # oracle: exact rank over Q by fraction elimination
        work = [[Fraction(x) for x in row] for row in rows]
        r = 0
        for col in range(m):
            piv = next((i for i in range(r, n) if work[i][col]), None)
            if piv is None:
                continue
            work[r], work[piv] = work[piv], work[r]
            for i in range(r + 1, n):
                if work[i][col]:
                    c = work[i][col] / work[r][col]
                    work[i] = [a - c * b for a, b in zip(work[i], work[r])]
            r += 1
        mat = [[raw(RAT, x) for x in row] for row in rows]
        assert matrix_rank(RAT, mat) == r


def test_determinant_rational_oracle():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]

        def perm_det(rows):
            from itertools import permutations
            n = len(rows)
            total = 0
            for p in permutations(range(n)):
                sign = 1
                for i in range(n):
                    for j in range(i + 1, n):
                        if p[i] > p[j]:
                            sign = -sign
                term = sign
                for i in range(n):
                    term *= rows[i][p[i]]
                total += term
            return total

        mat = [[raw(RAT, x) for x in row] for row in rows]
        got = determinant(RAT, mat)
        assert RAT.raw_eq(got, raw(RAT, perm_det(rows)))


def test_determinant_generic():
    f = GEN
    q = f.q().val
    one = raw(f, 1)
    # [[q, 1], [1, q^{-1}]] is singular
    qinv = f.raw_div(one, q)
    assert f.raw_is_zero(determinant(f, [[q, one], [one, qinv]]))
    # [[q, 1], [1, q]] has determinant q^2 - 1
    d = determinant(f, [[q, one], [one, q]])
    expect = f.raw_sub(f.raw_mul(q, q), one)
    assert f.raw_eq(d, expect)


def test_determinant_shape_check():
    with pytest.raises(LinAlgError):
        determinant(RAT, [[raw(RAT, 1), raw(RAT, 2)]])


def test_rank_generic():
    f = GEN
    q = f.q().val
    rho = f.rho().val
    vecs = [{0: q, 1: rho}, {0: f.raw_mul(q, q), 1: f.raw_mul(q, rho)},
            {1: rho}]
    assert rank(f, vecs) == 2
