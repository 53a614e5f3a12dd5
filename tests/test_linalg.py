"""Tests for the sparse exact linear algebra helpers."""

import random
from fractions import Fraction

import pytest

from qwalled.groundfield import (
    FieldElement,
    GenericField,
    PrimeField,
    RationalField,
    transfer_from_generic,
)
from qwalled.linalg import (
    Echelon,
    LinAlgError,
    determinant,
    matrix_rank,
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
    assert not e.reduce({0: raw(f, 5)})[0]
    assert e.reduce({2: raw(f, 1)})[0]


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
    with pytest.raises(LinAlgError):
        e.insert(vecs["a"])
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


def test_determinant_prefers_unit_pivots():
    # the Gram matrix of the (2,1)/(1,1) cell module of B_{3,2}: its first
    # column holds 1 + q^-2, not a unit of R, above the unit q
    from qwalled import groundfield
    f = GEN
    q = f.q()
    a, b, d = 1 + q ** -2, q, q ** 2 + q ** -2
    before = groundfield.fallbacks
    got = determinant(f, [[a.val, b.val], [b.val, d.val]])
    assert groundfield.fallbacks == before
    assert f.raw_eq(got, (a * d - b * b).val)


def _divisions(field, matrix):
    """The determinant and the (entry, pivot) pairs of its divisions."""
    pairs = []
    div = field.raw_div
    field.raw_div = lambda a, b: pairs.append((a, b)) or div(a, b)
    try:
        return determinant(field, matrix), pairs
    finally:
        del field.raw_div


def test_determinant_prefers_small_pivots():
    # no unit in the first column: the later 1 + q^2 is the pivot, not the
    # five-term value above it, and the determinant is unchanged
    import sympy
    f = GenericField()
    q, rho = f.q(), f.rho()
    big, small = 1 + q + q ** 2 + q ** 3 + rho, 1 + q ** 2
    mat = [[big, f(1), q], [small, rho, f(2)], [f(0), q, 1 + rho]]
    det, pairs = _divisions(f, [[e.val for e in row] for row in mat])
    assert f.raw_eq(pairs[0][1], small.val)
    x, y = sympy.symbols("q rho")
    ref = sympy.Matrix([[1 + x + x ** 2 + x ** 3 + y, 1, x],
                        [1 + x ** 2, y, 2], [0, x, 1 + y]]).det()
    for qv, rv in [(2, 3), (Fraction(3, 2), -5)]:
        at = RationalField(qv, rv)
        want = Fraction(str(ref.subs({x: qv, y: rv})))
        assert transfer_from_generic(FieldElement(f, det), at).val == want
        assert determinant(at, [[transfer_from_generic(e, at).val
                                 for e in row] for row in mat]) == want


def test_determinant_over_gfp_pivots_on_first_nonzero_row():
    # every nonzero value of GF(p) is a unit of one size: the elimination
    # is the one that takes the first nonzero row of each column
    rng = random.Random(5)
    p = 13
    for _ in range(20):
        n = rng.randrange(2, 6)
        rows = [[rng.choice([0, 0] + list(range(1, p))) for _ in range(n)]
                for _ in range(n)]
        want, work = [], [list(row) for row in rows]
        for col in range(n):
            piv = next((i for i in range(col, n) if work[i][col]), None)
            if piv is None:
                break
            work[col], work[piv] = work[piv], work[col]
            lead = work[col][col]
            for i in range(col + 1, n):
                if work[i][col]:
                    want.append((work[i][col], lead))
                    c = work[i][col] * pow(lead, -1, p)
                    work[i] = [(a - c * b) % p
                               for a, b in zip(work[i], work[col])]
        _, got = _divisions(PrimeField(p, 2, 6), rows)
        assert got == want


def test_determinant_shape_check():
    with pytest.raises(LinAlgError):
        determinant(RAT, [[raw(RAT, 1), raw(RAT, 2)]])


def test_rank_generic():
    f = GEN
    q = f.q().val
    rho = f.rho().val
    rows = [[q, rho], [f.raw_mul(q, q), f.raw_mul(q, rho)], [raw(f, 0), rho]]
    assert matrix_rank(f, rows) == 2
