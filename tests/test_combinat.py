"""Tests for partitions, tableaux, dominance, nodes, and coset reps."""

import math
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from paper_checks import perm_from_word, perm_mul, perm_pair
from qwalled.combinat import (
    Bipartition,
    CombinatError,
    CosetRep,
    Node,
    Partition,
    StdTableau,
    bip_dominance_cmp,
    coset_count,
    coset_reps,
    content_scalar,
    count_std,
    d_perm,
    dominance_cmp,
    e_restricted,
    label_cmp,
    labels,
    nodes_addable,
    nodes_removable,
    partitions,
    perm_identity,
    perm_inverse,
    perm_length,
    reduced_word,
    std_tableau_pairs,
    std_tableaux,
    t_row,
)
from qwalled.groundfield import GenericField

GEN = GenericField()


@st.composite
def small_partitions(draw, max_size=8):
    n = draw(st.integers(0, max_size))
    opts = partitions(n)
    return opts[draw(st.integers(0, len(opts) - 1))]


# ---------------------------------------------------------------------------
# partitions and dominance

def test_partition_basics():
    p = Partition((3, 2, 2))
    assert p.size == 7
    with pytest.raises(CombinatError):
        Partition((1, 2))
    # the order is checked on the parts as given; trailing zeros go
    assert Partition((2, 1, 0, 0)).parts == (2, 1)
    for parts in ((0, 1), (1, 0, 2)):
        with pytest.raises(CombinatError) as exc:
            Partition(parts)
        assert repr(parts) in str(exc.value)


def test_partitions_count():
    # p(n) for n = 0..9
    for n, pn in enumerate([1, 1, 2, 3, 5, 7, 11, 15, 22, 30]):
        assert len(partitions(n)) == pn


def test_dominance_examples():
    assert dominance_cmp(Partition((2,)), Partition((1, 1))) == 1
    assert dominance_cmp(Partition((1, 1)), Partition((2,))) == -1
    assert dominance_cmp(Partition((3, 3)), Partition((4, 1, 1))) is None


@given(small_partitions(), small_partitions())
def test_dominance_antisymmetric(a, b):
    if a.size != b.size:
        return
    ca = dominance_cmp(a, b)
    cb = dominance_cmp(b, a)
    if ca == 0:
        assert a == b
    if ca == 1:
        assert cb == -1
    if ca is None:
        assert cb is None


@given(small_partitions(), small_partitions(), small_partitions())
@settings(max_examples=60)
def test_dominance_transitive(a, b, c):
    if not (a.size == b.size == c.size):
        return
    if dominance_cmp(a, b) in (0, 1) and dominance_cmp(b, c) in (0, 1):
        assert dominance_cmp(a, c) in (0, 1)


@given(small_partitions())
def test_dominance_reflexive(a):
    assert dominance_cmp(a, a) == 0


def test_label_order():
    lab1 = (1, Bipartition((1,), ()))
    lab0 = (0, Bipartition((2,), (1,)))
    assert label_cmp(lab1, lab0) == 1  # higher layer dominates any shape
    a = (0, Bipartition((2,), (1, 1)))
    b = (0, Bipartition((1, 1), (2,)))
    assert label_cmp(a, b) is None


def test_labels_enumeration():
    labs = labels(2, 1)
    assert len(labs) == 3
    assert labs[0] == (1, Bipartition((1,), ()))
    # linear extension never puts a dominated label first
    for i, x in enumerate(labs):
        for y in labs[i + 1:]:
            assert label_cmp(y, x) != 1


@pytest.mark.parametrize("r,s", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)])
def test_label_dim_bookkeeping(r, s):
    total = sum((count_std(lam) * coset_count(r, s, f)) ** 2
                for f, lam in labels(r, s))
    assert total == math.factorial(r + s)


# ---------------------------------------------------------------------------
# nodes

def test_nodes_examples():
    empty = Partition(())
    assert nodes_removable(empty) == []
    assert nodes_addable(empty) == [Node(1, 1)]
    lam = Partition((2, 1))
    assert {(p.row, p.col) for p in nodes_removable(lam)} == {(1, 2), (2, 1)}
    assert {(p.row, p.col) for p in nodes_addable(lam)} \
        == {(1, 3), (2, 2), (3, 1)}
    lam = Partition((4,))
    assert [(p.row, p.col) for p in nodes_removable(lam)] == [(1, 4)]
    assert [(p.row, p.col) for p in nodes_addable(lam)] == [(1, 5), (2, 1)]


@given(small_partitions())
def test_node_ordering_matches_dominance(lam):
    # removal results are dominance-decreasing along the returned order
    rems = [lam.remove_node(p) for p in nodes_removable(lam)]
    for a, b in zip(rems, rems[1:]):
        assert dominance_cmp(a, b) == 1
    adds = [lam.add_node(p) for p in nodes_addable(lam)]
    for a, b in zip(adds, adds[1:]):
        assert dominance_cmp(a, b) == 1


@given(small_partitions())
def test_add_remove_inverse(lam):
    for p in nodes_removable(lam):
        shrunk = lam.remove_node(p)
        assert shrunk.add_node(Node(p.row, p.col)) == lam
    for p in nodes_addable(lam):
        grown = lam.add_node(p)
        assert grown.remove_node(Node(p.row, p.col)) == lam


def test_content_scalar():
    f = GEN
    assert f.raw_is_zero(content_scalar(Node(1, 1, side=1), f))
    assert f.raw_is_zero(content_scalar(Node(2, 2, side=2), f))
    assert f.raw_eq(content_scalar(Node(1, 2, side=1), f), f.raw_neg(f.q))
    assert f.raw_eq(content_scalar(Node(1, 2, side=2), f),
                    f.raw_neg(f.raw_pow(f.q, -1)))
    # side 1 at general k: (1 - q^{2k}) / (q - q^{-1})
    k = 3
    expect = f.raw_div(f.raw_sub(f.one, f.raw_pow(f.q, 2 * k)),
                       f.raw_sub(f.q, f.raw_pow(f.q, -1)))
    assert f.raw_eq(content_scalar(Node(1, 1 + k, side=1), f), expect)


# ---------------------------------------------------------------------------
# tableaux

def test_std_tableaux_counts():
    assert len(std_tableaux(Partition((4,)))) == 1
    assert len(std_tableaux(Partition((2, 1)))) == 2
    assert len(std_tableau_pairs(Bipartition((1,), (1,)))) == 1
    # brute-force oracle on shape (3,2): fill and filter
    lam = Partition((3, 2))
    brute = 0
    for p in permutations(range(1, 6)):
        rows = (p[:3], p[3:])
        try:
            StdTableau(rows)
            brute += 1
        except CombinatError:
            pass
    assert len(std_tableaux(lam)) == brute == 5


@given(small_partitions())
@settings(max_examples=40)
def test_count_std_matches_enumeration(lam):
    if lam.size <= 6:
        assert count_std(lam) == len(std_tableaux(lam))


def test_offset_tableaux():
    lam = Partition((3, 2, 1))
    t = t_row(lam, offset=1)
    assert t.rows == ((2, 3, 4), (5, 6), (7,))
    assert all(s.offset == 1 for s in std_tableaux(lam, offset=1))


def _permuted(t, w):
    """The tableau with each entry x of t replaced by w(x)."""
    return StdTableau([[w[x - 1] for x in row] for row in t.rows], t.offset)


def test_d_perm():
    lam = Partition((4, 3, 1))
    assert d_perm(t_row(lam)) == perm_identity(8)
    # the column-reading tableau
    tl = StdTableau(((1, 4, 6, 8), (2, 5, 7), (3,)))
    assert _permuted(t_row(lam), d_perm(tl)) == tl


@given(small_partitions())
@settings(max_examples=30)
def test_d_perm_action(lam):
    if lam.size > 6:
        return
    for t in std_tableaux(lam):
        assert _permuted(t_row(lam), d_perm(t)) == t


# ---------------------------------------------------------------------------
# permutation words

@given(st.permutations(list(range(1, 7))))
@settings(max_examples=80)
def test_reduced_words(p):
    p = tuple(p)
    w = reduced_word(p)
    assert perm_from_word(w, len(p)) == p
    assert len(w) == perm_length(p)
    assert perm_mul(p, perm_inverse(p)) == perm_identity(len(p))


# ---------------------------------------------------------------------------
# coset representatives

def test_coset_reps_counts():
    assert len(coset_reps(2, 1, 1)) == 2
    assert coset_reps(3, 2, 0) == [CosetRep((), ())]
    assert len(coset_reps(2, 2, 2)) == 2
    for r, s in product(range(1, 5), repeat=2):
        for f in range(min(r, s) + 1):
            assert len(coset_reps(r, s, f)) == coset_count(r, s, f)
    with pytest.raises(CombinatError):
        coset_reps(2, 2, 3)


def _subgroup(r, s, f):
    """S_{r-f} x G_f x S_{s-f}: G_f is the diagonal S_f on the first f
    letters of both factors; the outer factors act on letters f+1..r and
    f+1..s."""
    gens = []
    for i in range(f + 1, r):
        gens.append((perm_from_word([i], r), perm_identity(s)))
    for j in range(f + 1, s):
        gens.append((perm_identity(r), perm_from_word([j], s)))
    for i in range(1, f):
        gens.append((perm_from_word([i], r), perm_from_word([i], s)))
    group = {(perm_identity(r), perm_identity(s))}
    frontier = list(group)
    while frontier:
        new = []
        for u, v in frontier:
            for gu, gv in gens:
                w = (perm_mul(u, gu), perm_mul(v, gv))
                if w not in group:
                    group.add(w)
                    new.append(w)
        frontier = new
    return group


@pytest.mark.parametrize("r,s", list(product(range(1, 5), range(1, 5))))
def test_coset_reps_brute_force(r, s):
    for f in range(min(r, s) + 1):
        sub = _subgroup(r, s, f)
        reps = coset_reps(r, s, f)
        seen = set()
        for d in reps:
            u, v = perm_pair(d, r, s)
            coset = frozenset((perm_mul(hu, u), perm_mul(hv, v))
                              for hu, hv in sub)
            seen.add(coset)
        assert len(seen) == len(reps)
        assert len(seen) * len(sub) == math.factorial(r) * math.factorial(s)


# ---------------------------------------------------------------------------
# e-restriction

def test_e_restricted():
    assert e_restricted(Bipartition((5, 3), (2, 2, 1)), math.inf)
    assert not e_restricted(Bipartition((2,), ()), 2)
    assert e_restricted(Bipartition((2, 1), (1, 1)), 3)
    assert not e_restricted(Bipartition((1,), (3,)), 3)


# ---------------------------------------------------------------------------
# semistandard truncation oracle

def _content(s, mu):
    """Each entry x of s replaced by the row of x in t^mu."""
    rowof = {x: i + 1 for i, row in enumerate(t_row(mu, s.offset).rows)
             for x in row}
    return tuple(tuple(rowof[x] for x in row) for row in s.rows)


def _is_semistandard(rows):
    return (all(row[j] <= row[j + 1]
                for row in rows for j in range(len(row) - 1))
            and all(rows[i][j] < rows[i + 1][j]
                    for i in range(len(rows) - 1)
                    for j in range(len(rows[i + 1]))))


def _truncation_verdict(lam, mu, ss_rows, s):
    """(verdict, strict) for the truncation property of semistandard
    fillings.

    mu must end with a part equal to 1, ss_rows be a semistandard
    lambda-filling of content mu, and s a standard lambda-tableau whose
    content rewrite is ss_rows.  verdict says that the shape of s below
    its top entry dominates nu = mu minus its last box, and strict marks
    proper dominance; equality holds exactly when lambda is nu plus one
    addable node."""
    n = lam.size
    ss_rows = tuple(tuple(row) for row in ss_rows)
    if mu.size != n or not mu.parts or mu.parts[-1] != 1:
        raise ValueError("mu must have size n and end with a part 1")
    if not _is_semistandard(ss_rows):
        raise ValueError("filling is not semistandard")
    if sorted(x for row in ss_rows for x in row) != sorted(
            i + 1 for i, p in enumerate(mu.parts) for _ in range(p)):
        raise ValueError("filling content differs from mu")
    if _content(s, mu) != ss_rows:
        raise ValueError("s does not rewrite to the given filling")
    nu = Partition(mu.parts[:-1])
    below_top = Partition(sum(1 for x in row if x < s.offset + n)
                          for row in s.rows)
    cmp_val = dominance_cmp(below_top, nu)
    if cmp_val == 0:
        assert any(nu.add_node(p) == lam for p in nodes_addable(nu))
    return cmp_val in (0, 1), cmp_val == 1


def test_truncation_oracle_growth_case():
    # lambda = nu + one addable node, with the canonical witness s
    nu = Partition((2, 1))
    for node in nodes_addable(nu):
        lam = nu.add_node(node)
        mu = Partition(list(nu.parts) + [1]) if nu.parts[-1] >= 1 else nu
        # mu = nu with an extra 1-part; the filling sends entry rows of
        # t^mu to rows; the largest entry sits in the added node's row
        rows = [[i + 1] * p for i, p in enumerate(nu.parts)]
        rows = [list(r) for r in rows]
        while len(rows) < node.row:
            rows.append([])
        rows[node.row - 1].append(len(mu.parts))
        srows = [list(t_row(nu).rows[i]) if i < len(nu.parts) else []
                 for i in range(len(rows))]
        srows[node.row - 1].append(lam.size)
        verdict, strict = _truncation_verdict(
            lam, mu, rows, StdTableau([r for r in srows if r]))
        assert verdict and not strict


def test_truncation_oracle_strict_case():
    # exhaustive over small shapes: every legal input satisfies the verdict
    seen_strict = 0
    for n in range(2, 6):
        for lam in partitions(n):
            for mu in partitions(n):
                if not mu.parts or mu.parts[-1] != 1:
                    continue
                for s in std_tableaux(lam):
                    rows = _content(s, mu)
                    if not _is_semistandard(rows):
                        continue
                    verdict, strict = _truncation_verdict(lam, mu, rows, s)
                    assert verdict
                    seen_strict += strict
    assert seen_strict > 0


def test_truncation_oracle_rejects_bad_input():
    lam = Partition((2, 1))
    mu = Partition((3,))
    with pytest.raises(ValueError):
        # mu does not end with a part equal to 1
        _truncation_verdict(lam, mu, ((1, 1), (1,)), std_tableaux(lam)[0])
    mu2 = Partition((1, 1, 1))
    with pytest.raises(ValueError):
        # non-semistandard filling
        _truncation_verdict(lam, mu2, ((2, 1), (3,)), std_tableaux(lam)[0])
