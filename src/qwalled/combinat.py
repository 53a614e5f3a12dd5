"""Partitions, bipartitions, tableaux, dominance order, nodes, and the
distinguished coset representatives indexing the arc placements.

Tableaux for the layer-f piece of the algebra carry entries f+1, ..., f+n
so that no re-indexing is needed when they meet the generators g_{f+1}, ...
"""
import math
from collections import namedtuple


class CombinatError(Exception):
    pass


# ---------------------------------------------------------------------------
# partitions

class Partition(tuple):
    """A weakly decreasing tuple of positive integers; lam[i] is 0 past the
    last part."""

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(int(p) for p in parts)
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise CombinatError("parts must be weakly decreasing: %r" % (parts,))
        if any(p < 0 for p in parts):
            raise CombinatError("parts must be positive")
        # weakly decreasing and non-negative: the zeros trail
        return super().__new__(cls, (p for p in parts if p))

    @property
    def parts(self):
        return tuple(self)

    @property
    def size(self):
        return sum(self)

    def __getitem__(self, i):
        return tuple.__getitem__(self, i) if i < len(self) else 0

    def __repr__(self):
        return "Partition(%r)" % (self.parts,)

    def partial_sums(self, length=None):
        if length is None:
            length = len(self)
        sums, acc = [], 0
        for i in range(length):
            acc += self[i]
            sums.append(acc)
        return tuple(sums)

    def remove_node(self, node):
        if node not in nodes_removable(self):
            raise CombinatError("%r is not removable from %r" % (node, self))
        parts = list(self)
        parts[node.row - 1] -= 1
        return Partition(parts)

    def add_node(self, node):
        if node not in nodes_addable(self):
            raise CombinatError("%r is not addable to %r" % (node, self))
        parts = list(self) + [0]
        parts[node.row - 1] += 1
        return Partition(parts)

    def boxes(self):
        return [(i + 1, j + 1) for i, p in enumerate(self) for j in range(p)]


def partitions(n):
    """All partitions of n, in descending lexicographic order."""
    out = []

    def rec(rest, maxpart, prefix):
        if rest == 0:
            out.append(Partition(prefix))
            return
        for p in range(min(rest, maxpart), 0, -1):
            rec(rest - p, p, prefix + [p])
    rec(n, n if n else 1, [])
    return out


def dominance_cmp(a, b):
    """Three-valued dominance compare: 1 (a dominates), 0, -1, or None."""
    if a.size != b.size:
        raise CombinatError("dominance needs equal sizes")
    if a == b:
        return 0
    length = max(len(a), len(b))
    sa = a.partial_sums(length)
    sb = b.partial_sums(length)
    if all(x >= y for x, y in zip(sa, sb)):
        return 1
    if all(x <= y for x, y in zip(sa, sb)):
        return -1
    return None


# ---------------------------------------------------------------------------
# bipartitions and cell labels

class Bipartition(namedtuple("Bipartition", "first second")):
    """A pair (lambda^(1), lambda^(2)) of partitions."""

    __slots__ = ()

    def __new__(cls, first, second):
        return super().__new__(cls, Partition(first), Partition(second))

    @property
    def size(self):
        return (self.first.size, self.second.size)

    def __repr__(self):
        return "Bipartition(%r, %r)" % (self.first.parts, self.second.parts)


def bip_dominance_cmp(a, b):
    """Componentwise dominance compare of bipartitions, three-valued."""
    c1 = dominance_cmp(a.first, b.first)
    c2 = dominance_cmp(a.second, b.second)
    if c1 is None or c2 is None:
        return None
    if c1 == c2:
        return c1
    if 0 in (c1, c2):
        return c1 or c2
    return None


def label_cmp(a, b):
    """Compare cell labels (f, lambda): layer first, then componentwise
    dominance.  Returns 1, 0, -1 or None."""
    fa, la = a
    fb, lb = b
    if fa > fb:
        return 1
    if fa < fb:
        return -1
    return bip_dominance_cmp(la, lb)


def label_sort_key(label, r, s):
    """A fixed linear extension: f descending, then partial sums
    lexicographically descending (dominant labels first)."""
    f, lam = label
    k1 = tuple(-x for x in lam.first.partial_sums(r - f))
    k2 = tuple(-x for x in lam.second.partial_sums(s - f))
    return (-f, k1, k2)


def bipartitions(n1, n2):
    return [Bipartition(p1, p2)
            for p1 in partitions(n1) for p2 in partitions(n2)]


def labels(r, s):
    """All cell labels (f, lambda) for B_{r,s}, in the fixed linear
    extension (higher labels first)."""
    out = []
    for f in range(min(r, s) + 1):
        out.extend((f, lam) for lam in bipartitions(r - f, s - f))
    out.sort(key=lambda lab: label_sort_key(lab, r, s))
    return out


# ---------------------------------------------------------------------------
# nodes

Node = namedtuple("Node", "row col")


def nodes_removable(lam):
    """Removable nodes, ordered so that removal produces dominance-
    decreasing results (row index descending)."""
    out = []
    for i in range(len(lam), 0, -1):
        if lam[i - 1] - 1 >= lam[i]:
            out.append(Node(i, lam[i - 1]))
    return out


def nodes_addable(lam):
    """Addable nodes, ordered so that addition produces dominance-
    decreasing results (row index ascending)."""
    out = [Node(1, lam[0] + 1)]
    for i in range(2, len(lam) + 2):
        if lam[i - 2] >= lam[i - 1] + 1:
            out.append(Node(i, lam[i - 1] + 1))
    return out


# ---------------------------------------------------------------------------
# tableaux

class StdTableau(namedtuple("StdTableau", "rows offset")):
    """A standard tableau with entries offset+1, ..., offset+n."""

    __slots__ = ()

    def __new__(cls, rows, offset=0):
        rows = tuple(tuple(row) for row in rows)
        n = sum(len(row) for row in rows)
        entries = sorted(x for row in rows for x in row)
        if entries != list(range(offset + 1, offset + n + 1)):
            raise CombinatError("entries must be offset+1..offset+n")
        rows_ok = all(a < b for row in rows for a, b in zip(row, row[1:]))
        cols_ok = all(len(upper) >= len(lower)
                      and all(a < b for a, b in zip(upper, lower))
                      for upper, lower in zip(rows, rows[1:]))
        if not (rows_ok and cols_ok):
            raise CombinatError("tableau is not standard")
        return super().__new__(cls, rows, offset)

    @property
    def shape(self):
        return Partition(len(row) for row in self.rows)

    @property
    def size(self):
        return sum(len(row) for row in self.rows)

    def __repr__(self):
        return "StdTableau(%r, offset=%d)" % (self.rows, self.offset)


def t_row(lam, offset=0):
    """The row-reading tableau t^lambda."""
    rows, k = [], offset
    for p in lam:
        rows.append(tuple(range(k + 1, k + p + 1)))
        k += p
    return StdTableau(rows, offset)


def std_tableaux(lam, offset=0):
    """All standard tableaux of a partition shape, entries offset+1.."""
    n = lam.size
    out = []

    def rec(shape_rows, filled):
        if filled == n:
            out.append(StdTableau(shape_rows, offset))
            return
        value = offset + filled + 1
        for i in range(len(lam)):
            row_len = len(shape_rows[i])
            if row_len < lam[i] and (
                    i == 0 or len(shape_rows[i - 1]) > row_len):
                new_rows = list(shape_rows)
                new_rows[i] = shape_rows[i] + (value,)
                rec(tuple(new_rows), filled + 1)
    rec(tuple(() for _ in lam), 0)
    return out


def std_tableau_pairs(bip, offset=0):
    """Std(lambda) for a bipartition: all pairs of standard tableaux."""
    return [(t1, t2) for t1 in std_tableaux(bip.first, offset)
            for t2 in std_tableaux(bip.second, offset)]


def count_std(lam):
    """|Std(lambda)| by the hook length formula; for a bipartition, the
    product over its components."""
    if isinstance(lam, Bipartition):
        return count_std(lam.first) * count_std(lam.second)
    hooks = 1
    for i, p in enumerate(lam):
        for j in range(p):
            # arm p - j - 1, leg (column length of j) - i - 1, and the box
            hooks *= p - j + sum(1 for x in lam if x > j) - i - 1
    return math.factorial(lam.size) // hooks


# ---------------------------------------------------------------------------
# permutations (one-line form over 1..n, optionally fixing an offset prefix)

def perm_identity(n):
    return tuple(range(1, n + 1))


def perm_inverse(u):
    out = [0] * len(u)
    for i, x in enumerate(u):
        out[x - 1] = i + 1
    return tuple(out)


def perm_length(u):
    return sum(1 for i in range(len(u)) for j in range(i + 1, len(u))
               if u[i] > u[j])


def reduced_word(u):
    """A reduced word [i1, i2, ...] with u = s_{i1} s_{i2} ... (bubble
    descent; indices refer to adjacent transpositions s_i = (i, i+1))."""
    u = list(u)
    word = []
    n = len(u)
    for target in range(n, 0, -1):
        pos = u.index(target)
        # move the largest remaining value to its place
        while pos + 1 < target:
            u[pos], u[pos + 1] = u[pos + 1], u[pos]
            word.append(pos + 1)
            pos += 1
    return word


def d_perm(t):
    """The unique permutation w with t^lambda . w = t, as a one-line
    permutation of {1, ..., offset+n} fixing 1..offset.

    The action permutes entries: box b of t holds w(t^lambda(b))."""
    lam = t.shape
    tref = t_row(lam, t.offset)
    n = t.offset + t.size
    out = list(range(1, n + 1))
    for i, row in enumerate(tref.rows):
        for j, x in enumerate(row):
            out[x - 1] = t.rows[i][j]
    return tuple(out)


# ---------------------------------------------------------------------------
# coset representatives

def s_range_word(i, j):
    """Word of s_{i,j}: s_{i-1}...s_j for i > j, empty for i = j,
    s_i s_{i+1} ... s_{j-1} for i < j."""
    if i > j:
        return list(range(i - 1, j - 1, -1))
    if i < j:
        return list(range(i, j))
    return []


class CosetRep(namedtuple("CosetRep", "i_list j_list")):
    """Indices (i_1 < ... < i_f; j_1, ..., j_f with j_k >= k) encoding
    d = s_{f,i_f} s*_{f,j_f} ... s_{1,i_1} s*_{1,j_1}."""

    __slots__ = ()

    def __new__(cls, i_list, j_list):
        i_list = tuple(i_list)
        j_list = tuple(j_list)
        if len(i_list) != len(j_list):
            raise CombinatError("index lists must have equal length")
        if any(i_list[k] >= i_list[k + 1] for k in range(len(i_list) - 1)):
            raise CombinatError("i indices must be strictly increasing")
        if any(j_list[k] < k + 1 for k in range(len(j_list))):
            raise CombinatError("j_k >= k required")
        return super().__new__(cls, i_list, j_list)

    @property
    def f(self):
        return len(self.i_list)

    def __repr__(self):
        return "CosetRep(%r, %r)" % (self.i_list, self.j_list)


def coset_reps(r, s, f):
    """Enumerate D^f_{r,s}; cardinality C(r,f) C(s,f) f!."""
    if not (0 <= f <= min(r, s)):
        raise CombinatError("f out of range")
    from itertools import combinations, product
    out = []
    for i_list in combinations(range(1, r + 1), f):
        for j_list in product(*(range(k + 1, s + 1) for k in range(f))):
            out.append(CosetRep(i_list, j_list))
    return out


def coset_count(r, s, f):
    return math.comb(r, f) * math.comb(s, f) * math.factorial(f)


# ---------------------------------------------------------------------------
# e-restriction

def e_restricted(bip, e):
    """True iff both components have all successive gaps < e (including the
    final part against 0).  Always true at e = infinity."""
    if e == math.inf:
        return True
    for lam in bip:
        for i in range(len(lam)):
            if lam[i] - lam[i + 1] >= e:
                return False
    return True
