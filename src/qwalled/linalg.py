"""Sparse exact linear algebra over the scalar fields.

Vectors are dicts mapping hashable keys to raw field values (never zero).
Working on raw values keeps the hot loops cheap; callers wrap results in
FieldElement only at the boundary.

Accumulation goes through the field's in-place kernel
``field.vec_iaxpy(u, c, v)`` (u += c * v).  Callers own their accumulators:
``Echelon`` reduces a private copy of each input, and the pivot rows and
combinations it stores are never mutated once stored.

``Echelon`` scales each pivot row to leading coefficient 1 (a scaled row is
the kernel applied to an empty accumulator), and ``determinant`` is
Gaussian elimination that normalizes every entry and takes a pivot that is
a unit (``raw_is_unit``) when its column has one, so that over Q(q, rho)
the elimination stays in R where it can; neither is fraction-free.
"""


class LinAlgError(Exception):
    pass


class Echelon:
    """Incremental row echelon form with optional combination tracking.

    Each inserted vector is reduced against the stored pivot rows; a nonzero
    residue becomes a new pivot row normalized to leading coefficient 1.
    Pivot keys must be mutually comparable.
    """

    def __init__(self, field, track=False):
        self.field = field
        self.rows = {}  # pivot key -> normalized row
        self.track = track
        self.combos = {} if track else None  # pivot key -> combo over tags

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec, combo=None):
        """Reduce vec against the pivots; returns (residue, combo).

        combo, when given, is carried along so that it stays a valid
        expression of the residue in terms of the tagged input vectors.
        Neither argument is mutated.
        """
        f = self.field
        iaxpy = f.vec_iaxpy
        vec = {k: c for k, c in vec.items() if not f.raw_is_zero(c)}
        track = combo is not None and self.track
        if track:
            combo = dict(combo)
        rows = self.rows
        while vec:
            piv = min(vec)
            row = rows.get(piv)
            if row is None:
                break
            c = f.raw_neg(vec[piv])
            iaxpy(vec, c, row)
            if track:
                iaxpy(combo, c, self.combos[piv])
        return vec, combo

    def insert(self, vec, tag=None):
        """Insert a vector; returns True if it enlarged the span.  A
        tracking echelon needs the tag that its combos name vec by."""
        f = self.field
        combo = None
        if self.track:
            if tag is None:
                raise LinAlgError("a tracking echelon needs a tag")
            combo = {tag: f.raw_from_int(1)}
        res, combo = self.reduce(vec, combo)
        if not res:
            return False
        piv = min(res)
        inv = f.raw_div(f.raw_from_int(1), res[piv])
        self.rows[piv] = f.vec_iaxpy({}, inv, res)
        if self.track:
            self.combos[piv] = f.vec_iaxpy({}, inv, combo)
        return True

    def express(self, vec):
        """Write vec as {pivot key: raw coefficient} over the stored rows.

        Raises LinAlgError if vec lies outside the span.
        """
        f = self.field
        iaxpy = f.vec_iaxpy
        vec = {k: c for k, c in vec.items() if not f.raw_is_zero(c)}
        rows = self.rows
        out = {}
        while vec:
            piv = min(vec)
            row = rows.get(piv)
            if row is None:
                raise LinAlgError("vector outside the span")
            c = vec[piv]
            out[piv] = c
            iaxpy(vec, f.raw_neg(c), row)
        return out


def matrix_rank(field, matrix):
    ech = Echelon(field)
    for row in matrix:
        # insert drops the zero entries
        ech.insert(dict(enumerate(row)))
    return ech.rank


def determinant(field, matrix):
    """Determinant of a square matrix of raw field values.

    Ordinary Gaussian elimination with a normalization pass per entry;
    matrices here stay small enough that fraction growth is not a concern.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise LinAlgError("matrix is not square")
    f = field
    m = [list(row) for row in matrix]
    det = f.raw_from_int(1)
    for col in range(n):
        rows = [i for i in range(col, n) if not f.raw_is_zero(m[i][col])]
        if not rows:
            return f.raw_from_int(0)
        # a unit pivot keeps the elimination in the field's native values;
        # failing one, the smallest value makes the cheapest quotients
        piv = min(rows, key=lambda i: (not f.raw_is_unit(m[i][col]),
                                       f.raw_size(m[i][col])))
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = f.raw_neg(det)
        lead = m[col][col]
        det = f.normalize(f.raw_mul(det, lead))
        for i in range(col + 1, n):
            if f.raw_is_zero(m[i][col]):
                continue
            c = f.raw_neg(f.raw_div(m[i][col], lead))
            for j in range(col, n):
                m[i][j] = f.normalize(
                    f.raw_add(m[i][j], f.raw_mul(c, m[col][j])))
    return det
