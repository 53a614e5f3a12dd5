"""Sparse exact linear algebra over the scalar fields.

Vectors are dicts mapping hashable keys to raw field values (never zero),
the only scalars there are.

Accumulation goes through the field's in-place kernel
``field.vec_iaxpy(u, c, v)`` (u += c * v).  Callers own their accumulators:
``Echelon`` reduces a private copy of each input, and the pivot rows and
combinations it stores are never mutated once stored.

``Echelon`` scales each pivot row to leading coefficient 1 (a scaled row is
the kernel applied to an empty accumulator), and ``determinant`` is
Gaussian elimination that takes a pivot that is a unit (``raw_is_unit``)
when its column has one, so that over Q(q, rho) the elimination stays in R
where it can; neither is fraction-free.  Raw values are canonical, so ==
is the equality of scalars and of vectors.
"""


class LinAlgError(Exception):
    pass


class Echelon:
    """Incremental row echelon form with optional combination tracking.

    Each inserted vector is reduced against the stored pivot rows; a nonzero
    residue becomes a new pivot row scaled to leading coefficient 1.
    Pivot keys must be mutually comparable.
    """

    def __init__(self, field, track=False):
        self.field = field
        self.rows = {}  # pivot key -> row with leading coefficient 1
        self.track = track
        self.combos = {} if track else None  # pivot key -> combo over tags

    @property
    def rank(self):
        return len(self.rows)

    def _eliminate(self, vec):
        """(residue, {pivot key: coefficient}): vec less the coefficient
        times each pivot row, eliminated in key order until the leading key
        of the residue has no pivot row.  vec is not mutated."""
        f = self.field
        iaxpy, neg = f.vec_iaxpy, f.raw_neg
        vec = {k: c for k, c in vec.items() if not f.raw_is_zero(c)}
        rows = self.rows
        coeffs = {}
        while vec:
            piv = min(vec)
            row = rows.get(piv)
            if row is None:
                break
            c = coeffs[piv] = vec[piv]
            iaxpy(vec, neg(c), row)
        return vec, coeffs

    def insert(self, vec, tag=None):
        """Insert a vector; returns True if it enlarged the span.  A
        tracking echelon needs the tag that its combos name vec by."""
        f = self.field
        if self.track and tag is None:
            raise LinAlgError("a tracking echelon needs a tag")
        res, coeffs = self._eliminate(vec)
        if not res:
            return False
        piv = min(res)
        inv = f.raw_div(f.one, res[piv])
        self.rows[piv] = f.vec_iaxpy({}, inv, res)
        if self.track:
            combo = {tag: f.one}
            for key, c in coeffs.items():
                f.vec_iaxpy(combo, f.raw_neg(c), self.combos[key])
            self.combos[piv] = f.vec_iaxpy({}, inv, combo)
        return True

    def express(self, vec):
        """Write vec as {pivot key: raw coefficient} over the stored rows.

        Raises LinAlgError if vec lies outside the span.
        """
        res, coeffs = self._eliminate(vec)
        if res:
            raise LinAlgError("vector outside the span")
        return coeffs


def matrix_rank(field, matrix):
    ech = Echelon(field)
    for row in matrix:
        # insert drops the zero entries
        ech.insert(dict(enumerate(row)))
    return ech.rank


def determinant(field, matrix):
    """Determinant of a square matrix of raw field values.

    Ordinary Gaussian elimination; matrices here stay small enough that
    fraction growth is not a concern.
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
        det = f.raw_mul(det, lead)
        for i in range(col + 1, n):
            if f.raw_is_zero(m[i][col]):
                continue
            c = f.raw_neg(f.raw_div(m[i][col], lead))
            for j in range(col, n):
                m[i][j] = f.raw_add(m[i][j], f.raw_mul(c, m[col][j]))
    return det
