"""Iwahori-Hecke algebra of the symmetric group, with symmetrizer bases.

Elements are stored as dicts mapping one-line permutations to raw field
values.  The generator g_i satisfies (g_i - q)(g_i + q^{-1}) = 0 and words
multiply left to right under perm_mul.
"""

from dataclasses import dataclass
from itertools import permutations, product

from .combinat import (
    d_perm,
    partitions,
    perm_identity,
    perm_inverse,
    perm_length,
    reduced_word,
    std_tableaux,
    t_col,
    t_row,
)


@dataclass(frozen=True)
class MurphyLabel:
    """A shape together with an ordered pair of standard tableaux."""
    shape: object
    s: object
    t: object


class HeckeError(Exception):
    pass


class HeckeElement:
    """A finite linear combination of basis elements g_w."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        field = algebra.field
        self.algebra = algebra
        self.terms = {w: c for w, c in terms.items()
                      if not field.raw_is_zero(c)}

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        if self.algebra != other.algebra:
            return False
        if set(self.terms) != set(other.terms):
            return False
        f = self.algebra.field
        return all(f.raw_eq(c, other.terms[w]) for w, c in self.terms.items())

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __add__(self, other):
        self._check(other)
        f = self.algebra.field
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = f.raw_add(out[w], c) if w in out else c
        return HeckeElement(self.algebra, out)

    def __neg__(self):
        f = self.algebra.field
        return HeckeElement(self.algebra,
                            {w: f.raw_neg(c) for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, HeckeElement):
            self._check(other)
            return self.algebra.multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        f = self.algebra.field
        raw = self.algebra.as_raw(c)
        return HeckeElement(self.algebra,
                            {w: f.raw_mul(cv, raw)
                             for w, cv in self.terms.items()})

    def sigma(self):
        """The antiautomorphism fixing each g_i: g_w maps to g_{w^{-1}}."""
        return HeckeElement(self.algebra,
                            {perm_inverse(w): c
                             for w, c in self.terms.items()})

    def _check(self, other):
        if not isinstance(other, HeckeElement) \
                or other.algebra != self.algebra:
            raise HeckeError("operands belong to different algebras")

    def __repr__(self):
        return "HeckeElement(%d terms over S_%d)" % (
            len(self.terms), self.algebra.n)


class HeckeAlgebra:
    """The Hecke algebra H_n over a chosen scalar field."""

    def __init__(self, n, field):
        if n < 1:
            raise HeckeError("n must be at least 1")
        self.n = n
        self.field = field
        one = field.raw_from_int(1)
        self._q = field.q().val
        self._qinv = field.raw_div(one, self._q)
        self._qdiff = field.raw_sub(self._q, self._qinv)

    def __eq__(self, other):
        return isinstance(other, HeckeAlgebra) and self.n == other.n \
            and self.field == other.field

    def __hash__(self):
        return hash((self.n, self.field))

    def as_raw(self, c):
        if isinstance(c, int):
            return self.field.raw_from_int(c)
        if getattr(c, "field", None) is not None:
            return c.val
        return c

    def element(self, terms):
        return HeckeElement(self, {w: self.as_raw(c)
                                   for w, c in terms.items()})

    def zero(self):
        return HeckeElement(self, {})

    def one(self):
        return self.element({perm_identity(self.n): 1})

    def g(self, i):
        if not 1 <= i < self.n:
            raise HeckeError("generator index out of range")
        w = list(perm_identity(self.n))
        w[i - 1], w[i] = w[i], w[i - 1]
        return self.element({tuple(w): 1})

    def _times_gen(self, terms, i, inverse=False):
        """Right-multiply a raw term dict by g_i (or its inverse)."""
        f = self.field
        out = {}

        def acc(w, c):
            if w in out:
                s = f.raw_add(out[w], c)
                if f.raw_is_zero(s):
                    del out[w]
                else:
                    out[w] = s
            else:
                out[w] = c

        corr = f.raw_neg(self._qdiff) if inverse else self._qdiff
        for w, c in terms.items():
            a, b = w.index(i), w.index(i + 1)
            ws = list(w)
            ws[a], ws[b] = ws[b], ws[a]
            ws = tuple(ws)
            if a < b:
                # length goes up: g_w g_i = g_{ws_i} (+ correction if inverse)
                acc(ws, c)
                if inverse:
                    acc(w, f.raw_mul(c, corr))
            else:
                acc(ws, c)
                if not inverse:
                    acc(w, f.raw_mul(c, corr))
        return out

    def times_word(self, elem, word, inverse=False):
        """Right-multiply by the product of generators along word.

        With inverse=True the word is inverted: multiply by the inverses of
        the letters in reverse order.
        """
        terms = elem.terms
        letters = reversed(word) if inverse else word
        for i in letters:
            terms = self._times_gen(terms, i, inverse=inverse)
        return HeckeElement(self, terms)

    def g_word(self, word):
        return self.times_word(self.one(), word)

    def g_perm(self, w):
        return self.g_word(reduced_word(w))

    def multiply(self, x, y):
        f = self.field
        out = self.zero()
        for w, c in y.terms.items():
            t = self.times_word(x, reduced_word(w))
            out = out + t.scale(c)
        return out

    def basis(self):
        return [self.element({tuple(p): 1})
                for p in permutations(range(1, self.n + 1))]

    # -- Young subgroups and symmetrizers ---------------------------------

    def young_subgroup(self, lam, offset=0):
        """Elements of the row stabilizer of the row-filled tableau of
        shape lam placed at the given offset, as one-line permutations of
        {1, ..., n}."""
        if offset + lam.size > self.n:
            raise HeckeError("shape does not fit")
        rows = t_row(lam, offset).rows
        base = list(perm_identity(self.n))
        out = []
        for perms in product(*(permutations(r) for r in rows)):
            w = list(base)
            for orig, img in zip(rows, perms):
                for a, b in zip(orig, img):
                    w[a - 1] = b
            out.append(tuple(w))
        return out

    def _symmetrizer(self, lam, offset, coeff):
        f = self.field
        terms = {}
        for w in self.young_subgroup(lam, offset):
            terms[w] = coeff(perm_length(w))
        return HeckeElement(self, terms)

    def m_sym(self, lam, offset=0):
        """m_lam: sum of q^{l(w)} g_w over the row stabilizer."""
        q = self.field.q()
        return self._symmetrizer(lam, offset, lambda l: (q ** l).val)

    def n_sym(self, lam, offset=0):
        """n_lam: sum of (-q)^{-l(w)} g_w over the row stabilizer."""
        q = self.field.q()
        return self._symmetrizer(lam, offset,
                                 lambda l: ((-q) ** (-l)).val)

    # -- cellular-style bases ---------------------------------------------

    def murphy_pair(self, lam, s, t, kind="n"):
        """g_{d(s)^{-1}} x_lam g_{d(t)} for x the chosen symmetrizer."""
        mid = self.n_sym(lam) if kind == "n" else self.m_sym(lam)
        left = self.g_perm(perm_inverse(d_perm(s)))
        return left * mid * self.g_perm(d_perm(t))

    def murphy_basis_of_shape(self, lam, kind="n"):
        """All murphy_pair elements for standard tableaux of shape lam."""
        if lam.size != self.n:
            raise HeckeError("shape size must equal n")
        tabs = std_tableaux(lam)
        return [(MurphyLabel(lam, s, t), self.murphy_pair(lam, s, t, kind))
                for s in tabs for t in tabs]

    def murphy_basis(self, kind="n"):
        """The full cellular basis, all shapes of size n."""
        out = []
        for lam in partitions(self.n):
            out.extend(self.murphy_basis_of_shape(lam, kind))
        return out

    def specht_basis(self, lam):
        """m_lam g_{d(t_lam)} n_{lam'} g_{d(t)} over standard tableaux t of
        the conjugate shape."""
        if lam.size != self.n:
            raise HeckeError("shape size must equal n")
        head = self.m_sym(lam) * self.g_perm(d_perm(t_col(lam))) \
            * self.n_sym(lam.conjugate())
        return [head * self.g_perm(d_perm(t))
                for t in std_tableaux(lam.conjugate())]

