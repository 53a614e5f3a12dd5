"""Young symmetrizers of the Iwahori-Hecke algebra H_n.

A symmetrizer is a dict mapping one-line permutations w to the raw field
coefficient of g_w, where g_i satisfies (g_i - q)(g_i + q^{-1}) = 0.  Its
products are taken in the walled Brauer engine: H_r (x) H_s is the layer-0
quotient B/J_1, whose one extra generator is e_1 and whose dimension is
r! s!, built by ``engine.build_engine(r, s, field, layer=0)``.
"""

from itertools import permutations, product

from .combinat import perm_identity, perm_length, t_row


class HeckeError(Exception):
    pass


class HeckeAlgebra:
    """The row-stabilizer symmetrizers of H_n over a chosen scalar field."""

    def __init__(self, n, field):
        if n < 1:
            raise HeckeError("n must be at least 1")
        self.n = n
        self.field = field

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

    def n_sym(self, lam, offset=0):
        """n_lam: sum of (-q)^{-l(w)} g_w over the row stabilizer."""
        q = self.field.q()
        return {w: ((-q) ** (-perm_length(w))).val
                for w in self.young_subgroup(lam, offset)}
