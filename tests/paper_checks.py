"""Constructions that more than one test file checks the paper with, and
that the package itself never needs."""

from qwalled.cellular import cellular_data
from qwalled.combinat import perm_identity, perm_length, reduced_word
from qwalled.engine import g_tok, gs_tok
from qwalled.hecke import HeckeAlgebra


def perm_mul(u, v):
    """(uv)(i) = v(u(i)): apply u first, then v."""
    return tuple(v[u[i] - 1] for i in range(len(u)))


def perm_from_word(word, n):
    """Product of adjacent transpositions under perm_mul, in word order.

    Right-multiplying u by s_i swaps the values i and i+1 in the one-line
    form of u.
    """
    u = list(perm_identity(n))
    for i in word:
        a, b = u.index(i), u.index(i + 1)
        u[a], u[b] = u[b], u[a]
    return tuple(u)


def perm_pair(rep, r, s):
    """The element of S_r x S_s that a coset representative stands for."""
    word = rep.word_pairs()
    return (perm_from_word([i for kind, i in word if kind == "g"], r),
            perm_from_word([j for kind, j in word if kind == "gs"], s))


def m_factor(engine, lam, offset, starred):
    """m_lam = sum of q^{l(w)} g_w over the row stabilizer of lam placed at
    the offset, on the g strands or (starred) the g* strands, as a factor
    for engine.evaluate_factors."""
    alg = HeckeAlgebra(engine.s if starred else engine.r, engine.field)
    f = engine.field
    mk = gs_tok if starred else g_tok
    return [(f.raw_pow(f.q, perm_length(w)),
             [(mk(i), 1) for i in reduced_word(w)])
            for w in alg.young_subgroup(lam, offset)]


def module_row(mod, b, x):
    """Row b of the action of the engine element x on the cell module of a
    full engine, the long way: the engine product C_{anchor, b} x, taken to
    module coordinates through the cellular basis.  It is the reference for
    CellModule.factors_matrix."""
    data = cellular_data(mod.engine)
    c = data.items[data.index[(mod.label, mod.anchor, b)]][3]
    return mod._extract(data, (c * x).terms)


def module_matrix(mod, x):
    """The action matrix of the engine element x, row by row module_row."""
    return [module_row(mod, b, x) for b in mod.basis]


def same_matrix(field, a, b):
    """Equality of two matrices of sparse rows over the field."""
    zero = field.raw_from_int(0)
    return len(a) == len(b) and all(
        field.raw_eq(ra.get(k, zero), rb.get(k, zero))
        for ra, rb in zip(a, b) for k in set(ra) | set(rb))
