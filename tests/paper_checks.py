"""Constructions that more than one test file checks the paper with, and
that the package itself never needs."""

from qwalled.cellular import cellular_data, coset_letters
from qwalled.combinat import perm_identity, perm_length, reduced_word
from qwalled.engine import act, g_tok, gs_tok
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
    word = coset_letters(rep)
    return (perm_from_word([int(t[1:]) for t in word if t[1] != "s"], r),
            perm_from_word([int(t[2:]) for t in word if t[1] == "s"], s))


def m_factor(engine, lam, offset, starred):
    """m_lam = sum of q^{l(w)} g_w over the row stabilizer of lam placed at
    the offset, on the g strands or (starred) the g* strands, as a factor
    for engine.evaluate_factors."""
    alg = HeckeAlgebra(engine.s if starred else engine.r, engine.field)
    f = engine.field
    mk = gs_tok if starred else g_tok
    return [(f.raw_pow(f.q, perm_length(w)),
             [mk(i) for i in reduced_word(w)])
            for w in alg.young_subgroup(lam, offset)]


def product(engine, x, y):
    """The product x y of two engine vectors: x times the basis word of each
    term of y."""
    iaxpy = engine.field.vec_iaxpy
    out = {}
    for t, c in y.items():
        iaxpy(out, c, act(engine, x, engine.basis_words[t]))
    return out


def module_row(mod, b, x):
    """Row b of the action of the engine vector x on the cell module of a
    full engine, the long way: the engine product C_{anchor, b} x, taken to
    module coordinates through the cellular basis.  It is the reference for
    the module's own action (act and evaluate_factors on the module)."""
    data = cellular_data(mod.engine)
    c = data.items[data.index[(mod.label, mod.anchor, b)]][3]
    return mod._extract(data, product(mod.engine, c, x))


def module_matrix(mod, x):
    """The action matrix of the engine element x, row by row module_row."""
    return [module_row(mod, b, x) for b in mod.basis]
