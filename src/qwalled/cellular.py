"""Cell structure of the walled Brauer algebra.

The basis C_{(s,e)(t,d)} = sigma(g_e) e^f n_{st} g_d is indexed by layer
labels (f, lambda) with lambda a bipartition of (r-f, s-f); coordinates with
respect to this basis give the cell modules, their generator actions, the
invariant Gram matrices, and the radical ranks.
"""

from collections import namedtuple

from .combinat import (
    Bipartition,
    CosetRep,
    coset_count,
    coset_reps,
    count_std,
    d_perm,
    label_cmp,
    labels,
    perm_inverse,
    reduced_word,
    s_range_word,
    std_tableau_pairs,
    t_row,
)
from .engine import act, evaluate_factors, g_tok, gs_tok, word_letters
from .hecke import HeckeAlgebra
from .linalg import Echelon, determinant, matrix_rank


class CellularError(Exception):
    pass


# ---------------------------------------------------------------------------
# labels

class CellLabel(namedtuple("CellLabel", "f shape")):
    """A layer f together with a bipartition of (r-f, s-f).

    A tuple, so it equals the bare pair (f, shape); every dict keyed by
    labels holds CellLabel keys only.
    """
    __slots__ = ()


class CellBasisLabel(namedtuple("CellBasisLabel", "tab rep")):
    """A pair of standard tableaux plus a coset representative."""
    __slots__ = ()


def cell_label(r, s, f, shape):
    """Validated label constructor."""
    shape = Bipartition(*shape)
    if not 0 <= f <= min(r, s):
        raise CellularError("layer %d out of range for (%d, %d)" % (f, r, s))
    if shape.size != (r - f, s - f):
        raise CellularError("component sizes %r, expected %r"
                            % (shape.size, (r - f, s - f)))
    return CellLabel(f, shape)


def cell_labels(r, s):
    """All labels in the fixed linear extension, higher labels first."""
    return [CellLabel(f, lam) for f, lam in labels(r, s)]


def basis_labels(r, s, label):
    """I(f, lambda) = Std(lambda) x D^f_{r,s}, in a fixed order."""
    reps = coset_reps(r, s, label.f)
    pairs = std_tableau_pairs(label.shape, offset=label.f)
    return [CellBasisLabel((t1, t2), rep)
            for (t1, t2) in pairs for rep in reps]


def coset_letters(rep):
    """The word of g_d for a coset rep d, leftmost factor first:
    g_{f,i_f} g*_{f,j_f} ... g_{1,i_1} g*_{1,j_1}, as letters."""
    out = []
    for k in range(rep.f, 0, -1):
        out += word_letters(g_tok, s_range_word(k, rep.i_list[k - 1]))
        out += word_letters(gs_tok, s_range_word(k, rep.j_list[k - 1]))
    return out


def anchor_label(label):
    """The distinguished index (t^lambda, identity rep)."""
    u = (t_row(label.shape.first, label.f),
         t_row(label.shape.second, label.f))
    ident = CosetRep(tuple(range(1, label.f + 1)),
                     tuple(range(1, label.f + 1)))
    return CellBasisLabel(u, ident)


def module_dimension(label, r, s):
    """dim C(f, lambda) = |Std(lambda)| * |D^f_{r,s}|."""
    return count_std(label.shape) * coset_count(r, s, label.f)


# ---------------------------------------------------------------------------
# the cellular basis as a product of factors (engine.evaluate_factors):
# C_{(s,e)(t,d)} = sigma(g_e) e^f n_{st} g_d, with n_{st} =
# sigma(g_{d(s1)} g*_{d(s2)}) n_lam g_{d(t1)} g*_{d(t2)}, is L T, the left
# factors L of (s, e) followed by the tail letters T of (t, d)

def symmetrizer_factor(engine, lam, offset, starred):
    """n_lam of the row stabilizer of lam placed at the offset, on the g
    strands or (starred) the g* strands."""
    alg = HeckeAlgebra(engine.s if starred else engine.r, engine.field)
    mk = gs_tok if starred else g_tok
    return [(c, word_letters(mk, reduced_word(w)))
            for w, c in alg.n_sym(lam, offset).items()]


def label_symmetrizers(engine, label):
    """n_lam as two factors: the symmetrizers of the two components of the
    label at offset f.  They depend on the label only."""
    return [symmetrizer_factor(engine, label.shape.first, label.f, False),
            symmetrizer_factor(engine, label.shape.second, label.f, True)]


def left_factors(engine, label, left, syms):
    """The factors of C_{(s,e)(t,d)} that depend on the left index only:
    the head word sigma(g_e) e^f sigma(g_{d(s1)} g*_{d(s2)}) and syms =
    label_symmetrizers(engine, label), the two factors of n_lam."""
    head = coset_letters(left.rep)[::-1]
    head += engine.ecap_letters(label.f)
    for tok, tab in zip((g_tok, gs_tok), left.tab):
        head += word_letters(tok, reduced_word(perm_inverse(d_perm(tab))))
    return [[(engine.field.one, head)], *syms]


def right_letters(right):
    """The tail g_{d(t1)} g*_{d(t2)} g_d of C_{(s,e)(t,d)}, which depends on
    the right index only, as letters."""
    tail = []
    for tok, tab in zip((g_tok, gs_tok), right.tab):
        tail += word_letters(tok, reduced_word(d_perm(tab)))
    tail += coset_letters(right.rep)
    return tail


def sigma_factors(factors):
    """The anti-involution on a product of factors."""
    return [[(c, letters[::-1]) for c, letters in factor]
            for factor in reversed(factors)]


# ---------------------------------------------------------------------------
# the full basis and its coordinate system

class _CellData:
    """The cellular basis elements of the engine, with a tracked coordinate
    echelon: every element for the full algebra, and for the block of
    layer f < min(r, s) those of layer f whose left index has the identity
    coset rep, the elements of e^f B (at f = 0 that is every index).

    C_{(s,e)(t,d)} is the head element of the left index (s, e), evaluated
    once per left index from left_factors, times the tail letters of the
    right index (t, d).  The tails go through a prefix memo {letters:
    vector} that lives for one left index, so rights that share tableaux
    share the products of their common prefixes.  Each item is (label,
    left, right, engine vector).
    """

    def __init__(self, engine):
        self.engine = engine
        self.labels = [label for label in cell_labels(engine.r, engine.s)
                       if not engine.is_block or label.f == engine.layer]
        self.items = []
        self.index = {}
        self.by_label = {}
        self.ech = Echelon(engine.field, track=True)
        for label in self.labels:
            bl = basis_labels(engine.r, engine.s, label)
            self.by_label[label] = bl
            syms = label_symmetrizers(engine, label)
            tails = [tuple(right_letters(right)) for right in bl]
            ident = anchor_label(label).rep
            for left in bl:
                if engine.is_block and left.rep != ident:
                    continue
                memo = {(): evaluate_factors(
                    engine, left_factors(engine, label, left, syms),
                    {0: engine.field.one})}
                for right, tail in zip(bl, tails):
                    vec = _tail_product(engine, memo, tail)
                    pos = len(self.items)
                    self.items.append((label, left, right, vec))
                    self.index[(label, left, right)] = pos
                    if not self.ech.insert(vec, tag=pos):
                        raise CellularError(
                            "singular transition matrix at %r" % (label,))
        if len(self.items) != engine.dim:
            raise CellularError("cellular basis size %d, expected %d"
                                % (len(self.items), engine.dim))

    def coords(self, vec):
        """Coordinates of an engine vector in the cellular basis."""
        iaxpy = self.engine.field.vec_iaxpy
        combos = self.ech.combos
        out = {}
        for piv, c in self.ech.express(vec).items():
            iaxpy(out, c, combos[piv])
        return out


def _tail_product(engine, memo, letters):
    """memo[()] times the letters, through the memo of their prefixes."""
    vec = memo.get(letters)
    if vec is None:
        vec = memo[letters] = act(
            engine, _tail_product(engine, memo, letters[:-1]), letters[-1:])
    return vec


def cellular_data(engine):
    """The engine's cellular coordinate system, built on first use."""
    if engine._cell_data is None:
        engine._cell_data = _CellData(engine)
    return engine._cell_data


# ---------------------------------------------------------------------------
# cell modules

class CellModule:
    """The right cell module C(f, lambda) in cellular coordinates.

    The basis is I(f, lambda).  act_table holds the generator rows in the
    engine's layout, {(basis index, token): row}, so act and
    evaluate_factors act on module vectors as on engine vectors; row
    (i, tok) is the class of C_{(u,a) i} * tok, with the anchor row (u,a)
    fixed to (t^lambda, identity).  The Gram matrix, its determinant and,
    over a function field, the determinant's reduced Laurent fraction are
    memoized on the module.
    """

    def __init__(self, engine, label, anchor=None):
        data = cellular_data(engine)
        if label not in data.by_label:
            raise CellularError("label %r not valid for (%d, %d) at layer %d"
                                % (label, engine.r, engine.s, engine.layer))
        self.engine = engine
        self.label = label
        self.field = engine.field
        self.basis = data.by_label[label]
        self.dim = len(self.basis)
        self.anchor = anchor if anchor is not None else anchor_label(label)
        if (label, self.anchor, self.anchor) not in data.index:
            raise CellularError("anchor is not a left index of the engine's "
                                "cellular basis")
        self.pos = {b: i for i, b in enumerate(self.basis)}
        self.anchor_index = self.pos[self.anchor]
        self.act_table = {}
        for i, b in enumerate(self.basis):
            x = data.items[data.index[(label, self.anchor, b)]][3]
            for tok in engine.tokens:
                self.act_table[(i, tok)] = self._extract(
                    data, act(engine, x, [(tok, 1)]))
        self._gram = None
        self._det = None
        self._det_fraction = None

    def _extract(self, data, vec):
        """Module coordinates of a vector lying in the cell ideal."""
        row = {}
        for pos, c in data.coords(vec).items():
            lab2, left2, right2, _ = data.items[pos]
            if lab2 == self.label:
                if left2 != self.anchor:
                    raise CellularError(
                        "action leaks to left index %r" % (left2,))
                row[self.pos[right2]] = c
            elif label_cmp(lab2, self.label) != 1:
                raise CellularError(
                    "action leaks to non-higher label %r" % (lab2,))
        return row

    def factors_matrix(self, factors):
        """Action matrix of a product of factors: row i is the unit row i
        through evaluate_factors."""
        one = self.field.one
        return [evaluate_factors(self, factors, {i: one})
                for i in range(self.dim)]


def cell_module(engine, label):
    """The engine's cell module C(f, lambda), built on first use."""
    mod = engine._modules.get(label)
    if mod is None:
        mod = engine._modules[label] = CellModule(engine, label)
    return mod


def gram_matrix(module):
    """The Gram matrix of the invariant form, as raw entries.

    Entry (i, b) is the coefficient of C_{(u,a)(u,a)} in the product
    C_{(u,a) i} C_{b (u,a)} modulo the higher ideal: the anchor coordinate
    of e_i sigma(C_{(u,a) b}) = e_i sigma(T_b) sigma(L), where C_{(u,a) b}
    = L T_b splits into the anchor's left factors and the tail letters of
    b.  Row k of the action of sigma(L) lies on the anchor, with coordinate
    z_k, so entry (i, b) = sum_k (e_i sigma(T_b))_k z_k.
    """
    if module._gram is not None:
        return module._gram
    f = module.field
    eng = module.engine
    anchor = module.anchor_index
    syms = label_symmetrizers(eng, module.label)
    z = {}
    for k, row in enumerate(module.factors_matrix(sigma_factors(
            left_factors(eng, module.label, module.anchor, syms)))):
        for j, c in row.items():
            if j != anchor and not f.raw_is_zero(c):
                raise CellularError("form value leaks off the anchor")
        if anchor in row:
            z[k] = row[anchor]
    cols = []
    for b in module.basis:
        col = []
        for row in module.factors_matrix([[(f.one, right_letters(b)[::-1])]]):
            val = f.raw_from_int(0)
            for k, c in row.items():
                if k in z:
                    val = f.raw_add(val, f.raw_mul(c, z[k]))
            col.append(val)
        cols.append(col)
    gram = [list(row) for row in zip(*cols)]
    module._gram = gram
    return gram


def gram_determinant(module):
    if module._det is None:
        module._det = determinant(module.field, gram_matrix(module))
    return module._det


def gram_determinant_fraction(module):
    """The reduced Laurent (numerator, denominator) of the Gram determinant
    of a module over Q(q, rho) or Q(q)."""
    if module._det_fraction is None:
        module._det_fraction = module.field.to_laurent_fraction(
            gram_determinant(module))
    return module._det_fraction


def radical_rank(module):
    """(rank of the Gram matrix, dimension of the radical)."""
    r = matrix_rank(module.field, gram_matrix(module))
    return r, module.dim - r


# ---------------------------------------------------------------------------
# cell datum validation

def validate_cell_datum(engine, alternate_anchors=None):
    """Check the three cell datum axioms; returns a per-axiom report.

    (a) the elements form a basis; (b) the anti-involution swaps the two
    indices; (c) the right action is triangular with structure coefficients
    independent of the left index (checked across all, or the given number
    of, alternative anchors; a number below 1 would check nothing and
    raises CellularError).
    """
    from .engine import sigma
    if engine.is_block:
        raise CellularError("the layer-%d block is not a cellular algebra"
                            % engine.layer)
    if alternate_anchors is not None and alternate_anchors < 1:
        raise CellularError("alternate_anchors must be at least 1")
    data = cellular_data(engine)
    report = {"basis": data.ech.rank == engine.dim, "involution": True,
              "triangular": True, "failures": []}
    for label, left, right, vec in data.items:
        mate = data.items[data.index[(label, right, left)]][3]
        if sigma(engine, vec) != mate:
            report["involution"] = False
            report["failures"].append(("involution", label, left, right))
    for label in data.labels:
        bl = data.by_label[label]
        anchors = bl if alternate_anchors is None \
            else bl[:alternate_anchors]
        reference = None
        for anchor in anchors:
            try:
                mod = CellModule(engine, label, anchor)
            except CellularError:
                report["triangular"] = False
                report["failures"].append(("triangular", label, anchor))
                continue
            if reference is None:
                reference = mod.act_table
            elif mod.act_table != reference:
                report["triangular"] = False
                report["failures"].append(("left-index", label, anchor))
    report["ok"] = (report["basis"] and report["involution"]
                    and report["triangular"])
    return report


# ---------------------------------------------------------------------------
# exports

def _label_text(label):
    return {"f": label.f,
            "first": list(label.shape.first),
            "second": list(label.shape.second)}

