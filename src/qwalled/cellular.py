"""Cell structure of the walled Brauer algebra.

The basis C_{(s,e)(t,d)} = sigma(g_e) e^f n_{st} g_d is indexed by layer
labels (f, lambda) with lambda a bipartition of (r-f, s-f); coordinates with
respect to this basis give the cell modules, their generator actions, the
invariant Gram matrices, and the radical ranks.
"""

import json
import math
from dataclasses import dataclass

from .combinat import (
    Bipartition,
    CosetRep,
    bip_dominance_cmp,
    coset_count,
    coset_reps,
    count_std,
    d_perm,
    label_cmp,
    labels,
    perm_inverse,
    reduced_word,
    std_tableau_pairs,
    t_row,
)
from .engine import AlgebraEngine, E_TOK, g_tok, gs_tok
from .groundfield import FieldElement
from .hecke import HeckeAlgebra
from .linalg import Echelon, LinAlgError, determinant, matrix_rank


class CellularError(Exception):
    pass


# ---------------------------------------------------------------------------
# labels

@dataclass(frozen=True)
class CellLabel:
    """A layer f together with a bipartition of (r-f, s-f)."""
    f: int
    shape: Bipartition

    @property
    def pair(self):
        return (self.f, self.shape)


@dataclass(frozen=True)
class CellBasisLabel:
    """A pair of standard tableaux plus a coset representative."""
    tab: tuple
    rep: CosetRep


def cell_label(r, s, f, shape):
    """Validated label constructor."""
    if not isinstance(shape, Bipartition):
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
# the cellular basis as a product of factors: a factor is a list of (raw
# coeff, letters) terms with letters (token, power) pairs; one-term factors
# (bare words, trivial symmetrizers) have coefficient one

def _perm_letters(w, mk):
    return [(mk(i), 1) for i in reduced_word(w)]


def _ecap_letters(engine, f):
    """Letters of e^f = e_{1,1} ... e_{f,f}."""
    return [x for i in range(1, f + 1) for x in engine.e_ij_letters(i, i)]


def symmetrizer_factor(engine, lam, offset, starred, kind="n"):
    """n_lam (kind "n") or m_lam (kind "m") of the row stabilizer of lam
    placed at the offset, on the g strands or (starred) the g* strands."""
    alg = HeckeAlgebra(engine.s if starred else engine.r, engine.field)
    sym = alg.n_sym(lam, offset) if kind == "n" else alg.m_sym(lam, offset)
    mk = gs_tok if starred else g_tok
    return [(c, _perm_letters(w, mk)) for w, c in sym.terms.items()]


def label_symmetrizers(engine, label):
    """n_lam as two factors: the symmetrizers of the two components of the
    label at offset f.  They depend on the label only."""
    return [symmetrizer_factor(engine, label.shape.first, label.f, False),
            symmetrizer_factor(engine, label.shape.second, label.f, True)]


def cellular_factors(engine, label, left, right, syms):
    """C_{(s,e)(t,d)} = sigma(g_e) e^f n_{st} g_d as a list of factors, with
    n_{st} = sigma(g_{d(s1)} g*_{d(s2)}) n_lam g_{d(t1)} g*_{d(t2)} and
    syms = label_symmetrizers(engine, label) the two factors of n_lam."""
    f = label.f
    head = [(tok, 1) for tok in reversed(left.rep.word_pairs())]
    head += _ecap_letters(engine, f)
    head += _perm_letters(perm_inverse(d_perm(left.tab[0])), g_tok)
    head += _perm_letters(perm_inverse(d_perm(left.tab[1])), gs_tok)
    tail = _perm_letters(d_perm(right.tab[0]), g_tok)
    tail += _perm_letters(d_perm(right.tab[1]), gs_tok)
    tail += [(tok, 1) for tok in right.rep.word_pairs()]
    return [[(engine._one_raw, head)], *syms, [(engine._one_raw, tail)]]


def sigma_factors(factors):
    """The anti-involution on a product of factors."""
    return [[(c, letters[::-1]) for c, letters in factor]
            for factor in reversed(factors)]


def evaluate_factors(engine, factors, x=None):
    """Right-multiply x (default the identity) by the product of factors."""
    x = engine.one() if x is None else x
    for factor in factors:
        if len(factor) == 1:
            x = engine.from_letters(factor[0][1], x)
            continue
        out = engine.zero()
        for c, letters in factor:
            out = out + engine.from_letters(letters, x).scale(c)
        x = out
    return x


def cellular_element(engine, label, left, right, syms):
    """C_{(s,e)(t,d)} = sigma(g_e) e^f n_{st} g_d, with syms as in
    cellular_factors."""
    return evaluate_factors(
        engine, cellular_factors(engine, label, left, right, syms))


# ---------------------------------------------------------------------------
# the full basis and its coordinate system

class _CellData:
    """All cellular basis elements with a tracked coordinate echelon."""

    def __init__(self, engine):
        if engine.extra_relations:
            raise CellularError("cellular basis needs the full algebra")
        self.engine = engine
        self.labels = cell_labels(engine.r, engine.s)
        self.items = []
        self.index = {}
        self.by_label = {}
        self.ech = Echelon(engine.field, track=True)
        for label in self.labels:
            bl = basis_labels(engine.r, engine.s, label)
            self.by_label[label] = bl
            syms = label_symmetrizers(engine, label)
            for left in bl:
                for right in bl:
                    elem = cellular_element(engine, label, left, right, syms)
                    pos = len(self.items)
                    self.items.append((label, left, right, elem))
                    self.index[(label, left, right)] = pos
                    if not self.ech.insert(elem.terms, tag=pos):
                        raise CellularError(
                            "singular transition matrix at %r" % (label,))
        if len(self.items) != engine.dim:
            raise CellularError("cellular basis size %d, expected %d"
                                % (len(self.items), engine.dim))

    def coords(self, terms):
        """Coordinates of an engine vector in the cellular basis."""
        iaxpy = self.engine.field.vec_iaxpy
        combos = self.ech.combos
        out = {}
        for piv, c in self.ech.express(terms).items():
            iaxpy(out, c, combos[piv])
        return out


def cellular_data(engine):
    data = getattr(engine, "_cell_data", None)
    if data is None:
        data = _CellData(engine)
        engine._cell_data = data
    return data


def cellular_basis(engine):
    """All (r+s)! basis elements as (label, left, right, element) tuples,
    ordered along the fixed linear extension of the label poset."""
    return list(cellular_data(engine).items)


# ---------------------------------------------------------------------------
# small matrices over raw values (rows are sparse dicts)

def _mat_identity(field, m):
    one = field.raw_from_int(1)
    return [{i: one} for i in range(m)]


def _mat_mul(field, a, b):
    iaxpy = field.vec_iaxpy
    out = []
    for row in a:
        acc = {}
        for k, c in row.items():
            iaxpy(acc, c, b[k])
        out.append(acc)
    return out


def _mat_axpy(field, a, c, b):
    """a + c * b as a fresh matrix."""
    iaxpy = field.vec_iaxpy
    return [iaxpy(dict(ra), c, rb) for ra, rb in zip(a, b)]


def _mat_zero(m):
    return [{} for _ in range(m)]


def _mat_trace(field, a):
    tr = field.raw_from_int(0)
    for i, row in enumerate(a):
        if i in row:
            tr = field.raw_add(tr, row[i])
    return tr


# ---------------------------------------------------------------------------
# cell modules

class CellModule:
    """The right cell module C(f, lambda) in cellular coordinates.

    The basis is I(f, lambda); generator actions are extracted from the
    coordinates of C_{(u,a)(t,d)} * token with the anchor row (u,a) fixed to
    (t^lambda, identity).
    """

    def __init__(self, engine, label, anchor=None):
        data = cellular_data(engine)
        if label not in data.by_label:
            raise CellularError("label %r not valid for (%d, %d)"
                                % (label, engine.r, engine.s))
        self.engine = engine
        self.label = label
        self.field = engine.field
        self.basis = data.by_label[label]
        self.dim = len(self.basis)
        self.anchor = anchor if anchor is not None else anchor_label(label)
        if self.anchor not in self.basis:
            raise CellularError("anchor is not an index of the module")
        self.pos = {b: i for i, b in enumerate(self.basis)}
        self.anchor_index = self.pos[self.anchor]
        self._tok = {}
        for tok in engine.tokens:
            rows = []
            for b in self.basis:
                x = data.items[data.index[(label, self.anchor, b)]][3]
                rows.append(self._extract(
                    data, engine.apply_token(x, tok).terms))
            self._tok[tok] = rows
        self._tok_inv = {}
        self._word_mats = {(): _mat_identity(self.field, self.dim)}
        self._gram = None

    def _extract(self, data, terms):
        """Module coordinates of a vector lying in the cell ideal."""
        row = {}
        for pos, c in data.coords(terms).items():
            lab2, left2, right2, _ = data.items[pos]
            if lab2 == self.label:
                if left2 != self.anchor:
                    raise CellularError(
                        "action leaks to left index %r" % (left2,))
                row[self.pos[right2]] = c
            elif label_cmp(lab2.pair, self.label.pair) != 1:
                raise CellularError(
                    "action leaks to non-higher label %r" % (lab2,))
        return row

    def element_vector(self, elem):
        """Module coordinates of an engine element of the cell ideal."""
        return self._extract(cellular_data(self.engine), elem.terms)

    def token_matrix(self, tok, power=1):
        if power == 1:
            return self._tok[tok]
        if power != -1 or tok == E_TOK:
            raise CellularError("bad token power")
        mat = self._tok_inv.get(tok)
        if mat is None:
            f = self.field
            mat = _mat_axpy(f, self._tok[tok],
                            f.raw_neg(self.engine._qdiff),
                            _mat_identity(f, self.dim))
            self._tok_inv[tok] = mat
        return mat

    def letters_matrix(self, letters):
        """Action matrix of a product of (token, power) letters."""
        a = _mat_identity(self.field, self.dim)
        for tok, p in letters:
            a = _mat_mul(self.field, a, self.token_matrix(tok, p))
        return a

    def word_matrix(self, word):
        mat = self._word_mats.get(word)
        if mat is None:
            mat = _mat_mul(self.field, self.word_matrix(word[:-1]),
                           self._tok[word[-1]])
            self._word_mats[word] = mat
        return mat

    def action_matrix(self, elem):
        """Action matrix of an arbitrary engine element."""
        f = self.field
        out = _mat_zero(self.dim)
        for t, c in elem.terms.items():
            out = _mat_axpy(f, out, c,
                            self.word_matrix(self.engine.basis_words[t]))
        return out

    def action_trace(self, elem):
        return FieldElement(self.field,
                            _mat_trace(self.field, self.action_matrix(elem)))

    def action_rank(self, elem):
        mat = self.action_matrix(elem)
        return matrix_rank(self.field, [
            [row.get(j, self.field.raw_from_int(0))
             for j in range(self.dim)] for row in mat])

    def factors_matrix(self, factors):
        """Action matrix of a product of factors."""
        f = self.field
        a = _mat_identity(f, self.dim)
        for factor in factors:
            if len(factor) == 1:
                for tok, p in factor[0][1]:
                    a = _mat_mul(f, a, self.token_matrix(tok, p))
                continue
            m = _mat_zero(self.dim)
            for c, letters in factor:
                m = _mat_axpy(f, m, c, self.letters_matrix(letters))
            a = _mat_mul(f, a, m)
        return a


def cell_module(engine, label, anchor=None):
    return CellModule(engine, label, anchor=anchor)


def gram_matrix(module):
    """The Gram matrix of the invariant form, as FieldElement entries.

    Entry (i, j) is the coefficient of C_{(u,a)(u,a)} in the product
    C_{(u,a) i} C_{j (u,a)} modulo the higher ideal.
    """
    if module._gram is not None:
        return module._gram
    f = module.field
    m = module.dim
    syms = label_symmetrizers(module.engine, module.label)
    cols = []
    for b in module.basis:
        # the action of sigma(C_{(u,a) b}) = C_{b (u,a)}
        a = module.factors_matrix(sigma_factors(cellular_factors(
            module.engine, module.label, module.anchor, b, syms)))
        col = []
        for i in range(m):
            row = a[i]
            for k, c in row.items():
                if k != module.anchor_index and not f.raw_is_zero(c):
                    raise CellularError("form value leaks off the anchor")
            col.append(row.get(module.anchor_index, f.raw_from_int(0)))
        cols.append(col)
    gram = [[FieldElement(f, cols[j][i]) for j in range(m)]
            for i in range(m)]
    module._gram = gram
    return gram


def gram_determinant(module):
    gram = gram_matrix(module)
    raw = determinant(module.field, [[e.val for e in row] for row in gram])
    return FieldElement(module.field, raw)


def radical_rank(module):
    """(rank of the Gram matrix, dimension of the radical)."""
    gram = gram_matrix(module)
    r = matrix_rank(module.field, [[e.val for e in row] for row in gram])
    return r, module.dim - r


# ---------------------------------------------------------------------------
# truncated Gram computation (no full coordinate system needed)

def _shifted_letters(engine, word, f):
    """Letters of a word of the (r-f, s-f) algebra inside the big one."""
    out = []
    for tok in word:
        if tok == E_TOK:
            out.extend(engine.e_ij_letters(f + 1, f + 1))
        else:
            out.append(((tok[0], tok[1] + f), 1))
    return out


def gram_via_truncation(engine, label):
    """The Gram matrix computed through the e^f sandwich.

    Products C_{(u,a) i} C_{j (u,a)} lie in e^f B e^f = B(f) e^f; the B(f)
    part is pushed to the Hecke quotient and the form value is read off in
    Murphy coordinates there.  Much cheaper than full cellular coordinates
    when only one label is needed.
    """
    f = engine.field
    fl = label.f
    rr, ss = engine.r - fl, engine.s - fl
    if rr < 1 or ss < 1:
        raise CellularError("truncated Gram needs a Hecke part on both sides")
    hq = AlgebraEngine(rr, ss, f,
                       extra_relations=[[(f.raw_from_int(1), (E_TOK,))]],
                       expected_dim=math.factorial(rr) * math.factorial(ss))
    small = AlgebraEngine(rr, ss, f)
    ecap = engine.from_letters(_ecap_letters(engine, fl))
    sandwich = Echelon(f, track=True)
    for t, word in enumerate(small.basis_words):
        x = engine.from_letters(_shifted_letters(engine, word, fl), ecap)
        if not sandwich.insert(x.terms, tag=t):
            raise CellularError("sandwich basis is dependent")
    murphy = _murphy_data(hq)
    bl = basis_labels(engine.r, engine.s, label)
    anchor = anchor_label(label)
    syms = label_symmetrizers(engine, label)
    rows = [cellular_element(engine, label, anchor, b, syms) for b in bl]
    cols = [sigma_factors(cellular_factors(engine, label, anchor, b, syms))
            for b in bl]
    m = len(bl)
    gram = []
    for i in range(m):
        gram_row = []
        for j in range(m):
            z = evaluate_factors(engine, cols[j], x=rows[i])
            try:
                coeffs = sandwich.express(z.terms)
            except LinAlgError:
                raise CellularError("product escapes the sandwich span")
            zb = {}
            for piv, c in coeffs.items():
                f.vec_iaxpy(zb, c, sandwich.combos[piv])
            zq = hq.zero()
            for t, c in zb.items():
                x = hq.from_letters([(tok, 1) for tok in small.basis_words[t]])
                zq = zq + x.scale(c)
            gram_row.append(FieldElement(
                f, _murphy_coefficient(murphy, label.shape, zq.terms)))
        gram.append(gram_row)
    return gram


class _MurphyData:
    """Murphy coordinates for the Hecke-quotient engine."""

    def __init__(self, hq):
        self.engine = hq
        self.items = []
        self.ech = Echelon(hq.field, track=True)
        ident = CosetRep((), ())
        shapes = [lab for lab in cell_labels(hq.r, hq.s) if lab.f == 0]
        for label in shapes:
            syms = label_symmetrizers(hq, label)
            for left in std_tableau_pairs(label.shape):
                for right in std_tableau_pairs(label.shape):
                    elem = cellular_element(
                        hq, label, CellBasisLabel(left, ident),
                        CellBasisLabel(right, ident), syms)
                    pos = len(self.items)
                    self.items.append((label.shape, left, right))
                    if not self.ech.insert(elem.terms, tag=pos):
                        raise CellularError("Murphy basis is dependent")


def _murphy_data(hq):
    data = getattr(hq, "_murphy_data", None)
    if data is None:
        data = _MurphyData(hq)
        hq._murphy_data = data
    return data


def _murphy_coefficient(murphy, shape, terms):
    """Coefficient of n_{t^lambda t^lambda} modulo dominating shapes."""
    f = murphy.engine.field
    out = {}
    for piv, c in murphy.ech.express(terms).items():
        f.vec_iaxpy(out, c, murphy.ech.combos[piv])
    value = f.raw_from_int(0)
    u1 = t_row(shape.first)
    u2 = t_row(shape.second)
    for pos, c in out.items():
        shape2, left, right = murphy.items[pos]
        if shape2 == shape:
            if left != (u1, u2) or right != (u1, u2):
                raise CellularError("form value off the anchor row")
            value = f.raw_add(value, c)
        elif bip_dominance_cmp(shape2, shape) != 1:
            raise CellularError("form value leaks to a non-higher shape")
    return value


# ---------------------------------------------------------------------------
# cell datum validation

def validate_cell_datum(engine, alternate_anchors=None):
    """Check the three cell datum axioms; returns a per-axiom report.

    (a) the elements form a basis; (b) the anti-involution swaps the two
    indices; (c) the right action is triangular with structure coefficients
    independent of the left index (checked across all, or the given number
    of, alternative anchors).
    """
    from .engine import sigma
    data = cellular_data(engine)
    report = {"basis": data.ech.rank == engine.dim, "involution": True,
              "triangular": True, "failures": []}
    for label, left, right, elem in data.items:
        mate = data.items[data.index[(label, right, left)]][3]
        if sigma(elem) != mate:
            report["involution"] = False
            report["failures"].append(("involution", label, left, right))
    for label in data.labels:
        bl = data.by_label[label]
        anchors = bl if alternate_anchors is None \
            else bl[:alternate_anchors]
        reference = None
        for anchor in anchors:
            try:
                mod = CellModule(engine, label, anchor=anchor)
            except CellularError:
                report["triangular"] = False
                report["failures"].append(("triangular", label, anchor))
                continue
            rows = {tok: mod._tok[tok] for tok in engine.tokens}
            if reference is None:
                reference = rows
            elif not _same_rows(engine.field, reference, rows):
                report["triangular"] = False
                report["failures"].append(("left-index", label, anchor))
    report["ok"] = (report["basis"] and report["involution"]
                    and report["triangular"])
    return report


def _same_rows(field, a, b):
    for tok, rows in a.items():
        for ra, rb in zip(rows, b[tok]):
            if set(ra) != set(rb):
                return False
            if any(not field.raw_eq(ra[k], rb[k]) for k in ra):
                return False
    return True


# ---------------------------------------------------------------------------
# exports

def _label_text(label):
    return {"f": label.f,
            "first": list(label.shape.first.parts),
            "second": list(label.shape.second.parts)}


def gram_to_json(module, gram=None):
    gram = gram_matrix(module) if gram is None else gram
    data = {
        "label": _label_text(module.label),
        "dim": module.dim,
        "field": module.field.spec_string(),
        "entries": [[e.to_text() for e in row] for row in gram],
    }
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def gram_to_csv(module, gram=None):
    gram = gram_matrix(module) if gram is None else gram
    lines = [",".join('"%s"' % e.to_text() for e in row) for row in gram]
    return "\n".join(lines) + "\n"


def laurent_unit_split(lp):
    """Write a one-variable Laurent polynomial as unit * primitive part.

    The unit is c * q^a with c the signed content; the primitive part has
    lowest exponent 0, positive leading content, and coefficient gcd 1.
    """
    if not lp.terms:
        raise CellularError("zero has no unit factorization")
    exps = sorted(lp.terms)
    low = exps[0][0]
    content = 0
    for c in lp.terms.values():
        content = math.gcd(content, abs(c))
    if lp.terms[exps[-1]] < 0:
        content = -content
    unit = {"coeff": content, "q_power": low}
    prim = {(a - low, b): c // content for (a, b), c in lp.terms.items()}
    from .groundfield import LaurentPoly
    return unit, LaurentPoly(prim)
