"""Representation-theoretic reports for the two-parameter algebra.

Central characters of cell modules, the classification of simple modules,
quasi-heredity, the semisimplicity criterion with its Gram cross-check,
and branching filtrations.
"""

from collections import namedtuple

from .combinat import (
    Bipartition,
    Node,
    e_restricted,
    content_scalar,
    nodes_addable,
    nodes_removable,
    s_range_word,
)
from .engine import (
    build_engine,
    central_element,
    evaluate_factors,
    g_tok,
    gs_tok,
    inv_letters,
    word_letters,
)
from .groundfield import FieldError, GenericField, vanishes_under
from .linalg import same_vector
from .cellular import (
    CellLabel,
    _label_text,
    cell_labels,
    cell_module,
    gram_determinant,
    gram_determinant_fraction,
    module_dimension,
)

DELTA_ZERO_SEMISIMPLE = frozenset({(1, 2), (2, 1), (1, 3), (3, 1)})


class RepError(Exception):
    pass


class CentralCharacter(namedtuple("CentralCharacter", "label scalar")):
    """The scalar by which the central element acts on one cell module."""

    __slots__ = ()


class SemisimplicityVerdict(namedtuple("SemisimplicityVerdict",
                                       "verdict reason witnesses",
                                       defaults=((),))):
    """Outcome of the semisimplicity criterion.

    reason is one of "quantum characteristic too small",
    "delta-zero exceptional list", "rho-power coincidence", "generic";
    witnesses lists the labels found with singular Gram matrices.
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# central characters

def central_scalar(label, field):
    """f*delta - rho^{-1} sum of first-component content scalars - rho *
    sum of second-component content scalars."""
    f = field
    out = f.raw_mul(f.delta(), f.raw_from_int(label.f))
    for side, lam in enumerate(label.shape.components, start=1):
        total = f.raw_from_int(0)
        for i, j in lam.boxes():
            total = f.raw_add(total, content_scalar(Node(i, j, side), f))
        weight = f.raw_div(f.one, f.rho) if side == 1 else f.rho
        out = f.raw_sub(out, f.raw_mul(weight, total))
    return out


def central_character(engine, label):
    """The central scalar on C(f, lambda) of the engine's algebra, verified
    against the action matrix of the central element."""
    f = engine.field
    scalar = central_scalar(label, f)
    mat = cell_module(engine, label).factors_matrix([central_element(engine)])
    for i, row in enumerate(mat):
        if not same_vector(f, row, f.vec_iaxpy({}, scalar, {i: f.one})):
            raise RepError("central element is not scalar %s on %r"
                           % (f.to_text(scalar), label))
    return CentralCharacter(label, scalar)


# ---------------------------------------------------------------------------
# simple modules and quasi-heredity

def classify_simples(r, s, field):
    """Labels of the pairwise non-isomorphic simple modules."""
    e = field.quantum_characteristic()
    delta_zero = field.raw_is_zero(field.delta())
    out = []
    for lab in cell_labels(r, s):
        if not e_restricted(lab.shape, e):
            continue
        if delta_zero and r == s and lab.f == r:
            continue
        out.append(lab)
    return out


def is_quasi_hereditary(r, s, field):
    e = field.quantum_characteristic()
    if e <= max(r, s):
        return False
    return not field.raw_is_zero(field.delta()) or r != s


# ---------------------------------------------------------------------------
# semisimplicity

def _closed_form_verdict(r, s, field):
    e = field.quantum_characteristic()
    if e <= max(r, s):
        return SemisimplicityVerdict(False, "quantum characteristic too small")
    if field.raw_is_zero(field.delta()):
        ok = (r, s) in DELTA_ZERO_SEMISIMPLE
        return SemisimplicityVerdict(ok, "delta-zero exceptional list")
    rho2 = field.raw_mul(field.rho, field.rho)
    for a in range(-(r + s - 2), r + s - 1):
        if field.raw_eq(rho2, field.raw_pow(field.q, 2 * a)):
            return SemisimplicityVerdict(False, "rho-power coincidence")
    return SemisimplicityVerdict(True, "generic")


def gram_singular_labels(generic, field):
    """Labels whose Gram matrix is singular over the field.

    The determinants are taken once over the generic field, on the engine
    generic; at the field's point a determinant vanishes exactly when its
    reduced numerator does.  For labels whose denominator vanishes there
    the field's engine is built once and the determinant computed on it.
    """
    if not isinstance(generic.field, GenericField):
        raise RepError("needs an engine over the generic field")
    eng = None
    out = []
    for lab in cell_labels(generic.r, generic.s):
        fraction = gram_determinant_fraction(cell_module(generic, lab))
        try:
            singular = vanishes_under(fraction, field)
        except FieldError:
            if eng is None:
                eng = build_engine(generic.r, generic.s, field)
            singular = field.raw_is_zero(
                gram_determinant(cell_module(eng, lab)))
        if singular:
            out.append(lab)
    return out


def semisimplicity(r, s, field, mode="closed_form", generic=None):
    """The semisimplicity verdict, by closed form, by Gram determinants,
    or by both with an integrity comparison.  generic is the (r, s) engine
    over the generic field, or a function that returns it; the Gram side
    needs it, and a function is called only when the Gram side runs."""
    if mode not in ("closed_form", "gram", "both"):
        raise RepError("unknown mode %r" % (mode,))
    closed = _closed_form_verdict(r, s, field)
    if mode == "closed_form" or (
            closed.reason == "quantum characteristic too small"):
        # no Gram work below the quantum characteristic bound
        return closed
    if callable(generic):
        generic = generic()
    if generic is None or (generic.r, generic.s) != (r, s):
        raise RepError("mode %r needs the (%d, %d) generic engine"
                       % (mode, r, s))
    witnesses = tuple(gram_singular_labels(generic, field))
    gram_verdict = not witnesses
    if mode == "both" and gram_verdict != closed.verdict:
        raise RepError(
            "closed form says %s but Gram matrices say %s; witnesses %r"
            % (closed.verdict, gram_verdict, witnesses))
    return SemisimplicityVerdict(gram_verdict, closed.reason, witnesses)


# ---------------------------------------------------------------------------
# branching

def branching_sections(label):
    """The cell-filtration sections of the restriction to the front
    (r-1, s) subalgebra, higher sections first.

    Sections of the first kind keep the layer and remove a node from the
    first component; sections of the second kind (only for f >= 1) drop
    the layer and add a node to the second component.
    """
    first, second = label.shape.components
    out = []
    for p in nodes_removable(first):
        out.append(("remove", p, CellLabel(
            label.f, Bipartition(first.remove_node(p), second))))
    if label.f >= 1:
        for p in nodes_addable(second):
            out.append(("add", p, CellLabel(
                label.f - 1, Bipartition(first, second.add_node(p)))))
    return out


# A section generator is a factor: C_anchor times it is the generator's class
# in C(f, lambda), the anchor's unit vector through evaluate_factors.

def _y_alpha(engine, label, node):
    """The row-removal section generator."""
    a_k = label.f + label.shape.first.partial_sums(node.row)[-1]
    return [(engine.field.one,
             word_letters(g_tok, s_range_word(a_k, engine.r)))]


def _z_beta(engine, label, node):
    """The column-addition section generator."""
    f = label.f
    lam2 = label.shape.second
    c_k = f + lam2.partial_sums(node.row)[-1]
    d_k = f + (lam2.partial_sums(node.row - 1)[-1] if node.row > 1 else 0) + 1
    entries = range(d_k, c_k + 1) if d_k <= c_k else (c_k,)
    fld = engine.field
    minus_q = fld.raw_neg(fld.q)
    out = []
    for j in entries:
        letters = word_letters(gs_tok, s_range_word(j, c_k))
        letters += inv_letters(word_letters(gs_tok, s_range_word(f, c_k)))
        letters += word_letters(g_tok, s_range_word(engine.r, f))
        out.append((fld.raw_pow(minus_q, j - c_k), letters[::-1]))
    return out


def branching_check(engine, label):
    """Dimension and central-trace verification of the restriction
    filtration, plus non-vanishing of the explicit section generators."""
    r, s = engine.r, engine.s
    if r < 2:
        raise RepError("needs r >= 2")
    field = engine.field
    mod = cell_module(engine, label)
    sections = branching_sections(label)
    section_rows = []
    total = 0
    expected_trace = field.raw_from_int(0)
    for kind, node, sec in sections:
        dim = module_dimension(sec, r - 1, s)
        scalar = central_scalar(sec, field)
        total += dim
        expected_trace = field.raw_add(
            expected_trace, field.raw_mul(scalar, field.raw_from_int(dim)))
        section_rows.append({
            "kind": kind,
            "label": _label_text(sec),
            "dim": dim,
            "scalar": field.to_text(scalar),
        })
    dim_ok = total == mod.dim
    trace = field.raw_from_int(0)
    for i, row in enumerate(mod.factors_matrix(
            [central_element(engine, r - 1, s)])):
        if i in row:
            trace = field.raw_add(trace, row[i])
    trace_ok = field.raw_eq(trace, expected_trace)
    gens = [(_y_alpha if kind == "remove" else _z_beta)(engine, label, node)
            for kind, node, _ in sections]
    anchor = {mod.anchor_index: field.one}
    generators_ok = all(evaluate_factors(mod, [gen], anchor) for gen in gens)
    return {
        "r": r,
        "s": s,
        "label": _label_text(label),
        "sections": section_rows,
        "dim": mod.dim,
        "dim_ok": dim_ok,
        "trace": field.to_text(trace),
        "trace_ok": trace_ok,
        "generators_nonzero": generators_ok,
        "ok": dim_ok and trace_ok and generators_ok,
    }
