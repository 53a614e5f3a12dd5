"""Representation-theoretic reports for the two-parameter algebra.

Central characters of cell modules, the classification of simple modules,
quasi-heredity, the semisimplicity criterion with its Gram cross-check,
and branching filtrations.
"""

from collections import namedtuple

from .combinat import (
    Bipartition,
    e_restricted,
    nodes_addable,
    nodes_removable,
    s_range_word,
)
from .engine import (
    central_element,
    evaluate_factors,
    g_tok,
    gs_tok,
    inv_letters,
)
from .groundfield import GenericField, vanishes_under
from .cellular import (
    CellLabel,
    cell_labels,
    cell_module,
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
    sum of second-component content scalars.  A box of content k = j - i
    has the scalar (1 - q^{2k}) / (q - q^{-1}) in the first component and
    (1 - q^{-2k}) / (q^{-1} - q) in the second."""
    f = field
    out = f.raw_mul(f.delta(), f.raw_from_int(label.f))
    sides = ((label.shape.first, 1, f.qdiff, f.raw_div(f.one, f.rho)),
             (label.shape.second, -1, f.minus_qdiff, f.rho))
    for lam, sign, qdiff, weight in sides:
        total = f.raw_from_int(0)
        for i, j in lam.boxes():
            total = f.raw_add(total, f.raw_div(
                f.raw_sub(f.one, f.raw_pow(f.q, 2 * sign * (j - i))), qdiff))
        out = f.raw_sub(out, f.raw_mul(weight, total))
    return out


def central_character(module):
    """The central scalar on the cell module C(f, lambda), verified against
    the action matrix of the central element."""
    f = module.field
    scalar = central_scalar(module.label, f)
    mat = module.factors_matrix([central_element(module.engine)])
    for i, row in enumerate(mat):
        if row != f.vec_iaxpy({}, scalar, {i: f.one}):
            raise RepError("central element is not scalar %s on %r"
                           % (f.to_text(scalar), module.label))
    return CentralCharacter(module.label, scalar)


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
        if rho2 == field.raw_pow(field.q, 2 * a):
            return SemisimplicityVerdict(False, "rho-power coincidence")
    return SemisimplicityVerdict(True, "generic")


def gram_singular_labels(r, s, generic, field):
    """Labels of B_{r,s} whose Gram matrix is singular over the field.

    generic(f) is an (r, s) engine over the generic field holding the cell
    modules of layer f, where the determinants are taken once; at the
    field's point one vanishes exactly when its reduced numerator does.  A
    reduced denominator vanishes only where q^2 = 1, which Field.delta()
    refuses; vanishes_under raises FieldError there.
    """
    out = []
    for lab in cell_labels(r, s):
        eng = generic(lab.f)
        if not isinstance(eng.field, GenericField) or (eng.r, eng.s) != (r, s):
            raise RepError("needs the (%d, %d) engines over the generic field"
                           % (r, s))
        if vanishes_under(gram_determinant_fraction(cell_module(eng, lab)),
                          field):
            out.append(lab)
    return out


def semisimplicity(r, s, field, mode="closed_form", generic=None):
    """The semisimplicity verdict, by closed form, by Gram determinants,
    or by both with an integrity comparison.  generic maps a layer to its
    engine over the generic field, as gram_singular_labels takes it; only
    the Gram side needs it, and calls it only when it runs."""
    if mode not in ("closed_form", "gram", "both"):
        raise RepError("unknown mode %r" % (mode,))
    closed = _closed_form_verdict(r, s, field)
    if mode == "closed_form" or (
            closed.reason == "quantum characteristic too small"):
        # no Gram work below the quantum characteristic bound
        return closed
    if generic is None:
        raise RepError("mode %r needs the (%d, %d) generic engines"
                       % (mode, r, s))
    witnesses = tuple(gram_singular_labels(r, s, generic, field))
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
    first, second = label.shape
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
    word = [g_tok(i) for i in s_range_word(a_k, engine.r)]
    return [(engine.field.one, word)]


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
        letters = [gs_tok(i) for i in s_range_word(j, c_k)]
        letters += inv_letters([gs_tok(i) for i in s_range_word(f, c_k)])
        letters += [g_tok(i) for i in s_range_word(engine.r, f)]
        out.append((fld.raw_pow(minus_q, j - c_k), letters[::-1]))
    return out


def branching_check(mod):
    """Dimension and central-trace verification of the restriction
    filtration of the cell module, plus non-vanishing of the explicit
    section generators.  Sections carry their labels and the trace is raw."""
    engine, label, field = mod.engine, mod.label, mod.field
    r, s = engine.r, engine.s
    if r < 2:
        raise RepError("needs r >= 2")
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
        section_rows.append(
            {"kind": kind, "label": sec, "dim": dim, "scalar": scalar})
    dim_ok = total == mod.dim
    trace = field.raw_from_int(0)
    for i, row in enumerate(mod.factors_matrix(
            [central_element(engine, r - 1, s)])):
        if i in row:
            trace = field.raw_add(trace, row[i])
    trace_ok = trace == expected_trace
    gens = [(_y_alpha if kind == "remove" else _z_beta)(engine, label, node)
            for kind, node, _ in sections]
    anchor = {mod.anchor_index: field.one}
    generators_ok = all(evaluate_factors(mod, [gen], anchor) for gen in gens)
    return {
        "sections": section_rows,
        "dim": mod.dim,
        "dim_ok": dim_ok,
        "trace": trace,
        "trace_ok": trace_ok,
        "generators_nonzero": generators_ok,
        "ok": dim_ok and trace_ok and generators_ok,
    }
