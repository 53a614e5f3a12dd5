"""The two-parameter quantized walled Brauer algebra.

The algebra on generators e_1, g_1..g_{r-1}, g*_1..g*_{s-1} is realized by
closure: starting from the identity, right multiplication by generator
tokens is explored breadth first, the defining relations
(defining_identities, as lhs - rhs) are imposed as exact linear
dependencies, and dependent words are eliminated.  The surviving
words form the normal basis; its size must come out to (r+s)! for the
full algebra, and to layer_dimension(r, s, f) for the block of layer f.

A token is the text it is serialized as: "e", "g<i>" or "gs<j>", and the
inverse tokens "g<i>^-1" and "gs<j>^-1", which only inv_letters makes.  A
word is a list of tokens.  No action table holds a row for an inverse:
act and the closure both apply g^{-1} = g - (q - q^{-1}) as the row of g
plus -(q - q^{-1}) times the vector, so relation words keep their inverse
letters.

An engine at layer f closes the layer block e^f B/J_{f+1}, a right module
holding the cell modules C(f, lambda) and their Gram forms; J_{f+1} =
B e^{f+1} B is spanned by the cellular basis elements of layer > f (0 at
the top layer f = min(r, s)).  It is B/((x_f - rho^f) B + J_{f+1}), x_f =
e^f g_1 ... g_f (the g* at the top when r < s): as x_f e^f = rho^f e^f,
x_f/rho^f is an idempotent fixing e^f.  Below the top, the layer relation
e^{f+1} (ecap_letters, trailing units dropped) holds at every state.  The
root relation root (x_f - rho^f) = 0 holds at the identity state only,
where it is evaluated first; at f = 0 it is trivial and the block is the
algebra H_r (x) H_s.  The top layer at r = s, with neither g_f nor g*_f,
has no block.  A block of layer f >= 1 is a right module: sigma refuses it.

A vector is a dict {basis index: raw value}; the identity is {0: one}.
act applies a word to a vector through an act_table, and
evaluate_factors applies a product of factors; both take an engine or a
cell module, whose act_table has the same layout.

The closure compiles its relation words once into a prefix tree, and each
relation into (coeff, node) terms.  At each state taken from the queue, a
node's value, state * its word, is computed at most once, by one apply step
from its parent's; it stays valid when a later imposition kills one of its
states, as the next step resolves it.  A unit vector times a generator is
its stored action row, shared: stored vectors (rows, substitutions, node
values) are read only; ``vec_iaxpy`` accumulates only into new dicts.

Every engine is built on a Field the caller made; this module parses no
field spec.  engine_to_json writes the full algebra, and
engine_from_json(text, r, s, field) reads it back and is the one judge of
such text: anything that is not B_{r,s} over that field is an EngineError.
"""

import json
import math
from collections import deque

from .combinat import coset_count, s_range_word

SCHEMA_VERSION = 1

E_TOK = "e"
INV = "^-1"


class EngineError(Exception):
    pass


def g_tok(i):
    return "g%d" % i


def gs_tok(j):
    return "gs%d" % j


def inv_letters(letters):
    """The inverse of a word of g and g* tokens; e_1 has none."""
    if E_TOK in letters:
        raise EngineError("e_1 is not invertible")
    return [tok.removesuffix(INV) if tok.endswith(INV) else tok + INV
            for tok in reversed(letters)]


class AlgebraEngine:
    """Normal-form model of the algebra, or of one of its layer blocks.

    layer None (the default) is the full algebra; a layer f closes the
    block e^f B/J_{f+1}.  The dimension is verified after closure.
    """

    def __init__(self, r, s, field, layer=None, max_states=None):
        self._setup(r, s, field, layer)
        self._max_states = max_states
        self._build()

    def _setup(self, r, s, field, layer=None):
        """Everything but the basis and the action table."""
        if r < 1 or s < 1:
            raise EngineError("r and s must be positive")
        top = min(r, s)
        if layer is not None and not 0 <= layer <= top - (r == s):
            raise EngineError("layer %r has no block in (%d, %d); the top "
                              "layer has none when r = s" % (layer, r, s))
        self.r = r
        self.s = s
        self.layer = layer
        self.field = field
        f = field
        self.tokens = [E_TOK] + [g_tok(i) for i in range(1, r)] \
            + [gs_tok(j) for j in range(1, s)]
        self.relations = [_relation(f, lhs, rhs)
                          for _, lhs, rhs in defining_identities(self)]
        self._root_relations = []
        if layer is not None and layer < top:
            self.relations.append(_relation(
                f, [(f.one, self._layer_letters(layer))], []))
        if layer:
            # at the root state: x_f = rho^f, x_f = e^f g_1 ... g_f, with
            # the g* when f = r < s
            tok = gs_tok if layer == r else g_tok
            x_f = self.ecap_letters(layer)
            x_f += [tok(i) for i in range(1, layer + 1)]
            self._root_relations.append(_relation(
                f, [(f.one, x_f)], [(f.raw_pow(f.rho, layer), [])]))
        # data derived from the engine lives exactly as long as the engine:
        # sigma images of basis vectors and the cellular coordinate system
        # (cellular.cellular_data), which holds the cell modules
        self._sigma_cache = {}
        self._cell_data = None

    def _layer_letters(self, f):
        """The word of a generator of J_{f+1} = B e^{f+1} B: e^{f+1} without
        its trailing units, which leave the ideal unchanged."""
        letters = self.ecap_letters(f + 1)
        while letters[-1] != E_TOK:
            letters.pop()
        return letters

    # -- closure -----------------------------------------------------------

    def _build(self):
        full = math.factorial(self.r + self.s)
        expected = full if self.layer is None \
            else layer_dimension(self.r, self.s, self.layer)
        # one cap per (r, s): (4, 4), f = 3 creates 13,933 states for 96
        max_states = self._max_states or max(200, 50 * full)
        iaxpy = self.field.vec_iaxpy
        nodes, root, rels = _prefix_tree(
            self.field, self._root_relations, self.relations)
        self._defs = [None]
        self._subst = {}
        self._act = {}
        self._queue = deque([0])
        while self._queue:
            st = self._queue.popleft()
            if st in self._subst:
                continue
            vals = [{st: self.field.one}] + [None] * (len(nodes) - 1)
            for terms, pair in rels if st else root + rels:
                for _, n in terms:
                    path = []
                    while vals[n] is None:
                        path.append(n)
                        n = nodes[n][0]
                    for n in reversed(path):
                        parent, base, inv = nodes[n]
                        vals[n] = self._apply_build(vals[parent], base, inv)
                if pair and vals[pair[0]] == vals[pair[1]]:
                    continue
                total = {}
                for c, n in terms:
                    iaxpy(total, c, vals[n])
                if total:
                    self._impose(total)
                    if st in self._subst:
                        break
            if st in self._subst:
                continue
            for tok in self.tokens:
                self._act_vec(st, tok)
            if len(self._defs) > max_states:
                raise EngineError("closure exceeded %d states" % max_states)
        alive = [st for st in range(len(self._defs))
                 if st not in self._subst]
        self.dim = len(alive)
        if self.dim != expected:
            raise EngineError("closure dimension %d, expected %d"
                              % (self.dim, expected))
        index = {st: i for i, st in enumerate(alive)}
        words = {0: []}

        def word_of(st):
            if st not in words:
                parent, tok = self._defs[st]
                words[st] = word_of(parent) + [tok]
            return words[st]

        self.basis_words = [word_of(st) for st in alive]
        self.act_table = {}
        for st in alive:
            for tok in self.tokens:
                row = self._resolve_vec(self._act[(st, tok)])
                self.act_table[(index[st], tok)] = {
                    index[k]: c for k, c in row.items()}
        del self._defs, self._subst, self._act, self._queue

    def _act_vec(self, st, tok):
        key = (st, tok)
        v = self._act.get(key)
        if v is None:
            new = len(self._defs)
            self._defs.append((st, tok))
            v = self._act[key] = {new: self.field.one}
            self._queue.append(new)
        elif not self._subst.keys().isdisjoint(v):
            v = self._act[key] = self._resolve_vec(v)
        return v

    def _compress(self, seeds):
        subst = self._subst
        todo = set()
        stack = list(seeds)
        while stack:
            k = stack.pop()
            if k in todo:
                continue
            todo.add(k)
            for x in subst[k]:
                if x in subst:
                    stack.append(x)
        iaxpy = self.field.vec_iaxpy
        one = self.field.one
        for k in sorted(todo):
            sub = subst[k]
            if not subst.keys().isdisjoint(sub):
                out = {}
                for x, c in sub.items():
                    s2 = subst.get(x)
                    iaxpy(out, c, {x: one} if s2 is None else s2)
                subst[k] = out

    def _resolve_vec(self, vec):
        subst = self._subst
        if subst.keys().isdisjoint(vec):
            return vec
        self._compress([k for k in vec if k in subst])
        iaxpy = self.field.vec_iaxpy
        one = self.field.one
        out = {}
        for k, c in vec.items():
            sub = subst.get(k)
            iaxpy(out, c, {k: one} if sub is None else sub)
        return out

    def _apply_build(self, vec, base, inv):
        """vec times the token base, or its inverse as act applies it.  A
        unit vector times a generator is the stored row: read only."""
        field = self.field
        iaxpy = field.vec_iaxpy
        act_vec = self._act_vec
        vec = self._resolve_vec(vec)
        if not inv and len(vec) == 1 and field.one in vec.values():
            return act_vec(next(iter(vec)), base)
        out = {}
        for st, c in vec.items():
            iaxpy(out, c, act_vec(st, base))
        if inv:
            iaxpy(out, field.raw_neg(field.qdiff), vec)
        return out

    def _impose(self, vec):
        f = self.field
        minus_one = f.raw_from_int(-1)
        pending = [vec]
        while pending:
            v = self._resolve_vec(pending.pop())
            if not v:
                continue
            m = max(v)
            if m == 0:
                raise EngineError("relations collapse the identity")
            rest = {k: cv for k, cv in v.items() if k != m}
            self._subst[m] = f.vec_iaxpy({}, f.raw_div(minus_one, v[m]), rest)
            for tok in self.tokens:
                old = self._act.pop((m, tok), None)
                if old is not None:
                    # the step may give a stored row: accumulate in a copy
                    new = self._apply_build(self._subst[m], tok, False)
                    pending.append(f.vec_iaxpy(dict(new), minus_one, old))

    # -- distinguished elements -------------------------------------------

    def e_ij_letters(self, i, j):
        if not (1 <= i <= self.r and 1 <= j <= self.s):
            raise EngineError("e_{i,j} index out of range")
        g = [g_tok(k) for k in s_range_word(1, i)]
        gs = [gs_tok(k) for k in s_range_word(j, 1)]
        return inv_letters(g) + gs + [E_TOK] + g + inv_letters(gs)

    def ecap_letters(self, f):
        """The word of e^f = e_{1,1} ... e_{f,f} by tool.d.1: e^1 = e_1 and
        e^{k+1} = e^k g_k g*_k^{-1} e_{k,k}, each step 2 letters shorter
        than e_{k+1,k+1} and with 1 fewer inverse letter; e^0 is the empty
        word."""
        letters = [E_TOK] if f else []
        for k in range(1, f):
            letters += [g_tok(k)] + inv_letters([gs_tok(k)]) \
                + self.e_ij_letters(k, k)
        return letters


def defining_identities(engine):
    """The defining relations of B_{r,s} as (name, lhs, rhs) identities,
    each side one factor of (raw coeff, word) terms, in a fixed order."""
    f = engine.field
    one = f.one
    e = [E_TOK]
    out = []

    def rel(name, lhs, rhs, c=one):
        out.append((name, [(one, lhs)], [(c, rhs)]))

    def strand_rels(names, tok, n):
        """The relations of g_1..g_{n-1} (or the g*) among themselves and
        with e_1: g^2 = (q - q^{-1}) g + 1, far commutation, braid,
        commutation with e_1 and e_1 g_1 e_1 = rho e_1."""
        x = {i: [tok(i)] for i in range(1, n)}
        for i in range(1, n):
            out.append(("def.%s[%d]" % (names[0], i), [(one, x[i] + x[i])],
                        [(f.qdiff, x[i]), (one, [])]))
        for i in range(1, n):
            for j in range(i + 2, n):
                rel("def.%s[%d,%d]" % (names[1], i, j),
                    x[i] + x[j], x[j] + x[i])
        for i in range(1, n - 1):
            rel("def.%s[%d]" % (names[2], i), x[i] + x[i + 1] + x[i],
                x[i + 1] + x[i] + x[i + 1])
        for i in range(2, n):
            rel("def.%s[%d]" % (names[3], i), x[i] + e, e + x[i])
        if n >= 2:
            rel("def.%s" % names[4], e + x[1] + e, e, f.rho)

    r, s = engine.r, engine.s
    strand_rels("abcde", g_tok, r)
    rel("def.f", e + e, e, f.delta())
    for i in range(1, r):
        for j in range(1, s):
            rel("def.g[%d,%d]" % (i, j), [g_tok(i), gs_tok(j)],
                [gs_tok(j), g_tok(i)])
    strand_rels("hijkl", gs_tok, s)
    if r >= 2 and s >= 2:
        g1, s1 = g_tok(1), gs_tok(1)
        mid = inv_letters([g1]) + [s1]
        rel("def.m", e + mid + e + [g1], e + mid + e + [s1])
        rel("def.n", [g1] + e + mid + e, [s1] + e + mid + e)
    return out


def _prefix_tree(field, *relation_lists):
    """Relation lists as one prefix tree of their words, nodes[n] = (parent,
    base token, inverse) with node 0 the empty word, and each relation as
    (its (coeff, node) terms, its two nodes if it is w1 - w2 or None)."""
    nodes, index, out = [None], {}, []
    unit_difference = [field.one, field.raw_from_int(-1)]
    for rels in relation_lists:
        out.append([])
        for rel in rels:
            terms = []
            for coeff, word in rel:
                n = 0
                for tok in word:
                    if (n, tok) not in index:
                        index[n, tok] = len(nodes)
                        nodes.append((n, tok.removesuffix(INV), INV in tok))
                    n = index[n, tok]
                terms.append((coeff, n))
            pair = [c for c, _ in terms] == unit_difference
            out[-1].append((terms, [n for _, n in terms] if pair else None))
    return nodes, *out


def _relation(field, lhs, rhs):
    """lhs - rhs of two factors as [(raw coeff, word)].  The words keep
    their inverse letters: the closure applies g^-1 the way act does."""
    return lhs + [(field.raw_neg(c), word) for c, word in rhs]


def act(owner, vec, word):
    """vec times a word through owner.act_table {(basis index, token):
    row}.  The owner is an engine or a cell module; an inverse token g^-1 =
    g - (q - q^{-1}) takes the row of g and adds -qdiff * vec."""
    field = owner.field
    iaxpy = field.vec_iaxpy
    table = owner.act_table
    for tok in word:
        base = tok.removesuffix(INV)
        out = {}
        for i, c in vec.items():
            iaxpy(out, c, table[(i, base)])
        if base != tok:
            iaxpy(out, field.raw_neg(field.qdiff), vec)
        vec = out
    return vec


def evaluate_factors(owner, factors, vec):
    """vec times the product of factors, each a list of (raw coeff, word)
    terms, through act."""
    iaxpy = owner.field.vec_iaxpy
    for factor in factors:
        out = {}
        for c, word in factor:
            iaxpy(out, c, act(owner, vec, word))
        vec = out
    return vec


def layer_dimension(r, s, f):
    """dim e^f B/J_{f+1} = |D^f| (r-f)! (s-f)!, J_{f+1} = 0 at f = min(r, s)"""
    return coset_count(r, s, f) * math.factorial(r - f) * math.factorial(s - f)


def build_engine(r, s, field, layer=None, **kwargs):
    """Build the algebra engine (or its block at a layer) over a field."""
    return AlgebraEngine(r, s, field, layer=layer, **kwargs)


def sigma(engine, vec):
    """The anti-involution fixing all generators, on an engine vector."""
    if engine.layer:
        raise EngineError("sigma needs an algebra; the layer-%d block is a "
                          "right module" % engine.layer)
    one = engine.field.one
    iaxpy = engine.field.vec_iaxpy
    cache = engine._sigma_cache
    out = {}
    for t, c in vec.items():
        v = cache.get(t)
        if v is None:
            v = cache[t] = act(engine, {0: one}, engine.basis_words[t][::-1])
        iaxpy(out, c, v)
    return out


def central_element(engine, r=None, s=None):
    """The central element as one factor, which acts on any right module:
    the ebar_{i,j} summands, then the two Murphy-type sums.

    Optional r, s restrict the sums to the front subalgebra on the first r
    row strands and s column strands, giving its central element.
    """
    r = engine.r if r is None else r
    s = engine.s if s is None else s
    if not (1 <= r <= engine.r and 1 <= s <= engine.s):
        raise EngineError("sub-range out of bounds")
    f = engine.field

    def g(i, j):
        return [g_tok(k) for k in s_range_word(i, j)]

    def gs(i, j):
        return [gs_tok(k) for k in s_range_word(i, j)]

    factor = [(f.one, inv_letters(g(1, i)) + gs(j, 1) + [E_TOK]
               + gs(1, j) + inv_letters(g(i, 1)))
              for i in range(1, r + 1) for j in range(1, s + 1)]
    minus_rho_inv = f.raw_neg(f.raw_div(f.one, f.rho))
    factor += [(minus_rho_inv, inv_letters(g(j, i)) + inv_letters(g(i, j + 1)))
               for i in range(2, r + 1) for j in range(1, i)]
    minus_rho = f.raw_neg(f.rho)
    factor += [(minus_rho, gs(i, j) + gs(j + 1, i))
               for i in range(2, s + 1) for j in range(1, i)]
    return factor


def verify_relations(engine):
    """Evaluate the defining identities and the derived e_i identities,
    each side a list of factors acting on the identity.

    Returns a list of (name, ok) pairs; every pair should be (..., True).
    """
    eng = engine
    f = eng.field
    r, s = eng.r, eng.s
    one, rho, delta = f.one, f.rho, f.delta()
    rho_inv = f.raw_div(one, rho)
    unit = {0: one}
    report = []

    def check(name, lhs, rhs):
        report.append((name, evaluate_factors(eng, lhs, unit)
                       == evaluate_factors(eng, rhs, unit)))

    def w(*parts, c=one):
        """c times the product of letter lists, as one factor."""
        return [[(c, [x for part in parts for x in part])]]

    for name, lhs, rhs in defining_identities(eng):
        check(name, [lhs], [rhs])

    g = {i: [g_tok(i)] for i in range(1, r)}
    gi = {i: inv_letters(g[i]) for i in range(1, r)}
    gs = {j: [gs_tok(j)] for j in range(1, s)}
    gsi = {j: inv_letters(gs[j]) for j in range(1, s)}

    m = min(r, s)
    e = {i: eng.e_ij_letters(i, i) for i in range(1, m + 1)}
    for i in range(1, m + 1):
        for k in range(i + 1, r):
            check("tool.a.g[%d,%d]" % (i, k), w(e[i], g[k]), w(g[k], e[i]))
        for l in range(i + 1, s):
            check("tool.a.gs[%d,%d]" % (i, l),
                  w(e[i], gs[l]), w(gs[l], e[i]))
        check("tool.b[%d]" % i, w(e[i], e[i]), w(e[i], c=delta))
    for i in range(1, m):
        check("tool.c.g+[%d]" % i, w(e[i], g[i], e[i]), w(e[i], c=rho))
        check("tool.c.g-[%d]" % i, w(e[i], gi[i], e[i]), w(e[i], c=rho_inv))
        check("tool.c.gs+[%d]" % i, w(e[i], gs[i], e[i]), w(e[i], c=rho))
        check("tool.c.gs-[%d]" % i,
              w(e[i], gsi[i], e[i]), w(e[i], c=rho_inv))
        prod = w(e[i], e[i + 1])
        check("tool.d.1[%d]" % i, w(e[i], g[i], gsi[i], e[i]), prod)
        check("tool.d.2[%d]" % i, w(e[i], gs[i], gi[i], e[i]), prod)
        check("tool.d.3[%d]" % i, w(e[i + 1], e[i]), prod)
        check("tool.e[%d]" % i,
              w(e[i], e[i + 1], g[i]), w(e[i + 1], e[i], gs[i]))
        check("tool.f[%d]" % i,
              w(g[i], e[i], e[i + 1]), w(gs[i], e[i + 1], e[i]))
        check("tool.eii1[%d]" % i, w(e[i], gi[i], gs[i], e[i], g[i]),
              w(e[i], gi[i], gs[i], e[i], gs[i]))
        check("tool.eii2[%d]" % i, w(g[i], e[i], gi[i], gs[i], e[i]),
              w(gs[i], e[i], gi[i], gs[i], e[i]))
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            check("tool.g[%d,%d]" % (i, j), w(e[i], e[j]), w(e[j], e[i]))
    return report


# ---------------------------------------------------------------------------
# JSON export / import

def engine_to_json(engine):
    """Serialize a full engine deterministically; a layer block has no
    serialized form, so no cache file holds one."""
    if engine.layer is not None:
        raise EngineError("a layer quotient is not serialized")
    field = engine.field
    data = {
        "schema_version": SCHEMA_VERSION,
        "r": engine.r,
        "s": engine.s,
        "field": field.spec_string(),
        "dim": engine.dim,
        "basis_words": engine.basis_words,
        "act": {},
    }
    for tok in engine.tokens:
        triplets = []
        for i in range(engine.dim):
            row = engine.act_table[(i, tok)]
            for k in sorted(row):
                triplets.append([i, k, field.to_text(row[k])])
        data["act"][tok] = triplets
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def engine_from_json(text, r, s, field):
    """B_{r,s} over the field, rebuilt without re-closure from the text
    engine_to_json wrote.  The one judge of a cache file's text: it raises
    EngineError unless the text decodes, its schema, r, s, field spec and
    dim = (r+s)! are the ones asked for, its tokens and basis indices fit,
    and the identity times basis word i is basis vector i for every i."""
    eng = AlgebraEngine.__new__(AlgebraEngine)
    eng._setup(r, s, field)
    dim = eng.dim = math.factorial(r + s)
    table = eng.act_table = {(i, tok): {} for i in range(dim)
                             for tok in eng.tokens}
    one = field.one
    try:
        data = json.loads(text)
        words = eng.basis_words = data["basis_words"]
        # the tables hold few distinct scalars: parse each text once
        parsed = {}
        for tok, triplets in data["act"].items():
            for i, k, val in triplets:
                raw = parsed.get(val)
                if raw is None:
                    raw = parsed[val] = field.parse(val)
                table[(i, tok)][k] = raw
        fits = (data["schema_version"], data["r"], data["s"], data["field"],
                data["dim"], len(words), set(data["act"])) \
            == (SCHEMA_VERSION, r, s, field.spec_string(), dim, dim,
                set(eng.tokens)) \
            and all(0 <= k < dim for row in table.values() for k in row) \
            and all(tok in eng.tokens for word in words for tok in word) \
            and all(act(eng, {0: one}, word) == {i: one}
                    for i, word in enumerate(words))
    except Exception as exc:
        # the text comes from outside: whatever fails while decoding it,
        # the field's own parse errors included, refuses it
        raise EngineError("the export does not decode: %r" % exc) from exc
    if not fits:
        raise EngineError("the export is not B_{%d,%d} over %s in schema %d"
                          % (r, s, field.spec_string(), SCHEMA_VERSION))
    return eng
