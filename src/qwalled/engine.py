"""The two-parameter quantized walled Brauer algebra.

The algebra on generators e_1, g_1..g_{r-1}, g*_1..g*_{s-1} is realized by
closure: starting from the identity, right multiplication by generator
tokens is explored breadth first, the defining relations
(defining_identities, as lhs - rhs) are imposed as exact linear
dependencies, and dependent words are eliminated.  The surviving
words form the normal basis; its size must come out to
layer_dimension(r, s, layer): (r+s)! for the full algebra, and
|D^f| (r-f)! (s-f)! for a block.

Token kinds are ("e",), ("g", i) and ("gs", j); inverses are expanded via
g^{-1} = g - (q - q^{-1}) and never appear as tokens.

An engine at layer f < min(r, s) closes the layer block e^f B/J_{f+1},
a right module holding the cell modules C(f, lambda) and their Gram forms;
J_{f+1} = B e^{f+1} B is spanned by the cellular basis elements of layer
> f.  It is B/((x_f - rho^f) B + J_{f+1}), x_f = e^f g_1 ... g_f: as
x_f e^f = rho^f e^f, x_f/rho^f is an idempotent fixing e^f.  The layer
relation, a generator of J_{f+1}, holds at every state: e_1 at f = 0,
e_1 g_1 g*_1^{-1} e_1 = e_1 e_2 (tool.d.1) at f = 1, and e^{k+1} =
e^k g_k g*_k^{-1} e_k up to a unit in general.  The root relation
root (x_f - rho^f) = 0 holds at the identity state only, where it is
evaluated first; at f = 0 it is trivial and the block is the algebra
H_r (x) H_s.  A block of layer f >= 1 is a right module, not an algebra:
sigma refuses it.

A vector is a dict {basis index: raw value}; the identity is {0: one}.
act applies letters to a vector through an act_table, and
evaluate_factors applies a product of factors; both take an engine or a
cell module, whose act_table has the same layout.

At each state taken from the queue, all relations are evaluated through one
prefix memo {word prefix: vector}, so a prefix shared by several relation
words is applied once.  A memo entry stays valid when a later imposition
kills one of its states: it still expresses state * prefix, and the next
application resolves it through the current substitutions.  Vectors are
accumulated in place with the field's kernel ``vec_iaxpy``; stored vectors
(action rows, substitutions, memo entries) are never mutated.
"""

import json
import math
from collections import deque

from .combinat import coset_count, s_range_word
from .groundfield import fields_from_spec

SCHEMA_VERSION = 1

E_TOK = ("e",)


class EngineError(Exception):
    pass


def g_tok(i):
    return ("g", i)


def gs_tok(j):
    return ("gs", j)


def word_letters(tok, indices):
    """Letters of the word of tok(i), i over the indices."""
    return [(tok(i), 1) for i in indices]


def token_text(tok):
    return tok[0] if tok == E_TOK else "%s%d" % (tok[0], tok[1])


def token_from_text(text):
    if text == "e":
        return E_TOK
    if text.startswith("gs"):
        return gs_tok(int(text[2:]))
    if text.startswith("g"):
        return g_tok(int(text[1:]))
    raise EngineError("bad token text %r" % text)


def inv_letters(letters):
    """Inverse of a product given as (token, power) letters."""
    return [(tok, -p) for tok, p in reversed(letters)]


class AlgebraEngine:
    """Normal-form model of the algebra, or of one of its layer blocks.

    layer (default min(r, s), the full algebra) is the layer f whose
    cellular basis elements survive: below min(r, s) the engine closes the
    block e^f B/J_{f+1}.  Its dimension is verified against layer_dimension
    after closure.
    """

    def __init__(self, r, s, field, layer=None, max_states=None):
        self._setup(r, s, field, layer)
        self._max_states = max_states or max(
            200, 50 * layer_dimension(r, s, self.layer))
        self._build()

    def _setup(self, r, s, field, layer=None):
        """Everything but the basis and the action table."""
        if r < 1 or s < 1:
            raise EngineError("r and s must be positive")
        top = min(r, s)
        if layer is None:
            layer = top
        if not 0 <= layer <= top:
            raise EngineError("layer %r out of range for (%d, %d)"
                              % (layer, r, s))
        self.r = r
        self.s = s
        self.layer = layer
        self.field = field
        f = field
        self.tokens = [E_TOK] + [g_tok(i) for i in range(1, r)] \
            + [gs_tok(j) for j in range(1, s)]
        self.is_block = layer < top
        self.relations = [_relation(f, lhs, rhs)
                          for _, lhs, rhs in defining_identities(self)]
        self._root_relations = []
        if self.is_block:
            self.relations.append(_relation(
                f, [(f.one, self._layer_letters(layer))], []))
        if self.is_block and layer > 0:
            # at the root state: x_f = rho^f, x_f = e^f g_1 ... g_f
            x_f = self.ecap_letters(layer) \
                + word_letters(g_tok, range(1, layer + 1))
            self._root_relations.append(_relation(
                f, [(f.one, x_f)], [(f.raw_pow(f.rho, layer), [])]))
        # data derived from the engine lives exactly as long as the engine:
        # sigma images of basis vectors, the cellular coordinate system
        # (cellular.cellular_data) and the cell modules by label
        # (cellular.cell_module)
        self._sigma_cache = {}
        self._cell_data = None
        self._modules = {}

    def _layer_letters(self, f):
        """Letters of a generator of J_{f+1} = B e^{f+1} B: e^1 = e_1 and
        e^{k+1} = e^k g_k g*_k^{-1} e_k (tool.d.1), with the trailing
        invertible letters dropped, since a unit factor leaves the ideal
        unchanged."""
        letters = [(E_TOK, 1)]
        for k in range(1, f + 1):
            letters += [(g_tok(k), 1), (gs_tok(k), -1)] \
                + self.e_ij_letters(k, k)
        while letters[-1][0] != E_TOK:
            letters.pop()
        return letters

    # -- closure -----------------------------------------------------------

    def _build(self):
        one = self.field.one
        self._defs = [None]
        self._subst = {}
        self._act = {}
        self._queue = deque([0])
        while self._queue:
            st = self._queue.popleft()
            if st in self._subst:
                continue
            memo = {(): {st: one}}
            rels = self.relations if st else \
                self._root_relations + self.relations
            for rel in rels:
                self._impose(self._eval_relation(memo, rel))
                if st in self._subst:
                    break
            if st in self._subst:
                continue
            for tok in self.tokens:
                self._act_vec(st, tok)
            if len(self._defs) > self._max_states:
                raise EngineError("closure exceeded %d states"
                                  % self._max_states)
        alive = [st for st in range(len(self._defs))
                 if st not in self._subst]
        self.dim = len(alive)
        expected = layer_dimension(self.r, self.s, self.layer)
        if self.dim != expected:
            raise EngineError("closure dimension %d, expected %d"
                              % (self.dim, expected))
        index = {st: i for i, st in enumerate(alive)}
        words = {}

        def word_of(st):
            w = words.get(st)
            if w is None:
                parent, tok = self._defs[st]
                w = word_of(parent) + (tok,)
                words[st] = w
            return w

        words[0] = ()
        self.basis_words = tuple(word_of(st) for st in alive)
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
            v = {new: self.field.one}
            self._act[key] = v
            self._queue.append(new)
            return v
        if not self._subst.keys().isdisjoint(v):
            v = self._resolve_vec(v)
            self._act[key] = v
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

    def _apply_build(self, vec, tok):
        iaxpy = self.field.vec_iaxpy
        act_vec = self._act_vec
        out = {}
        for st, c in self._resolve_vec(vec).items():
            iaxpy(out, c, act_vec(st, tok))
        return out

    def _eval_word(self, memo, word):
        """state * word, through the prefix memo of the state."""
        vec = memo.get(word)
        if vec is None:
            vec = self._apply_build(self._eval_word(memo, word[:-1]),
                                    word[-1])
            memo[word] = vec
        return vec

    def _eval_relation(self, memo, rel):
        iaxpy = self.field.vec_iaxpy
        total = {}
        for coeff, word in rel:
            iaxpy(total, coeff, self._eval_word(memo, word))
        return total

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
            c = v[m]
            rest = {k: cv for k, cv in v.items() if k != m}
            inv = f.raw_div(f.raw_from_int(-1), c)
            self._subst[m] = f.vec_iaxpy({}, inv, rest)
            for tok in self.tokens:
                old = self._act.pop((m, tok), None)
                if old is not None:
                    new = self._apply_build(self._subst[m], tok)
                    pending.append(f.vec_iaxpy(new, minus_one, old))

    # -- distinguished elements -------------------------------------------

    def e_ij_letters(self, i, j):
        if not (1 <= i <= self.r and 1 <= j <= self.s):
            raise EngineError("e_{i,j} index out of range")
        g = word_letters(g_tok, s_range_word(1, i))
        gs = word_letters(gs_tok, s_range_word(j, 1))
        return inv_letters(g) + gs + [(E_TOK, 1)] + g + inv_letters(gs)

    def ecap_letters(self, f):
        """Letters of e^f = e_{1,1} ... e_{f,f}."""
        return [x for i in range(1, f + 1) for x in self.e_ij_letters(i, i)]


def defining_identities(engine):
    """The defining relations of B_{r,s} as (name, lhs, rhs) identities,
    each side one factor of (raw coeff, letters) terms, in a fixed order."""
    f = engine.field
    one = f.one
    e = [(E_TOK, 1)]
    out = []

    def rel(name, lhs, rhs, c=one):
        out.append((name, [(one, lhs)], [(c, rhs)]))

    def strand_rels(names, tok, n):
        """The relations of g_1..g_{n-1} (or the g*) among themselves and
        with e_1: g^2 = (q - q^{-1}) g + 1, far commutation, braid,
        commutation with e_1 and e_1 g_1 e_1 = rho e_1."""
        x = {i: [(tok(i), 1)] for i in range(1, n)}
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
            rel("def.g[%d,%d]" % (i, j), [(g_tok(i), 1), (gs_tok(j), 1)],
                [(gs_tok(j), 1), (g_tok(i), 1)])
    strand_rels("hijkl", gs_tok, s)
    if r >= 2 and s >= 2:
        g1, s1 = (g_tok(1), 1), (gs_tok(1), 1)
        mid = [(g_tok(1), -1), s1]
        rel("def.m", e + mid + e + [g1], e + mid + e + [s1])
        rel("def.n", [g1] + e + mid + e, [s1] + e + mid + e)
    return out


def _relation(field, lhs, rhs):
    """lhs - rhs of two factors as [(raw coeff, token word)], with g^{-1}
    expanded as g - (q - q^{-1})."""
    mqd = field.raw_neg(field.qdiff)
    terms = lhs + [(field.raw_neg(c), letters) for c, letters in rhs]
    out = []
    for c, letters in terms:
        combos = [(c, ())]
        for tok, p in letters:
            if p == 1:
                combos = [(cw, w + (tok,)) for cw, w in combos]
            elif p == -1 and tok != E_TOK:
                combos = [x for cw, w in combos for x in (
                    (cw, w + (tok,)), (field.raw_mul(cw, mqd), w))]
            else:
                raise EngineError("bad letter power for %r" % (tok,))
        out += combos
    return out


def act(owner, vec, letters):
    """vec times a product of (token, power) letters, power +-1, through
    owner.act_table {(basis index, token): row}.  The owner is an engine or
    a cell module; g^{-1} = g - (q - q^{-1}) adds -qdiff * vec."""
    field = owner.field
    iaxpy = field.vec_iaxpy
    table = owner.act_table
    for tok, p in letters:
        out = {}
        for i, c in vec.items():
            iaxpy(out, c, table[(i, tok)])
        if p == -1 and tok != E_TOK:
            iaxpy(out, field.raw_neg(field.qdiff), vec)
        elif p != 1:
            raise EngineError("bad letter power for %r" % (tok,))
        vec = out
    return vec


def evaluate_factors(owner, factors, vec):
    """vec times the product of factors, each a list of (raw coeff,
    letters) terms, through act."""
    iaxpy = owner.field.vec_iaxpy
    for factor in factors:
        out = {}
        for c, letters in factor:
            iaxpy(out, c, act(owner, vec, letters))
        vec = out
    return vec


def layer_dimension(r, s, f):
    """(r+s)! at f = min(r, s), else dim e^f B/J_{f+1}: |D^f| (r-f)! (s-f)!"""
    if f == min(r, s):
        return math.factorial(r + s)
    return coset_count(r, s, f) * math.factorial(r - f) * math.factorial(s - f)


def build_engine(r, s, field_tag, layer=None, **kwargs):
    """Build the algebra engine (or its block at a layer below min(r, s))
    over a field or field-spec string."""
    field = field_tag
    if isinstance(field_tag, str):
        fields = fields_from_spec(field_tag)
        if len(fields) != 1:
            raise EngineError("field spec %r is not a single field"
                              % field_tag)
        field = fields[0]
    return AlgebraEngine(r, s, field, layer=layer, **kwargs)


def sigma(engine, vec):
    """The anti-involution fixing all generators, on an engine vector."""
    if engine.is_block and engine.layer > 0:
        raise EngineError("sigma needs an algebra; the layer-%d block is a "
                          "right module" % engine.layer)
    one = engine.field.one
    iaxpy = engine.field.vec_iaxpy
    cache = engine._sigma_cache
    out = {}
    for t, c in vec.items():
        v = cache.get(t)
        if v is None:
            v = cache[t] = act(engine, {0: one}, [
                (tok, 1) for tok in reversed(engine.basis_words[t])])
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
        return word_letters(g_tok, s_range_word(i, j))

    def gs(i, j):
        return word_letters(gs_tok, s_range_word(i, j))

    factor = [(f.one, inv_letters(g(1, i)) + gs(j, 1) + [(E_TOK, 1)]
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

    g = {i: [(g_tok(i), 1)] for i in range(1, r)}
    gi = {i: [(g_tok(i), -1)] for i in range(1, r)}
    gs = {j: [(gs_tok(j), 1)] for j in range(1, s)}
    gsi = {j: [(gs_tok(j), -1)] for j in range(1, s)}

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
    if engine.is_block:
        raise EngineError("a layer quotient is not serialized")
    field = engine.field
    data = {
        "schema_version": SCHEMA_VERSION,
        "r": engine.r,
        "s": engine.s,
        "field": field.spec_string(),
        "dim": engine.dim,
        "basis_words": [[token_text(t) for t in w]
                        for w in engine.basis_words],
        "act": {},
    }
    for tok in engine.tokens:
        triplets = []
        for i in range(engine.dim):
            row = engine.act_table[(i, tok)]
            for k in sorted(row):
                triplets.append([i, k, field.to_text(row[k])])
        data["act"][token_text(tok)] = triplets
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def engine_from_json(text):
    """Rebuild an engine from its serialized form without re-closure."""
    data = json.loads(text)
    if data["schema_version"] != SCHEMA_VERSION:
        raise EngineError("unsupported schema version %r"
                          % data["schema_version"])
    fields = fields_from_spec(data["field"])
    if len(fields) != 1:
        raise EngineError("ambiguous field spec in export")
    field = fields[0]
    eng = AlgebraEngine.__new__(AlgebraEngine)
    eng._setup(data["r"], data["s"], field)
    eng.dim = data["dim"]
    eng.basis_words = tuple(
        tuple(token_from_text(t) for t in w) for w in data["basis_words"])
    eng.act_table = {}
    # the tables hold few distinct scalars: parse each text once
    parsed = {}
    for tok_text_, triplets in data["act"].items():
        tok = token_from_text(tok_text_)
        rows = {i: {} for i in range(eng.dim)}
        for i, k, val in triplets:
            raw = parsed.get(val)
            if raw is None:
                raw = parsed[val] = field.parse(val)
            rows[i][k] = raw
        for i in range(eng.dim):
            eng.act_table[(i, tok)] = rows[i]
    return eng
