"""Straight-line-program words over named symbols.

A GroupWord is a product of factors base^exp where a base is a symbol, a
conjugate target^by (meaning by^-1 * target * by), a commutator [u,v]
(u^-1 v^-1 u v), or a parenthesized subword.  Words stay structural: nothing
is expanded, so a presentation whose exponents are ~p costs O(log p) bits.

An Slp bundles generators, an ordered list of named definitions, and
relators; later definitions may reference earlier ones by name.

Conventions (documented once, used everywhere):
  * bit_length of a factor is basecost + ceil(log2(|e|+1)) + (1 if e < 0),
    with basecost 1 for a symbol, bl(t)+bl(v)+2 for t^v, 2bl(u)+2bl(v)+4
    for [u,v], bl(w)+2 for (w).  An exponent of 1 still charges one bit,
    so bit_length("a") = 2 and bit_length("a^13") = 5.
  * word_length is the fully expanded letter count (|e| copies, conjugates
    t^v cost wl(t)+2wl(v), commutators 2wl(u)+2wl(v)); with an Slp the
    defined names expand recursively.
  * evaluation applies the left factor first, matching perm.Permutation.

Evaluation has two entry points on one evaluator.  evaluate_slp returns the
value of every generator and definition next to the relator values, for
callers that read the definitions.  relator_values streams (index, value)
per relator: each relator runs as soon as the names it reads exist, and
every name and factor is freed after its last use, so a relator check holds
only the values still to be read.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import InternalInvariantViolation, UnboundSymbol

# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Conj:
    target: "GroupWord"
    by: "GroupWord"


@dataclass(frozen=True)
class Comm:
    left: "GroupWord"
    right: "GroupWord"


@dataclass(frozen=True)
class Factor:
    base: object  # Sym | Conj | Comm | GroupWord (a parenthesized subword)
    exp: int

    def __post_init__(self):
        if self.exp == 0:
            raise InternalInvariantViolation("factors carry nonzero exponents")


@dataclass(frozen=True)
class GroupWord:
    factors: tuple = ()

    def __mul__(self, other):
        if not isinstance(other, GroupWord):
            return NotImplemented
        return _from_factors(self.factors + other.factors)

    def __pow__(self, e):
        e = int(e)
        if e == 0 or not self.factors:
            return GroupWord()
        if e == 1:
            return self
        if len(self.factors) == 1:
            f = self.factors[0]
            return GroupWord((Factor(f.base, f.exp * e),))
        return GroupWord((Factor(self, e),))

    def __invert__(self):
        return GroupWord(tuple(Factor(f.base, -f.exp) for f in reversed(self.factors)))

    def conj(self, by):
        """self^by as a structural conjugate factor."""
        return GroupWord((Factor(Conj(self, by), 1),))

    def is_empty(self):
        return not self.factors


def sym(name):
    return GroupWord((Factor(Sym(name), 1),))


def conj(target, by):
    return target.conj(by)


def comm(left, right):
    return GroupWord((Factor(Comm(left, right), 1),))


def _from_factors(factors):
    """Concatenate, merging adjacent factors with equal bases (free reduction
    of the visible seam only — no deep rewriting)."""
    out = []
    for f in factors:
        if out and out[-1].base == f.base:
            e = out[-1].exp + f.exp
            out.pop()
            if e:
                out.append(Factor(f.base, e))
        else:
            out.append(f)
    return GroupWord(tuple(out))


# ---------------------------------------------------------------------------
# Metrics


def exponent_bits(e):
    """ceil(log2(|e|+1)) plus a sign bit for negatives."""
    return (abs(e)).bit_length() + (1 if e < 0 else 0)


def bit_length(word):
    return sum(_base_bits(f.base) + exponent_bits(f.exp) for f in word.factors)


def _base_bits(base):
    if isinstance(base, Sym):
        return 1
    if isinstance(base, Conj):
        return bit_length(base.target) + bit_length(base.by) + 2
    if isinstance(base, Comm):
        return 2 * bit_length(base.left) + 2 * bit_length(base.right) + 4
    return bit_length(base) + 2  # parenthesized subword


def word_length(word, definitions=None):
    """Expanded letter count; definitions maps names to their words."""
    memo = {}

    def wl_name(name):
        if definitions is None or name not in definitions:
            return 1
        if name not in memo:
            memo[name] = wl_word(definitions[name])
        return memo[name]

    def wl_word(w):
        return sum(wl_base(f.base) * abs(f.exp) for f in w.factors)

    def wl_base(base):
        if isinstance(base, Sym):
            return wl_name(base.name)
        if isinstance(base, Conj):
            return wl_word(base.target) + 2 * wl_word(base.by)
        if isinstance(base, Comm):
            return 2 * wl_word(base.left) + 2 * wl_word(base.right)
        return wl_word(base)

    return wl_word(word)


# ---------------------------------------------------------------------------
# Simplification


def least_absolute(e, m):
    """The representative of e mod m in (-m/2, m/2], ties going positive."""
    r = e % m
    if 2 * r > m:
        r -= m
    return r


def simplify(word, orders):
    """Reduce exponents to least-absolute residues where the base's image
    order is known, recurse into subwords, and re-merge adjacent factors.

    orders maps symbol names to the orders of their images.  A conjugate
    inherits the order of its target when that is a single known symbol.
    Factors whose exponent reduces to 0 are dropped.
    """
    out = []
    for f in word.factors:
        base = _simplify_base(f.base, orders)
        m = _base_order(base, orders)
        e = least_absolute(f.exp, m) if m else f.exp
        if e:
            out.append(Factor(base, e))
    return _from_factors(tuple(out))


def _simplify_base(base, orders):
    if isinstance(base, Sym):
        return base
    if isinstance(base, Conj):
        return Conj(simplify(base.target, orders), simplify(base.by, orders))
    if isinstance(base, Comm):
        return Comm(simplify(base.left, orders), simplify(base.right, orders))
    return simplify(base, orders)


def _base_order(base, orders):
    if isinstance(base, Sym):
        return orders.get(base.name)
    if isinstance(base, Conj) and len(base.target.factors) == 1:
        inner = base.target.factors[0]
        if isinstance(inner.base, Sym) and abs(inner.exp) == 1:
            return orders.get(inner.base.name)
    return None


# ---------------------------------------------------------------------------
# Text format


def to_text(word):
    if not word.factors:
        return "1"
    return " ".join(_factor_text(f) for f in word.factors)


def _factor_text(f):
    base, e = f.base, f.exp
    if isinstance(base, Sym):
        txt = base.name
    elif isinstance(base, Conj):
        txt = f"{_operand_text(base.target)}^{_operand_text(base.by)}"
        if e != 1:
            txt = f"({txt})"
    elif isinstance(base, Comm):
        txt = f"[{to_text(base.left)},{to_text(base.right)}]"
    else:
        txt = f"({to_text(base)})"
    return txt if e == 1 else f"{txt}^{e}"


def _operand_text(word):
    """A conjugation operand: bare name when it is one, else parenthesized."""
    if len(word.factors) == 1:
        f = word.factors[0]
        if isinstance(f.base, Sym) and f.exp == 1:
            return f.base.name
    return f"({to_text(word)})"


_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|-?\d+|\^|\(|\)|\[|\]|,)")


def _tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise InternalInvariantViolation(f"cannot tokenize {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise InternalInvariantViolation(
                f"expected {expected!r}, found {tok!r} at position {self.i}")
        self.i += 1
        return tok

    def word(self, stop=(")", "]", ",")):
        factors = GroupWord()
        while self.peek() is not None and self.peek() not in stop:
            factors = factors * self.factor()
        return factors

    def factor(self):
        w = self.primary()
        while self.peek() == "^":
            self.take()
            tok = self.peek()
            if tok is not None and re.fullmatch(r"-?\d+", tok):
                self.take()
                w = w ** int(tok)
            else:
                # The parentheses around either conjugation operand are pure
                # syntax, so drop the group node they would otherwise leave.
                w = _ungroup(w).conj(_ungroup(self.primary()))
        return w

    def primary(self):
        tok = self.peek()
        if tok == "(":
            self.take()
            w = self.word()
            self.take(")")
            if w.is_empty():
                raise InternalInvariantViolation("empty parentheses")
            if len(w.factors) == 1 and _ungroup(w) is w:
                return w
            # keep a group around a group: "((a b))^c" conjugates "(a b)"
            return GroupWord((Factor(w, 1),))
        if tok == "[":
            self.take()
            left = self.word()
            self.take(",")
            right = self.word()
            self.take("]")
            return comm(left, right)
        if tok is not None and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            self.take()
            return sym(tok)
        raise InternalInvariantViolation(f"unexpected token {tok!r}")


def _ungroup(word):
    if len(word.factors) == 1:
        f = word.factors[0]
        if isinstance(f.base, GroupWord) and f.exp == 1:
            return f.base
    return word


def parse_word(text):
    text = text.strip()
    if text == "1":
        return GroupWord()
    parser = _Parser(_tokenize(text))
    w = parser.word(stop=())
    if parser.peek() is not None:
        raise InternalInvariantViolation(f"trailing tokens in {text!r}")
    return w


# ---------------------------------------------------------------------------
# The SLP container


@dataclass
class Slp:
    generators: tuple
    definitions: tuple = ()  # ordered (name, GroupWord) pairs
    relators: tuple = ()

    def __post_init__(self):
        self.generators = tuple(self.generators)
        self.definitions = tuple((n, w) for n, w in self.definitions)
        self.relators = tuple(self.relators)
        bound = set(self.generators)
        for name, w in self.definitions:
            for free in _free_symbols(w):
                if free not in bound:
                    raise UnboundSymbol(free)
            if name in bound:
                raise InternalInvariantViolation(f"symbol {name!r} defined twice")
            bound.add(name)
        for w in self.relators:
            for free in _free_symbols(w):
                if free not in bound:
                    raise UnboundSymbol(free)

    def definition_map(self):
        return dict(self.definitions)

    def bit_length(self):
        total = len(self.generators)
        for _, w in self.definitions:
            total += bit_length(w)
        for w in self.relators:
            total += bit_length(w)
        return total

    def word_length(self):
        defs = self.definition_map()
        return sum(word_length(w, defs) for w in self.relators)

    def to_text(self):
        lines = ["generators: " + " ".join(self.generators)]
        lines += [f"{name} := {to_text(w)}" for name, w in self.definitions]
        lines += [f"relator: {to_text(w)}" for w in self.relators]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        gens, defs, rels = None, [], []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("generators:"):
                gens = tuple(line[len("generators:"):].split())
            elif line.startswith("relator:"):
                rels.append(parse_word(line[len("relator:"):]))
            elif ":=" in line:
                name, _, rhs = line.partition(":=")
                defs.append((name.strip(), parse_word(rhs)))
            else:
                raise InternalInvariantViolation(f"unrecognized line {line!r}")
        if gens is None:
            raise InternalInvariantViolation("missing generators line")
        return cls(gens, tuple(defs), tuple(rels))

    def to_json(self):
        return {
            "generators": list(self.generators),
            "definitions": [{"name": n, "word": word_to_json(w)}
                            for n, w in self.definitions],
            "relators": [word_to_json(w) for w in self.relators],
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            tuple(data["generators"]),
            tuple((d["name"], word_from_json(d["word"])) for d in data["definitions"]),
            tuple(word_from_json(w) for w in data["relators"]),
        )


def _free_symbols(word):
    for f in word.factors:
        base = f.base
        if isinstance(base, Sym):
            yield base.name
        elif isinstance(base, Conj):
            yield from _free_symbols(base.target)
            yield from _free_symbols(base.by)
        elif isinstance(base, Comm):
            yield from _free_symbols(base.left)
            yield from _free_symbols(base.right)
        else:
            yield from _free_symbols(base)


# ---------------------------------------------------------------------------
# JSON mirror of the AST


def word_to_json(word):
    return [_factor_json(f) for f in word.factors]


def _factor_json(f):
    base = f.base
    if isinstance(base, Sym):
        node = {"sym": base.name}
    elif isinstance(base, Conj):
        node = {"conj": [word_to_json(base.target), word_to_json(base.by)]}
    elif isinstance(base, Comm):
        node = {"comm": [word_to_json(base.left), word_to_json(base.right)]}
    else:
        node = {"grp": word_to_json(base)}
    return {"base": node, "exp": f.exp}


def word_from_json(data):
    return GroupWord(tuple(_factor_from_json(d) for d in data))


def _factor_from_json(d):
    node = d["base"]
    if "sym" in node:
        base = Sym(node["sym"])
    elif "conj" in node:
        base = Conj(word_from_json(node["conj"][0]), word_from_json(node["conj"][1]))
    elif "comm" in node:
        base = Comm(word_from_json(node["comm"][0]), word_from_json(node["comm"][1]))
    else:
        base = word_from_json(node["grp"])
    return Factor(base, int(d["exp"]))


# ---------------------------------------------------------------------------
# Evaluation


@dataclass(frozen=True)
class ProductPair:
    """An element of a direct product, operated on componentwise."""

    left: object
    right: object

    def __mul__(self, other):
        return ProductPair(self.left * other.left, self.right * other.right)

    def inverse(self):
        return ProductPair(self.left.inverse(), self.right.inverse())

    def __pow__(self, e):
        return ProductPair(self.left ** e, self.right ** e)

    def conjugate(self, g):
        return ProductPair(self.left.conjugate(g.left), self.right.conjugate(g.right))

    def identity_like(self):
        return ProductPair(self.left.identity_like(), self.right.identity_like())

    def is_identity(self):
        return self.left.is_identity() and self.right.is_identity()

    def order(self):
        return math.lcm(self.left.order(), self.right.order())


class _Evaluator:
    """Evaluates words in env, computing each distinct factor once.

    A factor base^e is keyed by (base, |e|): base^|e| is computed on the
    key's first use, base^-|e| is its inverse, and both are dropped after
    the key's last use.  The uses are counted up front by walking the words
    as evaluation will: a key's base is entered on its first use only,
    because every later use is served from the cache.  A name is read once
    per key whose base it is, so its reads are counted on the same walk, and
    a name leaves env after its last read.
    """

    def __init__(self, env, words):
        self.uses = {}
        self.cache = {}  # key -> [base^|e|, base^-|e| or None]
        self.reads = {}  # name -> reads left
        for w in words:
            self._count(w)
        self.sample = next(iter(env.values()), None)  # for identity_like
        self.env = {n: v for n, v in env.items() if n in self.reads}

    def _count(self, word):
        for f in word.factors:
            key = (f.base, abs(f.exp))
            if key in self.uses:
                self.uses[key] += 1
                continue
            self.uses[key] = 1
            base = f.base
            if isinstance(base, Sym):
                self.reads[base.name] = self.reads.get(base.name, 0) + 1
            elif isinstance(base, Conj):
                self._count(base.target)
                self._count(base.by)
            elif isinstance(base, Comm):
                self._count(base.left)
                self._count(base.right)
            elif isinstance(base, GroupWord):
                self._count(base)

    def bind(self, name, value):
        """Make a defined name readable, unless nothing reads it."""
        if name in self.reads:
            self.env[name] = value
        return value

    def word(self, word):
        result = None
        for f in word.factors:
            val = self._factor(f)
            result = val if result is None else result * val
        if result is None:
            if self.sample is None:
                raise UnboundSymbol("<empty environment>")
            return self.sample.identity_like()
        return result

    def _factor(self, f):
        key = (f.base, abs(f.exp))
        entry = self.cache.get(key)
        if entry is None:
            val = self._base(f.base)
            entry = self.cache[key] = [val if key[1] == 1 else val ** key[1], None]
        left = self.uses[key] - 1
        if left:
            self.uses[key] = left
        else:
            del self.uses[key], self.cache[key]
        if f.exp > 0:
            return entry[0]
        if entry[1] is None:
            entry[1] = entry[0].inverse()
        return entry[1]

    def _base(self, base):
        if isinstance(base, Sym):
            name = base.name
            if name not in self.env:
                raise UnboundSymbol(name)
            left = self.reads[name] - 1
            if left:
                self.reads[name] = left
                return self.env[name]
            del self.reads[name]
            return self.env.pop(name)
        if isinstance(base, Conj):
            return self.word(base.target).conjugate(self.word(base.by))
        if isinstance(base, Comm):
            # [u,v] = u^-1 v^-1 u v = u^-1 u^v
            u = self.word(base.left)
            u_v = u.conjugate(self.word(base.right))
            return u.inverse() * u_v
        return self.word(base)


def evaluate(word, env):
    """Evaluate a word in env (name -> element).  Left factor applies first."""
    return _Evaluator(env, [word]).word(word)


def _program(slp, images):
    """An evaluator over all words of slp, its generators bound to images."""
    for name in slp.generators:
        if name not in images:
            raise UnboundSymbol(name)
    return _Evaluator(images, [w for _, w in slp.definitions] + list(slp.relators))


def evaluate_slp(slp, images):
    """Evaluate all definitions (once each, in order) and all relators.

    Each distinct factor of the whole program is computed once and freed
    after its last use.  Returns (values, relator_values) where values maps
    generator and defined names to elements, all alive until the caller
    drops them; a caller that reads only the relators streams them with
    relator_values instead.
    """
    ev = _program(slp, images)
    values = dict(images)
    for name, w in slp.definitions:
        values[name] = ev.bind(name, ev.word(w))
    return values, [ev.word(w) for w in slp.relators]


def relator_values(slp, images):
    """Yield (index, value) for each relator of slp, evaluated at images.

    A relator runs straight after the last definition it reads, and every
    name, factor and definition is freed after its last use, so only the
    values still to be read stay alive.  Each relator is evaluated in full,
    exactly as evaluate_slp evaluates it; only the order differs.
    """
    ev = _program(slp, images)
    place = dict.fromkeys(slp.generators, 0)
    place.update((name, i) for i, (name, _) in enumerate(slp.definitions, 1))
    due = [[] for _ in range(len(slp.definitions) + 1)]
    for i, w in enumerate(slp.relators):
        due[max((place[s] for s in _free_symbols(w)), default=0)].append(i)
    for i in due[0]:
        yield i, ev.word(slp.relators[i])
    for (name, w), ready in zip(slp.definitions, due[1:]):
        ev.bind(name, ev.word(w))
        for i in ready:
            yield i, ev.word(slp.relators[i])
