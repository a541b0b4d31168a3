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

Evaluation compiles the words once into a list of distinct steps, so that a
subword met anywhere in the program is one step, and runs them in one
post-order.  Powers of one base share the binary prefixes of their
exponents: x^(p-1) is one squaring of x^((p-1)/2), and x^122 and x^123
continue from x^61.  evaluate_slp returns the value of every generator and
definition next to the relator values.  relator_values streams (index,
value) per relator, in index order: each relator runs the steps it reads
that no earlier relator ran, a definition no relator reads is never run,
and every value is freed at its last read, so a relator check holds only
the values still to be read.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import InternalInvariantViolation, MalformedText, UnboundSymbol

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

    def is_empty(self):
        return not self.factors


def sym(name):
    return GroupWord((Factor(Sym(name), 1),))


def conj(target, by):
    """target^by as a structural conjugate factor."""
    return GroupWord((Factor(Conj(target, by), 1),))


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


_SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(rf"\s*({_SYMBOL_RE.pattern}|-?\d+|\^|\(|\)|\[|\]|,)")


def _tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise MalformedText(f"cannot tokenize {text[pos:]!r}")
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
            raise MalformedText(
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
                w = conj(_ungroup(w), _ungroup(self.primary()))
        return w

    def primary(self):
        tok = self.peek()
        if tok == "(":
            self.take()
            w = self.word()
            self.take(")")
            if w.is_empty():
                raise MalformedText("empty parentheses")
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
        if tok is not None and _SYMBOL_RE.fullmatch(tok):
            self.take()
            return sym(tok)
        raise MalformedText(f"unexpected token {tok!r}")


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
    return _Parser(_tokenize(text)).word(stop=())


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
        """Read the text to_text writes, skipping blank and "#" lines.

        MalformedText: a line of none of these kinds, no generators line or
        more than one, a name that is not a symbol, or a name bound twice."""
        gens, defs, rels = None, [], []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("generators:"):
                if gens is not None:
                    raise MalformedText("more than one generators line")
                gens = tuple(map(_symbol, line[len("generators:"):].split()))
            elif line.startswith("relator:"):
                rels.append(parse_word(line[len("relator:"):]))
            elif ":=" in line:
                name, _, rhs = line.partition(":=")
                defs.append((_symbol(name.strip()), parse_word(rhs)))
            else:
                raise MalformedText(f"unrecognized line {line!r}")
        if gens is None:
            raise MalformedText("missing generators line")
        bound = set()
        for name in gens + tuple(name for name, _ in defs):
            if name in bound:
                raise MalformedText(f"symbol {name!r} bound twice")
            bound.add(name)
        return cls(gens, tuple(defs), tuple(rels))


def _symbol(name):
    if not _SYMBOL_RE.fullmatch(name):
        raise MalformedText(f"{name!r} is not a symbol")
    return name


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

    def power_from(self, prefix, bits):
        return ProductPair(self.left.power_from(prefix.left, bits),
                           self.right.power_from(prefix.right, bits))

    def conjugate(self, g):
        return ProductPair(self.left.conjugate(g.left), self.right.conjugate(g.right))

    def identity_like(self):
        return ProductPair(self.left.identity_like(), self.right.identity_like())

    def is_identity(self):
        return self.left.is_identity() and self.right.is_identity()

    def order(self):
        return math.lcm(self.left.order(), self.right.order())


# op -> its value from the step's param and operand values ("name" reads env)
_OPS = {
    "id": lambda _, x: x.identity_like(),
    "pow": lambda e, x: x ** e,
    "from": lambda bits, x, y: x.power_from(y, bits),
    "inv": lambda _, x: x.inverse(),
    "mul": lambda _, x, y: x * y,
    "conj": lambda _, x, y: x.conjugate(y),
}


class _Program:
    """A straight-line program compiled to a list of distinct steps.

    A step is (op, param, *operands), its operands given by step number:
    ("name", name) reads env, ("id", None, x) is the identity of x's group,
    ("pow", e, x) is x^e for e > 1, ("inv", None, x), ("mul", None, x, y)
    and ("conj", None, x, y) is x^y.  Equal subwords anywhere in the program
    compile to one step, and a defined name stands for its word's step.
    outputs lists (key, step) per value to yield.  Before a run, the powers
    of each base share their exponents' common binary prefixes (_share),
    which adds one kind of step: ("from", bits, x, y) is x^e from y = x^f,
    bits being e's binary digits after f's.
    """

    def __init__(self, env):
        self.env = env
        self.ops = dict(_OPS, name=env.__getitem__)
        self.steps = {}  # step -> its number, in compile order
        self.live = {}  # step -> value, while a read of it is still to come
        self.powers = {}  # base step -> {exponent: its "pow" step}
        self.names = {name: self._step("name", name) for name in env}
        self.outputs = []  # (key, step), in the order run yields them

    def _step(self, *step):
        return self.steps.setdefault(step, len(self.steps))

    def word(self, word):
        """The step of word: factors multiplied left to right, x^-e as
        (x^e)^-1."""
        k = None
        for f in word.factors:
            x = self._base(f.base)
            if abs(f.exp) > 1:
                power = self._step("pow", abs(f.exp), x)
                self.powers.setdefault(x, {})[abs(f.exp)] = power
                x = power
            if f.exp < 0:
                x = self._step("inv", None, x)
            k = x if k is None else self._step("mul", None, k, x)
        if k is None:  # the empty word: the identity beside env's first value
            if not self.env:
                raise UnboundSymbol("<empty environment>")
            k = self._step("id", None, self._step("name", next(iter(self.env))))
        return k

    def _base(self, base):
        if isinstance(base, Sym):
            if base.name not in self.names:
                raise UnboundSymbol(base.name)
            return self.names[base.name]
        if isinstance(base, Conj):
            return self._step("conj", None, self.word(base.target), self.word(base.by))
        if isinstance(base, Comm):
            # [u,v] = u^-1 v^-1 u v = u^-1 u^v
            u = self.word(base.left)
            u_v = self._step("conj", None, u, self.word(base.right))
            return self._step("mul", None, self._step("inv", None, u), u_v)
        return self.word(base)

    def slp(self, slp, definitions):
        """Compile slp, its generators read from env: an output per
        definition if definitions is true, then one per relator, keyed by
        its index."""
        for name in slp.generators:
            if name not in self.env:
                raise UnboundSymbol(name)
        for name, w in slp.definitions:
            self.names[name] = self.word(w)
            if definitions:
                self.outputs.append((name, self.names[name]))
        self.outputs += [(i, self.word(w)) for i, w in enumerate(slp.relators)]

    def _plan(self):
        """The steps, the powers of each base sharing their prefixes
        (_share); per output, the steps to run before it yields; and the
        reads of each of those steps, by later steps and by outputs.

        An output runs the steps it reads that no earlier output ran, in one
        iterative post-order that takes a step's operands lowest step number
        first, the order in which the words were written."""
        steps = list(self.steps)
        for x, pows in self.powers.items():
            if len(pows) > 1:
                _share(x, pows, steps)
        reads = [None] * len(steps)  # step -> its reads, None until placed
        plan = []
        for key, s in self.outputs:
            order, stack = [], [s]
            while stack:
                t = stack.pop()
                if t < 0:  # ~t, whose operands are all placed
                    t = ~t
                    order.append(t)
                    reads[t] = 0
                    for k in steps[t][2:]:
                        reads[k] += 1
                elif reads[t] is None:
                    xs = steps[t][2:]  # at most two, pushed highest first
                    stack.append(~t)
                    stack += xs if len(xs) < 2 or xs[0] > xs[1] else xs[::-1]
            reads[s] += 1
            plan.append((order, key, s))
        return steps, plan, reads

    def run(self):
        """Yield (key, value) per output, in order, running each step an
        output needs once; a value leaves live at its last read."""
        steps, plan, reads = self._plan()
        live, ops = self.live, self.ops
        for order, key, s in plan:
            for t in order:
                op, param, *xs = steps[t]
                live[t] = ops[op](param, *[live[k] for k in xs])
                for k in xs:
                    reads[k] -= 1
                    if not reads[k]:
                        del live[k]
            reads[s] -= 1
            yield key, live[s] if reads[s] else live.pop(s)


def _share(x, pows, steps):
    """Let the powers of base step x share the binary prefixes of their
    exponents; pows maps each exponent to its "pow" step.

    A prefix of e is f = e >> k > 1.  The prefixes two exponents share are
    the common leading digits of neighbours in binary (lexicographic)
    order; one that is no exponent becomes a new step, appended to steps.
    Each power continues from its longest shared prefix through e's
    remaining digits (a "from" step); a power with none stays one "pow"
    step."""
    ranked = sorted(pows, key=bin)
    shared = {_common_prefix(a, b) for a, b in zip(ranked, ranked[1:])} - {1}
    node = dict(pows)  # exponent or shared prefix -> its step
    for f in shared.difference(pows):
        node[f] = len(steps)
        steps.append(("pow", f, x))
    for e, s in node.items():
        f = e >> 1
        while f > 1 and f not in shared:
            f >>= 1
        if f > 1:
            steps[s] = ("from", bin(e)[2 + f.bit_length():], x, node[f])


def _common_prefix(a, b):
    """The longest common prefix of a and b in binary, as a number."""
    d = a.bit_length() - b.bit_length()
    a, b = (a >> d, b) if d > 0 else (a, b >> -d)
    return a >> (a ^ b).bit_length()


def evaluate(word, env):
    """Evaluate a word in env (name -> element).  Left factor applies first."""
    program = _Program(env)
    program.outputs.append((None, program.word(word)))
    return next(program.run())[1]


def evaluate_slp(slp, images):
    """Evaluate all definitions and all relators.

    Each distinct step of the whole program is computed once.  Returns
    (values, relator_values) where values maps generator and defined names
    to elements, all alive until the caller drops them; a caller that reads
    only the relators streams them with relator_values instead.
    """
    program = _Program(images)
    program.slp(slp, definitions=True)
    got = dict(program.run())
    values = {**images, **{name: got[name] for name, _ in slp.definitions}}
    return values, [got[i] for i in range(len(slp.relators))]


def relator_values(slp, images):
    """Yield (index, value) for each relator of slp, evaluated at images,
    in index order.

    A relator runs the steps it reads that no earlier relator ran, a
    definition no relator reads is not evaluated, and every value is freed
    at its last read, so only the values still to be read stay alive.
    Each relator is evaluated in full, exactly as evaluate_slp evaluates
    it.
    """
    program = _Program(images)
    program.slp(slp, definitions=False)
    yield from program.run()
