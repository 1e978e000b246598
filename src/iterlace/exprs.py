"""Predictor expressions: parse, evaluate, differentiate.

A predictor formula combines named component effects with +, -, *, /,
unary minus, exp() and log().  ``parse_expr`` builds a small AST;
evaluation looks names up in a plain dict of per-row effect arrays, so
all arithmetic is elementwise.  Derivatives are exact, by forward mode
(Griewank & Walther, *Evaluating Derivatives*, 2008): each node's
``forward`` returns its value and its derivative with respect to one
name, by the sum, product, quotient, exp and log rules.  A subtree that
does not reference the name has the derivative None, an exact zero that
no rule multiplies into its value, so a value that overflows there
(``exp(800)``) leaves the derivative finite.  Three reference kinds
exist:

* ``name``            -- the component's effect vector,
* ``name_latent``     -- the component's raw latent state,
* ``name_eval(c(...))`` -- the component evaluated at fixed values
                          (only meaningful when predicting).

A formula of "." (or an absent formula) is the additive sentinel: the
sum of every component effect.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ExprError",
    "Num",
    "Ref",
    "Neg",
    "Call",
    "BinOp",
    "AdditiveAll",
    "parse_expr",
    "expr_jacobian",
    "detect_additive",
]


class ExprError(ValueError):
    """Parse or evaluation failure, carrying the offending position."""

    def __init__(self, message, pos=None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


# --- AST ---------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float

    def eval(self, env):
        return np.float64(self.value)  # IEEE division: 1 / 0 is inf, not an error

    def forward(self, env, name):
        return self.eval(env), None

    def to_string(self):
        return repr(self.value)

    def refs(self):
        return []


@dataclass(frozen=True)
class Ref:
    """A component reference.

    ``kind`` is "effect", "latent" or "eval"; for "eval" the fixed
    argument values are in ``args``.
    """

    name: str
    kind: str = "effect"
    args: tuple = field(default=())

    @property
    def key(self):
        if self.kind == "latent":
            return f"{self.name}_latent"
        if self.kind == "eval":
            return f"{self.name}_eval"
        return self.name

    def eval(self, env):
        try:
            return env[self.key]
        except KeyError:
            raise ExprError(f"unknown name {self.key!r} in expression") from None

    def forward(self, env, name):
        return self.eval(env), 1.0 if self.key == name else None

    def to_string(self):
        if self.kind == "eval":
            inner = ", ".join(repr(a) for a in self.args)
            return f"{self.name}_eval(c({inner}))"
        return self.key

    def refs(self):
        return [self]


@dataclass(frozen=True)
class Neg:
    operand: object

    def eval(self, env):
        return -self.operand.eval(env)

    def forward(self, env, name):
        val, dval = self.operand.forward(env, name)
        return -val, None if dval is None else -dval

    def to_string(self):
        s = self.operand.to_string()
        if isinstance(self.operand, (BinOp, Neg)):
            return f"-({s})"
        return f"-{s}"

    def refs(self):
        return self.operand.refs()


@dataclass(frozen=True)
class Call:
    func: str
    operand: object

    def eval(self, env):
        val = self.operand.eval(env)
        if self.func == "exp":
            return np.exp(val)
        return np.log(val)

    def forward(self, env, name):
        val, dval = self.operand.forward(env, name)
        out = np.exp(val) if self.func == "exp" else np.log(val)
        if dval is None:
            return out, None
        return out, out * dval if self.func == "exp" else dval / val

    def to_string(self):
        return f"{self.func}({self.operand.to_string()})"

    def refs(self):
        return self.operand.refs()


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object

    def eval(self, env):
        a = self.left.eval(env)
        b = self.right.eval(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        with np.errstate(divide="ignore", invalid="ignore"):
            return a / b

    def forward(self, env, name):
        a, da = self.left.forward(env, name)
        b, db = self.right.forward(env, name)
        if self.op == "+":
            return a + b, _sum(da, db)
        if self.op == "-":
            return a - b, _sum(da, None if db is None else -db)
        if self.op == "*":
            return a * b, _sum(None if da is None else da * b,
                               None if db is None else a * db)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = a / b
            if db is None:
                return q, None if da is None else da / b
            return q, (-(q * db) if da is None else da - q * db) / b

    def to_string(self):
        left = _wrap(self.left, self.op, side="left")
        right = _wrap(self.right, self.op, side="right")
        return f"{left} {self.op} {right}"

    def refs(self):
        return self.left.refs() + self.right.refs()


class AdditiveAll:
    """Sentinel for "." / absent formulas: sum every component effect."""

    def eval(self, env):
        total = 0.0
        for key, val in env.items():
            if key.endswith("_latent") or key.endswith("_eval"):
                continue
            total = total + val
        return total

    def forward(self, env, name):
        effect = name in env and not name.endswith(("_latent", "_eval"))
        return self.eval(env), 1.0 if effect else None

    def to_string(self):
        return "."

    def refs(self):
        return []

    def __eq__(self, other):
        return isinstance(other, AdditiveAll)

    def __hash__(self):
        return hash("AdditiveAll")


def _sum(da, db):
    """The sum of two derivatives, either of which may be None (zero)."""
    if da is None:
        return db
    return da if db is None else da + db


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _wrap(node, parent_op, side):
    """Parenthesise a child exactly when re-parsing would regroup it."""
    s = node.to_string()
    if isinstance(node, BinOp):
        child, parent = _PRECEDENCE[node.op], _PRECEDENCE[parent_op]
        if child < parent or (child == parent and side == "right"):
            return f"({s})"
    return s


# --- tokenizer ----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/(),~])
  | (?P<dot>\.)
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, text, pos = self.next()
        if text != value:
            raise ExprError(f"expected {value!r}, found {text or 'end of input'!r}", pos)

    def parse(self):
        if self.peek()[1] == "~":
            self.next()
        if self.peek()[0] == "dot":
            _, _, pos = self.next()
            kind, text, p2 = self.peek()
            if kind != "end":
                raise ExprError(f"unexpected {text!r} after '.'", p2)
            return AdditiveAll()
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected {text!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[1] == "-":
            self.next()
            return Neg(self.unary())
        return self.atom()

    def atom(self):
        kind, text, pos = self.next()
        if kind == "num":
            return Num(float(text))
        if text == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "name":
            if text in ("exp", "log"):
                self.expect("(")
                node = self.expr()
                self.expect(")")
                return Call(text, node)
            if text.endswith("_eval"):
                return self._eval_ref(text[: -len("_eval")], pos)
            if self.peek()[1] == "(":
                raise ExprError(f"unknown function {text!r}", pos)
            if text.endswith("_latent"):
                return Ref(text[: -len("_latent")], kind="latent")
            return Ref(text)
        raise ExprError(f"unexpected {text or 'end of input'!r}", pos)

    def _eval_ref(self, name, pos):
        self.expect("(")
        kind, text, p2 = self.next()
        if text != "c":
            raise ExprError(f"expected c(...) after {name}_eval", p2)
        self.expect("(")
        values = []
        while True:
            negate = False
            if self.peek()[1] == "-":
                self.next()
                negate = True
            kind, text, p3 = self.next()
            if kind != "num":
                raise ExprError(f"expected a number in c(...), found {text!r}", p3)
            values.append(-float(text) if negate else float(text))
            nxt = self.next()
            if nxt[1] == ")":
                break
            if nxt[1] != ",":
                raise ExprError(f"expected ',' or ')' in c(...), found {nxt[1]!r}", nxt[2])
        self.expect(")")
        return Ref(name, kind="eval", args=tuple(values))


def parse_expr(text):
    """Parse a predictor formula into an AST (None/"" means additive)."""
    if text is None:
        return AdditiveAll()
    text = text.strip()
    if text in ("", "~", "~."):
        return AdditiveAll()
    return _Parser(text).parse()


def detect_additive(expr):
    """True when the formula is a plain sum of distinct component effects.

    Accepts the additive sentinel, and +/- chains whose terms are
    effect references (each at most once) or numeric literals.  This is
    a syntactic test; whether the model as a whole is linear also
    depends on the components' mappers.
    """
    if isinstance(expr, AdditiveAll):
        return True
    seen = set()

    def walk(node, negated=False):
        if isinstance(node, BinOp) and node.op in ("+", "-"):
            return walk(node.left, negated) and walk(
                node.right, negated != (node.op == "-")
            )
        if isinstance(node, Neg):
            return walk(node.operand, not negated)
        if isinstance(node, Num):
            return True
        if isinstance(node, Ref) and node.kind == "effect":
            if node.name in seen:
                return False
            seen.add(node.name)
            return True
        return False

    return walk(expr)


def expr_jacobian(expr, env, names):
    """Derivative of the formula with respect to chosen effect vectors.

    Since all expression arithmetic is elementwise, d(output_i)/d(effect_i)
    is diagonal; this returns {name: diagonal array}, exact up to
    round-off, from one forward-mode pass per name.  Each array has the
    shape of the formula's value; it is exactly 0 for a name the formula
    does not reference.
    """
    out = {}
    for name in names:
        val, dval = expr.forward(env, name)
        dval = 0.0 if dval is None else dval
        out[name] = np.array(np.broadcast_to(dval, np.shape(val)), dtype=float)
    return out
