"""Rational expression parsing, evaluation and Wirtinger calculus.

Grammar accepted by :func:`parse_expression`::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' ['-'] INT)?
    atom    := NUM | IDENT | '(' expr ')'

Numeric literals may carry an ``i`` suffix (``2i``, ``0.5i``); ``i`` alone is
the imaginary unit.  In holomorphic mode the identifiers are ``z`` (one
variable) or ``z1``, ``z2`` (two variables).  Form-coefficient mode
additionally accepts ``zbar``/``zbar1``/``zbar2`` and the real aliases
``x``/``y``/``x1``/... which are expanded into (z + zbar)/2 and (z - zbar)/(2i)
at parse time, so every AST is a rational expression in z and zbar only.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ScenarioError

__all__ = [
    "Node",
    "Num",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Neg",
    "AffinePole",
    "parse_expression",
    "compile_node",
    "conj_derivative",
    "find_poles",
]


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: complex


@dataclass(frozen=True)
class Var:
    index: int
    conj: bool = False


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Div:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Neg:
    operand: "Node"


Node = Union[Num, Var, Add, Sub, Mul, Div, Pow, Neg]


@dataclass(frozen=True)
class AffinePole:
    """Zero set {z_var = value} of a denominator factor, with total order."""

    var: int
    value: complex
    order: int


# ---------------------------------------------------------------------------
# Lexing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?i?|\.\d+(?:[eE][+-]?\d+)?i?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            tail = text[pos:].strip()
            if not tail:
                break
            raise ScenarioError(f"unexpected character {tail[0]!r} in expression {text!r}")
        pos = m.end()
        kind = m.lastgroup
        tokens.append((kind, m.group(kind)))
    return tokens


# ---------------------------------------------------------------------------
# Parsing


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], text: str, ambient_dim: int, allow_conjugates: bool):
        self.tokens = tokens
        self.text = text
        self.pos = 0
        self.ambient_dim = ambient_dim
        self.allow_conjugates = allow_conjugates

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ScenarioError(f"unexpected end of expression {self.text!r}")
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.take()
        if tok != ("op", op):
            raise ScenarioError(f"expected {op!r} in expression {self.text!r}, got {tok[1]!r}")

    def parse(self) -> Node:
        node = self.expr()
        if self.peek() is not None:
            raise ScenarioError(f"trailing input {self.peek()[1]!r} in expression {self.text!r}")
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek() in (("op", "*"), ("op", "/")):
            op = self.take()[1]
            rhs = self.factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def factor(self) -> Node:
        if self.peek() == ("op", "-"):
            self.take()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            sign = 1
            if self.peek() == ("op", "-"):
                self.take()
                sign = -1
            kind, value = self.take()
            if kind != "num" or not re.fullmatch(r"\d+", value):
                raise ScenarioError(f"integer exponent expected after '^' in {self.text!r}")
            return Pow(base, sign * int(value))
        return base

    def atom(self) -> Node:
        kind, value = self.take()
        if kind == "num":
            if value.endswith("i"):
                return Num(complex(0.0, float(value[:-1] or "1")))
            return Num(complex(float(value)))
        if kind == "ident":
            return self.identifier(value)
        if (kind, value) == ("op", "("):
            node = self.expr()
            self.expect_op(")")
            return node
        raise ScenarioError(f"unexpected token {value!r} in expression {self.text!r}")

    def identifier(self, name: str) -> Node:
        if name == "i":
            return Num(1j)
        holomorphic = {"z": 0} if self.ambient_dim == 1 else {"z1": 0, "z2": 1}
        if name in holomorphic:
            return Var(holomorphic[name])
        if self.allow_conjugates:
            conj = {"zbar": 0} if self.ambient_dim == 1 else {"zbar1": 0, "zbar2": 1}
            if name in conj:
                return Var(conj[name], conj=True)
            reals = {"x": (0, "re"), "y": (0, "im")} if self.ambient_dim == 1 else {
                "x1": (0, "re"), "y1": (0, "im"), "x2": (1, "re"), "y2": (1, "im")}
            if name in reals:
                j, part = reals[name]
                if part == "re":
                    # x = (z + zbar) / 2
                    return Mul(Num(0.5), Add(Var(j), Var(j, conj=True)))
                # y = (z - zbar) / (2i) = -i/2 * (z - zbar)
                return Mul(Num(-0.5j), Sub(Var(j), Var(j, conj=True)))
        raise ScenarioError(f"unknown identifier {name!r} in expression {self.text!r}")


def parse_expression(text: str, ambient_dim: int, allow_conjugates: bool = False) -> Node:
    """Parse ``text`` into an AST; raises ScenarioError on any syntax problem."""
    if ambient_dim not in (1, 2):
        raise ScenarioError(f"ambient_dim must be 1 or 2, got {ambient_dim}")
    if not isinstance(text, str) or not text.strip():
        raise ScenarioError("empty expression")
    return _Parser(_tokenize(text), text, ambient_dim, allow_conjugates).parse()


# ---------------------------------------------------------------------------
# Evaluation


def compile_node(node: Node, ambient_dim: int) -> Callable[[np.ndarray], np.ndarray]:
    """Compile an AST into a vectorized evaluator over point batches.

    The returned callable takes a complex array of shape (..., ambient_dim)
    and returns values of shape (...,).  Division by zero yields inf/nan
    silently; callers are expected to keep quadrature nodes off poles.
    """

    def build(n: Node):
        if isinstance(n, Num):
            v = n.value
            return lambda z: v
        if isinstance(n, Var):
            j, conj = n.index, n.conj
            if conj:
                return lambda z: np.conj(z[..., j])
            return lambda z: z[..., j]
        if isinstance(n, Add):
            fl, fr = build(n.left), build(n.right)
            return lambda z: fl(z) + fr(z)
        if isinstance(n, Sub):
            fl, fr = build(n.left), build(n.right)
            return lambda z: fl(z) - fr(z)
        if isinstance(n, Mul):
            fl, fr = build(n.left), build(n.right)
            return lambda z: fl(z) * fr(z)
        if isinstance(n, Div):
            fl, fr = build(n.left), build(n.right)
            return lambda z: fl(z) / fr(z)
        if isinstance(n, Pow):
            fb, k = build(n.base), n.exponent
            return lambda z: fb(z) ** k
        if isinstance(n, Neg):
            fo = build(n.operand)
            return lambda z: -fo(z)
        raise TypeError(f"unknown node {n!r}")

    fn = build(node)

    def evaluate(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.complex128)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = fn(z)
        return np.broadcast_to(np.asarray(out, dtype=np.complex128), z.shape[:-1]).copy()

    return evaluate


# ---------------------------------------------------------------------------
# Wirtinger derivative with respect to a conjugated variable


def _is_zero(n: Node) -> bool:
    return isinstance(n, Num) and n.value == 0


def _add(a: Node, b: Node) -> Node:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return Add(a, b)


def _sub(a: Node, b: Node) -> Node:
    if _is_zero(b):
        return a
    if _is_zero(a):
        return Neg(b)
    return Sub(a, b)


def _mul(a: Node, b: Node) -> Node:
    if _is_zero(a) or _is_zero(b):
        return Num(0)
    if isinstance(a, Num) and a.value == 1:
        return b
    if isinstance(b, Num) and b.value == 1:
        return a
    return Mul(a, b)


def conj_derivative(node: Node, var: int) -> Node:
    """d(node) / d zbar_var, treating z and zbar as independent variables."""
    if isinstance(node, Num):
        return Num(0)
    if isinstance(node, Var):
        return Num(1) if (node.conj and node.index == var) else Num(0)
    if isinstance(node, Add):
        return _add(conj_derivative(node.left, var), conj_derivative(node.right, var))
    if isinstance(node, Sub):
        return _sub(conj_derivative(node.left, var), conj_derivative(node.right, var))
    if isinstance(node, Mul):
        return _add(_mul(conj_derivative(node.left, var), node.right),
                    _mul(node.left, conj_derivative(node.right, var)))
    if isinstance(node, Div):
        # (u/v)' = u'/v - u v' / v^2
        du = conj_derivative(node.left, var)
        dv = conj_derivative(node.right, var)
        term1 = Div(du, node.right) if not _is_zero(du) else Num(0)
        term2 = Div(_mul(node.left, dv), Pow(node.right, 2)) if not _is_zero(dv) else Num(0)
        return _sub(term1, term2)
    if isinstance(node, Pow):
        db = conj_derivative(node.base, var)
        if _is_zero(db) or node.exponent == 0:
            return Num(0)
        return _mul(_mul(Num(node.exponent), Pow(node.base, node.exponent - 1)), db)
    if isinstance(node, Neg):
        inner = conj_derivative(node.operand, var)
        return Num(0) if _is_zero(inner) else Neg(inner)
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Pole extraction
#
# An expression is reduced to numerator-polynomial / product of factor
# polynomials.  Factors are never expanded into each other, so a scenario
# written in factored form (the normal case) keeps exact factor structure.
# Polynomials are dicts mapping exponent tuples to complex coefficients.

_Poly = dict[tuple[int, ...], complex]


def _poly_const(c: complex, nvars: int) -> _Poly:
    return {(0,) * nvars: c} if c != 0 else {}

def _poly_var(j: int, nvars: int) -> _Poly:
    e = [0] * nvars
    e[j] = 1
    return {tuple(e): 1.0 + 0.0j}

def _poly_add(p: _Poly, q: _Poly, sign: int = 1) -> _Poly:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0.0) + sign * c
        if out[e] == 0:
            del out[e]
    return out

def _poly_mul(p: _Poly, q: _Poly) -> _Poly:
    out: _Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0.0) + c1 * c2
            if out[e] == 0:
                del out[e]
    return out

def _poly_pow(p: _Poly, k: int) -> _Poly:
    out = _poly_const(1.0, len(next(iter(p))) if p else 1)
    for _ in range(k):
        out = _poly_mul(out, p)
    return out

def _poly_key(p: _Poly) -> tuple:
    return tuple(sorted((e, complex(c)) for e, c in p.items()))


@dataclass
class _Rational:
    num: _Poly
    den: list[tuple[_Poly, int]]  # factor, positive exponent

    def den_poly(self, nvars: int) -> _Poly:
        out = _poly_const(1.0, nvars)
        for f, k in self.den:
            out = _poly_mul(out, _poly_pow(f, k))
        return out


def _merge_factors(*factor_lists: list[tuple[_Poly, int]]) -> list[tuple[_Poly, int]]:
    merged: dict[tuple, tuple[_Poly, int]] = {}
    for factors in factor_lists:
        for f, k in factors:
            key = _poly_key(f)
            if key in merged:
                merged[key] = (merged[key][0], merged[key][1] + k)
            else:
                merged[key] = (f, k)
    return list(merged.values())


def _to_rational(node: Node, nvars: int) -> _Rational:
    if isinstance(node, Num):
        return _Rational(_poly_const(node.value, nvars), [])
    if isinstance(node, Var):
        if node.conj:
            raise ScenarioError("pole analysis requires a holomorphic expression")
        return _Rational(_poly_var(node.index, nvars), [])
    if isinstance(node, (Add, Sub)):
        a = _to_rational(node.left, nvars)
        b = _to_rational(node.right, nvars)
        sign = 1 if isinstance(node, Add) else -1
        num = _poly_add(_poly_mul(a.num, b.den_poly(nvars)),
                        _poly_mul(b.num, a.den_poly(nvars)), sign)
        return _Rational(num, _merge_factors(a.den, b.den))
    if isinstance(node, Mul):
        a = _to_rational(node.left, nvars)
        b = _to_rational(node.right, nvars)
        return _Rational(_poly_mul(a.num, b.num), _merge_factors(a.den, b.den))
    if isinstance(node, Div):
        # keep denominator factors as written: 1/(p*q) analyzes p and q
        # separately instead of expanding their product
        if isinstance(node.right, Mul):
            return _to_rational(
                Div(Div(node.left, node.right.left), node.right.right), nvars)
        if isinstance(node.right, Pow) and node.right.exponent > 0:
            return _to_rational(
                Mul(node.left, Pow(node.right.base, -node.right.exponent)), nvars)
        if isinstance(node.right, Neg):
            return _to_rational(Neg(Div(node.left, node.right.operand)), nvars)
        if isinstance(node.right, Div):
            return _to_rational(
                Div(Mul(node.left, node.right.right), node.right.left), nvars)
        a = _to_rational(node.left, nvars)
        b = _to_rational(node.right, nvars)
        if not b.num:
            raise ScenarioError("division by the zero polynomial")
        num = _poly_mul(a.num, b.den_poly(nvars))
        if _poly_degree(b.num) == 0:
            c = next(iter(b.num.values()))
            return _Rational({e: v / c for e, v in num.items()}, a.den)
        return _Rational(num, _merge_factors(a.den, [(b.num, 1)]))
    if isinstance(node, Pow):
        a = _to_rational(node.base, nvars)
        k = node.exponent
        if k >= 0:
            return _Rational(_poly_pow(a.num, k), [(f, e * k) for f, e in a.den])
        k = -k
        if not a.num:
            raise ScenarioError("division by the zero polynomial")
        num = _poly_pow(a.den_poly(nvars), k)
        if _poly_degree(a.num) == 0:
            c = next(iter(a.num.values())) ** k
            return _Rational({e: v / c for e, v in num.items()}, [])
        return _Rational(num, [(a.num, k)])
    if isinstance(node, Neg):
        a = _to_rational(node.operand, nvars)
        return _Rational({e: -c for e, c in a.num.items()}, a.den)
    raise TypeError(f"unknown node {node!r}")


def _poly_degree(p: _Poly) -> int:
    return max((sum(e) for e in p), default=-1)


def _univariate(p: _Poly, nvars: int) -> tuple[int, np.ndarray] | None:
    """If p depends on a single variable, return (var, coeffs high->low)."""
    active = [j for j in range(nvars) if any(e[j] > 0 for e in p)]
    if len(active) != 1:
        return None
    j = active[0]
    deg = max(e[j] for e in p)
    coeffs = np.zeros(deg + 1, dtype=np.complex128)
    for e, c in p.items():
        coeffs[deg - e[j]] = c
    return j, coeffs


def find_poles(node: Node, ambient_dim: int) -> tuple[AffinePole, ...]:
    """Poles of a holomorphic rational expression, as affine sets {z_j = c}.

    Denominator factors are analyzed one at a time and must each involve a
    single variable.  Root multiplicities within a factor are detected by
    clustering.  Cancellation against the numerator is not attempted, so the
    result may over-report for artificially written expressions.
    """
    rational = _to_rational(node, ambient_dim)
    poles: dict[tuple[int, complex], int] = {}
    for factor, exponent in rational.den:
        deg = _poly_degree(factor)
        if deg <= 0:
            continue
        uni = _univariate(factor, ambient_dim)
        if uni is None:
            raise ScenarioError(
                "pole analysis supports only denominators that factor into "
                "single-variable terms; declare poles explicitly instead")
        j, coeffs = uni
        roots = np.roots(coeffs)
        scale = max(1.0, float(np.max(np.abs(roots), initial=0.0)))
        used = np.zeros(len(roots), dtype=bool)
        for a in range(len(roots)):
            if used[a]:
                continue
            members = np.where(~used & (np.abs(roots - roots[a]) < 1e-7 * scale))[0]
            used[members] = True
            value = complex(np.mean(roots[members]))
            key = (j, complex(round(value.real, 12), round(value.imag, 12)))
            poles[key] = poles.get(key, 0) + exponent * len(members)
    ordered = sorted(poles.items(), key=lambda kv: (kv[0][0], kv[0][1].real, kv[0][1].imag))
    return tuple(AffinePole(var=j, value=v, order=k) for (j, v), k in ordered)
