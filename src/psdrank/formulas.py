"""Quantifier-free formulas over the reals and their reduction to one equation.

The pipeline is: parse -> normalize atoms to ``g > 0`` under not/and/or ->
emit a conjunction of polynomial equations (one gadget equation per atom,
one encoder equation per connective) -> flatten every equation to at most
two operations over variables and the constants 0, 1 -> sum the squares of
the flat equations.  The resulting single polynomial has a real zero exactly
when the formula is satisfiable, and ``lift_witness`` turns a satisfying
point into an explicit zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

from .polynomials import (
    Assignment,
    Number,
    ParseError,
    Polynomial,
    Tokens,
    VarId,
    VarKind,
    evaluate,
    read_terms,
    sqrt_binding,
    term_count,
)

RELATIONS = (">", ">=", "=", "!=", "<", "<=")


@dataclass(frozen=True)
class Atom:
    """An atomic constraint ``lhs REL 0`` (the parser moves everything left)."""

    lhs: Polynomial
    rel: str

    def __post_init__(self) -> None:
        if self.rel not in RELATIONS:
            raise ValueError(f"unknown relation {self.rel!r}")


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


Formula = Union[Atom, Not, And, Or]


def formula_size(f: Formula) -> int:
    """Structural size: connective nodes plus standard-form atom lengths."""
    if isinstance(f, Atom):
        return 1 + term_count(f.lhs)
    if isinstance(f, Not):
        return 1 + formula_size(f.child)
    return 1 + formula_size(f.left) + formula_size(f.right)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class FormulaParseError(ParseError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_FORMULA_SYMBOLS = frozenset(RELATIONS + ("+", "-", "*", "(", ")", "&", "|", "!"))


class _Parser:
    """Recursive descent for: or := and {'|' and}; and := not {'&' not};
    not := '!' not | '(' formula ')' | atom; atom := poly rel poly."""

    def __init__(self, text: str):
        self.tokens = Tokens(text, _FORMULA_SYMBOLS, FormulaParseError)

    def parse(self) -> Formula:
        f = self.parse_or()
        kind, val, at = self.tokens.peek()
        if kind != "eof":
            raise FormulaParseError(f"unexpected trailing token {val!r}", at)
        return f

    def parse_or(self) -> Formula:
        f = self.parse_and()
        while self.tokens.next_is("|"):
            self.tokens.take()
            f = Or(f, self.parse_and())
        return f

    def parse_and(self) -> Formula:
        f = self.parse_not()
        while self.tokens.next_is("&"):
            self.tokens.take()
            f = And(f, self.parse_not())
        return f

    def parse_not(self) -> Formula:
        if self.tokens.next_is("!"):
            self.tokens.take()
            return Not(self.parse_not())
        if self.tokens.next_is("("):
            self.tokens.take()
            f = self.parse_or()
            if not self.tokens.next_is(")"):
                raise FormulaParseError("expected ')'", self.tokens.peek()[2])
            self.tokens.take()
            return f
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        lhs = read_terms(self.tokens)
        if not self.tokens.next_is(*RELATIONS):
            raise FormulaParseError("expected a relation symbol", self.tokens.peek()[2])
        rel = self.tokens.take()[1]
        return Atom(lhs - read_terms(self.tokens), rel)


def parse_formula(text: str) -> Formula:
    """Parse a formula; atoms are normalized to ``polynomial REL 0``.  A
    formula nested deeper than the interpreter's recursion limit lets the
    parser descend is a FormulaParseError at the token where it stopped."""
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise FormulaParseError("formula nests too deep", parser.tokens.peek()[2]) from None


# ---------------------------------------------------------------------------
# Atom normalization
# ---------------------------------------------------------------------------

def normalize_atoms(f: Formula) -> Formula:
    """Rewrite so every atom reads ``g > 0``; logically equivalent over R.

    =  ->  !(g>0) & !(-g>0)         !=  ->  (g>0) | (-g>0)
    >= ->  !(-g>0)                  <   ->  -g>0
    <= ->  !(g>0)
    """
    if isinstance(f, Atom):
        g = f.lhs
        if f.rel == ">":
            return f
        if f.rel == "=":
            return And(Not(Atom(g, ">")), Not(Atom(-g, ">")))
        if f.rel == "!=":
            return Or(Atom(g, ">"), Atom(-g, ">"))
        if f.rel == ">=":
            return Not(Atom(-g, ">"))
        if f.rel == "<":
            return Atom(-g, ">")
        if f.rel == "<=":
            return Not(Atom(g, ">"))
        raise AssertionError(f.rel)
    if isinstance(f, Not):
        return Not(normalize_atoms(f.child))
    if isinstance(f, And):
        return And(normalize_atoms(f.left), normalize_atoms(f.right))
    return Or(normalize_atoms(f.left), normalize_atoms(f.right))


def formula_truth(f: Formula, a: Assignment) -> bool:
    """Evaluate the formula at a point (exact comparisons in exact mode)."""
    if isinstance(f, Atom):
        v = evaluate(f.lhs, a)
        return {">": v > 0, ">=": v >= 0, "=": v == 0,
                "!=": v != 0, "<": v < 0, "<=": v <= 0}[f.rel]
    if isinstance(f, Not):
        return not formula_truth(f.child, a)
    if isinstance(f, And):
        return formula_truth(f.left, a) and formula_truth(f.right, a)
    return formula_truth(f.left, a) or formula_truth(f.right, a)


# ---------------------------------------------------------------------------
# Equation trees
# ---------------------------------------------------------------------------

# Expression nodes are tuples, so building, hashing and comparing them (the
# flatten memo) run in C.  Their payloads (VarId, int, str) never compare
# equal to each other, so nodes of different classes are never equal.

class VarE(NamedTuple):
    v: VarId


class ConstE(NamedTuple):
    value: int  # 0 or 1


class OpE(NamedTuple):
    op: str  # "+", "-", "*"
    left: "Expr"
    right: "Expr"


Expr = Union[VarE, ConstE, OpE]


def expr_ops(e: Expr) -> int:
    if isinstance(e, OpE):
        return 1 + expr_ops(e.left) + expr_ops(e.right)
    return 0


def expr_to_polynomial(e: Expr) -> Polynomial:
    if isinstance(e, VarE):
        return Polynomial.variable(e.v)
    if isinstance(e, ConstE):
        return Polynomial.constant(e.value)
    l = expr_to_polynomial(e.left)
    r = expr_to_polynomial(e.right)
    return l + r if e.op == "+" else l - r if e.op == "-" else l * r


def expr_value(e: Expr, values: Mapping[VarId, Number]) -> Number:
    if isinstance(e, VarE):
        return values[e.v]
    if isinstance(e, ConstE):
        return Fraction(e.value)
    l = expr_value(e.left, values)
    r = expr_value(e.right, values)
    return l + r if e.op == "+" else l - r if e.op == "-" else l * r


def format_expr(e: Expr) -> str:
    if isinstance(e, VarE):
        return e.v.name
    if isinstance(e, ConstE):
        return str(e.value)
    return f"({format_expr(e.left)}{e.op}{format_expr(e.right)})"


def polynomial_to_expr(p: Polynomial) -> Expr:
    """Left-chained +/-/* tree of the canonical term list."""
    terms = p.terms
    if not terms:
        return ConstE(0)

    def term_tree(t) -> Expr:
        if not t.vars:
            return ConstE(1)
        tree: Expr = VarE(t.vars[0])
        for v in t.vars[1:]:
            tree = OpE("*", tree, VarE(v))
        return tree

    first = terms[0]
    acc = term_tree(first)
    if first.sign < 0:
        acc = OpE("-", ConstE(0), acc)
    for t in terms[1:]:
        acc = OpE("+" if t.sign > 0 else "-", acc, term_tree(t))
    return acc


@dataclass(frozen=True)
class EquationSystem:
    """A conjunction of equations ``expr = 0``, plus the ``t = expr``
    definitions that flattening introduced."""

    equations: Tuple[Expr, ...]
    definitions: Tuple[Tuple[VarId, Expr], ...] = ()


def _gadget_start(f: Formula) -> int:
    """First free gadget slot: past any gadget variables already in the atoms."""
    def worst(node: Formula) -> int:
        if isinstance(node, Atom):
            return max((v.index for v in node.lhs.variables() if v.kind == VarKind.GADGET),
                       default=-1)
        if isinstance(node, Not):
            return worst(node.child)
        return max(worst(node.left), worst(node.right))
    return 3 * (worst(f) // 3 + 1)


def _atom_gadget_expr(g: Polynomial, u: VarId, v: VarId, w: VarId) -> Expr:
    """((g*u*u - 1)^2 + (w-1)^2) * ((g + v*v)^2 + w^2) as a shared-shape tree."""
    gt = polynomial_to_expr(g)
    ue, ve, we = VarE(u), VarE(v), VarE(w)
    def sq(e: Expr) -> Expr:
        return OpE("*", e, e)
    t1 = OpE("-", OpE("*", gt, OpE("*", ue, ue)), ConstE(1))
    left = OpE("+", sq(t1), sq(OpE("-", we, ConstE(1))))
    t2 = OpE("+", gt, OpE("*", ve, ve))
    right = OpE("+", sq(t2), OpE("*", we, we))
    return OpE("*", left, right)


def _walk(f: Formula, point: Optional[Assignment] = None
          ) -> Tuple[EquationSystem, Dict[VarId, Number], bool]:
    """Emit the equations of an atom-normalized formula and, given a
    satisfying point, lift it onto every node's (u, v, w) triple.

    Triples are allocated in preorder and equations appended in postorder.
    Returns the system, the point's values extended by the triples, and
    whether every binding is exact.
    """
    slot = _gadget_start(f)
    equations: List[Expr] = []
    values: Dict[VarId, Number] = dict(point.values) if point is not None else {}
    exact = point is not None and point.mode == "exact"

    def visit(node: Formula) -> VarId:
        nonlocal slot, exact
        u, v, w = (VarId(VarKind.GADGET, slot + i) for i in range(3))
        slot += 3
        if isinstance(node, Atom):
            if node.rel != ">":
                raise ValueError(
                    "equation system requires atom-normalized input; "
                    f"found relation {node.rel!r} (run normalize_atoms first)")
            equations.append(_atom_gadget_expr(node.lhs, u, v, w))
            if point is not None:
                g = evaluate(node.lhs, point)
                root, root_exact = sqrt_binding(g if g > 0 else -g)
                values[u], values[v], values[w] = (
                    (1 / root, Fraction(0), Fraction(1)) if g > 0
                    else (Fraction(0), root, Fraction(0)))
                exact = exact and root_exact
            return w
        if isinstance(node, Not):
            encoder: Expr = OpE("-", ConstE(1), VarE(visit(node.child)))
        else:
            lw, rw = VarE(visit(node.left)), VarE(visit(node.right))
            encoder = OpE("*", lw, rw)
            if isinstance(node, Or):
                encoder = OpE("-", OpE("+", lw, rw), encoder)
        equations.append(OpE("-", VarE(w), encoder))
        if point is not None:
            values[u], values[v], values[w] = (
                Fraction(0), Fraction(0), expr_value(encoder, values))
        return w

    root_value = visit(f)
    if point is not None and values[root_value] != 1:
        raise ValueError("assignment does not satisfy the formula")
    equations.append(OpE("-", VarE(root_value), ConstE(1)))
    return EquationSystem(tuple(equations)), values, exact


def to_equation_system(f: Formula) -> EquationSystem:
    """Emit the gadget equations for an atom-normalized formula.

    Per atom ``g > 0``: ((g*u^2-1)^2 + (w-1)^2)((g+v^2)^2 + w^2) = 0 with a
    fresh u, v, w triple; per connective a fresh value variable defined by
    its encoder (1-w, w_a*w_b, w_a+w_b-w_a*w_b); finally value - 1 = 0.
    """
    return _walk(f)[0]


def flatten(system: EquationSystem) -> EquationSystem:
    """Rewrite every equation to at most two operations over variables/0/1.

    Every compound proper subexpression gets a fresh defining variable t and
    the flat equation ``subexpr - t = 0`` (two operations); the reduced
    original shrinks to a single operation over names and leaves.
    Structurally equal subexpressions share one definition, which keeps the
    output linear in the input even across repeated squarings.
    """
    slots = itertools.count(_max_gadget_slot(system) + 1)
    memo: Dict[Expr, VarId] = {}
    out: List[Expr] = []
    defs: List[Tuple[VarId, Expr]] = list(system.definitions)

    def name(e: Expr) -> Expr:
        """``e`` reduced to a leaf, naming its compound subexpressions left
        operand first and bottom-up.  The walk keeps its own stack: an
        atom's polynomial is a left chain as long as its standard form."""
        todo: List[Union[Expr, str]] = [e]  # an operator str: its operands are done
        done: List[Expr] = []
        while todo:
            x = todo.pop()
            if isinstance(x, OpE):
                todo += (x.op, x.right, x.left)
            elif isinstance(x, str):
                right = done.pop()
                reduced = OpE(x, done.pop(), right)
                t = memo.get(reduced)
                if t is None:
                    t = memo[reduced] = VarId(VarKind.GADGET, next(slots))
                    defs.append((t, reduced))
                    out.append(OpE("-", reduced, VarE(t)))
                done.append(VarE(t))
            else:
                done.append(x)
        return done.pop()

    for e in system.equations:
        out.append(OpE(e.op, name(e.left), name(e.right)) if isinstance(e, OpE) else e)
    return EquationSystem(tuple(out), tuple(defs))


def _max_gadget_slot(system: EquationSystem) -> int:
    """Largest gadget index at the leaves of the equations, or -1.

    Leaves can show variables that expansion cancels (u and v of an atom
    whose g is 0); for ``to_equation_system`` output the maximum is the
    same either way, because the last triple's w survives expansion.
    """
    worst = -1
    stack = list(system.equations)
    while stack:
        e = stack.pop()
        if isinstance(e, OpE):
            stack += (e.left, e.right)
        elif isinstance(e, VarE) and e.v.kind == VarKind.GADGET:
            worst = max(worst, e.v.index)
    return worst


def to_single_polynomial(system: EquationSystem) -> Polynomial:
    """Sum of squares of the flat equations; zero set equals the solution set."""
    total: Dict[Tuple[VarId, ...], int] = {}
    for e in system.equations:
        if expr_ops(e) > 2:
            raise ValueError("equation system must be flattened first")
        p = expr_to_polynomial(e)
        for k, c in (p * p).coefficients().items():
            total[k] = total.get(k, 0) + c
    return Polynomial._from_coeffs(total)


# ---------------------------------------------------------------------------
# Witness lifting
# ---------------------------------------------------------------------------

def lift_witness(f: Formula, a: Assignment) -> Assignment:
    """Extend a satisfying point of ``f`` to a zero of the single polynomial.

    Per true atom g>0: u = 1/sqrt(g), v = 0, w = 1; per false atom: u = 0,
    v = sqrt(-g), w = 0.  Connective values follow the Boolean encoders and
    flattening definitions are evaluated bottom-up.  The result is exact
    when every radical is rational; otherwise float bindings appear and the
    mode degrades to "float".
    """
    system, values, exact = _walk(normalize_atoms(f), a)
    for t, expr in flatten(system).definitions:
        values[t] = expr_value(expr, values)
    return Assignment(values, "exact" if exact else "float")
