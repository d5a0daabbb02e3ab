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

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Tuple, Union

from .polynomials import (
    Assignment,
    Number,
    ParseError,
    Polynomial,
    VarId,
    VarKind,
    approx_sqrt,
    evaluate,
    format_polynomial,
    rational_sqrt,
    var,
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
        return 1 + len(f.lhs.terms)
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


_FORMULA_TOKEN = re.compile(
    r"\s*(?:(\d+)|([a-zA-Z]\w*)|(>=|<=|!=|[><=])|([()&|!+*-])|(\S))")


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _FORMULA_TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            break
        num, ident, rel, op, bad = m.groups()
        if num:
            tokens.append(("int", num, m.start(1)))
        elif ident:
            tokens.append(("var", ident, m.start(2)))
        elif rel:
            tokens.append(("rel", rel, m.start(3)))
        elif op:
            tokens.append(("op", op, m.start(4)))
        elif bad:
            raise FormulaParseError(f"unexpected character {bad!r}", m.start(5))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent for: or := and {'|' and}; and := not {'&' not};
    not := '!' not | '(' formula ')' | atom; atom := poly rel poly."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else ("eof", "", len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self) -> Formula:
        f = self.parse_or()
        kind, val, at = self.peek()
        if kind != "eof":
            raise FormulaParseError(f"unexpected trailing token {val!r}", at)
        return f

    def parse_or(self) -> Formula:
        f = self.parse_and()
        while self.peek()[:2] == ("op", "|"):
            self.i += 1
            f = Or(f, self.parse_and())
        return f

    def parse_and(self) -> Formula:
        f = self.parse_not()
        while self.peek()[:2] == ("op", "&"):
            self.i += 1
            f = And(f, self.parse_not())
        return f

    def parse_not(self) -> Formula:
        kind, val, at = self.peek()
        if (kind, val) == ("op", "!"):
            self.i += 1
            return Not(self.parse_not())
        if (kind, val) == ("op", "("):
            self.i += 1
            f = self.parse_or()
            kind, val, at = self.peek()
            if (kind, val) != ("op", ")"):
                raise FormulaParseError("expected ')'", at)
            self.i += 1
            return f
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        lhs = self.parse_poly()
        kind, rel, at = self.peek()
        if kind != "rel":
            raise FormulaParseError("expected a relation symbol", at)
        self.i += 1
        rhs = self.parse_poly()
        return Atom(lhs - rhs, rel)

    def parse_poly(self) -> Polynomial:
        coeffs: Dict[tuple, int] = {}
        first = True
        while True:
            sign = 1
            saw_sign = False
            while self.peek()[:2] in (("op", "+"), ("op", "-")):
                if self.take()[1] == "-":
                    sign = -sign
                saw_sign = True
            kind, val, at = self.peek()
            if kind not in ("int", "var"):
                if first or saw_sign:
                    raise FormulaParseError("expected a polynomial term", at)
                break
            coeff = 1
            vars_: List[VarId] = []
            while True:
                kind, val, at = self.take()
                if kind == "int":
                    coeff *= int(val)
                elif kind == "var":
                    try:
                        vars_.append(var(val))
                    except ValueError:
                        raise FormulaParseError(f"unknown variable token {val!r}", at) from None
                else:
                    raise FormulaParseError("expected a factor", at)
                if self.peek()[:2] == ("op", "*"):
                    self.i += 1
                    continue
                break
            key = tuple(sorted(vars_))
            coeffs[key] = coeffs.get(key, 0) + sign * coeff
            first = False
            if self.peek()[:2] not in (("op", "+"), ("op", "-")):
                break
        return Polynomial._from_coeffs(coeffs)


def parse_formula(text: str) -> Formula:
    """Parse a formula; atoms are normalized to ``polynomial REL 0``."""
    return _Parser(text).parse()


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

@dataclass(frozen=True)
class VarE:
    v: VarId


@dataclass(frozen=True)
class ConstE:
    value: int  # 0 or 1


@dataclass(frozen=True)
class OpE:
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
class Equation:
    """An equation ``expr = 0`` with its expanded standard form."""

    expr: Expr
    poly: Polynomial

    @classmethod
    def of(cls, expr: Expr) -> "Equation":
        return cls(expr, expr_to_polynomial(expr))

    @property
    def is_flat(self) -> bool:
        return expr_ops(self.expr) <= 2


@dataclass(frozen=True)
class EquationSystem:
    """A conjunction of polynomial equations with provenance records."""

    equations: Tuple[Equation, ...]
    value_var: VarId
    definitions: Tuple[Tuple[VarId, Expr], ...] = ()
    trace: Tuple[str, ...] = ()


@dataclass(frozen=True)
class _NodeRecord:
    node: Formula
    kind: str           # "atom" | "not" | "and" | "or"
    triple: Tuple[VarId, VarId, VarId]
    child_values: Tuple[VarId, ...]


class _TripleAllocator:
    """Dense gadget-variable allocation: triples for formula nodes, then
    single slots for flattening, continuing the same index sequence."""

    def __init__(self, start_slot: int = 0):
        self.next_slot = start_slot

    def fresh_triple(self) -> Tuple[VarId, VarId, VarId]:
        if self.next_slot % 3:
            self.next_slot += 3 - self.next_slot % 3
        base = self.next_slot
        self.next_slot += 3
        return (VarId(VarKind.GADGET, base), VarId(VarKind.GADGET, base + 1),
                VarId(VarKind.GADGET, base + 2))

    def fresh_slot(self) -> VarId:
        v = VarId(VarKind.GADGET, self.next_slot)
        self.next_slot += 1
        return v


def _gadget_start(f: Formula) -> int:
    """First free gadget slot: past any gadget variables already in the atoms."""
    worst = -1
    def scan(node: Formula) -> None:
        nonlocal worst
        if isinstance(node, Atom):
            for v in node.lhs.variables():
                if v.kind == VarKind.GADGET:
                    worst = max(worst, v.index)
        elif isinstance(node, Not):
            scan(node.child)
        else:
            scan(node.left)
            scan(node.right)
    scan(f)
    return 3 * ((worst // 3) + 1) if worst >= 0 else 0


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


def _build_records(f: Formula, alloc: _TripleAllocator) -> Tuple[List[_NodeRecord], VarId]:
    """Preorder triple allocation, postorder record emission."""
    records: List[_NodeRecord] = []

    def walk(node: Formula) -> VarId:
        triple = alloc.fresh_triple()
        w = triple[2]
        if isinstance(node, Atom):
            if node.rel != ">":
                raise ValueError(
                    "equation system requires atom-normalized input; "
                    f"found relation {node.rel!r} (run normalize_atoms first)")
            records.append(_NodeRecord(node, "atom", triple, ()))
            return w
        if isinstance(node, Not):
            cw = walk(node.child)
            records.append(_NodeRecord(node, "not", triple, (cw,)))
            return w
        lw = walk(node.left)
        rw = walk(node.right)
        kind = "and" if isinstance(node, And) else "or"
        records.append(_NodeRecord(node, kind, triple, (lw, rw)))
        return w

    root_value = walk(f)
    return records, root_value


def to_equation_system(f: Formula) -> EquationSystem:
    """Emit the gadget equations for an atom-normalized formula.

    Per atom ``g > 0``: ((g*u^2-1)^2 + (w-1)^2)((g+v^2)^2 + w^2) = 0 with a
    fresh u, v, w triple; per connective a fresh value variable defined by
    its encoder (1-w, w_a*w_b, w_a+w_b-w_a*w_b); finally value - 1 = 0.
    """
    alloc = _TripleAllocator(_gadget_start(f))
    records, root_value = _build_records(f, alloc)
    equations: List[Equation] = []
    trace: List[str] = []
    for rec in records:
        u, v, w = rec.triple
        if rec.kind == "atom":
            expr = _atom_gadget_expr(rec.node.lhs, u, v, w)
            trace.append(f"atom {format_polynomial(rec.node.lhs, compact=True)}>0 vars={u},{v},{w}")
        elif rec.kind == "not":
            (cw,) = rec.child_values
            expr = OpE("-", VarE(w), OpE("-", ConstE(1), VarE(cw)))
            trace.append(f"not value={w} child={cw}")
        elif rec.kind == "and":
            lw, rw = rec.child_values
            expr = OpE("-", VarE(w), OpE("*", VarE(lw), VarE(rw)))
            trace.append(f"and value={w} children={lw},{rw}")
        else:
            lw, rw = rec.child_values
            prod = OpE("*", VarE(lw), VarE(rw))
            expr = OpE("-", VarE(w), OpE("-", OpE("+", VarE(lw), VarE(rw)), prod))
            trace.append(f"or value={w} children={lw},{rw}")
        equations.append(Equation.of(expr))
    equations.append(Equation.of(OpE("-", VarE(root_value), ConstE(1))))
    trace.append(f"assert value {root_value}=1")
    return EquationSystem(tuple(equations), root_value, (), tuple(trace))


def flatten(system: EquationSystem) -> EquationSystem:
    """Rewrite every equation to at most two operations over variables/0/1.

    Every compound proper subexpression gets a fresh defining variable t and
    the flat equation ``subexpr - t = 0`` (two operations); the reduced
    original shrinks to a single operation over names and leaves.
    Structurally equal subexpressions share one definition, which keeps the
    output linear in the input even across repeated squarings.
    """
    alloc = _TripleAllocator(_max_gadget_slot(system) + 1)
    memo: Dict[Expr, VarId] = {}
    out: List[Equation] = []
    defs: List[Tuple[VarId, Expr]] = list(system.definitions)
    trace = list(system.trace)

    def name(e: Expr) -> Expr:
        if not isinstance(e, OpE):
            return e
        reduced = OpE(e.op, name(e.left), name(e.right))
        if reduced in memo:
            return VarE(memo[reduced])
        t = alloc.fresh_slot()
        memo[reduced] = t
        defs.append((t, reduced))
        out.append(Equation.of(OpE("-", reduced, VarE(t))))
        trace.append(f"define {t}={format_expr(reduced)}")
        return VarE(t)

    for eq in system.equations:
        e = eq.expr
        if not isinstance(e, OpE):
            out.append(eq)
            continue
        out.append(Equation.of(OpE(e.op, name(e.left), name(e.right))))
    return EquationSystem(tuple(out), system.value_var, tuple(defs), tuple(trace))


def _max_gadget_slot(system: EquationSystem) -> int:
    worst = -1
    for eq in system.equations:
        for v in eq.poly.variables():
            if v.kind == VarKind.GADGET:
                worst = max(worst, v.index)
    return worst


def to_single_polynomial(system: EquationSystem) -> Polynomial:
    """Sum of squares of the flat equations; zero set equals the solution set."""
    total = Polynomial.zero()
    for eq in system.equations:
        if not eq.is_flat:
            raise ValueError("equation system must be flattened first")
        total = total + eq.poly * eq.poly
    return total


# ---------------------------------------------------------------------------
# Witness lifting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessAssignment(Assignment):
    """An assignment extended over all reduction variables, with a lift trace."""

    trace: Tuple[str, ...] = ()


def _sqrt_binding(x: Number) -> Tuple[Number, bool]:
    """Square root binding: exact when rational, else a high-precision
    rational approximation (so the lifted point still nearly zeroes the
    squared gadget terms); flags exactness."""
    if isinstance(x, float):
        return math.sqrt(x), False
    r = rational_sqrt(Fraction(x))
    if r is not None:
        return r, True
    return approx_sqrt(Fraction(x)), False


def lift_witness(f: Formula, a: Assignment) -> WitnessAssignment:
    """Extend a satisfying point of ``f`` to a zero of the single polynomial.

    Per true atom g>0: u = 1/sqrt(g), v = 0, w = 1; per false atom: u = 0,
    v = sqrt(-g), w = 0.  Connective values follow the Boolean encoders and
    flattening definitions are evaluated bottom-up.  The result is exact
    when every radical is rational; otherwise float bindings appear and the
    mode degrades to "float".
    """
    normalized = normalize_atoms(f)
    if not formula_truth(normalized, a):
        raise ValueError("assignment does not satisfy the formula")
    alloc = _TripleAllocator(_gadget_start(normalized))
    records, root_value = _build_records(normalized, alloc)

    values: Dict[VarId, Number] = dict(a.values)
    trace: List[str] = []
    all_exact = a.mode == "exact"

    for rec in records:
        u, v, w = rec.triple
        if rec.kind == "atom":
            g = evaluate(rec.node.lhs, a)
            if g > 0:
                root, exact = _sqrt_binding(g)
                values[u] = 1 / root
                values[v] = Fraction(0)
                values[w] = Fraction(1)
                trace.append(f"atom true g={g} u={'exact' if exact else 'float'}")
                all_exact = all_exact and exact
            else:
                root, exact = _sqrt_binding(-g)
                values[u] = Fraction(0)
                values[v] = root
                values[w] = Fraction(0)
                trace.append(f"atom false g={g} v={'exact' if exact else 'float'}")
                all_exact = all_exact and exact
        else:
            cs = [int(values[cv]) for cv in rec.child_values]
            values[u] = Fraction(0)
            values[v] = Fraction(0)
            if rec.kind == "not":
                truth = 1 - cs[0]
            elif rec.kind == "and":
                truth = cs[0] * cs[1]
            else:
                truth = cs[0] + cs[1] - cs[0] * cs[1]
            values[w] = Fraction(truth)
            trace.append(f"{rec.kind} value={truth}")

    system = flatten(to_equation_system(normalized))
    for t, expr in system.definitions:
        values[t] = expr_value(expr, values)

    mode = "exact" if all_exact else "float"
    trace.append(f"mode={mode}")
    return WitnessAssignment(values, mode, tuple(trace))
