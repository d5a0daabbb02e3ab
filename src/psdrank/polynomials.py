"""Exact sparse multivariate polynomials kept in signed-monomial standard form.

A polynomial is stored as a canonical tuple of monomials, each carrying a
sign of +1 or -1 and a sorted tuple of variables (repetition encodes powers).
Canonical form cancels +m/-m pairs and sorts the survivors by graded order,
so an integer coefficient c appears as |c| identical signed copies of the
monomial.  The zero polynomial has an empty term tuple.

All arithmetic is exact; evaluation returns ``Fraction`` in exact mode and
``float`` otherwise.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

Number = Union[int, Fraction, float]


class VarKind(IntEnum):
    """Provenance tag of a variable; also fixes the variable ordering."""

    ORIGINAL = 0        # x<i>: variables of the user's problem
    GADGET = 1          # u<i>/v<i>/w<i>: introduced by the formula reduction
    HOMOGENIZATION = 2  # y<j>: tower variables of the cube transform
    SLACK = 3           # z<i>: slack variables of the cube transform


_GADGET_LETTERS = "uvw"
_LETTER_TO_KIND = {"x": VarKind.ORIGINAL, "y": VarKind.HOMOGENIZATION,
                   "z": VarKind.SLACK}
_VAR_RE = re.compile(r"([uvwxyz])(\d+)\Z")


@dataclass(frozen=True, order=True)
class VarId:
    """A variable, identified by its kind and a dense per-kind index.

    Gadget variables come in aligned triples: raw index 3t, 3t+1, 3t+2
    display as u<t>, v<t>, w<t>.  The display name is invertible, so text
    round-trips.
    """

    kind: VarKind
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"variable index must be nonnegative, got {self.index}")

    @property
    def name(self) -> str:
        if self.kind == VarKind.GADGET:
            return f"{_GADGET_LETTERS[self.index % 3]}{self.index // 3}"
        letter = {VarKind.ORIGINAL: "x", VarKind.HOMOGENIZATION: "y",
                  VarKind.SLACK: "z"}[self.kind]
        return f"{letter}{self.index}"

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"VarId({self.name!r})"


def var(name: str) -> VarId:
    """Parse a variable name such as ``x1``, ``u0`` or ``y3`` into a VarId."""
    m = _VAR_RE.match(name)
    if m is None:
        raise ValueError(f"unknown variable token {name!r}")
    letter, idx = m.group(1), int(m.group(2))
    if letter in _LETTER_TO_KIND:
        return VarId(_LETTER_TO_KIND[letter], idx)
    return VarId(VarKind.GADGET, 3 * idx + _GADGET_LETTERS.index(letter))


def xvar(i: int) -> VarId:
    return VarId(VarKind.ORIGINAL, i)


# Internal monomial key: a sorted tuple of VarIds.  Keys compare gradedly.
VarsKey = Tuple[VarId, ...]


def _graded_key(vars_: VarsKey):
    return (len(vars_), vars_)


@dataclass(frozen=True)
class Monomial:
    """A signed product of variables; the empty product is the constant 1."""

    sign: int
    vars: VarsKey

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"monomial sign must be +1 or -1, got {self.sign}")
        object.__setattr__(self, "vars", tuple(sorted(self.vars)))

    @property
    def degree(self) -> int:
        return len(self.vars)

    def __str__(self) -> str:
        body = "*".join(v.name for v in self.vars) if self.vars else "1"
        return body if self.sign > 0 else f"-{body}"


class Polynomial:
    """Canonical standard-form polynomial: an immutable tuple of ±1 monomials."""

    __slots__ = ("_coeffs", "_terms", "_hash")

    def __init__(self, terms: Iterable[Monomial] = ()):
        coeffs: Dict[VarsKey, int] = {}
        for t in terms:
            coeffs[t.vars] = coeffs.get(t.vars, 0) + t.sign
        self._coeffs = {k: c for k, c in coeffs.items() if c != 0}
        self._terms: Tuple[Monomial, ...] | None = None
        self._hash: int | None = None

    @classmethod
    def _from_coeffs(cls, coeffs: Mapping[VarsKey, int]) -> "Polynomial":
        p = cls.__new__(cls)
        p._coeffs = {k: c for k, c in coeffs.items() if c != 0}
        p._terms = None
        p._hash = None
        return p

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._from_coeffs({})

    @classmethod
    def constant(cls, c: int) -> "Polynomial":
        return cls._from_coeffs({(): int(c)}) if c else cls.zero()

    @classmethod
    def variable(cls, v: VarId) -> "Polynomial":
        return cls._from_coeffs({(v,): 1})

    @classmethod
    def monomial(cls, vars_: Iterable[VarId], sign: int = 1) -> "Polynomial":
        return cls._from_coeffs({tuple(sorted(vars_)): sign})

    # -- views ------------------------------------------------------------

    @property
    def terms(self) -> Tuple[Monomial, ...]:
        """Canonical term tuple: |c| signed copies per monomial, graded order
        with the highest-degree terms first."""
        if self._terms is None:
            out = []
            keys = sorted(self._coeffs, key=lambda k: (-len(k), k))
            for k in keys:
                c = self._coeffs[k]
                s = 1 if c > 0 else -1
                out.extend(Monomial(s, k) for _ in range(abs(c)))
            self._terms = tuple(out)
        return self._terms

    def coefficients(self) -> Dict[VarsKey, int]:
        """Read-only integer-coefficient view, for display and diagnostics."""
        return dict(self._coeffs)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self._coeffs:
            return -1
        return max(len(k) for k in self._coeffs)

    def variables(self) -> Tuple[VarId, ...]:
        seen = set()
        for k in self._coeffs:
            seen.update(k)
        return tuple(sorted(seen))

    def sort_key(self):
        """Deterministic total-order key on canonical forms."""
        return tuple(sorted((_graded_key(k), c) for k, c in self._coeffs.items()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self._coeffs)
        for k, c in other._coeffs.items():
            out[k] = out.get(k, 0) + c
        return Polynomial._from_coeffs(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self._coeffs)
        for k, c in other._coeffs.items():
            out[k] = out.get(k, 0) - c
        return Polynomial._from_coeffs(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_coeffs({k: -c for k, c in self._coeffs.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: Dict[VarsKey, int] = {}
        for ka, ca in self._coeffs.items():
            for kb, cb in other._coeffs.items():
                k = tuple(sorted(ka + kb))
                out[k] = out.get(k, 0) + ca * cb
        return Polynomial._from_coeffs(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._coeffs.items()))
        return self._hash

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self, compact=True)!r})"


@dataclass(frozen=True)
class Assignment:
    """A point binding variables to exact rationals or floats."""

    values: Mapping[VarId, Number]
    mode: str = "exact"  # "exact" | "float"

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "float"):
            raise ValueError(f"unknown assignment mode {self.mode!r}")
        if self.mode == "exact":
            for v, val in self.values.items():
                if isinstance(val, float):
                    raise ValueError(f"exact assignment binds {v} to a float")

    @classmethod
    def exact(cls, values: Mapping[VarId, Number]) -> "Assignment":
        return cls({v: Fraction(x) for v, x in values.items()}, "exact")

    @classmethod
    def floating(cls, values: Mapping[VarId, Number]) -> "Assignment":
        return cls({v: float(x) for v, x in values.items()}, "float")

    def value_of(self, v: VarId) -> Number:
        try:
            return self.values[v]
        except KeyError:
            raise ValueError(f"assignment has no binding for variable {v}") from None

    def extended(self, more: Mapping[VarId, Number], mode: str | None = None) -> "Assignment":
        merged = dict(self.values)
        merged.update(more)
        return Assignment(merged, mode if mode is not None else self.mode)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def canonicalize(p: Polynomial) -> Polynomial:
    """Return the canonical form of ``p``.

    Construction already canonicalizes, so this is the identity on any
    reachable Polynomial; it exists so callers can assert the normal form.
    """
    return Polynomial(p.terms)


def arith(p: Polynomial, q: Polynomial, op: str) -> Polynomial:
    """Combine two polynomials with ``op`` in {"add", "sub", "mul"}."""
    if op == "add":
        return p + q
    if op == "sub":
        return p - q
    if op == "mul":
        return p * q
    raise ValueError(f"unknown arithmetic op {op!r}")


def evaluate(p: Polynomial, a: Assignment) -> Number:
    """Evaluate ``p`` at the point ``a``; every variable must be bound.

    Arithmetic follows the bound values (rational bindings keep exact
    arithmetic even in float mode, where only the result is coerced), so
    high-precision rational approximations of irrational witnesses do not
    lose accuracy to intermediate rounding.
    """
    total: Number = Fraction(0)
    for k, c in p.coefficients().items():
        term: Number = Fraction(c)
        for v in k:
            term *= a.value_of(v)
        total += term
    return total if a.mode == "exact" else float(total)


def length_of(f: Polynomial) -> int:
    """Number of signed monomials in canonical standard form."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no length")
    return len(f.terms)


def is_multiple_of(g: Polynomial, f: Polynomial) -> bool:
    """Decide whether ``f`` divides ``g`` over the rationals.

    Single-divisor reduction under the graded order: g is repeatedly reduced
    by f; any leading term not divisible by f's leading term moves to the
    remainder.  A single generator reduces its principal ideal to remainder
    zero exactly on multiples, so the test is sound and complete.
    """
    if f.is_zero:
        raise ValueError("division by the zero polynomial")
    if g.is_zero:
        return True
    rem_is_zero = True
    work: Dict[VarsKey, Fraction] = {k: Fraction(c) for k, c in g.coefficients().items()}
    f_coeffs = {k: Fraction(c) for k, c in f.coefficients().items()}
    f_lead = max(f_coeffs, key=_graded_key)
    f_lead_c = f_coeffs[f_lead]
    while work:
        lead = max(work, key=_graded_key)
        quot = _monomial_quotient(lead, f_lead)
        if quot is None:
            # moves to the remainder; any surviving term refutes divisibility
            rem_is_zero = False
            del work[lead]
            continue
        factor = work[lead] / f_lead_c
        for k, c in f_coeffs.items():
            kk = tuple(sorted(k + quot))
            nc = work.get(kk, Fraction(0)) - factor * c
            if nc:
                work[kk] = nc
            else:
                work.pop(kk, None)
    return rem_is_zero


def _monomial_quotient(m: VarsKey, d: VarsKey) -> VarsKey | None:
    """Multiset difference m / d, or None when d does not divide m."""
    out = list(m)
    for v in d:
        try:
            out.remove(v)
        except ValueError:
            return None
    return tuple(out)


# ---------------------------------------------------------------------------
# Text syntax
# ---------------------------------------------------------------------------

def format_polynomial(p: Polynomial, compact: bool = False) -> str:
    """Render the canonical standard form; ``compact`` drops all spaces.

    Compact renderings are used as matrix labels and contain no whitespace.
    """
    terms = p.terms
    if not terms:
        return "0"
    plus, minus = ("+", "-") if compact else (" + ", " - ")
    parts = []
    for i, t in enumerate(terms):
        body = "*".join(v.name for v in t.vars) if t.vars else "1"
        if i == 0:
            parts.append(body if t.sign > 0 else ("-" + body))
        else:
            parts.append((plus if t.sign > 0 else minus) + body)
    return "".join(parts)


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([a-zA-Z]\w*)|([+*-])|(.))")


def parse_polynomial(text: str) -> Polynomial:
    """Parse the ``+``/``-``-joined product syntax, e.g. ``x1*x1 - 1``.

    Integer constants expand into repeated ±1 monomials, so parsing lands in
    standard form and round-trips with :func:`format_polynomial`.
    """
    pos = 0
    n = len(text)
    tokens: list[tuple[str, str, int]] = []
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            break
        num, ident, op, bad = m.groups()
        at = m.start(1) if num else m.start(2) if ident else m.start(3) if op else m.start(4)
        if num:
            tokens.append(("int", num, at))
        elif ident:
            tokens.append(("var", ident, at))
        elif op:
            tokens.append(("op", op, at))
        elif bad and bad.strip():
            raise ValueError(f"unexpected character {bad!r} at position {at}")
        pos = m.end()
    coeffs: Dict[VarsKey, int] = {}
    i = 0
    first = True
    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            raise ValueError("dangling sign at end of polynomial")
        coeff = 1
        vars_: list[VarId] = []
        while True:
            kind, val, at = tokens[i]
            if kind == "int":
                coeff *= int(val)
            elif kind == "var":
                try:
                    vars_.append(var(val))
                except ValueError:
                    raise ValueError(f"unknown variable token {val!r} at position {at}") from None
            else:
                raise ValueError(f"expected a factor at position {at}")
            i += 1
            if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "*":
                i += 1
                if i >= len(tokens):
                    raise ValueError("dangling '*' at end of polynomial")
                continue
            break
        key = tuple(sorted(vars_))
        coeffs[key] = coeffs.get(key, 0) + sign * coeff
        first = False
    if first:
        raise ValueError("empty polynomial text")
    return Polynomial._from_coeffs(coeffs)


# ---------------------------------------------------------------------------
# Rational helpers shared across the package
# ---------------------------------------------------------------------------

def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        raise ValueError("square root of a negative rational")
    if x == 0:
        return Fraction(0)
    pn, qn = x.numerator, x.denominator
    rn, rq = math.isqrt(pn), math.isqrt(qn)
    if rn * rn == pn and rq * rq == qn:
        return Fraction(rn, rq)
    return None


def approx_sqrt(x: Fraction, digits: int = 30) -> Fraction:
    """Rational approximation of sqrt(x) with absolute error below 10^-digits."""
    if x < 0:
        raise ValueError("square root of a negative rational")
    scale = 10 ** digits
    return Fraction(math.isqrt((x.numerator * scale * scale) // x.denominator), scale)


def parse_fraction(text: str) -> Fraction:
    """Parse 'p/q' or an integer or a decimal literal into a Fraction."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        try:
            return Fraction(int(num), int(den))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    return Fraction(text)
