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
from itertools import chain
from operator import itemgetter
from typing import Callable, Collection, Dict, Iterable, Mapping, Tuple, Union

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
_KIND_LETTERS = {kind: letter for letter, kind in _LETTER_TO_KIND.items()}
_VAR_RE = re.compile(r"([uvwxyz])(\d+)\Z")


class VarId(tuple):
    """A variable, identified by its kind and a dense per-kind index.

    The immutable tuple ``(kind, index)``, so sorting, hashing and equality
    run on tuples.  Gadget variables come in aligned triples: raw index 3t,
    3t+1, 3t+2 display as u<t>, v<t>, w<t>.  The display name is invertible,
    so text round-trips.
    """

    __slots__ = ()
    kind = property(itemgetter(0))
    index = property(itemgetter(1))

    def __new__(cls, kind: VarKind, index: int) -> "VarId":
        if index < 0:
            raise ValueError(f"variable index must be nonnegative, got {index}")
        return tuple.__new__(cls, (kind, index))

    def __getnewargs__(self) -> Tuple[VarKind, int]:
        return tuple(self)

    @property
    def name(self) -> str:
        kind, index = self
        if kind == VarKind.GADGET:
            return f"{_GADGET_LETTERS[index % 3]}{index // 3}"
        return f"{_KIND_LETTERS[kind]}{index}"

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


def _canonical_keys(keys: Iterable[VarsKey]) -> list[VarsKey]:
    """Monomial keys in canonical term order: highest degree first, then
    ascending.  Both sorts compare in C; the second is stable."""
    return sorted(sorted(keys), key=len, reverse=True)


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
            for k in _canonical_keys(self._coeffs):
                c = self._coeffs[k]
                out += [Monomial(1 if c > 0 else -1, k)] * abs(c)  # one frozen copy, repeated
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


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def evaluate(p: Polynomial, a: Assignment) -> Number:
    """Evaluate ``p`` at the point ``a``; every variable must be bound.

    Arithmetic follows the bound values (rational bindings keep exact
    arithmetic even in float mode, where only the result is coerced), so
    high-precision rational approximations of irrational witnesses do not
    lose accuracy to intermediate rounding.  Integer and rational values
    are summed as integers: each value is N/D over the lcm D of their
    denominators, and each degree d adds its terms' sum over D^d.
    """
    coeffs = p._coeffs
    values = {v: a.value_of(v) for v in dict.fromkeys(chain.from_iterable(coeffs))}
    if all(isinstance(x, (int, Fraction)) for x in values.values()):
        lcm = math.lcm(*(x.denominator for x in values.values()))
        scaled = {v: x.numerator * (lcm // x.denominator) for v, x in values.items()}
        sums = [0] * (max(map(len, coeffs), default=0) + 1)
        for k, c in coeffs.items():
            sums[len(k)] += math.prod(map(scaled.__getitem__, k), start=c)
        num = 0
        for s in sums:  # Horner in D: sum_d sums[d] * D^(n - d)
            num = num * lcm + s
        total: Number = Fraction(num, lcm ** (len(sums) - 1))
    else:  # a float binding: multiply in the bound values' own arithmetic
        total = Fraction(0)
        for k, c in coeffs.items():
            term: Number = Fraction(c)
            for v in k:
                term *= values[v]
            total += term
    return total if a.mode == "exact" else float(total)


def term_count(f: Polynomial) -> int:
    """``len(f.terms)`` without building the terms: the sum of |c|."""
    return sum(map(abs, f._coeffs.values()))


def length_of(f: Polynomial) -> int:
    """Number of signed monomials in canonical standard form."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no length")
    return term_count(f)


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
    # integers until a lead is no multiple of f's lead coefficient
    work: Dict[VarsKey, Number] = dict(g._coeffs)
    f_coeffs = f._coeffs
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
        factor, rest = divmod(work[lead], f_lead_c)
        factor = Fraction(work[lead], f_lead_c) if rest else factor
        for k, c in f_coeffs.items():
            kk = tuple(sorted(k + quot))
            nc = work.get(kk, 0) - factor * c
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

class ParseError(ValueError):
    """Input text rejected by one of the package's syntaxes or file formats."""


def format_polynomial(p: Polynomial, compact: bool = False) -> str:
    """Render the canonical standard form; ``compact`` drops all spaces.

    Compact renderings are used as matrix labels and contain no whitespace.
    """
    coeffs = p._coeffs
    if not coeffs:
        return "0"
    plus, minus = ("+", "-") if compact else (" + ", " - ")
    names = {v: v.name for v in set(chain.from_iterable(coeffs))}
    parts = []
    for k in _canonical_keys(coeffs):
        c = coeffs[k]
        body = "*".join(map(names.__getitem__, k)) or "1"
        parts.append(((plus if c > 0 else minus) + body) * abs(c))  # |c| signed copies
    text = "".join(parts)
    # the first term takes no joiner: "x1" rather than "+x1", "-x1" rather than " - x1"
    return text[len(plus):] if text.startswith(plus) else "-" + text[len(minus):]


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([a-zA-Z]\w*)|(>=|<=|!=|[-+*<>=()&|!])|(\S))")
_TOKEN_KINDS = (None, "int", "var", "op", "bad")


def _position_error(message: str, at: int) -> ParseError:
    return ParseError(f"{message} at position {at}")


class Tokens:
    """Token cursor shared by the polynomial and formula syntaxes.

    Tokens are ``(kind, text, position)`` with kind ``int``, ``var`` or
    ``op``, then one ``("eof", "", len(text))`` that the cursor stays on.  An
    operator outside ``symbols`` or any other stray character raises
    ``error(message, position)``.
    """

    def __init__(self, text: str, symbols: Collection[str] = frozenset("+-*"),
                 error: Callable[[str, int], ParseError] = _position_error):
        self.error = error
        self.tokens: list[tuple[str, str, int]] = []
        self.i = 0
        for m in _TOKEN_RE.finditer(text):
            kind = _TOKEN_KINDS[m.lastindex]
            tok, at = m.group(m.lastindex), m.start(m.lastindex)
            if kind == "bad" or (kind == "op" and tok not in symbols):
                raise error(f"unexpected symbol {tok!r}", at)
            self.tokens.append((kind, tok, at))
        self.tokens.append(("eof", "", len(text)))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        if tok[0] != "eof":
            self.i += 1
        return tok

    def next_is(self, *ops: str) -> bool:
        kind, tok, _ = self.tokens[self.i]
        return kind == "op" and tok in ops


# Most terms the standard form of a parsed sum may have.  An integer c
# stands for |c| signed copies of its monomial, so a short text such as a
# 31-digit integer times x1 would otherwise parse into a polynomial that
# nothing can render.
MAX_STANDARD_TERMS = 10 ** 6


def read_terms(tokens: Tokens) -> Polynomial:
    """Read ``+``/``-``-joined products of integers and variables, stopping
    before the first token that continues neither a term nor the sum.  An
    integer token longer than ``int`` reads, or a sum whose standard form
    has more than ``MAX_STANDARD_TERMS`` terms, is an error."""
    coeffs: Dict[VarsKey, int] = {}
    start = tokens.peek()[2]
    while True:
        sign = 1
        while tokens.next_is("+", "-"):
            if tokens.take()[1] == "-":
                sign = -sign
        coeff = 1
        vars_: list[VarId] = []
        while True:
            kind, tok, at = tokens.take()
            if kind == "int":
                try:
                    coeff *= int(tok)
                except ValueError:  # more digits than int() reads
                    raise tokens.error(f"integer of {len(tok)} digits is too long", at) from None
            elif kind == "var":
                try:
                    vars_.append(var(tok))
                except ValueError:
                    raise tokens.error(f"unknown variable token {tok!r}", at) from None
            else:
                raise tokens.error("expected a factor", at)
            if not tokens.next_is("*"):
                break
            tokens.take()
        key = tuple(sorted(vars_))
        coeffs[key] = coeffs.get(key, 0) + sign * coeff
        if not tokens.next_is("+", "-"):
            if sum(map(abs, coeffs.values())) > MAX_STANDARD_TERMS:
                raise tokens.error(
                    f"standard form has more than {MAX_STANDARD_TERMS} terms", start)
            return Polynomial._from_coeffs(coeffs)


def parse_polynomial(text: str) -> Polynomial:
    """Parse the ``+``/``-``-joined product syntax, e.g. ``x1*x1 - 1``.

    Integer constants expand into repeated ±1 monomials, so parsing lands in
    standard form and round-trips with :func:`format_polynomial`.  Every
    error names its position.
    """
    tokens = Tokens(text)
    p = read_terms(tokens)
    kind, _, at = tokens.peek()
    if kind != "eof":
        raise tokens.error("expected '+', '-' or end of input", at)
    return p


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


def approx_sqrt(x: Fraction) -> Fraction:
    """Rational approximation of sqrt(x) with absolute error below 10^-30."""
    if x < 0:
        raise ValueError("square root of a negative rational")
    scale = 10 ** 30
    return Fraction(math.isqrt((x.numerator * scale * scale) // x.denominator), scale)


def sqrt_binding(x: Number) -> Tuple[Number, bool]:
    """sqrt(x) for x >= 0 and whether it is exact: `math.sqrt` for a float,
    else the rational root when one exists and otherwise the `approx_sqrt`
    approximation, which keeps a lifted point close to a true zero."""
    if isinstance(x, float):
        return math.sqrt(x), False
    root = rational_sqrt(Fraction(x))
    return (root, True) if root is not None else (approx_sqrt(Fraction(x)), False)


# Bound on a decimal literal: its mantissa's length plus its exponent's
# magnitude.  Fraction expands the exponent exactly, so '1e10000000' alone
# would build a 33M-bit integer.  The bound is the digit limit int() puts on
# integer tokens, so the numerator and denominator of whatever parses stay
# within it and the writers can render them.
MAX_DECIMAL_DIGITS = 4300


def parse_fraction(text: str) -> Fraction:
    """Parse 'p/q' or an integer or a decimal literal into a Fraction.

    A decimal literal whose exponent, added to the length of its mantissa,
    exceeds ``MAX_DECIMAL_DIGITS`` raises ValueError before any expansion.
    """
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        try:
            return Fraction(int(num), int(den))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    mantissa, marker, exponent = text.lower().partition("e")
    try:
        huge = bool(marker) and len(mantissa) + abs(int(exponent)) > MAX_DECIMAL_DIGITS
    except ValueError:  # no integer exponent: Fraction rejects the text
        huge = False
    if huge:
        raise ValueError(f"decimal literal {text!r} spells more than {MAX_DECIMAL_DIGITS} "
                         "digits")
    return Fraction(text)
