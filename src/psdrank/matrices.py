"""Matrix containers and their text file formats.

Three flavours appear in the pipeline:

* ``InstanceMatrix``    sparse nonnegative exact-rational matrix with string
                        labels (absent entry = 0); the reduction's output.
* ``IncompleteMatrix``  entries are known rationals, ``UNKNOWN`` or
                        ``NONZERO_UNKNOWN`` (absent entry = known 0).
* ``SymbolicMatrix``    polynomial-valued, indexed by label triples; entries
                        are computed lazily and memoized because instances
                        are quadratic in the index set.

File formats are line oriented.  Header ``psdrank-matrix v1 <nrows> <ncols>``
is followed by one ``row <i> <label>`` / ``col <j> <label>`` line per label
(so all-zero rows and columns survive a round trip) and then coordinate
lines ``<row-label> <col-label> <value>`` where a value is ``p/q``, ``?``
(unknown) or ``*`` (nonzero unknown).  Labels contain no whitespace.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .polynomials import (
    ParseError,
    Polynomial,
    format_polynomial,
    parse_fraction,
    parse_polynomial,
)


class _Mark:
    __slots__ = ("token",)

    def __init__(self, token: str):
        self.token = token

    def __repr__(self) -> str:
        return f"<{self.token}>"


UNKNOWN = _Mark("?")
NONZERO_UNKNOWN = _Mark("*")

Entry = Union[Fraction, _Mark]


def _check_label(label: str) -> str:
    if label.split() != [label]:
        raise ValueError(f"matrix labels must be nonempty and whitespace-free: {label!r}")
    if label in ("row", "col", "r"):
        raise ValueError(f"label {label!r} collides with a format keyword")
    return label


def _check_labels(labels: Sequence[str]) -> Tuple[str, ...]:
    out = tuple(_check_label(l) for l in labels)
    if len(set(out)) != len(out):
        raise ValueError("matrix labels must be unique")
    return out


@dataclass
class InstanceMatrix:
    """Sparse nonnegative rational matrix; entries not stored are zero."""

    row_labels: Tuple[str, ...]
    col_labels: Tuple[str, ...]
    data: Dict[Tuple[str, str], Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.row_labels = _check_labels(self.row_labels)
        self.col_labels = _check_labels(self.col_labels)
        rset, cset = set(self.row_labels), set(self.col_labels)
        clean: Dict[Tuple[str, str], Fraction] = {}
        for (r, c), v in self.data.items():
            if r not in rset or c not in cset:
                raise ValueError(f"entry ({r!r}, {c!r}) is outside the label sets")
            if type(v) is not Fraction:
                v = Fraction(v)
            num = v.numerator
            if num < 0:
                raise ValueError(f"negative entry {v} at ({r!r}, {c!r})")
            if num:
                clean[(r, c)] = v
        self.data = clean

    @property
    def nrows(self) -> int:
        return len(self.row_labels)

    @property
    def ncols(self) -> int:
        return len(self.col_labels)

    def entry(self, r: str, c: str) -> Fraction:
        return self.data.get((r, c), Fraction(0))

    def max_entry(self) -> Fraction:
        return max(self.data.values(), default=Fraction(0))

    def to_dense(self) -> List[List[Fraction]]:
        return [[self.entry(r, c) for c in self.col_labels] for r in self.row_labels]

    @classmethod
    def from_dense(cls, rows: Sequence[Sequence[Union[int, Fraction]]],
                   row_labels: Optional[Sequence[str]] = None,
                   col_labels: Optional[Sequence[str]] = None) -> "InstanceMatrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        rl = tuple(row_labels) if row_labels is not None else tuple(f"r{i}" for i in range(nr))
        cl = tuple(col_labels) if col_labels is not None else tuple(f"c{j}" for j in range(nc))
        data = {}
        for i, row in enumerate(rows):
            if len(row) != nc:
                raise ValueError("ragged dense matrix")
            for j, v in enumerate(row):
                if v:
                    data[(rl[i], cl[j])] = Fraction(v)
        return cls(rl, cl, data)


@dataclass
class IncompleteMatrix:
    """Matrix over known rationals plus unknown / nonzero-unknown marks.

    Entries not stored are known zeros.  ``label_vectors`` optionally carries
    the polynomial triples behind the labels (attached by the gadget
    builders, used by the guided sqrt-condition search).
    """

    row_labels: Tuple[str, ...]
    col_labels: Tuple[str, ...]
    data: Dict[Tuple[str, str], Entry] = field(default_factory=dict)
    label_vectors: Optional[Tuple["LabelVector", ...]] = None

    def __post_init__(self) -> None:
        self.row_labels = _check_labels(self.row_labels)
        self.col_labels = _check_labels(self.col_labels)
        rset, cset = set(self.row_labels), set(self.col_labels)
        clean: Dict[Tuple[str, str], Entry] = {}
        for (r, c), v in self.data.items():
            if r not in rset or c not in cset:
                raise ValueError(f"entry ({r!r}, {c!r}) is outside the label sets")
            if isinstance(v, _Mark):
                clean[(r, c)] = v
                continue
            if type(v) is not Fraction:
                v = Fraction(v)
            if v.numerator:
                clean[(r, c)] = v
        self.data = clean

    @property
    def nrows(self) -> int:
        return len(self.row_labels)

    @property
    def ncols(self) -> int:
        return len(self.col_labels)

    def entry(self, r: str, c: str) -> Entry:
        return self.data.get((r, c), Fraction(0))

    def is_known(self, r: str, c: str) -> bool:
        return not isinstance(self.entry(r, c), _Mark)

    def unknown_positions(self) -> Tuple[Tuple[str, str], ...]:
        """Unknown coordinates in deterministic row-major label order."""
        out = []
        for r in self.row_labels:
            for c in self.col_labels:
                if self.data.get((r, c)) is UNKNOWN:
                    out.append((r, c))
        return tuple(out)

    def transpose(self) -> "IncompleteMatrix":
        return IncompleteMatrix(
            self.col_labels, self.row_labels,
            {(c, r): v for (r, c), v in self.data.items()})


@dataclass(frozen=True)
class LabelVector:
    """A triple of canonical polynomials with at least one coordinate 1."""

    coords: Tuple[Polynomial, Polynomial, Polynomial]

    def __post_init__(self) -> None:
        one = Polynomial.constant(1)
        if not any(c == one for c in self.coords):
            raise ValueError("label vector needs a coordinate equal to 1")

    def render(self) -> str:
        return "(" + ",".join(format_polynomial(c, compact=True) for c in self.coords) + ")"

    def __str__(self) -> str:
        return self.render()


class SymbolicMatrix:
    """Symmetric-by-construction polynomial matrix A(u|v) = (u.v)^2.

    Entries are computed on demand and memoized by the canonical form of the
    dot product, so the quadratic table stays cheap for repeated values.
    """

    def __init__(self, row_labels: Sequence[LabelVector],
                 col_labels: Optional[Sequence[LabelVector]] = None):
        self.row_labels: Tuple[LabelVector, ...] = tuple(row_labels)
        self.col_labels: Tuple[LabelVector, ...] = tuple(col_labels) if col_labels is not None else self.row_labels
        self._dot_cache: Dict[Tuple[int, int], Polynomial] = {}
        self._square_cache: Dict[Polynomial, Polynomial] = {}

    @property
    def nrows(self) -> int:
        return len(self.row_labels)

    @property
    def ncols(self) -> int:
        return len(self.col_labels)

    def dot(self, i: int, j: int) -> Polynomial:
        key = (i, j)
        hit = self._dot_cache.get(key)
        if hit is not None:
            return hit
        u = self.row_labels[i].coords
        v = self.col_labels[j].coords
        d = u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
        self._dot_cache[key] = d
        return d

    def entry(self, i: int, j: int) -> Polynomial:
        d = self.dot(i, j)
        sq = self._square_cache.get(d)
        if sq is None:
            sq = d * d
            self._square_cache[d] = sq
        return sq

    @property
    def is_symmetric(self) -> bool:
        return self.row_labels == self.col_labels


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

MATRIX_HEADER = "psdrank-matrix v1"
POLYMATRIX_HEADER = "psdrank-polymatrix v1"


def _entry_token(v: Entry) -> str:
    if v is UNKNOWN:
        return "?"
    if v is NONZERO_UNKNOWN:
        return "*"
    f = Fraction(v)
    return f"{f.numerator}/{f.denominator}"


def write_matrix(m: Union[InstanceMatrix, IncompleteMatrix],
                 target_rank: Optional[int] = None) -> str:
    """Serialize a matrix; a reduction target emits an extra ``r <k>`` line.

    Data lines come out in row-major label order, so identical matrices
    serialize byte-identically.  Each distinct value is rendered once.
    """
    lines = [f"{MATRIX_HEADER} {m.nrows} {m.ncols}"]
    if target_rank is not None:
        lines.append(f"r {target_rank}")
    for i, l in enumerate(m.row_labels):
        lines.append(f"row {i} {l}")
    for j, l in enumerate(m.col_labels):
        lines.append(f"col {j} {l}")
    rpos = {l: i for i, l in enumerate(m.row_labels)}
    cpos = {l: j for j, l in enumerate(m.col_labels)}
    ncols = m.ncols
    data = m.data
    # Runs of entries share one value object (M stores K once), so the
    # identity test skips most lookups; hashing a Fraction is not cheap.
    tokens: Dict[Entry, str] = {}
    last: Optional[Entry] = None
    tok = ""
    for rc in sorted(data, key=lambda rc: rpos[rc[0]] * ncols + cpos[rc[1]]):
        v = data[rc]
        if v is not last:
            last = v
            tok = tokens.get(v)
            if tok is None:
                tok = tokens[v] = _entry_token(v)
        lines.append(f"{rc[0]} {rc[1]} {tok}")
    return "\n".join(lines) + "\n"


@dataclass
class ParsedMatrix:
    matrix: Union[InstanceMatrix, IncompleteMatrix]
    target_rank: Optional[int]

    @property
    def instance(self) -> InstanceMatrix:
        if not isinstance(self.matrix, InstanceMatrix):
            raise ValueError("file holds an incomplete matrix, not an instance")
        return self.matrix

    @property
    def incomplete(self) -> IncompleteMatrix:
        if isinstance(self.matrix, InstanceMatrix):
            m = self.matrix
            return IncompleteMatrix(m.row_labels, m.col_labels, dict(m.data))
        return self.matrix


def _parse_matrix_text(text: str, header: str, entry: Callable[[str], object]) -> Tuple[
        Optional[int], Tuple[str, ...], Tuple[str, ...], Dict[Tuple[str, str], object]]:
    """Shared reader of both matrix formats: returns the ``r`` target (only
    ``MATRIX_HEADER`` files may carry one), the row and column labels and the
    coordinate entries converted by ``entry``.  Every rejected line, including
    a repeated label index or coordinate, raises ParseError naming it."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith(header):
        raise ParseError(f"missing '{header}' header")
    head = lines[0].split()
    try:
        if len(head) != 4:
            raise ValueError("expected 4 tokens")
        nrows, ncols = int(head[2]), int(head[3])
    except ValueError as e:
        raise ParseError(f"malformed matrix header: {lines[0]!r} ({e})") from None
    target_rank: Optional[int] = None
    labels: Dict[str, Dict[int, str]] = {"row": {}, "col": {}}
    data: Dict[Tuple[str, str], object] = {}
    # Few distinct values fill most of a file: convert each token once.
    entry = functools.cache(entry)
    for ln in lines[1:]:
        parts = ln.split()
        try:
            if len(parts) == 3 and parts[0] in labels:
                table = labels[parts[0]]
                index = int(parts[1])
                if index in table:
                    raise ParseError(f"repeated {parts[0]} index in line {ln!r}")
                table[index] = parts[2]
            elif len(parts) == 3:
                rc = (parts[0], parts[1])
                if rc in data:
                    raise ParseError(f"repeated coordinate in line {ln!r}")
                data[rc] = entry(parts[2])
            elif len(parts) == 2 and parts[0] == "r" and header == MATRIX_HEADER:
                target_rank = int(parts[1])
            else:
                raise ParseError(f"malformed matrix line: {ln!r}")
        except ParseError:
            raise
        except ValueError as e:
            raise ParseError(f"malformed matrix line: {ln!r} ({e})") from None
    rows, cols = labels["row"], labels["col"]
    if sorted(rows) != list(range(nrows)) or sorted(cols) != list(range(ncols)):
        raise ParseError("row/col label lines do not cover the declared dimensions")
    return (target_rank, tuple(rows[i] for i in range(nrows)),
            tuple(cols[j] for j in range(ncols)), data)


_MARKS = {"?": UNKNOWN, "*": NONZERO_UNKNOWN}


def parse_matrix(text: str) -> ParsedMatrix:
    target_rank, row_labels, col_labels, data = _parse_matrix_text(
        text, MATRIX_HEADER, lambda tok: _MARKS.get(tok) or parse_fraction(tok))
    kind = (IncompleteMatrix if any(type(v) is _Mark for v in data.values())
            else InstanceMatrix)
    try:
        return ParsedMatrix(kind(row_labels, col_labels, data), target_rank)
    except ValueError as e:
        raise ParseError(str(e)) from None


def write_polynomial_matrix(m: SymbolicMatrix) -> str:
    """Serialize a symbolic matrix; entries render as compact polynomials."""
    lines = [f"{POLYMATRIX_HEADER} {m.nrows} {m.ncols}"]
    for i, l in enumerate(m.row_labels):
        lines.append(f"row {i} {l.render()}")
    for j, l in enumerate(m.col_labels):
        lines.append(f"col {j} {l.render()}")
    for i in range(m.nrows):
        for j in range(m.ncols):
            p = m.entry(i, j)
            if not p.is_zero:
                lines.append(f"{m.row_labels[i].render()} {m.col_labels[j].render()} "
                             f"{format_polynomial(p, compact=True)}")
    return "\n".join(lines) + "\n"


@dataclass
class ParsedPolynomialMatrix:
    row_labels: Tuple[str, ...]
    col_labels: Tuple[str, ...]
    entries: Dict[Tuple[str, str], Polynomial]


def parse_polynomial_matrix(text: str) -> ParsedPolynomialMatrix:
    """Read back a polynomial matrix file; absent entries are zero."""
    _, row_labels, col_labels, entries = _parse_matrix_text(
        text, POLYMATRIX_HEADER, parse_polynomial)
    return ParsedPolynomialMatrix(row_labels, col_labels, entries)
