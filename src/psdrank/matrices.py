"""Matrix containers and their text file formats.

Every matrix of the reduction is one sparse table over string labels:
``data`` holds the nonzero entries keyed by (row, col) label pairs, and an
absent entry is zero.  Three views of the labelled H x H matrix share it:

* ``PolynomialMatrix``  polynomial entries; ``build_A`` fills it with
                        A(u|v) = (u.v)^2.
* ``IncompleteMatrix``  entries are known rationals, ``UNKNOWN`` or
                        ``NONZERO_UNKNOWN``; the shadow B and its pattern C.
* ``InstanceMatrix``    an incomplete matrix with no marks and no negative
                        entries; the reduction's output M(B, K).

A matrix holds its labels, its entries and one private mark.  It checks its
labels once and its values once per distinct value object, and owns a copy of
the caller's dict that nothing in the package changes afterwards.  One method,
``entries``, decides row-major label order: the writer, ``unknown_positions``
and the gadget M(S, K) all walk it.  Every table the package builds (A, B, C,
the completion B' and M) is filled in that order, and its builder marks it so
(``_from_row_major``): ``entries`` hands back its stored items unchecked.  Any
other matrix (a parsed file, a caller's dict, a transpose) has its order
confirmed by one C-level pass over its keys, or walked through sorted keys.

Both file formats are line oriented and written by one writer.  Header
``psdrank-matrix v1 <nrows> <ncols>`` (``psdrank-polymatrix v1`` for
polynomial entries) is followed by one ``row <i> <label>`` / ``col <j>
<label>`` line per label (so all-zero rows and columns survive a round
trip) and then coordinate lines ``<row-label> <col-label> <value>`` where a
value is ``p/q``, ``?`` (unknown), ``*`` (nonzero unknown) or a compact
polynomial.  Labels contain no whitespace.  The writer yields the text in
blocks of lines (``matrix_blocks``), so a caller can stream it to a file,
and the readers take it one block of lines at a time (``nonblank_lines``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice, pairwise, repeat, starmap
from operator import add, itemgetter, lt, mul
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

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


_KEYWORDS = frozenset(("row", "col", "r"))


def _check_label(label: str) -> None:
    if label.split() != [label]:
        raise ValueError(f"matrix labels must be nonempty and whitespace-free: {label!r}")
    if label in _KEYWORDS:
        raise ValueError(f"label {label!r} collides with a format keyword")


def _check_labels(labels: Sequence[str]) -> Tuple[str, ...]:
    """The labels as a tuple, checked in one pass: joined by spaces they
    split back into themselves exactly when each is nonempty and
    whitespace-free.  Only a rejected tuple walks the labels one by one, so
    the message names the first bad label."""
    out = tuple(labels)
    if not (" ".join(out).split() == list(out) and _KEYWORDS.isdisjoint(out)
            and len(set(out)) == len(out)):
        for l in out:
            _check_label(l)
        if len(set(out)) != len(out):
            raise ValueError("matrix labels must be unique")
    return out


def _distinct(data: Dict[Any, Any]) -> Iterable[Any]:
    """The distinct value objects of ``data``, by identity.  Matrices share
    value objects (M stores K once; B and a parsed file convert each value
    once), so this is far shorter than ``data``."""
    values = data.values()
    return dict(zip(map(id, values), values)).values()


@dataclass
class _SparseMatrix:
    """Labels plus the nonzero entries keyed by (row, col) label pairs.

    Construction checks each label once (once in all when rows and columns
    are equal tuples), every key by set containment over its column of
    the keys and, through ``_clean``, each distinct value object once.  The
    matrix stores a copy of ``data`` in the caller's item order.  Only when
    some value must be converted, dropped or rejected, or some key lies
    outside the labels, does ``_check_entries`` walk the entries one by one:
    it converts and drops, or rejects the first offending entry.

    ``data`` is the matrix's own copy, and nothing in the package changes it
    after construction, so a matrix built by ``_from_row_major`` stays in
    row-major label order.  That mark is no field: it takes no part in
    equality, and a parsed copy equals the matrix it was written from.
    """

    row_labels: Tuple[str, ...]
    col_labels: Tuple[str, ...]
    data: Dict[Tuple[str, str], Any] = field(default_factory=dict)

    _row_major = False  # set by _from_row_major

    @classmethod
    def _from_row_major(cls, row_labels: Sequence[str], col_labels: Sequence[str],
                        data: Dict[Tuple[str, str], Any]) -> "_SparseMatrix":
        """The matrix of a builder that filled ``data`` in row-major label
        order.  Every check of the constructor runs (one that drops entries
        keeps the order of the rest); ``entries`` then returns the stored
        items without confirming their order."""
        m = cls(row_labels, col_labels, data)
        m._row_major = True
        return m

    def __post_init__(self) -> None:
        rows = self.row_labels = _check_labels(self.row_labels)
        cols = tuple(self.col_labels)
        cols = self.col_labels = rows if cols == rows else _check_labels(cols)
        rset = set(rows)
        cset = rset if cols is rows else set(cols)
        data = self.data
        if (rset.issuperset(map(itemgetter(0), data))
                and cset.issuperset(map(itemgetter(1), data))
                and self._clean(_distinct(data))):
            self.data = dict(data)
        else:
            self.data = self._check_entries(rset, cset)

    def _clean(self, values: Iterable[Any]) -> bool:
        """Whether every value may be stored as it is."""
        return True

    def _check_entries(self, rset: set, cset: set) -> Dict[Tuple[str, str], Any]:
        for r, c in self.data:
            if r not in rset or c not in cset:
                raise ValueError(f"entry ({r!r}, {c!r}) is outside the label sets")
        return dict(self.data)

    def entries(self) -> Iterable[Tuple[Tuple[str, str], Any]]:
        """The ((row, col), value) pairs in row-major label order, the order
        the writer emits.  A table the package builds is marked as stored in
        that order, and its stored items come back as they are.  For any
        other matrix (a parsed file, a caller's dict, ``from_dense``, a
        transpose) one C-level pass over the keys confirms the order, and
        only input stored out of order is walked through its sorted keys."""
        data = self.data
        if self._row_major:
            return data.items()
        rpos = {l: i for i, l in enumerate(self.row_labels)}
        cpos = (rpos if self.col_labels is self.row_labels
                else {l: j for j, l in enumerate(self.col_labels)})
        ncols = self.ncols
        # Flat positions i * ncols + j of the keys, streamed: no int per entry
        # is held.
        flat = map(add, map(mul, map(rpos.__getitem__, map(itemgetter(0), data)), repeat(ncols)),
                   map(cpos.__getitem__, map(itemgetter(1), data)))
        if all(starmap(lt, pairwise(flat))):
            return data.items()
        return ((rc, data[rc])
                for rc in sorted(data, key=lambda rc: rpos[rc[0]] * ncols + cpos[rc[1]]))

    @property
    def nrows(self) -> int:
        return len(self.row_labels)

    @property
    def ncols(self) -> int:
        return len(self.col_labels)


class PolynomialMatrix(_SparseMatrix):
    """Polynomial-valued matrix; entries not stored are zero."""

    def entry(self, r: str, c: str) -> Polynomial:
        return self.data.get((r, c), Polynomial.zero())


class IncompleteMatrix(_SparseMatrix):
    """Matrix over known rationals plus unknown / nonzero-unknown marks.

    Entries not stored are known zeros.  Values are stored as Fractions
    (ints and bools are converted) and zeros are dropped.
    """

    _instance = False  # InstanceMatrix: no marks, no negative entries

    def _clean(self, values: Iterable[Any]) -> bool:
        # Stored as is: a nonzero Fraction (positive in an instance), or a
        # mark outside an instance.
        instance = self._instance
        for v in values:
            if type(v) is Fraction:
                if v.numerator > 0 or (v.numerator and not instance):
                    continue
            elif type(v) is _Mark and not instance:
                continue
            return False
        return True

    def _check_entries(self, rset: set, cset: set) -> Dict[Tuple[str, str], Entry]:
        # One pass over the entries in item order: membership, marks and values.
        instance = self._instance
        clean: Dict[Tuple[str, str], Entry] = {}
        for (r, c), v in self.data.items():
            if r not in rset or c not in cset:
                raise ValueError(f"entry ({r!r}, {c!r}) is outside the label sets")
            if type(v) is _Mark:
                if instance:
                    raise ValueError(f"mark {v.token!r} at ({r!r}, {c!r}) in an instance matrix")
                clean[(r, c)] = v
                continue
            if type(v) is not Fraction:
                v = Fraction(v)
            num = v.numerator
            if num < 0 and instance:
                raise ValueError(f"negative entry {v} at ({r!r}, {c!r})")
            if num:
                clean[(r, c)] = v
        return clean

    def entry(self, r: str, c: str) -> Entry:
        return self.data.get((r, c), Fraction(0))

    def to_dense(self) -> List[List[Entry]]:
        return [[self.entry(r, c) for c in self.col_labels] for r in self.row_labels]

    @classmethod
    def from_dense(cls, rows: Sequence[Sequence[Union[int, Fraction, _Mark]]],
                   row_labels: Optional[Sequence[str]] = None,
                   col_labels: Optional[Sequence[str]] = None) -> "IncompleteMatrix":
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
                    data[(rl[i], cl[j])] = v
        return cls(rl, cl, data)

    def unknown_positions(self) -> Tuple[Tuple[str, str], ...]:
        """Unknown coordinates in row-major label order."""
        return tuple(rc for rc, v in self.entries() if v is UNKNOWN)

    def transpose(self) -> "IncompleteMatrix":
        return IncompleteMatrix(
            self.col_labels, self.row_labels,
            {(c, r): v for (r, c), v in self.data.items()})


class InstanceMatrix(IncompleteMatrix):
    """Sparse nonnegative rational matrix: an incomplete matrix without
    marks or negative entries; the reduction's output."""

    _instance = True


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


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

MATRIX_HEADER = "psdrank-matrix v1"
POLYMATRIX_HEADER = "psdrank-polymatrix v1"


def _entry_token(v: Entry) -> str:
    if type(v) is _Mark:
        return v.token
    f = Fraction(v)
    return f"{f.numerator}/{f.denominator}"


# Lines per block of written text and characters per block of read text:
# neither side holds a list of every line of a file.  Blocks stay well under
# 128 KiB, from where glibc's malloc maps a block on its own and, once it is
# freed, raises that threshold: blocks of 4,096 lines of B' of x1 - x2 (up to
# 144 KB each) left the witness built after it 1.4 MB higher in RSS.
WRITE_BLOCK_LINES = 1024
READ_BLOCK_CHARS = 1 << 16


def _write_matrix_text(m: _SparseMatrix, header: str, token: Callable[[Any], str],
                       target_rank: Optional[int]) -> Iterator[str]:
    """Shared writer of both matrix formats; ``token`` renders a value.

    Yields the text in blocks: the header, then label lines and data lines
    ``WRITE_BLOCK_LINES`` at a time, each block one joined string of whole
    lines.  Data lines come out in the order of ``entries``, row-major by
    label, so identical matrices serialize byte-identically.  Each distinct
    value object is rendered once.
    """
    yield (f"{header} {m.nrows} {m.ncols}\n"
           + ("" if target_rank is None else f"r {target_rank}\n"))
    for kind, labels in (("row", m.row_labels), ("col", m.col_labels)):
        for lo in range(0, len(labels), WRITE_BLOCK_LINES):
            yield "".join([f"{kind} {i} {l}\n"
                           for i, l in enumerate(labels[lo:lo + WRITE_BLOCK_LINES], lo)])
    items = iter(m.entries())
    # Runs of entries share one value object (M stores K once), so the
    # identity test skips most lookups.  Hashing a Fraction is not cheap, so
    # tokens are keyed by id, unique while ``data`` keeps each value alive.
    tokens: Dict[int, str] = {}
    last: Any = None
    tok = ""
    for _ in range(0, len(m.data), WRITE_BLOCK_LINES):
        lines = []
        for (r, c), v in islice(items, WRITE_BLOCK_LINES):
            if v is not last:
                last = v
                tok = tokens.get(id(v))
                if tok is None:
                    tok = tokens[id(v)] = token(v)
            lines.append(f"{r} {c} {tok}\n")
        yield "".join(lines)


def matrix_blocks(m: IncompleteMatrix, target_rank: Optional[int] = None) -> Iterator[str]:
    """The text of ``write_matrix(m, target_rank)``, one block at a time."""
    return _write_matrix_text(m, MATRIX_HEADER, _entry_token, target_rank)


def polynomial_matrix_blocks(m: PolynomialMatrix) -> Iterator[str]:
    """The text of ``write_polynomial_matrix(m)``, one block at a time."""
    return _write_matrix_text(m, POLYMATRIX_HEADER,
                              functools.partial(format_polynomial, compact=True), None)


def write_matrix(m: IncompleteMatrix, target_rank: Optional[int] = None) -> str:
    """Serialize a matrix; a reduction target emits an extra ``r <k>`` line."""
    return "".join(matrix_blocks(m, target_rank))


def write_polynomial_matrix(m: PolynomialMatrix) -> str:
    """Serialize a polynomial matrix; entries render as compact polynomials."""
    return "".join(polynomial_matrix_blocks(m))


def _blocks(text: str, size: int) -> Iterator[str]:
    """``text`` in pieces of at least ``size`` characters, each cut just
    after a newline (or at the end).  A newline always ends a line and a
    CR LF pair ends in one, so no piece splits a line or a line break."""
    start, end = 0, len(text)
    while start < end:
        cut = text.find("\n", start + size - 1) + 1 or end
        yield text[start:cut]
        start = cut


def nonblank_lines(text: str) -> Iterator[str]:
    """The lines of ``text`` (as ``str.splitlines`` cuts them) that are not
    blank, read ``READ_BLOCK_CHARS`` characters at a time: only one block's
    lines are held at once, and the per-line work stays in C."""
    return chain.from_iterable(filter(str.strip, piece.splitlines())
                               for piece in _blocks(text, READ_BLOCK_CHARS))


@dataclass
class ParsedMatrix:
    matrix: IncompleteMatrix
    target_rank: Optional[int]

    @property
    def instance(self) -> InstanceMatrix:
        if not isinstance(self.matrix, InstanceMatrix):
            raise ValueError("file holds an incomplete matrix, not an instance")
        return self.matrix

    @property
    def incomplete(self) -> IncompleteMatrix:
        return self.matrix


def _parse_matrix_text(text: str, header: str, entry: Callable[[str], object]) -> Tuple[
        Optional[int], Tuple[str, ...], Tuple[str, ...], Dict[Tuple[str, str], object]]:
    """Shared reader of both matrix formats: returns the ``r`` target (only
    ``MATRIX_HEADER`` files may carry one), the row and column labels and the
    coordinate entries converted by ``entry``.  Every rejected line, including
    a repeated label index or coordinate, raises ParseError naming it."""
    lines = nonblank_lines(text)
    first = next(lines, "")
    head = first.split()
    if head[:2] != header.split():
        raise ParseError(f"missing '{header}' header")
    try:
        if len(head) != 4:
            raise ValueError("expected 4 tokens")
        nrows, ncols = int(head[2]), int(head[3])
        if nrows < 0 or ncols < 0:
            raise ValueError("negative dimension")
    except ValueError as e:
        raise ParseError(f"malformed matrix header: {first!r} ({e})") from None
    target_rank: Optional[int] = None
    labels: Dict[str, Dict[int, str]] = {"row": {}, "col": {}}
    data: Dict[Tuple[str, str], object] = {}
    # Few distinct values fill most of a file: convert each token once.  The
    # keys share one string object per label rather than two fresh ones per
    # line (about 28 MB on M of x1*x1 - 1).
    entry = functools.cache(entry)
    names: Dict[str, str] = {}
    for ln in lines:
        parts = ln.split()
        try:
            if len(parts) == 3 and parts[0] in labels:
                table = labels[parts[0]]
                index = int(parts[1])
                if index in table:
                    raise ParseError(f"repeated {parts[0]} index in line {ln!r}")
                table[index] = parts[2]
            elif len(parts) == 3:
                rc = (names.setdefault(parts[0], parts[0]),
                      names.setdefault(parts[1], parts[1]))
                if rc in data:
                    raise ParseError(f"repeated coordinate in line {ln!r}")
                data[rc] = entry(parts[2])
            elif len(parts) == 2 and parts[0] == "r" and header == MATRIX_HEADER:
                if target_rank is not None:
                    raise ParseError(f"repeated r line {ln!r}")
                target_rank = int(parts[1])
                if target_rank < 0:
                    raise ParseError(f"negative target rank in line {ln!r}")
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
    kind = (IncompleteMatrix if any(type(v) is _Mark for v in _distinct(data))
            else InstanceMatrix)
    try:
        return ParsedMatrix(kind(row_labels, col_labels, data), target_rank)
    except ValueError as e:
        raise ParseError(str(e)) from None


def parse_polynomial_matrix(text: str) -> PolynomialMatrix:
    """Read back a polynomial matrix file; absent entries are zero."""
    _, row_labels, col_labels, data = _parse_matrix_text(
        text, POLYMATRIX_HEADER, parse_polynomial)
    try:
        return PolynomialMatrix(row_labels, col_labels, data)
    except ValueError as e:
        raise ParseError(str(e)) from None
