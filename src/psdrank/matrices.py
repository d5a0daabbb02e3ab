"""Matrix containers and their text file formats.

Every matrix of the reduction is one sparse matrix over string labels, held
as three row-major integer columns (CSR, compressed sparse row): ``starts``
holds nrows + 1 offsets, row i's entries fill the slice
``starts[i]:starts[i + 1]`` of ``cols``, the column positions, strictly
increasing within the row, and of ``values``, the list of the entries'
value objects.  An absent entry is zero.  Each entry costs a column
position and a pointer to a shared value object, not a key tuple of two
labels in a dict.  Three views of the labelled H x H matrix share the
layout:

* ``PolynomialMatrix``  polynomial entries; ``build_A`` fills it with
                        A(u|v) = (u.v)^2.
* ``IncompleteMatrix``  entries are known rationals, ``UNKNOWN`` or
                        ``NONZERO_UNKNOWN``; the shadow B and its pattern C.
* ``InstanceMatrix``    an incomplete matrix with no marks and no negative
                        entries; the reduction's output M(B, K).

The columns are row-major label order itself, so every reader (the writer,
``unknown_positions``, ``entries``, the gadget M(S, K), the sqrt check, the
search and full verification) walks them as stored, and none sorts.  Each
class states once, in ``_convert``, which values it stores.  A caller's
dict (the constructor), a dense list (``from_dense``) and a parsed file give
their entries by position to ``_fill``, which walks them in the order given
only when some label is undeclared or some distinct value object needs it,
and sorts only entries out of row-major order.  Builders that fill rows in
order (A, B, C, the completion B' and M) hand their columns to
``_from_columns``, which checks the labels and not the entries.  ``data``
is a read-only (row, col) -> value ``Mapping`` over the columns, for
callers outside the package; nothing in the package reads it.

Both file formats are line oriented and written by one writer.  Header
``psdrank-matrix v1 <nrows> <ncols>`` (``psdrank-polymatrix v1`` for
polynomial entries) is followed by one ``row <i> <label>`` / ``col <j>
<label>`` line per label (so all-zero rows and columns survive a round
trip) and then coordinate lines ``<row-label> <col-label> <value>`` where a
value is ``p/q``, ``?`` (unknown), ``*`` (nonzero unknown) or a compact
polynomial.  Labels contain no whitespace.  The writer yields the text in
blocks of lines (``matrix_blocks``), so a caller can stream it to a file,
and the readers walk it once, a block of lines at a time; the matrix reader
(``_MatrixReader``) names a rejected file's first faulty line in file order.
"""

from __future__ import annotations

import functools
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, count, islice, pairwise, repeat, takewhile
from operator import add, is_, itemgetter, lt, mul, sub
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


def _label_pair(row_labels: Sequence[str],
                col_labels: Sequence[str]) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Checked row and column label tuples; equal ones are checked once and
    become one tuple."""
    rows = _check_labels(row_labels)
    cols = tuple(col_labels)
    return rows, (rows if cols == rows else _check_labels(cols))


def _distinct(values: Iterable[Any]) -> Iterable[Any]:
    """The distinct objects of the collection ``values``, by identity.
    Matrices share value objects (M stores K once; B and a parsed file
    convert each value once), so this is far shorter than ``values``."""
    return dict(zip(map(id, values), values)).values()


def _starts(positions: Iterable[int], n: int) -> array:
    """CSR offsets of ``n`` rows from the row position of every entry, in
    any order."""
    counts = Counter(positions)
    return array("q", accumulate(map(counts.get, range(n), repeat(0)), initial=0))


def _increasing(flat: array) -> bool:
    return all(map(lt, flat, islice(flat, 1, None)))


def _csr(nrows: int, ncols: int, ri: array, ci: array,
         values: List[Any]) -> Optional[Tuple[array, array, List[Any]]]:
    """The columns (starts, cols, values) of entries given by their row and
    column positions in any order, or None if a position pair repeats.
    Entries already in row-major order are confirmed by one C-level pass
    over their flat positions i * ncols + j and kept as they are; only
    others are sorted."""
    flat = array("q", map(add, map(mul, ri, repeat(ncols)), ci))
    if not _increasing(flat):
        order = sorted(range(len(flat)), key=flat.__getitem__)
        if not _increasing(array("q", map(flat.__getitem__, order))):
            return None
        ci = array("q", map(ci.__getitem__, order))
        values = list(map(values.__getitem__, order))
    return _starts(ri, nrows), ci, values


class _SparseMatrix:
    """Labels plus the nonzero entries as row-major columns.

    ``starts``, ``cols`` and ``values`` are described in the module
    docstring; nothing changes them after construction, and matrices may
    share them (C shares B's ``starts`` and ``cols``).

    The constructor takes a dict keyed by (row, col) label pairs.  Equality
    compares labels and columns, so a parsed copy equals the matrix it was
    written from however either was built.
    """

    def __init__(self, row_labels: Sequence[str], col_labels: Sequence[str],
                 data: Optional[Mapping[Tuple[str, str], Any]] = None) -> None:
        rows, cols = _label_pair(row_labels, col_labels)  # a bad label wins over a bad key
        data = {} if data is None else data
        ri, ci = (array("q", map(dict(zip(labels, count())).get, map(itemgetter(k), data),
                                 repeat(-1))) for k, labels in enumerate((rows, cols)))
        # keys of a dict are distinct, so no position pair repeats
        self._fill(rows, cols, data, ri, ci, list(data.values()), -1 not in ri and -1 not in ci)

    @classmethod
    def _from_columns(cls, row_labels: Sequence[str], col_labels: Sequence[str],
                      starts: array, cols: array, values: List[Any]) -> "_SparseMatrix":
        """The matrix over columns its builder filled in row-major label
        order.  The labels are checked; the entries are taken as they are."""
        m = cls.__new__(cls)
        m._set(*_label_pair(row_labels, col_labels), starts, cols, values)
        return m

    def _set(self, rows: Tuple[str, ...], cols: Tuple[str, ...], starts: array,
             colpos: array, values: List[Any]) -> None:
        self.row_labels, self.col_labels = rows, cols
        self.starts, self.cols, self.values = starts, colpos, values

    @classmethod
    def _convert(cls, v: Any, r: str, c: str) -> Any:
        """The entry rule: the value to store for ``v`` at (r, c), ``v``
        itself when it may be stored as it is, or None to drop it; raises
        ValueError for a rejected value.  Here every value is stored."""
        return v

    def _fill(self, row_labels: Sequence[str], col_labels: Sequence[str],
              keys: Iterable[Tuple[str, str]], ri: array, ci: array, values: List[Any],
              declared: bool) -> bool:
        """Check the labels and set the matrix from entries given in one
        order by label pairs ``keys``, positions ``ri`` and ``ci`` (-1 for
        an undeclared label; ``declared`` when none is) and ``values``.
        Unless none is -1 and each distinct value object converts to itself,
        one walk in that order converts and drops them, or raises for the
        first outside the labels or rejected.  False, setting nothing, if a
        position pair repeats."""
        try:  # a value rejected here is raised for by the walk, at its first entry
            whole = declared and all(self._convert(v, "", "") is v for v in _distinct(values))
        except Exception:
            whole = False
        # sorted before the labels are checked: a large file then peaks lower in RSS
        columns = whole and _csr(len(row_labels), len(col_labels), ri, ci, values)
        rows, cols = _label_pair(row_labels, col_labels)
        if not whole:
            kept = []
            for (r, c), i, j, v in zip(keys, ri, ci, values):
                if i < 0 or j < 0:
                    raise ValueError(f"entry ({r!r}, {c!r}) is outside the label sets")
                v = self._convert(v, r, c)
                if v is not None:
                    kept.append((i, j, v))
            ri, ci = array("q", map(itemgetter(0), kept)), array("q", map(itemgetter(1), kept))
            columns = _csr(len(rows), len(cols), ri, ci, list(map(itemgetter(2), kept)))
        if columns is not None:
            self._set(rows, cols, *columns)
        return columns is not None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.row_labels == other.row_labels and self.col_labels == other.col_labels
                and self.starts == other.starts and self.cols == other.cols
                and self.values == other.values)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.nrows}x{self.ncols}, {self.nnz} entries>"

    @property
    def nrows(self) -> int:
        return len(self.row_labels)

    @property
    def ncols(self) -> int:
        return len(self.col_labels)

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def data(self) -> "_EntryView":
        """A read-only (row, col) -> value mapping over the columns."""
        return _EntryView(self)

    def _row_counts(self) -> Iterator[int]:
        return map(sub, islice(self.starts, 1, None), self.starts)

    def _keys(self) -> Iterator[Tuple[str, str]]:
        """The (row, col) label pair of every entry, in stored order."""
        return zip(chain.from_iterable(map(repeat, self.row_labels, self._row_counts())),
                   map(self.col_labels.__getitem__, self.cols))

    def entries(self) -> Iterator[Tuple[Tuple[str, str], Any]]:
        """The ((row, col), value) pairs in row-major label order, the order
        the columns store and the writer emits."""
        return zip(self._keys(), self.values)

    def _at(self, i: int, j: int) -> int:
        """The index into ``cols`` and ``values`` of entry (i, j) by
        position, or -1 where the entry is zero."""
        lo, hi = self.starts[i], self.starts[i + 1]
        p = bisect_left(self.cols, j, lo, hi)
        return p if p < hi and self.cols[p] == j else -1

    @functools.cached_property
    def _positions(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Label -> position maps of the rows and the columns, built on the
        first lookup by label."""
        rpos = {l: i for i, l in enumerate(self.row_labels)}
        return rpos, (rpos if self.col_labels is self.row_labels
                      else {l: j for j, l in enumerate(self.col_labels)})

    def _find(self, rc: Any) -> int:
        """``_at`` by (row, col) labels; -1 for anything else."""
        rpos, cpos = self._positions
        try:
            r, c = rc
            return self._at(rpos[r], cpos[c])
        except (KeyError, TypeError, ValueError):
            return -1

    def _get(self, r: str, c: str, default: Any) -> Any:
        p = self._find((r, c))
        return default if p < 0 else self.values[p]


class _EntryView(Mapping):
    """The (row, col) -> value mapping of a matrix, read off its columns:
    ``items``, ``values``, ``len`` and iteration are one pass over them, a
    lookup is a search of one row's slice, and there is no way to write."""

    __slots__ = ("_m",)

    def __init__(self, m: _SparseMatrix) -> None:
        self._m = m

    def __len__(self) -> int:
        return len(self._m.values)

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return self._m._keys()

    def __getitem__(self, rc: Tuple[str, str]) -> Any:
        p = self._m._find(rc)
        if p < 0:
            raise KeyError(rc)
        return self._m.values[p]

    def __contains__(self, rc: object) -> bool:
        return self._m._find(rc) >= 0

    def items(self) -> "_Items":
        return _Items(self)

    def values(self) -> "_Values":
        return _Values(self)


class _Items(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return self._mapping._m.entries()


class _Values(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return iter(self._mapping._m.values)


class PolynomialMatrix(_SparseMatrix):
    """Polynomial-valued matrix; entries not stored are zero."""

    def entry(self, r: str, c: str) -> Polynomial:
        return self._get(r, c, Polynomial.zero())


class IncompleteMatrix(_SparseMatrix):
    """Matrix over known rationals plus unknown / nonzero-unknown marks.

    Entries not stored are known zeros.  Values are stored as Fractions
    (ints and bools are converted) and zeros are dropped.
    """

    _instance = False  # InstanceMatrix: no marks, no negative entries

    @classmethod
    def _convert(cls, v: Any, r: str, c: str) -> Optional[Entry]:
        # Stored as is: a nonzero Fraction (positive in an instance), or a
        # mark outside an instance; other numbers become Fractions.
        if type(v) is _Mark:
            if cls._instance:
                raise ValueError(f"mark {v.token!r} at ({r!r}, {c!r}) in an instance matrix")
            return v
        if type(v) is not Fraction:
            v = Fraction(v)
        if v.numerator < 0 and cls._instance:
            raise ValueError(f"negative entry {v} at ({r!r}, {c!r})")
        return v if v.numerator else None

    def entry(self, r: str, c: str) -> Entry:
        return self._get(r, c, Fraction(0))

    def to_dense(self) -> List[List[Entry]]:
        zero, out = Fraction(0), []
        for lo, hi in pairwise(self.starts):
            row: List[Entry] = [zero] * self.ncols
            for j, v in zip(self.cols[lo:hi], self.values[lo:hi]):
                row[j] = v
            out.append(row)
        return out

    @classmethod
    def from_dense(cls, rows: Sequence[Sequence[Union[int, Fraction, _Mark]]],
                   row_labels: Optional[Sequence[str]] = None,
                   col_labels: Optional[Sequence[str]] = None) -> "IncompleteMatrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        rl = tuple(row_labels) if row_labels is not None else tuple(f"r{i}" for i in range(nr))
        cl = tuple(col_labels) if col_labels is not None else tuple(f"c{j}" for j in range(nc))
        at = []  # (i, j, row label, col label, value) of each nonzero, row by row
        for i, row in enumerate(rows):
            if len(row) != nc:
                raise ValueError("ragged dense matrix")
            at += [(i, j, rl[i], cl[j], v) for j, v in enumerate(row) if v]
        ri, ci = array("q", map(itemgetter(0), at)), array("q", map(itemgetter(1), at))
        m = cls.__new__(cls)
        m._fill(rl, cl, map(itemgetter(2, 3), at), ri, ci, list(map(itemgetter(4), at)), True)
        return m

    def unknown_positions(self) -> Tuple[Tuple[str, str], ...]:
        """Unknown coordinates in row-major label order."""
        return tuple(compress(self._keys(), map(is_, self.values, repeat(UNKNOWN))))

    def transpose(self) -> "IncompleteMatrix":
        """The transpose, an ``IncompleteMatrix``: the entries in a stable
        sort by column position, so each column's rows stay in order."""
        order = sorted(range(self.nnz), key=self.cols.__getitem__)
        rows = array("q", chain.from_iterable(map(repeat, range(self.nrows), self._row_counts())))
        return IncompleteMatrix._from_columns(
            self.col_labels, self.row_labels, _starts(self.cols, self.ncols),
            array("q", map(rows.__getitem__, order)), list(map(self.values.__getitem__, order)))


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
    # tokens are keyed by id, unique while the matrix keeps each value alive.
    tokens: Dict[int, str] = {}
    last: Any = None
    tok = ""
    for _ in range(0, m.nnz, WRITE_BLOCK_LINES):
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


def _by_index(at: List[int], names: List[str], n: int) -> Optional[Tuple[str, ...]]:
    """``names`` in the order of their indices ``at``, or None unless those
    are 0..n-1 once each; a declared dimension alone builds no list."""
    if len(at) == n and at == list(range(n)):
        return tuple(names)
    if len(at) == n and sorted(at) == list(range(n)):
        return tuple(name for _, name in sorted(zip(at, names)))
    return None


class _MatrixReader:
    """The one reader of both matrix formats.  ``read`` walks ``text`` once
    and returns the ``r`` target and the matrix, of class ``kind(values)``.

    A block's lines after its last line without three tokens take the block
    path ``_block``, split once and mapped to label ids and values by
    C-level passes; every other line, and a block that path refuses, takes
    the per-line branch ``_lines``, the only place a line is rejected.  Ids
    are label positions when the label lines before the first coordinate
    cover the dimensions, else numbers in order of first use, which
    ``_finish`` maps to positions through the labels' names.
    """

    def __init__(self, text: str, header: str, entry: Callable[[str], object],
                 kind: Callable[[List[object]], type]) -> None:
        self.text, self.header, self.kind = text, header, kind
        self.entry = functools.cache(entry)  # few distinct values fill a file
        self.dims: Optional[Tuple[int, int]] = None
        self.target_rank: Optional[int] = None
        self.index: Dict[str, List[int]] = {"row": [], "col": []}  # label lines
        self.names: Dict[str, List[str]] = {"row": [], "col": []}
        self.rid = self.cid = None  # label -> id maps, set at the first coordinate line
        self.ri, self.ci, self.values = array("q"), array("q"), []
        # per block: its span of text and the row, col and coordinate lines before it
        self.spans: List[Tuple[int, int, int, int, int]] = []

    def read(self) -> Tuple[Optional[int], _SparseMatrix]:
        end = 0
        for piece in _blocks(self.text, READ_BLOCK_CHARS):
            start, end = end, end + len(piece)
            self.spans.append((start, end, *map(len, self.index.values()), len(self.ri)))
            lines = piece.splitlines()
            cut = 0 if self.dims and {0, 3}.issuperset(map(len, map(str.split, lines))) else max(
                (i + 1 for i, ln in enumerate(lines) if len(ln.split()) not in (0, 3)),
                default=len(lines))
            self._lines(lines[:cut])
            self._block(lines[cut:])
        return self._finish()

    def _lines(self, lines: List[str]) -> None:
        """The per-line branch: ``lines`` one at a time, in file order."""
        for ln in filter(str.strip, lines):
            p = ln.split()
            try:
                if self.dims is None:
                    if p[:2] != self.header.split():
                        raise ParseError(f"missing '{self.header}' header")
                    if len(p) != 4:
                        raise ValueError("expected 4 tokens")
                    if min(dims := (int(p[2]), int(p[3]))) < 0:
                        raise ValueError("negative dimension")
                    self.dims = dims
                elif len(p) == 3 and p[0] in self.index:
                    self.index[p[0]].append(int(p[1]))
                    self.names[p[0]].append(p[2])
                elif len(p) == 3:
                    if self.rid is None:
                        self._start()
                    self.ri.append(self.rid.setdefault(p[0], len(self.rid)))
                    self.ci.append(self.cid.setdefault(p[1], len(self.cid)))
                    self.values.append(self.entry(p[2]))
                elif len(p) == 2 and p[0] == "r" and self.header == MATRIX_HEADER:
                    if self.target_rank is not None:
                        raise ParseError(f"repeated r line {ln!r}")
                    self.target_rank = int(p[1])
                    if self.target_rank < 0:
                        raise ParseError(f"negative target rank in line {ln!r}")
                else:
                    raise ParseError(f"malformed matrix line: {ln!r}")
            except ParseError as e:
                self._fail(str(e))
            except ValueError as e:
                self._fail(f"malformed matrix {'line' if self.dims else 'header'}: {ln!r} ({e})")

    def _block(self, lines: List[str]) -> None:
        """The block path, for lines of three tokens after the header."""
        tokens = " ".join(lines).split()
        a, b, c = tokens[0::3], tokens[1::3], tokens[2::3]
        kinds = self.index.keys()
        n = 0  # the block's leading label lines
        if not kinds.isdisjoint(a):
            n = len(a) if kinds >= set(a) else sum(1 for _ in takewhile(kinds.__contains__, a))
            masks = [list(map(k.__eq__, a[:n])) for k in kinds]
            try:
                if self.rid is not None or not kinds.isdisjoint(a[n:]):
                    raise ValueError("a label line after a coordinate line")
                found = [list(map(int, compress(b, mask))) for mask in masks]
            except ValueError:
                return self._lines(lines)
            for k, mask, at in zip(kinds, masks, found):
                self.index[k] += at
                self.names[k] += compress(c, mask)
            a, b, c = a[n:], b[n:], c[n:]
        if a:
            if self.rid is None:
                self._start()
            m = len(self.values)
            try:
                self.ri.extend(map(self.rid.__getitem__, a))
                self.ci.extend(map(self.cid.__getitem__, b))
                self.values += map(self.entry, c)
            except (KeyError, ValueError):  # undo the block's entries, then read it line by line
                del self.ri[m:], self.ci[m:], self.values[m:]
                return self._lines(list(filter(str.strip, lines))[n:])

    def _labels(self) -> List[Optional[Tuple[str, ...]]]:
        return [_by_index(self.index[k], self.names[k], n) for k, n in zip(self.index, self.dims)]

    def _start(self) -> None:
        """Number the labels at the first coordinate line: by position where
        the label lines so far cover a dimension, else by first use."""
        rows, cols = (labels or () for labels in self._labels())
        self.rid = dict(zip(rows, count()))
        self.cid = self.rid if cols == rows else dict(zip(cols, count()))
        if len(self.rid) < len(rows) or len(self.cid) < len(cols):  # a repeated label
            self.rid = self.cid = {}

    def _fail(self, message: Optional[str]) -> None:
        """Raise ParseError for the first line read so far that repeats an
        earlier label index or coordinate, else for ``message`` (if any)."""
        repeats = []
        for column, kind, items in zip((2, 3, 4), ("row", "col", None),
                                       (*self.index.values(), zip(self.ri, self.ci))):
            seen: set = set()  # add returns None: stops at the first item seen before
            i = next((i for i, x in enumerate(items) if x in seen or seen.add(x)), None)
            if i is not None:  # split again only the block that holds line i
                k = bisect_right([span[column] for span in self.spans], i) - 1
                lines = filter(str.strip, self.text[slice(*self.spans[k][:2])].splitlines())
                hits = [(n, ln) for n, ln in enumerate(lines) if len(p := ln.split()) == 3
                        and (p[0] if p[0] in self.index else None) == kind]
                n, ln = hits[i - self.spans[k][column]]
                what = f"{kind} index" if kind else "coordinate"
                repeats.append((k, n, f"repeated {what} in line {ln!r}"))
        if repeats:
            message = min(repeats)[2]
        if message is not None:
            raise ParseError(message) from None

    def _finish(self) -> Tuple[Optional[int], _SparseMatrix]:
        if self.dims is None:
            raise ParseError(f"missing '{self.header}' header")
        if self.rid is None:
            self._start()
        rows, cols = self._labels()
        ri, ci, declared = self.ri, self.ci, True
        rl, cl = rows, cols  # the label of each row id and column id
        if rows != tuple(self.rid) or cols != tuple(self.cid):  # ids in order of first use
            self._fail(None)
            if rows is None or cols is None:
                raise ParseError("row/col label lines do not cover the declared dimensions")
            rl, cl = list(self.rid), list(self.cid)
            # each id's position through its label, -1 for an undeclared one
            rmap, cmap = (array("q", map(dict(zip(labels, count())).get, names, repeat(-1)))
                          for labels, names in ((rows, rl), (cols, cl)))
            ri, ci = array("q", map(rmap.__getitem__, ri)), array("q", map(cmap.__getitem__, ci))
            declared = -1 not in rmap and -1 not in cmap
        keys = zip(map(rl.__getitem__, self.ri), map(cl.__getitem__, self.ci))
        m = object.__new__(self.kind(self.values))
        try:
            filled = m._fill(rows, cols, keys, ri, ci, self.values, declared)
        except ValueError as e:
            self._fail(str(e))
        if not filled or m.nnz < len(self.values):  # a repeat, maybe among the entries dropped
            self._fail(None)
        return self.target_rank, m


_MARKS = {"?": UNKNOWN, "*": NONZERO_UNKNOWN}


def _matrix_token(tok: str) -> Entry:
    return _MARKS.get(tok) or parse_fraction(tok)


def _matrix_kind(values: Iterable[object]) -> type:
    return (IncompleteMatrix if any(type(v) is _Mark for v in _distinct(values))
            else InstanceMatrix)


def parse_matrix(text: str) -> ParsedMatrix:
    target_rank, matrix = _MatrixReader(text, MATRIX_HEADER, _matrix_token, _matrix_kind).read()
    return ParsedMatrix(matrix, target_rank)


def parse_polynomial_matrix(text: str) -> PolynomialMatrix:
    """Read back a polynomial matrix file; absent entries are zero."""
    return _MatrixReader(text, POLYMATRIX_HEADER, parse_polynomial,
                         lambda values: PolynomialMatrix).read()[1]
