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
search and full verification) walks them as stored, and none sorts.  A
caller's dict goes through the constructor, which checks its labels once,
every key by set containment and each distinct value object once, converts
or rejects entry by entry only when some value needs it, and sorts only
keys given out of row-major order.  Builders that fill rows in order (A,
B, C, the completion B' and M) and the parser hand their columns to
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
and the readers take it one block of lines at a time (``nonblank_lines``).
A reader maps each block's labels to positions in C-level passes; a file
that pass does not take whole (any rejected line among them) is read again
line by line, which names its first error in file order.
"""

from __future__ import annotations

import functools
from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, islice, pairwise, repeat, takewhile
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

    The constructor takes a dict keyed by (row, col) label pairs.  It checks
    each label once (once in all when rows and columns are equal tuples),
    every key by set containment over its column of the keys and, through
    ``_clean``, each distinct value object once.  Only when some value must
    be converted, dropped or rejected, or some key lies outside the labels,
    does ``_check_entries`` walk the entries one by one in the dict's item
    order: it converts and drops, or rejects the first offending entry.
    Equality compares labels and columns, so a parsed copy equals the
    matrix it was written from however either was built.
    """

    def __init__(self, row_labels: Sequence[str], col_labels: Sequence[str],
                 data: Optional[Mapping[Tuple[str, str], Any]] = None) -> None:
        rows, cols = _label_pair(row_labels, col_labels)
        data = {} if data is None else data
        rset = set(rows)
        cset = rset if cols is rows else set(cols)
        if not (rset.issuperset(map(itemgetter(0), data))
                and cset.issuperset(map(itemgetter(1), data))
                and self._clean(_distinct(data.values()))):
            data = self._check_entries(rset, cset, data)
        rpos = {l: i for i, l in enumerate(rows)}
        cpos = rpos if cols is rows else {l: j for j, l in enumerate(cols)}
        ri = array("q", map(rpos.__getitem__, map(itemgetter(0), data)))
        ci = array("q", map(cpos.__getitem__, map(itemgetter(1), data)))
        # keys of a dict are distinct, so _csr always succeeds
        self._set(rows, cols, *_csr(len(rows), len(cols), ri, ci, list(data.values())))

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
    def _clean(cls, values: Iterable[Any]) -> bool:
        """Whether every value may be stored as it is."""
        return True

    def _check_entries(self, rset: set, cset: set,
                       data: Mapping[Tuple[str, str], Any]) -> Dict[Tuple[str, str], Any]:
        for r, c in data:
            if r not in rset or c not in cset:
                raise ValueError(f"entry ({r!r}, {c!r}) is outside the label sets")
        return dict(data)

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
    def _clean(cls, values: Iterable[Any]) -> bool:
        # Stored as is: a nonzero Fraction (positive in an instance), or a
        # mark outside an instance.
        instance = cls._instance
        for v in values:
            if type(v) is Fraction:
                if v.numerator > 0 or (v.numerator and not instance):
                    continue
            elif type(v) is _Mark and not instance:
                continue
            return False
        return True

    def _check_entries(self, rset: set, cset: set,
                       data: Mapping[Tuple[str, str], Any]) -> Dict[Tuple[str, str], Entry]:
        # One pass over the entries in item order: membership, marks and values.
        instance = self._instance
        clean: Dict[Tuple[str, str], Entry] = {}
        for (r, c), v in data.items():
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


def _read_labels(indices: List[str], names: List[str], n: int) -> Tuple[str, ...]:
    """The labels of ``n`` label lines by index; ValueError unless the
    indices are 0..n-1 once each."""
    at = list(map(int, indices))
    if len(at) != n:
        raise ValueError("label lines do not cover the dimension")
    if at != list(range(n)):
        if sorted(at) != list(range(n)):
            raise ValueError("label lines do not cover the dimension")
        names = [name for _, name in sorted(zip(at, names))]
    return tuple(names)


def _read_columns(text: str, header: str, entry: Callable[[str], object]) -> Tuple[
        Optional[int], Tuple[str, ...], Tuple[str, ...], array, array, List[object]]:
    """The column pass of both readers: the ``r`` target, the labels and
    the columns of a file whose label lines all precede its coordinate
    lines.  A block of text whose every nonblank line has three tokens is
    split once, as a whole, and its three token columns are read off by
    slices and mapped to positions by C-level passes; only a block with
    another line (the header's block) is walked line by line.  Raises
    ValueError, KeyError (an undeclared label) or OverflowError for every
    file it does not take whole, rejected or not; the per-line reader then
    reads that file again."""
    target_rank: Optional[int] = None
    indices: Dict[str, List[str]] = {"row": [], "col": []}
    names: Dict[str, List[str]] = {"row": [], "col": []}
    dims: Optional[Tuple[int, int]] = None
    labels: Optional[List[Tuple[str, ...]]] = None  # set by the first coordinate line
    ri, ci, values = array("q"), array("q"), []
    convert = functools.cache(entry)
    for piece in _blocks(text, READ_BLOCK_CHARS):
        lines = piece.splitlines()
        if dims is not None and set(map(len, map(str.split, lines))) <= {0, 3}:
            tokens = piece.split()
            a, b, c = tokens[0::3], tokens[1::3], tokens[2::3]
        else:
            a, b, c = [], [], []
            for p in filter(None, map(str.split, lines)):
                if dims is None:
                    if p[:2] != header.split() or len(p) != 4:
                        raise ValueError("header")
                    dims = int(p[2]), int(p[3])
                    if min(dims) < 0:
                        raise ValueError("header")
                elif len(p) == 3:
                    a.append(p[0])
                    b.append(p[1])
                    c.append(p[2])
                elif (len(p) == 2 and p[0] == "r" and header == MATRIX_HEADER
                      and target_rank is None):
                    target_rank = int(p[1])
                    if target_rank < 0:
                        raise ValueError("r line")
                else:
                    raise ValueError("line")
        if not indices.keys().isdisjoint(a):
            if labels is not None:
                raise ValueError("label line after a coordinate line")
            n = (len(a) if indices.keys() >= set(a)  # the block's label lines
                 else sum(1 for _ in takewhile(indices.__contains__, a)))
            for kind, ix in indices.items():
                mine = list(map(kind.__eq__, a[:n]))
                ix += compress(b, mine)
                names[kind] += compress(c, mine)
            a, b, c = a[n:], b[n:], c[n:]
            if not indices.keys().isdisjoint(a):
                raise ValueError("label line after a coordinate line")
        if not a:
            continue
        if labels is None:
            labels = [_read_labels(indices[kind], names[kind], n)
                      for kind, n in zip(indices, dims)]
            rpos = {l: i for i, l in enumerate(labels[0])}
            cpos = rpos if labels[1] == labels[0] else {l: j for j, l in enumerate(labels[1])}
        ri.extend(map(rpos.__getitem__, a))
        ci.extend(map(cpos.__getitem__, b))
        values += map(convert, c)
    if dims is None:
        raise ValueError("header")
    if labels is None:
        labels = [_read_labels(indices[kind], names[kind], n) for kind, n in zip(indices, dims)]
    columns = _csr(dims[0], dims[1], ri, ci, values)
    if columns is None:
        raise ValueError("repeated coordinate")
    return (target_rank, *labels, *columns)


def _parse_matrix_text(text: str, header: str, entry: Callable[[str], object]) -> Tuple[
        Optional[int], Tuple[str, ...], Tuple[str, ...], Dict[Tuple[str, str], object]]:
    """The per-line reader of both matrix formats, for files the column
    pass does not take: returns the ``r`` target (only ``MATRIX_HEADER``
    files may carry one), the row and column labels and the coordinate
    entries converted by ``entry``.  Every rejected line, including a
    repeated label index or coordinate, raises ParseError naming it."""
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
    # the lengths first: a declared dimension alone builds no list
    if (len(rows) != nrows or len(cols) != ncols
            or sorted(rows) != list(range(nrows)) or sorted(cols) != list(range(ncols))):
        raise ParseError("row/col label lines do not cover the declared dimensions")
    return (target_rank, tuple(rows[i] for i in range(nrows)),
            tuple(cols[j] for j in range(ncols)), data)


def _parse(text: str, header: str, entry: Callable[[str], object],
           kind: Callable[[List[object]], type]) -> Tuple[Optional[int], _SparseMatrix]:
    """The ``r`` target and the matrix of a file, of class ``kind(values)``.
    The column pass reads every file it takes whole whose values the class
    stores as they are; any other file goes through the per-line reader
    and the constructor, which raise the ParseError the file earns."""
    try:
        target_rank, rows, cols, starts, colpos, values = _read_columns(text, header, entry)
        cls = kind(values)
        if cls._clean(_distinct(values)):
            return target_rank, cls._from_columns(rows, cols, starts, colpos, values)
    except (ValueError, KeyError, OverflowError):
        pass  # the per-line reader below names the first error in file order
    target_rank, rows, cols, data = _parse_matrix_text(text, header, entry)
    try:
        return target_rank, kind(data.values())(rows, cols, data)
    except ValueError as e:
        raise ParseError(str(e)) from None


_MARKS = {"?": UNKNOWN, "*": NONZERO_UNKNOWN}


def _matrix_token(tok: str) -> Entry:
    return _MARKS.get(tok) or parse_fraction(tok)


def _matrix_kind(values: Iterable[object]) -> type:
    return (IncompleteMatrix if any(type(v) is _Mark for v in _distinct(values))
            else InstanceMatrix)


def parse_matrix(text: str) -> ParsedMatrix:
    target_rank, matrix = _parse(text, MATRIX_HEADER, _matrix_token, _matrix_kind)
    return ParsedMatrix(matrix, target_rank)


def parse_polynomial_matrix(text: str) -> PolynomialMatrix:
    """Read back a polynomial matrix file; absent entries are zero."""
    return _parse(text, POLYMATRIX_HEADER, parse_polynomial, lambda values: PolynomialMatrix)[1]
