"""Dense Boolean matrices over the semiring ({0,1}, or, and).

A BoolMatrix is immutable after construction.  Row and column labels
(constant names) are optional: the pure algebra works without them, the
evidence pipeline in `reduction` requires them.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InputError, read_integer

__all__ = [
    "BoolMatrix",
    "FlipCounts",
    "boolean_product",
    "integer_product_entry",
    "hamming_error",
    "flip_counts",
]

_LABEL_RE = re.compile(r"[A-Za-z0-9_]+")


def _check_labels(labels: Sequence[str] | None, n: int, axis: str) -> tuple[str, ...] | None:
    if labels is None:
        return None
    labels = tuple(labels)
    if len(labels) != n:
        raise InputError(f"{axis} labels: expected {n} names, got {len(labels)}")
    if len(set(labels)) != len(labels):
        raise InputError(f"{axis} labels are not unique: {labels}")
    for name in labels:
        if not _LABEL_RE.fullmatch(name):
            raise InputError(f"invalid {axis} label {name!r}")
    return labels


def _read_label_header(line: str, lineno: int, labels: dict[str, tuple[str, ...]]) -> None:
    """Record a '#rows a,b,...' or '#cols ...' comment line in `labels` under
    'rows' or 'cols', refusing a second one; other comments are ignored.

    Names are split on commas as written, so an empty name is kept and
    refused by the label checks rather than dropped.
    """
    for tag in ("rows", "cols"):
        if line == "#" + tag or line.startswith(f"#{tag} "):
            if tag in labels:
                raise InputError(f"line {lineno}: duplicate #{tag} header")
            names = line[len(tag) + 1:]
            labels[tag] = tuple(p.strip() for p in names.split(",")) if names.strip() else ()


_COUNT_WORDS = ("no", "one", "two", "three", "four")


def _read_records(text: str, fields: str):
    """(labels by 'rows'/'cols', header integers, [(lineno, body line)]) of
    a matrix or factorization file.  Blank lines and '#' comments may come
    anywhere; the first other line holds one integer per name in `fields`."""
    count = len(fields.split())
    labels: dict[str, tuple[str, ...]] = {}
    header = None
    body: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            _read_label_header(line, lineno, labels)
        elif header is not None:
            body.append((lineno, line))
        else:
            parts = line.split()
            if len(parts) != count:
                raise InputError(f"line {lineno}: expected '{fields}', got {line!r}")
            message = f"line {lineno}: expected {_COUNT_WORDS[count]} integers, got {line!r}"
            header = tuple(read_integer(p, message) for p in parts)
    if header is None:
        raise InputError(f"missing '{fields}' header line")
    return labels, header, body


def _label_lines(row_labels, col_labels) -> list[str]:
    """The '#rows'/'#cols' header lines for the labels that are present."""
    tagged = (("rows", row_labels), ("cols", col_labels))
    return [f"#{tag} " + ",".join(names) for tag, names in tagged if names is not None]


def _text_bits(line: str, n: int, where: str) -> np.ndarray:
    """A body line of `n` '0'/'1' characters as a uint8 vector."""
    if len(line) != n:
        raise InputError(f"{where}: expected {n} characters, got {len(line)}")
    if line.strip("01"):
        raise InputError(f"{where}: entries must be 0 or 1, got {line!r}")
    return np.frombuffer(line.encode(), dtype=np.uint8) - ord("0")


def _bits_text(vec: np.ndarray) -> str:
    """The inverse of `_text_bits`: a uint8 0/1 vector as a line of '0'/'1' characters."""
    return (vec + ord("0")).tobytes().decode()


def _bit_array(values, what: str) -> np.ndarray:
    """`values` as a read-only contiguous uint8 array.

    Entries are checked before the cast, so 0.5, NaN or 256 are refused
    rather than truncated or wrapped; bools pass as 0/1.  A writable input
    is copied, since the caller may still write to it; a read-only one is
    shared.
    """
    bits = np.asarray(values)
    if bits.dtype == np.uint8:
        bad = bits.size and bits.max() > 1
    else:
        bad = bits.dtype != bool and not ((bits == 0) | (bits == 1)).all()
    if bad:
        raise InputError(f"{what} entries must be 0 or 1")
    bits = np.array(bits, dtype=np.uint8, order="C", copy=True if bits.flags.writeable else None)
    bits.setflags(write=False)
    return bits


@dataclass(frozen=True, eq=False)
class BoolMatrix:
    """k x l bit matrix with optional row/column labels."""

    bits: np.ndarray
    row_labels: tuple[str, ...] | None = None
    col_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        bits = _bit_array(self.bits, "matrix")
        if bits.ndim != 2:
            raise InputError(f"matrix must be 2-dimensional, got shape {bits.shape}")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "row_labels", _check_labels(self.row_labels, bits.shape[0], "row"))
        object.__setattr__(self, "col_labels", _check_labels(self.col_labels, bits.shape[1], "col"))

    @property
    def rows(self) -> int:
        return self.bits.shape[0]

    @property
    def cols(self) -> int:
        return self.bits.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.bits.shape

    def ones(self) -> int:
        """Number of 1-entries."""
        return int(self.bits.sum())

    def __eq__(self, other):
        if not isinstance(other, BoolMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and bool(np.array_equal(self.bits, other.bits))
            and self.row_labels == other.row_labels
            and self.col_labels == other.col_labels
        )

    def __repr__(self):
        return f"BoolMatrix({self.rows}x{self.cols}, ones={self.ones()})"

    # --- text format -------------------------------------------------
    #
    # First non-comment line is "k l"; then exactly k lines of l characters
    # from {0,1}.  Lines starting with '#' are comments; '#rows a,b,...' and
    # '#cols ...' carry the labels.

    def to_text(self, comments: Iterable[str] = ()) -> str:
        out = [f"# {c}" for c in comments]
        out += _label_lines(self.row_labels, self.col_labels)
        out.append(f"{self.rows} {self.cols}")
        out.extend(map(_bits_text, self.bits))
        return "\n".join(out) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BoolMatrix":
        labels, (k, l), body = _read_records(text, "k l")
        if k < 0 or l < 0:
            raise InputError(f"negative dimensions {(k, l)}")
        if len(body) > k:
            raise InputError(f"line {body[k][0]}: more than {k} data rows")
        rows = [_text_bits(line, l, f"line {lineno}") for lineno, line in body]
        if len(rows) < k and l:  # the empty rows of a k x 0 matrix are skipped as blank
            raise InputError(f"expected {k} data rows, got {len(rows)}")
        bits = np.array(rows, dtype=np.uint8).reshape(k, l)
        return cls(bits, labels.get("rows"), labels.get("cols"))


class FlipCounts(NamedTuple):
    total: int
    ones_to_zeros: int
    zeros_to_ones: int


def _check_common_cols(q: BoolMatrix, r: BoolMatrix) -> None:
    if q.cols != r.cols:
        raise InputError(
            f"factor column counts differ: {q.rows}x{q.cols} vs {r.rows}x{r.cols}"
        )


def boolean_product(q: BoolMatrix, r: BoolMatrix) -> BoolMatrix:
    """Boolean product Q R^T of a k x n and an l x n matrix.

    Entry (i, j) is OR over shared columns of Q[i][c] AND R[j][c], i.e. 1
    exactly when the integer product entry is >= 1.  The product is taken
    in float32, which BLAS multiplies: a sum of 0/1 terms is zero only when
    every term is, and rounding never takes a positive sum to zero.
    """
    _check_common_cols(q, r)
    prod = (q.bits.astype(np.float32) @ r.bits.T.astype(np.float32)) > 0
    return BoolMatrix(prod.astype(np.uint8), q.row_labels, r.row_labels)


def integer_product_entry(q: BoolMatrix, r: BoolMatrix, i: int, j: int) -> int:
    """Entry (i, j) of Q R^T computed over the integers, not the Booleans.

    Diagnostic for the gap between Boolean and real-valued factorizations.
    """
    _check_common_cols(q, r)
    if not 0 <= i < q.rows:
        raise InputError(f"row index {i} out of range for {q.rows}x{q.cols} factor")
    if not 0 <= j < r.rows:
        raise InputError(f"row index {j} out of range for {r.rows}x{r.cols} factor")
    return int(q.bits[i].astype(np.int64) @ r.bits[j].astype(np.int64))


def _check_same_shape(p: BoolMatrix, a: BoolMatrix) -> None:
    if p.shape != a.shape:
        raise InputError(f"shape mismatch: {p.rows}x{p.cols} vs {a.rows}x{a.cols}")


def hamming_error(p: BoolMatrix, a: BoolMatrix) -> int:
    """Number of positions where the two matrices differ."""
    _check_same_shape(p, a)
    return int((p.bits != a.bits).sum())


def flip_counts(p: BoolMatrix, a: BoolMatrix) -> FlipCounts:
    """Hamming error split by direction, treating `p` as the original."""
    _check_same_shape(p, a)
    one_to_zero = int(((p.bits == 1) & (a.bits == 0)).sum())
    zero_to_one = int(((p.bits == 0) & (a.bits == 1)).sum())
    return FlipCounts(one_to_zero + zero_to_one, one_to_zero, zero_to_one)
