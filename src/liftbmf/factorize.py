"""Boolean matrix factorization: exact rank at oracle scale, greedy otherwise.

The exact solver covers the 1-entries of the matrix with maximal all-ones
rectangles (formal concepts) using branch-and-bound set cover; by
construction no rectangle touches a 0-entry, so a minimum cover is a
minimum exact factorization.  Concepts are enumerated as intersections of
column row sets, one column at a time; the search branches on the
uncovered cell with the fewest covering rectangles, in a cell order fixed
before it starts.  The cells are renumbered in that order, so a node's
branching cell is the lowest bit of its uncovered mask, and a node
charges, bounds and memo-checks its children in its own loop, entering
only those that pass.  Two lower bounds prune it: the area bound, and a
greedy fooling set, 1-cells no two of which fit in one rectangle.
The greedy solver follows the ASSO scheme:
candidate column patterns come from thresholded association confidences,
and each round keeps the candidate whose best per-row companion maximizes
a weighted cover gain.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .boolmat import (BoolMatrix, _bit_array, _bits_text, _check_labels, _label_lines,
                      _read_records, _text_bits, boolean_product, hamming_error)
from .errors import (CapacityError, InputError, SearchBudgetError, check_integer, check_real,
                     is_integer)

__all__ = [
    "AssoParams",
    "Factorization",
    "exact_boolean_rank",
    "asso_factorize",
    "truncate",
    "optimal_error_at_rank",
]

DEFAULT_SIZE_CAP = 400
DEFAULT_MAX_SEARCH = 2_000_000
_F32_ROWS = 1 << 23  # rows per float32 block of the ASSO column overlaps
_QUOTIENT_CELLS = 1 << 14  # cells per block of the ASSO association confidences
_ORACLE_WORK_CAP = 50_000_000  # elementary comparisons of `optimal_error_at_rank`


@dataclass(frozen=True)
class AssoParams:
    """Knobs of the greedy factorizer.

    tau is the association threshold, w_plus rewards covering a 1,
    w_minus penalizes covering a 0.  max_rank of None means min(k, l).
    """

    tau: float = 0.7
    w_plus: float = 1.0
    w_minus: float = 1.0
    max_rank: int | None = None

    def __post_init__(self):
        for name in ("tau", "w_plus", "w_minus"):
            object.__setattr__(self, name, check_real(getattr(self, name), name))
        if not 0.0 < self.tau <= 1.0:
            raise InputError(f"tau must be in (0, 1], got {self.tau}")
        if self.w_plus <= 0:
            raise InputError(f"w_plus must be positive, got {self.w_plus}")
        if self.w_minus < 0:
            raise InputError(f"w_minus must be nonnegative, got {self.w_minus}")
        if self.max_rank is not None:
            check_integer(self.max_rank, "max_rank", 0)


def _as_vector(v, n: int, what: str) -> np.ndarray:
    vec = _bit_array(v, what)
    if vec.shape != (n,):
        raise InputError(f"{what} must have length {n}, got shape {vec.shape}")
    return vec


@dataclass(frozen=True, eq=False)
class Factorization:
    """Ordered (q_i, r_i) column pairs approximating a k x l target.

    `error` is the Hamming distance between the target and the Boolean
    product of the assembled factors; it is None for factorizations parsed
    from files without their target.
    """

    pairs: tuple[tuple[np.ndarray, np.ndarray], ...]
    shape: tuple[int, int]
    row_labels: tuple[str, ...] | None = None
    col_labels: tuple[str, ...] | None = None
    error: int | None = None
    target: BoolMatrix | None = field(default=None, repr=False)

    def __post_init__(self):
        if not (isinstance(self.shape, tuple) and len(self.shape) == 2
                and all(is_integer(n) and n >= 0 for n in self.shape)):
            raise InputError(f"invalid target shape {self.shape}")
        k, l = self.shape
        checked = tuple(
            (_as_vector(q, k, "q vector"), _as_vector(r, l, "r vector"))
            for q, r in self.pairs
        )
        object.__setattr__(self, "pairs", checked)
        if len(checked) > min(k, l):
            raise InputError(
                f"rank {len(checked)} exceeds min{self.shape} = {min(k, l)}"
            )
        # labels that are the very tuples of a target of this shape were
        # checked when the target was built
        target = self.target
        if not (target is not None and target.shape == self.shape
                and self.row_labels is target.row_labels and self.col_labels is target.col_labels):
            object.__setattr__(self, "row_labels", _check_labels(self.row_labels, k, "row"))
            object.__setattr__(self, "col_labels", _check_labels(self.col_labels, l, "col"))
        if self.error is not None and not is_integer(self.error):
            raise InputError(f"error must be an integer, got {self.error!r}")
        if self.error is not None and not 0 <= self.error <= k * l:
            raise InputError(f"error {self.error} outside [0, {k * l}] for shape {self.shape}")
        if self.target is not None and self.target.shape != self.shape:
            raise InputError(
                f"target shape {self.target.shape} does not match {self.shape}"
            )

    def rank(self) -> int:
        return len(self.pairs)

    def q_matrix(self) -> BoolMatrix:
        k, _ = self.shape
        cols = [q for q, _ in self.pairs]
        bits = np.stack(cols, axis=1) if cols else np.zeros((k, 0), dtype=np.uint8)
        return BoolMatrix(bits, self.row_labels, None)

    def r_matrix(self) -> BoolMatrix:
        _, l = self.shape
        cols = [r for _, r in self.pairs]
        bits = np.stack(cols, axis=1) if cols else np.zeros((l, 0), dtype=np.uint8)
        return BoolMatrix(bits, self.col_labels, None)

    def reconstruct(self) -> BoolMatrix:
        """Boolean product of the assembled factors."""
        return boolean_product(self.q_matrix(), self.r_matrix())

    def with_target(self, target: BoolMatrix) -> "Factorization":
        """Attach the matrix being approximated and recompute the error."""
        if target.shape != self.shape:
            raise InputError(f"target shape {target.shape} does not match {self.shape}")
        err = hamming_error(target, self.reconstruct())
        return Factorization(
            self.pairs, self.shape, self.row_labels, self.col_labels, err, target
        )

    def flip_cells(self) -> list[tuple[int, int, str]]:
        """Locations where the reconstruction disagrees with the target.

        Each entry is (row, col, direction) with direction '1->0' or '0->1'.
        """
        if self.target is None:
            raise InputError("factorization has no target attached")
        recon = self.reconstruct().bits
        cells = []
        for i, j in zip(*np.nonzero(self.target.bits != recon)):
            direction = "1->0" if self.target.bits[i, j] else "0->1"
            cells.append((int(i), int(j), direction))
        return cells

    def __eq__(self, other):
        if not isinstance(other, Factorization):
            return NotImplemented
        return (
            self.shape == other.shape
            and len(self.pairs) == len(other.pairs)
            and all(
                np.array_equal(q1, q2) and np.array_equal(r1, r2)
                for (q1, r1), (q2, r2) in zip(self.pairs, other.pairs)
            )
            and self.row_labels == other.row_labels
            and self.col_labels == other.col_labels
            and self.error == other.error
        )

    # --- text format -------------------------------------------------
    #
    # "n k l error" then n blocks of two lines: q as k chars, r as l chars.
    # Labels, when present, ride along as #rows/#cols comment headers so a
    # factorization file alone can feed the evidence reduction.

    def to_text(self) -> str:
        if self.error is None:
            raise InputError("cannot serialize a factorization with unknown error")
        out = _label_lines(self.row_labels, self.col_labels)
        out.append(f"{self.rank()} {self.shape[0]} {self.shape[1]} {self.error}")
        for q, r in self.pairs:
            out.append(_bits_text(q))
            out.append(_bits_text(r))
        return "\n".join(out) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Factorization":
        labels, (n, k, l, error), body = _read_records(text, "n k l error")
        if n < 0:
            raise InputError(f"negative pair count {n}")
        if k < 0 or l < 0:
            raise InputError(f"negative dimensions {(k, l)}")
        if len(body) != 2 * n:
            raise InputError(f"expected {2 * n} vector lines, got {len(body)}")
        pairs = tuple(
            (_text_bits(q, k, f"line {qno}: q vector of pair {i + 1}"),
             _text_bits(r, l, f"line {rno}: r vector of pair {i + 1}"))
            for i, ((qno, q), (rno, r)) in enumerate(zip(body[::2], body[1::2]))
        )
        return cls(pairs, (k, l), labels.get("rows"), labels.get("cols"), error)


def truncate(f: Factorization, n: int) -> Factorization:
    """Keep the first n pairs; the error is recomputed against the target."""
    if not is_integer(n) or not 0 <= n <= f.rank():
        raise InputError(f"cannot truncate rank-{f.rank()} factorization to {n!r}")
    if n == f.rank():
        return f
    if f.target is None:
        raise InputError("truncation needs the target attached to recompute error")
    kept = Factorization(f.pairs[:n], f.shape, f.row_labels, f.col_labels)
    return kept.with_target(f.target)


# --- exact Boolean rank ------------------------------------------------


def _pack(bits: np.ndarray) -> int:
    """The 0/1 vector `bits` as an int whose bit i is entry i."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _unpack(mask: int, n: int) -> np.ndarray:
    """The inverse of `_pack`: a 0/1 vector of length n whose entry i is bit i of `mask`."""
    packed = np.frombuffer(mask.to_bytes(-(-n // 8), "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=n, bitorder="little")


def _set_bits(mask: int):
    """Positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pack_rows(bits: np.ndarray) -> list[int]:
    """Each row of the 2-D 0/1 array `bits`, packed as by `_pack`."""
    width = -(-bits.shape[1] // 8)
    packed = np.packbits(bits, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(packed[at:at + width], "little")
            for at in range(0, len(packed), width)]


def _concepts(p: BoolMatrix, budget: list[int]) -> list[tuple[int, int, int]]:
    """All maximal all-ones rectangles, as (cell bitmask, row bitmask,
    column bitmask); cell (i, j) is bit i * l + j of the cell bitmask.

    The rectangles' row sets are the nonempty intersections of column row
    sets, grown one column at a time from the set of all rows; each new one
    closes to the columns its rows share.  `budget` is a one-element
    mutable node counter shared with the cover search.  Enumeration costs
    what a breadth-first closure of column sets from the empty set takes:
    one node per column that a closed set lacks, the empty set included.
    """
    k, l = p.shape
    row_cols = _pack_rows(p.bits)
    all_cols = (1 << l) - 1
    concepts = []

    def close(fresh: set[int]) -> None:
        for rows in fresh:
            # the closure, and the rows spread one per l bits: their product
            # puts the closure's columns on every row of the rectangle
            cols, spread, left = all_cols, 0, rows
            while left:
                low = left & -left
                i = low.bit_length() - 1
                cols &= row_cols[i]
                spread |= 1 << i * l
                left ^= low
            if rows and cols:
                budget[0] -= l - cols.bit_count()
                if budget[0] < 0:
                    raise SearchBudgetError("concept enumeration exceeded the search budget")
                concepts.append((cols * spread, rows, cols))

    budget[0] -= l  # the empty column set; the first rectangle's charge checks it
    row_sets = {(1 << k) - 1}
    close(row_sets)
    for col in _pack_rows(p.bits.T):
        fresh = {rows & col for rows in row_sets} - row_sets
        close(fresh)
        row_sets |= fresh
    return concepts


def _fooling_set_size(p: BoolMatrix) -> int:
    """Size of a fooling set of p's 1-cells, kept greedily row by row.

    Cells (i, j) and (a, b) lie in one all-ones rectangle iff entries
    (i, b) and (a, j) are ones, so no two kept cells share a rectangle:
    each needs its own, and the size is a lower bound on the Boolean rank.
    """
    row_cols = _pack_rows(p.bits)
    kept: list[tuple[int, int]] = []
    for i, cols in enumerate(row_cols):
        for j in _set_bits(cols):
            if not any(cols >> b & 1 and row_cols[a] >> j & 1 for a, b in kept):
                kept.append((i, j))
    return len(kept)


def exact_boolean_rank(
    p: BoolMatrix,
    max_search: int = DEFAULT_MAX_SEARCH,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> tuple[int, Factorization]:
    """Smallest n such that p factors exactly into n Boolean outer products.

    Refuses matrices with more than `size_cap` entries; raises
    SearchBudgetError with the bounds proven so far if concept enumeration
    and the branch-and-bound cover search together take more than
    `max_search` nodes.  The error's `stage` names the step that ran out
    and its `nodes` is the `max_search` nodes spent.  Its lower bound is a
    greedy fooling set of the matrix if concept enumeration ran out, and
    the larger of the area bound and the root's fooling set if the search
    did; its upper bound is min(k, l), or the shortest cover found if that
    is less.  The fooling-set bound prunes only subtrees that hold no
    shorter cover than the best so far, so the rank and the witness are
    those of the search that prunes by the area bound alone.
    """
    k, l = p.shape
    if k == 0 or l == 0:
        raise InputError("matrix must be nonempty")
    check_integer(max_search, "max_search", 0)
    check_integer(size_cap, "size_cap", 0)
    if k * l > size_cap:
        raise CapacityError(
            f"{k}x{l} matrix exceeds the exact-rank cap of {size_cap} entries; "
            "use approximate factorization (asso_factorize)"
        )

    ones_mask = _pack(p.bits.ravel())
    if ones_mask == 0:
        return 0, Factorization((), (k, l), p.row_labels, p.col_labels, 0, p)

    def out_of_budget(what: str, lb: int, ub: int) -> SearchBudgetError:
        return SearchBudgetError(
            f"{what} exceeded {max_search} nodes; best bounds so far: {lb} <= rank <= {ub}",
            lower_bound=lb,
            upper_bound=ub,
            stage=what,
            nodes=max_search,
        )

    budget = [max_search]
    try:
        covers = _concepts(p, budget)
    except SearchBudgetError:
        # min(k, l) rectangles always suffice: one per row or per column
        raise out_of_budget("concept enumeration", _fooling_set_size(p), min(k, l)) from None
    # canonical order: biggest coverage first, then by masks, for determinism
    covers.sort(key=lambda t: (-t[0].bit_count(), t[1], t[2]))
    max_cover = covers[0][0].bit_count()

    # greedy cover gives the initial upper bound (and a feasible witness)
    best: list[int] = []
    uncovered = ones_mask
    while uncovered:
        gains = [(cells & uncovered).bit_count() for cells, _, _ in covers]
        pick = gains.index(max(gains))
        best.append(pick)
        uncovered &= ~covers[pick][0]
    best_len = len(best)

    n_ones = ones_mask.bit_count()
    # need[c]: rectangles still needed for c uncovered cells, by the area bound
    need = [-(-c // max_cover) for c in range(n_ones + 1)]
    lower = need[n_ones]
    if lower < best_len:
        covering: list[list[int]] = [[] for _ in range(k * l)]
        for idx, (cells, _, _) in enumerate(covers):
            while cells:
                low = cells & -cells
                covering[low.bit_length() - 1].append(idx)
                cells ^= low
        # branch on the uncovered cell with the fewest covering rectangles, the
        # lowest such cell on ties: a stable sort of the ascending 1-cells.
        # Cells renumbered in that order make the branching cell of a node
        # the lowest bit of its uncovered mask.
        options_at = sorted([options for options in covering if options], key=len)
        masks = [0] * len(covers)
        for pos, options in enumerate(options_at):
            bit = 1 << pos
            for idx in options:
                masks[idx] |= bit
        # compat[pos]: the cells that share a rectangle with cell pos.  Cells
        # picked lowest first, each dropping its compat, form a fooling set:
        # no two share a rectangle, so each needs a rectangle of its own.
        compat = []
        for options in options_at:
            joined = 0
            for idx in options:
                joined |= masks[idx]
            compat.append(joined)
        fooling, left = 0, (1 << n_ones) - 1
        while left:
            fooling += 1
            left &= ~compat[(left & -left).bit_length() - 1]
        lower = max(lower, fooling)
        memo: dict[int, int] = {}
        chosen: list[int] = []

        def search(uncovered: int, depth: int) -> None:
            # Expand a node that passed its checks.  Each child is charged,
            # checked for a full cover, the area bound, the memo and the
            # fooling bound here, and entered only if it passes them all.
            # Options come by ascending cells left uncovered and best_len
            # never rises, so once a child fails the area bound so do all
            # later ones: the tail is charged at once.
            nonlocal best, best_len
            memo[uncovered] = depth
            options = sorted([((uncovered & ~masks[i]).bit_count(), i)
                              for i in options_at[(uncovered & -uncovered).bit_length() - 1]])
            depth += 1
            for n, (rest, idx) in enumerate(options):
                budget[0] -= 1
                if budget[0] < 0:
                    raise search_exhausted()
                if not rest:
                    if depth < best_len:
                        best, best_len = chosen + [idx], depth
                    continue
                if depth + need[rest] >= best_len:
                    budget[0] -= len(options) - n - 1
                    if budget[0] < 0:
                        raise search_exhausted()
                    return
                child = uncovered & ~masks[idx]
                # skip a child the memo holds at this depth or shallower
                if memo.get(child, depth + 1) <= depth:
                    continue
                # enter only if the child's greedy fooling set has fewer than
                # best_len - depth cells: a larger one rules out a shorter cover
                left, room = child, best_len - depth - 1
                while left and room:
                    room -= 1
                    left &= ~compat[(left & -left).bit_length() - 1]
                if not left:
                    chosen.append(idx)
                    search(child, depth)
                    chosen.pop()

    def search_exhausted() -> SearchBudgetError:
        return out_of_budget("exact rank search", lower, min(best_len, k, l))

    budget[0] -= 1  # the root node
    if budget[0] < 0:
        raise search_exhausted()
    if lower < best_len:
        search((1 << n_ones) - 1, 0)

    # the witness is exact when its rectangles cover exactly the 1-cells
    pairs = []
    cells = 0
    for idx in sorted(best, key=lambda i: (covers[i][1], covers[i][2])):
        mask, rows, cols = covers[idx]
        cells |= mask
        pairs.append((_unpack(rows, k), _unpack(cols, l)))
    assert cells == ones_mask
    return len(pairs), Factorization(tuple(pairs), (k, l), p.row_labels, p.col_labels, 0, p)


# --- greedy (ASSO-style) approximate factorization -----------------------


def asso_factorize(p: BoolMatrix, params: AssoParams | None = None) -> Factorization:
    """Greedy rank-bounded factorization; stops early when no pair helps.

    Candidate column patterns are thresholded association confidences
    between columns; the companion row pattern is chosen row by row so a
    row joins only if it strictly improves the weighted cover gain.  Ties
    among candidates break toward the lowest candidate index, so the output
    is deterministic; a repeated candidate is dropped, since its gain always
    equals that of its first copy.

    The counts of still-open 1s and 0s each candidate would cover in each
    row are computed once, the 0s as the candidate's size minus the 1s.
    One float64 array holds each row's weighted gain clipped at zero; a
    candidate's gain is its column sum, and a pick's rows are those where
    its clipped gain is positive, which are the rows of positive weighted
    gain.  A kept pair changes the counts only on its own rows, from the
    cells it newly covers, which lie in its own columns; only those rows of
    the counts and of the clipped gains are refreshed, so the gains stay one
    column sum over the same values as a full recompute.  A pair's cells
    are read and marked covered by row band: its rows are taken as one
    array, its columns within that band, and the band is written back,
    several times faster than indexing rows and columns at once.  The 0/1
    matmuls run in float32 on BLAS, where a sum of integers below 2**24 is
    exact in any order: a count is at most l (an l x l overlap array with
    l near 2**24 could not be held), and the column overlaps are summed
    over blocks of 2**23 rows.  The float32 copy of the matrix and the
    overlaps are released once their matmuls are done.  The weights apply
    in float64; weights whose gains could overflow it, (w_plus + w_minus)
    * k * l not finite, are refused with InputError.  The error is read
    off the cover.
    """
    params = params or AssoParams()
    k, l = p.shape
    if not math.isfinite((params.w_plus + params.w_minus) * k * l):
        raise InputError(
            f"ASSO weights w_plus={params.w_plus} and w_minus={params.w_minus} "
            f"overflow the cover gains of a {k}x{l} matrix"
        )
    max_rank = min(k, l) if params.max_rank is None else min(params.max_rank, min(k, l))
    bits = p.bits
    b32 = bits.astype(np.float32)
    overlap = b32[:_F32_ROWS].T @ b32[:_F32_ROWS]
    for start in range(_F32_ROWS, k, _F32_ROWS):
        block = b32[start:start + _F32_ROWS]
        overlap = overlap + (block.T @ block).astype(np.float64)
    norms = overlap.diagonal()
    keep = norms > 0
    if not keep.any() or max_rank == 0:
        return Factorization((), (k, l), p.row_labels, p.col_labels, p.ones(), p)
    # thresholded in blocks of rows, so no f64 quotient array spans all candidates
    at = np.flatnonzero(keep)
    cand = np.empty((len(at), l), dtype=bool)
    step = max(1, _QUOTIENT_CELLS // l)
    for s in range(0, len(at), step):
        part = at[s:s + step]
        np.greater_equal(overlap[part] / norms[part, None].astype(np.float64), params.tau,
                         out=cand[s:s + step])
    del overlap, norms
    # a repeated candidate always has its first copy's gain, and argmax takes
    # the first of equal gains, so dropping repeats changes no pick
    first = {}
    for i, row in enumerate(cand):
        first.setdefault(row.tobytes(), i)
    cand = cand[list(first.values())].astype(np.uint8)
    cand_t = np.ascontiguousarray(cand.T, dtype=np.float32)
    new_ones = b32 @ cand_t
    del b32
    new_zeros = cand_t.sum(axis=0) - new_ones
    # float64 scalars: a Python float would leave the float32 counts in float32
    w_plus, w_minus = np.float64(params.w_plus), np.float64(params.w_minus)

    def clipped_gains(ones: np.ndarray, zeros: np.ndarray) -> np.ndarray:
        out = np.multiply(ones, w_plus, dtype=np.float64)
        out -= w_minus * zeros
        return np.maximum(out, 0.0, out=out)

    clipped = clipped_gains(new_ones, new_zeros)
    covered = np.zeros((k, l), dtype=bool)
    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(max_rank):
        gains = clipped.sum(axis=0)
        pick = int(np.argmax(gains))
        if gains[pick] <= 0.0:
            break
        q = (clipped[:, pick] > 0.0).astype(np.uint8)
        r = cand[pick].copy()
        pairs.append((q, r))
        rows, cols = np.flatnonzero(q), np.flatnonzero(r)
        # rows, then columns within them: indexing both at once is several times slower
        band = covered[rows]
        newly = ~band[:, cols]
        band[:, cols] = True
        covered[rows] = band
        # per candidate: newly covered 1s on each row, then newly covered 0s
        newly_ones = bits[rows][:, cols] & newly
        hit = np.concatenate((newly_ones, newly ^ newly_ones), dtype=np.float32) @ cand_t[cols]
        n = len(rows)
        ones, zeros = new_ones[rows], new_zeros[rows]
        ones -= hit[:n]
        zeros -= hit[n:]
        del hit
        new_ones[rows], new_zeros[rows] = ones, zeros
        clipped[rows] = clipped_gains(ones, zeros)
    error = int(np.count_nonzero(covered != bits))
    return Factorization(tuple(pairs), (k, l), p.row_labels, p.col_labels, error, p)


# --- exhaustive oracle ---------------------------------------------------


def optimal_error_at_rank(p: BoolMatrix, rank: int) -> int:
    """Minimum Hamming error of any rank-`rank` factorization, by brute force.

    Enumerates every choice of `rank` distinct nonzero row patterns for the
    Q side; for a fixed Q the best R follows column by column from the
    OR-closure of the chosen patterns.  Independent of both solvers above,
    so it can referee them.  Refuses work beyond `_ORACLE_WORK_CAP`
    elementary comparisons, read at each call.
    """
    k, l = p.shape
    check_integer(rank, "rank", 0)
    if rank == 0:
        return p.ones()
    if k > 20:
        raise CapacityError(f"exhaustive oracle supports at most 20 rows, got {k}")
    n_patterns = (1 << k) - 1
    rank = min(rank, min(k, l))
    n_combos = math.comb(n_patterns, rank)
    work = n_combos * (1 << rank) * l
    if work > _ORACLE_WORK_CAP:
        raise CapacityError(
            f"exhaustive search at rank {rank} needs ~{work} comparisons "
            f"(cap {_ORACLE_WORK_CAP})"
        )

    pop = np.zeros(1 << k, dtype=np.int64)
    for i in range(1, 1 << k):
        pop[i] = pop[i >> 1] + (i & 1)
    col_ints = np.array([_pack(col) for col in p.bits.T], dtype=np.int64)

    best = p.ones()
    chunk = 200_000
    combos_iter = itertools.combinations(range(1, 1 << k), rank)
    while True:
        block = list(itertools.islice(combos_iter, chunk))
        if not block:
            break
        qs = np.array(block, dtype=np.int64)  # (C, rank)
        base = pop[col_ints][None, :]  # leave column uncovered
        err = np.broadcast_to(base, (qs.shape[0], l)).copy()
        for subset in range(1, 1 << rank):
            union = np.zeros(qs.shape[0], dtype=np.int64)
            for b in range(rank):
                if subset >> b & 1:
                    union |= qs[:, b]
            np.minimum(err, pop[union[:, None] ^ col_ints[None, :]], out=err)
        best = min(best, int(err.sum(axis=1).min()))
        if best == 0:
            break
    return best
