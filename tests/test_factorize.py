import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from liftbmf.boolmat import BoolMatrix, hamming_error
from liftbmf.errors import CapacityError, InputError, SearchBudgetError
from liftbmf.experiments import gen_synthetic
from liftbmf.factorize import (
    DEFAULT_MAX_SEARCH,
    AssoParams,
    Factorization,
    _fooling_set_size,
    asso_factorize,
    exact_boolean_rank,
    optimal_error_at_rank,
    truncate,
)

from conftest import LABELS, random_matrix


class TestExactBooleanRank:
    def test_example_matrix_has_rank_three(self, example_matrix):
        rank, witness = exact_boolean_rank(example_matrix)
        assert rank == 3
        assert witness.error == 0
        assert witness.reconstruct() == example_matrix
        # brute force confirms no exact rank-2 factorization exists
        assert optimal_error_at_rank(example_matrix, 2) == 1

    def test_zero_matrix(self):
        rank, witness = exact_boolean_rank(BoolMatrix(np.zeros((3, 5), dtype=np.uint8)))
        assert rank == 0
        assert witness.rank() == 0
        assert witness.error == 0
        assert witness.reconstruct().bits.sum() == 0

    def test_zero_matrix_witness_carries_target_and_labels(self):
        zero = BoolMatrix(np.zeros((2, 3), dtype=np.uint8), ("a", "b"), ("x", "y", "z"))
        rank, witness = exact_boolean_rank(zero)
        assert rank == 0 and witness.target is zero
        assert witness == Factorization((), (2, 3), ("a", "b"), ("x", "y", "z"), 0)
        assert witness.flip_cells() == []

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_identity_rank(self, d):
        rank, witness = exact_boolean_rank(BoolMatrix(np.eye(d, dtype=np.uint8)))
        assert rank == d
        assert witness.error == 0

    def test_size_cap(self):
        big = BoolMatrix(np.ones((30, 30), dtype=np.uint8))
        with pytest.raises(CapacityError, match="approximate"):
            exact_boolean_rank(big)
        # the cap is configurable
        assert exact_boolean_rank(big, size_cap=900)[0] == 1

    def test_search_budget(self):
        rng = np.random.default_rng(2)
        m = random_matrix(rng, 14, 14, density=0.5)
        # tiny budget dies during concept enumeration
        with pytest.raises(SearchBudgetError):
            exact_boolean_rank(m, max_search=40)
        # a budget that reaches the cover search reports bounds
        with pytest.raises(SearchBudgetError, match="best bounds") as info:
            exact_boolean_rank(m, max_search=3000)
        assert info.value.upper_bound >= info.value.lower_bound >= 1

    def test_concept_enumeration_budget_reports_trivial_bounds(self):
        # the lower bound is a greedy fooling set: an identity's diagonal
        with pytest.raises(SearchBudgetError, match="6 <= rank <= 6") as info:
            exact_boolean_rank(BoolMatrix(np.eye(6, dtype=np.uint8)), max_search=3)
        assert (info.value.lower_bound, info.value.upper_bound) == (6, 6)
        wide = BoolMatrix(np.ones((2, 9), dtype=np.uint8))
        with pytest.raises(SearchBudgetError, match="concept enumeration.*1 <= rank <= 2"):
            exact_boolean_rank(wide, max_search=0)

    def test_budget_error_reports_stage_and_nodes(self):
        m = BoolMatrix(np.random.default_rng(910).random((10, 10)) < 0.5)
        for budget, stage in ((50, "concept enumeration"), (500, "exact rank search")):
            with pytest.raises(SearchBudgetError, match=stage) as info:
                exact_boolean_rank(m, max_search=budget)
            assert (info.value.stage, info.value.nodes) == (stage, budget)

    @pytest.mark.parametrize("caps", [{"max_search": -1}, {"size_cap": -1}])
    def test_negative_caps_are_input_errors(self, caps):
        with pytest.raises(InputError, match=f"{next(iter(caps))} must be an integer >= 0"):
            exact_boolean_rank(BoolMatrix(np.eye(3, dtype=np.uint8)), **caps)

    @pytest.mark.parametrize("cap", [2.5, True, -1])
    @pytest.mark.parametrize("name", ["max_search", "size_cap"])
    def test_caps_must_be_non_negative_integers(self, name, cap):
        # max_search=2.5 once ran and reported "exceeded 2.5 nodes"
        with pytest.raises(InputError, match=f"{name} must be an integer >= 0"):
            exact_boolean_rank(BoolMatrix(np.eye(3, dtype=np.uint8)), **{name: cap})

    def test_budget_upper_bound_never_above_min_dimension(self):
        # the greedy cover of this matrix uses 15 rectangles; 14 always suffice
        m = BoolMatrix(np.random.default_rng(103).random((14, 14)) < 0.5)
        with pytest.raises(SearchBudgetError, match="rank <= 14") as info:
            exact_boolean_rank(m, max_search=3000)
        assert info.value.upper_bound == 14

    def test_empty_matrix_rejected(self):
        with pytest.raises(InputError, match="nonempty"):
            exact_boolean_rank(BoolMatrix(np.zeros((0, 3), dtype=np.uint8)))

    def test_witnesses_are_exact_on_random_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            k, l = rng.integers(1, 7, size=2)
            m = random_matrix(rng, k, l, density=rng.uniform(0.2, 0.8))
            rank, witness = exact_boolean_rank(m)
            assert witness.error == 0
            assert rank <= min(k, l)
            assert witness.reconstruct() == m

    def test_matches_brute_force_minimum(self):
        # independent oracle: smallest rank with zero optimal error
        rng = np.random.default_rng(13)
        for _ in range(15):
            k, l = rng.integers(2, 6, size=2)
            m = random_matrix(rng, k, l, density=0.5)
            rank, _ = exact_boolean_rank(m)
            brute = next(
                n for n in range(min(k, l) + 1) if optimal_error_at_rank(m, n) == 0
            )
            assert rank == brute

    def test_invariant_under_permutations(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = random_matrix(rng, 6, 6, density=0.45)
            rank, _ = exact_boolean_rank(m)
            rp = rng.permutation(6)
            cp = rng.permutation(6)
            shuffled = BoolMatrix(m.bits[np.ix_(rp, cp)])
            assert exact_boolean_rank(shuffled)[0] == rank


class TestRealRank:
    def test_example_matrix_is_full_real_rank(self, example_matrix):
        # Boolean rank 3 strictly below real-valued rank 4
        assert np.linalg.matrix_rank(example_matrix.bits.astype(float)) == 4
        assert exact_boolean_rank(example_matrix)[0] == 3


class TestAssoFactorize:
    def test_example_matrix_close_to_optimal(self, example_matrix):
        f = asso_factorize(example_matrix, AssoParams(tau=0.7, max_rank=4))
        assert f.rank() <= 4
        assert f.error <= 2

    def test_rank_one_matrix_recovered(self):
        q = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
        r = np.array([1, 0, 1, 1], dtype=np.uint8)
        m = BoolMatrix(np.outer(q, r))
        f = asso_factorize(m, AssoParams(tau=1.0, max_rank=1))
        assert f.rank() == 1
        assert f.error == 0

    def test_rank_two_cap_on_example(self, example_matrix):
        f = asso_factorize(example_matrix, AssoParams(max_rank=2))
        assert f.error >= 1
        assert f.error >= optimal_error_at_rank(example_matrix, 2)

    def test_zero_matrix_gives_empty_factorization(self):
        f = asso_factorize(BoolMatrix(np.zeros((4, 4), dtype=np.uint8)))
        assert f.rank() == 0
        assert f.error == 0

    def test_deterministic(self, example_matrix):
        a = asso_factorize(example_matrix, AssoParams(max_rank=3))
        b = asso_factorize(example_matrix, AssoParams(max_rank=3))
        assert a == b

    def test_never_beats_brute_force(self):
        rng = np.random.default_rng(41)
        for _ in range(12):
            m = random_matrix(rng, 6, 6, density=0.5)
            f = asso_factorize(m, AssoParams(max_rank=3))
            for rank in range(1, 4):
                err = truncate(f, min(rank, f.rank())).error
                assert err >= optimal_error_at_rank(m, rank)

    def test_error_non_increasing_in_emitted_rank(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            m = random_matrix(rng, 8, 8, density=0.5)
            f = asso_factorize(m)
            errors = [truncate(f, n).error for n in range(f.rank() + 1)]
            assert all(a >= b for a, b in zip(errors, errors[1:]))
            assert errors[0] == m.ones()

    def test_labels_carried_from_target(self, example_matrix):
        f = asso_factorize(example_matrix)
        assert f.row_labels == LABELS
        assert f.col_labels == LABELS


def _asso_full_recompute(p: BoolMatrix, params: AssoParams) -> Factorization:
    """The ASSO greedy as first written: int64 counts of open 1s and 0s per
    row and candidate, recomputed over the whole matrix every round."""
    k, l = p.shape
    max_rank = min(k, l) if params.max_rank is None else min(params.max_rank, min(k, l))
    bits = p.bits.astype(np.int64)
    norms = bits.sum(axis=0)
    keep = norms > 0
    if not keep.any() or max_rank == 0:
        return Factorization((), (k, l), p.row_labels, p.col_labels).with_target(p)
    overlap = bits.T @ bits
    cand = (overlap[keep] / norms[keep, None] >= params.tau).astype(np.uint8)

    covered = np.zeros((k, l), dtype=np.uint8)
    pairs = []
    for _ in range(max_rank):
        open_cells = 1 - covered
        new_ones = (bits * open_cells) @ cand.T
        new_zeros = ((1 - bits) * open_cells) @ cand.T
        delta = params.w_plus * new_ones - params.w_minus * new_zeros
        gains = np.clip(delta, 0.0, None).sum(axis=0)
        pick = int(np.argmax(gains))
        if gains[pick] <= 0.0:
            break
        q = (delta[:, pick] > 0.0).astype(np.uint8)
        r = cand[pick].copy()
        pairs.append((q, r))
        covered |= np.outer(q, r)
    return Factorization(tuple(pairs), (k, l), p.row_labels, p.col_labels).with_target(p)


def _pairs_digest(f: Factorization) -> str:
    h = hashlib.sha256()
    for q, r in f.pairs:
        h.update(np.asarray(q, dtype=np.uint8).tobytes())
        h.update(np.asarray(r, dtype=np.uint8).tobytes())
    return h.hexdigest()


class TestAssoAgainstFullRecompute:
    """The incremental float32 greedy against the full int64 recompute."""

    def test_random_matrices(self):
        rng = np.random.default_rng(2026)
        seen = {"non-square": 0, "zero column": 0, "rank 0": 0, "rank None": 0, "pairs": 0}
        for _ in range(420):
            k, l = (int(x) for x in rng.integers(1, 40, size=2))
            bits = (rng.random((k, l)) < rng.uniform(0.05, 0.9)).astype(np.uint8)
            if rng.random() < 0.25:
                bits[:, rng.random(l) < 0.3] = 0
            params = AssoParams(
                tau=float(rng.choice([0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])),
                w_plus=float(rng.choice([0.3, 0.7, 1.0, 1.7, 2.3])),
                w_minus=float(rng.choice([0.0, 0.3, 0.7, 1.0, 1.7, 2.3])),
                max_rank=[None, *range(12)][int(rng.integers(13))],
            )
            m = BoolMatrix(bits)
            f = asso_factorize(m, params)
            assert f == _asso_full_recompute(m, params)
            seen["non-square"] += k != l
            seen["zero column"] += bool((bits.sum(axis=0) == 0).any())
            seen["rank 0"] += params.max_rank == 0
            seen["rank None"] += params.max_rank is None
            seen["pairs"] += f.rank()
        assert min(seen.values()) >= 20, seen

    def test_planted_matrices(self):
        for seed in range(12):
            m, _ = gen_synthetic(40 + 10 * seed, 1 + seed % 8, (0.0, 0.01, 0.05)[seed % 3], seed)
            params = AssoParams(max_rank=12)
            f = asso_factorize(m, params)
            assert f.rank() > 0
            assert f == _asso_full_recompute(m, params)

    def test_pinned_m1000_rank10(self):
        """Error and pair digest recorded from the full int64 recompute that
        `_asso_full_recompute` copies, before the incremental float64 greedy
        replaced it (38 s against 1.1 s on a 2-core host)."""
        m, _ = gen_synthetic(1000, 10, 0.01, 1)
        f = asso_factorize(m, AssoParams(max_rank=10))
        assert f.rank() == 10
        assert f.error == 69329
        assert _pairs_digest(f) == (
            "98061b28a827b7e600131006548b5b255f78ac30a979ef7a01270c062b756a96"
        )

    @staticmethod
    def _check_random(rng, params, shapes=lambda r: r.integers(2, 30, size=2), edit=None,
                      runs=60):
        """Compare on random matrices of the given shapes; `edit` may change
        the bits first.  Returns the number of pairs emitted."""
        pairs = 0
        for _ in range(runs):
            k, l = shapes(rng)
            bits = (rng.random((k, l)) < rng.uniform(0.1, 0.9)).astype(np.uint8)
            if edit is not None:
                bits = edit(rng, bits)
            m = BoolMatrix(bits)
            f = asso_factorize(m, params)
            assert f == _asso_full_recompute(m, params), (bits.tolist(), params)
            pairs += f.rank()
        return pairs

    @pytest.mark.parametrize("w_plus, w_minus", [(0.1, 0.3), (3.0, 0.7), (0.7, 0.1)])
    def test_weights_whose_products_round(self, w_plus, w_minus):
        rng = np.random.default_rng(int(10 * w_plus + w_minus))
        for tau in (0.4, 0.7):
            params = AssoParams(tau=tau, w_plus=w_plus, w_minus=w_minus)
            assert self._check_random(rng, params) >= 60

    def test_repeated_columns_tie_candidates(self):
        rng = np.random.default_rng(7)

        def repeat_columns(r, bits):
            return bits[:, r.integers(bits.shape[1], size=bits.shape[1])]

        for w_minus in (0.3, 1.0):
            params = AssoParams(tau=0.6, w_plus=1.0, w_minus=w_minus)
            assert self._check_random(rng, params, edit=repeat_columns) >= 60

    def test_zero_rows(self):
        rng = np.random.default_rng(11)

        def zero_rows(r, bits):
            bits[r.random(bits.shape[0]) < 0.4] = 0
            return bits

        params = AssoParams(tau=0.5, w_plus=1.3, w_minus=0.9)
        assert self._check_random(rng, params, edit=zero_rows) >= 60

    def test_thin_shapes(self):
        """1 x l and k x 1 matrices (one round), and 2 x l and k x 2 (two)."""
        rng = np.random.default_rng(1)
        for thin in (1, 2):
            for w_minus in (0.3, 1.0):
                params = AssoParams(tau=0.5, w_plus=1.0, w_minus=w_minus)
                wide = self._check_random(rng, params, lambda r: (thin, int(r.integers(1, 40))))
                tall = self._check_random(rng, params, lambda r: (int(r.integers(1, 40)), thin))
                assert min(wide, tall) >= 30

    def test_overlaps_summed_in_row_blocks(self, monkeypatch):
        """The column overlaps are summed over blocks of rows, so that the
        float32 sums stay exact however tall the matrix; blocks of 3 rows
        here take the path that matrices past 2**23 rows take."""
        import liftbmf.factorize as factorize_module

        monkeypatch.setattr(factorize_module, "_F32_ROWS", 3)
        rng = np.random.default_rng(3)
        params = AssoParams(tau=0.6, w_plus=1.0, w_minus=0.7)
        assert self._check_random(rng, params) >= 60

    @pytest.mark.parametrize("seed, error, digest", [
        (0, 7112, "26675c68a36b7a7aae402fe06b01358de98628d73091daaf5fa14701dfbbf5f6"),
        (1, 8800, "f0e26c371d6d9c3ea7a5a3ffe7661b4058ebda00714be32641b6e74736b51b98"),
        (2, 7363, "6e325ad26ac0bc3ec61d52d65e680d67efa03eb01e94b0116f70374015908126"),
        (3, 8030, "82b39ff62cd36db5f2f06dfd3e9e61c4dffb2da4415f2269a3f18291f1570786"),
    ])
    def test_pinned_m300_rank10(self, seed, error, digest):
        """Error and pair digest of the benchmark's matrix shape, recorded
        from the float64 greedy before the float32 one replaced it."""
        m, _ = gen_synthetic(300, 10, 0.01, seed)
        f = asso_factorize(m, AssoParams(max_rank=10))
        assert f.rank() == 10
        assert f.error == error
        assert _pairs_digest(f) == digest


class TestExactRankPinned:
    """Ranks and witnesses recorded from the exact solver before its
    concept loop was merged and its branching order fixed up front, and
    budget errors recorded once both stages bounded the rank by fooling
    sets; witnesses feed `truncate` in `kld_curve`, so pair order counts."""

    def test_pinned_ranks_and_witnesses(self):
        rng = np.random.default_rng(909)
        pool = []
        for _ in range(300):
            k, l = rng.integers(2, 11, size=2)
            pool.append(rng.random((k, l)) < rng.uniform(0.15, 0.85))
        pool += [rng.random((10, 10)) < 0.5 for _ in range(12)]
        h = hashlib.sha256()
        for bits in pool:
            rank, witness = exact_boolean_rank(BoolMatrix(bits))
            h.update(f"{rank}:{_pairs_digest(witness)}\n".encode())
        assert h.hexdigest() == (
            "136dd3c177c65db4987df0fc5597b48c7675bc987c2acf1f8453f2637255fcc9"
        )

    def test_pinned_budget_errors(self):
        concepts, search = "concept enumeration", "exact rank search"
        expected = [
            [(50, concepts, 7, 10), (500, search, 8, 9), (5000, 9)],
            [(50, concepts, 8, 10), (500, 8), (5000, 8)],
            [(50, concepts, 7, 11), (500, concepts, 7, 11), (5000, search, 7, 10)],
            [(50, concepts, 6, 11), (500, concepts, 6, 11), (5000, 10)],
        ]
        rng = np.random.default_rng(910)
        for side, outcomes in zip((10, 10, 11, 11), expected):
            m = BoolMatrix(rng.random((side, side)) < 0.5)
            for outcome in outcomes:
                budget = outcome[0]
                if len(outcome) == 2:
                    assert exact_boolean_rank(m, max_search=budget)[0] == outcome[1]
                    continue
                _, stage, lb, ub = outcome
                with pytest.raises(SearchBudgetError) as info:
                    exact_boolean_rank(m, max_search=budget)
                assert (info.value.lower_bound, info.value.upper_bound) == (lb, ub)
                assert str(info.value) == (
                    f"{stage} exceeded {budget} nodes; best bounds so far: {lb} <= rank <= {ub}"
                )


class _OutOfBudget(Exception):
    """Carries `_reference_rank`'s error outcome out of its recursion."""


def _reference_rank(bits: np.ndarray, max_search: int) -> tuple:
    """`exact_boolean_rank` as it was before its cells were renumbered by
    branching order: every child is its own call that charges the budget
    and then checks for a full cover, the bound and the memo, and each node
    walks `order` to its branching cell.  Returns ("rank", rank, witness
    bytes, nodes spent) or ("error", message, lower bound, upper bound,
    stage); the same nodes in the same order, so the same budget errors."""
    k, l = bits.shape

    def pack(v):
        return int.from_bytes(np.packbits(v, bitorder="little").tobytes(), "little")

    def set_bits(mask):
        return [b for b in range(mask.bit_length()) if mask >> b & 1]

    ones_mask = pack(bits.ravel())
    if ones_mask == 0:
        return "rank", 0, b"", 0
    budget = [max_search]

    def out_of_budget(stage, lb, ub):
        message = f"{stage} exceeded {max_search} nodes; best bounds so far: {lb} <= rank <= {ub}"
        return _OutOfBudget(("error", message, lb, ub, stage))

    # concepts: closures of column sets, breadth first from the empty set
    row_cols = [pack(row) for row in bits]
    col_rows = [pack(col) for col in bits.T]
    seen = {0: (1 << k) - 1}
    queue = [0]
    try:
        for b in queue:
            for j in range(l):
                if b >> j & 1:
                    continue
                budget[0] -= 1
                if budget[0] < 0:
                    raise out_of_budget("concept enumeration", 1, min(k, l))
                rows2 = seen[b] & col_rows[j]
                if not rows2:
                    continue
                closed = (1 << l) - 1
                for i in set_bits(rows2):
                    closed &= row_cols[i]
                if closed not in seen:
                    seen[closed] = rows2
                    queue.append(closed)
        covers = [(sum(cols << i * l for i in set_bits(rows)), rows, cols)
                  for cols, rows in seen.items() if cols]
        covers.sort(key=lambda t: (-t[0].bit_count(), t[1], t[2]))
        covering = {b: [] for b in set_bits(ones_mask)}
        for idx, (cells, _, _) in enumerate(covers):
            for b in set_bits(cells):
                covering[b].append(idx)
        order = sorted(covering, key=lambda b: len(covering[b]))
        max_cover = max(c[0].bit_count() for c in covers)

        best = []
        uncovered = ones_mask
        while uncovered:
            pick = max(range(len(covers)), key=lambda i: (covers[i][0] & uncovered).bit_count())
            best.append(pick)
            uncovered &= ~covers[pick][0]
        chosen = []
        memo = {}

        def search(uncovered, depth):
            nonlocal best
            budget[0] -= 1
            if budget[0] < 0:
                lb = math.ceil(ones_mask.bit_count() / max_cover)
                raise out_of_budget("exact rank search", lb, min(len(best), k, l))
            if not uncovered:
                if depth < len(best):
                    best = list(chosen)
                return
            if depth + math.ceil(uncovered.bit_count() / max_cover) >= len(best):
                return
            prev = memo.get(uncovered)
            if prev is not None and prev <= depth:
                return
            memo[uncovered] = depth
            pick_cell = next(b for b in order if uncovered >> b & 1)
            options = sorted(covering[pick_cell],
                             key=lambda i: -(covers[i][0] & uncovered).bit_count())
            for idx in options:
                chosen.append(idx)
                search(uncovered & ~covers[idx][0], depth + 1)
                chosen.pop()

        search(ones_mask, 0)
    except _OutOfBudget as exc:
        return exc.args[0]
    witness = b"".join(
        np.array([rows >> i & 1 for i in range(k)], dtype=np.uint8).tobytes()
        + np.array([cols >> j & 1 for j in range(l)], dtype=np.uint8).tobytes()
        for _, rows, cols in sorted((covers[i] for i in best), key=lambda c: (c[1], c[2]))
    )
    return "rank", len(best), witness, max_search - budget[0]


def _outcome(m: BoolMatrix, max_search: int) -> tuple:
    """`exact_boolean_rank`'s result in `_reference_rank`'s terms, without
    the node count, which only the reference reports."""
    try:
        rank, witness = exact_boolean_rank(m, max_search=max_search)
    except SearchBudgetError as exc:
        assert exc.nodes == max_search
        return "error", str(exc), exc.lower_bound, exc.upper_bound, exc.stage
    pairs = b"".join(q.tobytes() + r.tobytes() for q, r in witness.pairs)
    return "rank", rank, pairs


def _differential_matrices() -> list[np.ndarray]:
    rng = np.random.default_rng(1919)
    mats = []
    for _ in range(320):
        k, l = rng.integers(1, 13, size=2)
        mats.append((rng.random((k, l)) < rng.uniform(0.1, 0.9)).astype(np.uint8))
    for side in (1, 5, 12):
        mats += [np.ones((side, side), dtype=np.uint8), np.eye(side, dtype=np.uint8)]
    mats += [np.ones((1, 12), dtype=np.uint8), np.ones((12, 1), dtype=np.uint8)]
    mats += [(rng.random((1, 12)) < 0.5).astype(np.uint8), (rng.random((12, 1)) < 0.5).astype(np.uint8)]
    return mats


class TestSearchAgainstReference:
    """The exact search against `_reference_rank`, which prunes by the area
    bound alone.  The fooling-set bound prunes only subtrees that hold no
    shorter cover, so the search solves wherever the reference solves, with
    the same rank and witness, in no more nodes; where it runs out, it
    runs out in the reference's stage and within the reference's bounds."""

    BUDGETS = (0, 3, 17, 50, 200, 500, 1000, 3000, 5000, 20000, DEFAULT_MAX_SEARCH)

    def test_solves_where_the_reference_solves(self):
        for bits in _differential_matrices():
            m = BoolMatrix(bits)
            full = _reference_rank(bits, DEFAULT_MAX_SEARCH)
            assert full[0] == "rank"
            rank, nodes = full[1], full[3]
            # the reference's own node count is enough
            assert _outcome(m, nodes) == full[:3], bits.shape
            for budget in self.BUDGETS:
                outcome = _outcome(m, budget)
                if outcome[0] == "rank":
                    assert outcome == full[:3], (bits.shape, budget)
                    continue
                # the reference solves at every budget from its node count on
                assert budget < nodes, (bits.shape, budget)
                _, message, lb, ub, stage = outcome
                _, _, ref_lb, ref_ub, ref_stage = _reference_rank(bits, budget)
                assert stage == ref_stage, (bits.shape, budget)
                assert message == (
                    f"{stage} exceeded {budget} nodes; best bounds so far: {lb} <= rank <= {ub}"
                )
                assert ref_lb <= lb <= rank <= ub <= ref_ub, (bits.shape, budget)

    def test_concept_enumeration_takes_the_reference_nodes(self):
        for bits in _differential_matrices():
            nodes = _concept_nodes(BoolMatrix(bits))
            if nodes:
                assert _reference_rank(bits, nodes - 1)[-1] == "concept enumeration"
            assert _reference_rank(bits, nodes)[-1] != "concept enumeration"

    def test_solves_in_at_most_the_reference_node_count(self):
        rng = np.random.default_rng(1920)
        fewer = 0
        for _ in range(40):
            side = rng.integers(8, 12)
            bits = (rng.random((side, side)) < 0.4).astype(np.uint8)
            m = BoolMatrix(bits)
            reference = _reference_rank(bits, DEFAULT_MAX_SEARCH)
            assert reference[0] == "rank"
            # the search fails at budget lo (-1 stands for "below 0") and solves at hi
            lo, hi = -1, DEFAULT_MAX_SEARCH
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if _outcome(m, mid)[0] == "rank":
                    hi = mid
                else:
                    lo = mid
            assert _outcome(m, hi) == reference[:3]
            assert hi <= reference[3]
            fewer += hi < reference[3]
        assert fewer >= 35


def _concept_nodes(m: BoolMatrix) -> int:
    """The nodes concept enumeration takes: the smallest budget at which
    `exact_boolean_rank` does not run out in that stage."""
    lo, hi = -1, DEFAULT_MAX_SEARCH
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _outcome(m, mid)[-1] == "concept enumeration":
            lo = mid
        else:
            hi = mid
    return hi


class TestFoolingSetBounds:
    """Both stages' fooling-set lower bounds against the brute-force rank."""

    def test_bounds_bracket_the_brute_force_rank(self):
        rng = np.random.default_rng(2424)
        pool = [np.zeros((4, 6)), np.zeros((6, 6)), np.ones((5, 6)), np.ones((6, 6))]
        pool += [np.eye(d) for d in range(1, 6)]
        for _ in range(300):
            # one side at most 5, which keeps the brute force under its work cap
            k, l = rng.integers(1, 6), rng.integers(1, 7)
            bits = rng.random((k, l)) < rng.uniform(0.1, 0.9)
            pool.append(bits.T if rng.random() < 0.5 else bits)
        search_stage = 0
        for bits in pool:
            m = BoolMatrix(bits.astype(np.uint8))
            # the brute force enumerates row patterns: give it the shorter side
            oracle = m if bits.shape[0] <= bits.shape[1] else BoolMatrix(m.bits.T)
            rank = next(r for r in itertools.count() if optimal_error_at_rank(oracle, r) == 0)
            assert _fooling_set_size(m) <= rank, bits.shape
            # at the concept nodes the search stage runs out at its root
            for budget in (0, 3, 17, _concept_nodes(m)):
                try:
                    solved, _ = exact_boolean_rank(m, max_search=budget)
                except SearchBudgetError as exc:
                    assert exc.lower_bound <= rank <= exc.upper_bound, (bits.shape, budget)
                    search_stage += exc.stage == "exact rank search"
                else:
                    assert solved == rank, (bits.shape, budget)
        assert search_stage >= 250


class TestAssoParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau": 0.0},
            {"tau": 1.2},
            {"w_plus": 0.0},
            {"w_plus": -1.0},
            {"w_minus": -0.5},
            {"max_rank": -1},
            {"max_rank": 2.5},
            {"max_rank": True},
            {"tau": float("nan")},
            {"w_plus": float("nan")},
            {"w_plus": float("inf")},
            {"w_minus": float("nan")},
            {"w_minus": float("inf")},
            {"tau": "0.7"},
            {"tau": None},
            {"w_minus": 1 + 0j},
            {"tau": True},
            {"w_plus": True},
            {"w_plus": 10**400},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InputError):
            AssoParams(**kwargs)


class TestTruncate:
    def test_truncation_to_two_flips_only_the_diagonal(self, example_matrix, example_factorization):
        t = truncate(example_factorization, 2)
        assert t.rank() == 2
        assert t.error == 1
        assert t.flip_cells() == [(2, 2, "1->0")]

    def test_full_rank_truncation_is_identity(self, example_factorization):
        assert truncate(example_factorization, 3) is example_factorization

    def test_truncate_to_zero(self, example_factorization):
        t = truncate(example_factorization, 0)
        assert t.rank() == 0
        assert t.error == 8

    def test_rejects_excess_rank(self, example_factorization):
        with pytest.raises(InputError, match="truncate"):
            truncate(example_factorization, 4)

    def test_rejects_negative_rank(self, example_factorization):
        with pytest.raises(InputError, match="truncate"):
            truncate(example_factorization, -1)

    @pytest.mark.parametrize("n", [1.5, 2.0, True])
    def test_rejects_a_rank_that_is_not_an_integer(self, example_factorization, n):
        with pytest.raises(InputError, match="cannot truncate rank-3 factorization to"):
            truncate(example_factorization, n)

    def test_numpy_integer_rank(self, example_factorization):
        assert truncate(example_factorization, np.int64(2)) == truncate(example_factorization, 2)

    def test_needs_target(self, example_factorization):
        detached = Factorization.from_text(example_factorization.to_text())
        with pytest.raises(InputError, match="target"):
            truncate(detached, 1)


class TestOptimalErrorAtRank:
    def test_refuses_more_than_twenty_rows(self):
        tall = BoolMatrix(np.ones((21, 1), dtype=np.uint8))
        with pytest.raises(CapacityError, match="exhaustive oracle supports at most 20 rows, got 21"):
            optimal_error_at_rank(tall, 1)

    @pytest.mark.parametrize("rank", [-1, 1.5, 2.0, True])
    def test_rank_must_be_a_non_negative_integer(self, example_matrix, rank):
        with pytest.raises(InputError, match="rank must be an integer >= 0"):
            optimal_error_at_rank(example_matrix, rank)

    def test_numpy_integer_rank(self, example_matrix):
        assert optimal_error_at_rank(example_matrix, np.int64(2)) == 1


class TestFactorizationType:
    @pytest.mark.parametrize("shape", [(-1, 2), (2, -1)])
    def test_refuses_a_negative_shape(self, shape):
        with pytest.raises(InputError, match=re.escape(f"invalid target shape {shape}")):
            Factorization((), shape)

    @pytest.mark.parametrize("shape", [(2,), 4, (2, 3, 1), [2, 3], "ab"])
    def test_refuses_a_shape_that_is_not_a_pair(self, shape):
        # (2,) and 4 once escaped as bare ValueError and TypeError from unpacking
        with pytest.raises(InputError, match=re.escape(f"invalid target shape {shape}")):
            Factorization((), shape)

    @pytest.mark.parametrize(
        "shape, error, message",
        [
            ((2.0, 2), None, "invalid target shape (2.0, 2)"),
            ((2, True), None, "invalid target shape (2, True)"),
            ((2, 2), 1.5, "error must be an integer, got 1.5"),
            ((2, 2), True, "error must be an integer, got True"),
        ],
    )
    def test_refuses_numbers_that_are_not_integers(self, shape, error, message):
        # each was accepted, and to_text then wrote a header that from_text refuses
        with pytest.raises(InputError, match=re.escape(message)):
            Factorization((), shape, error=error)

    def test_refuses_a_target_of_another_shape(self):
        target = BoolMatrix(np.zeros((3, 2), dtype=np.uint8))
        message = re.escape("target shape (3, 2) does not match (2, 3)")
        with pytest.raises(InputError, match=message):
            Factorization((), (2, 3), target=target)
        with pytest.raises(InputError, match=message):
            Factorization((), (2, 3)).with_target(target)

    @pytest.mark.parametrize("error", [-1, 7])
    def test_refuses_an_error_outside_the_cells(self, error):
        with pytest.raises(InputError, match=re.escape(f"error {error} outside [0, 6]")):
            Factorization((), (2, 3), error=error)

    def test_unknown_error_is_not_serialized(self, example_factorization):
        bare = Factorization(example_factorization.pairs, (4, 4), LABELS, LABELS)
        assert bare.error is None
        with pytest.raises(InputError, match="cannot serialize a factorization with unknown error"):
            bare.to_text()
        assert Factorization.from_text(example_factorization.to_text()) == example_factorization

    def test_flip_cells_and_truncate_need_the_target(self, example_factorization):
        bare = Factorization(example_factorization.pairs, (4, 4), LABELS, LABELS)
        with pytest.raises(InputError, match="factorization has no target attached"):
            bare.flip_cells()
        with pytest.raises(InputError, match="truncation needs the target attached"):
            truncate(bare, 1)
        assert truncate(example_factorization, 1).rank() == 1

    @pytest.mark.parametrize("q", [[257, 1], [0.5, 1], [np.nan, 1]])
    def test_refuses_vector_entries_a_uint8_cast_would_change(self, q):
        with pytest.raises(InputError, match="q vector entries must be 0 or 1"):
            Factorization(((np.array(q), np.array([1, 1])),), (2, 2))
        with pytest.raises(InputError, match="r vector entries must be 0 or 1"):
            Factorization(((np.array([1, 1]), np.array(q)),), (2, 2))

    def test_callers_writable_vectors_stay_writable_and_apart(self):
        q, r = np.array([1, 0], dtype=np.uint8), np.array([0, 1], dtype=np.uint8)
        f = Factorization(((q, r),), (2, 2))
        q[1] = 1
        r[0] = 1
        assert f.pairs[0][0].tolist() == [1, 0] and f.pairs[0][1].tolist() == [0, 1]
        shared = np.array([1, 1], dtype=np.uint8)
        shared.setflags(write=False)
        assert Factorization(((shared, shared),), (2, 2)).pairs[0][0] is shared

    def test_rank_bounded_by_dimensions(self):
        pair = (np.ones(2, dtype=np.uint8), np.ones(3, dtype=np.uint8))
        with pytest.raises(InputError, match="exceeds"):
            Factorization((pair, pair, pair), (2, 3))

    def test_vector_length_checked(self):
        with pytest.raises(InputError, match="length"):
            Factorization(((np.ones(3, dtype=np.uint8), np.ones(3, dtype=np.uint8)),), (2, 3))

    def test_label_count_checked(self):
        with pytest.raises(InputError, match="expected 2"):
            Factorization((), (2, 3), row_labels=("a",))
        with pytest.raises(InputError, match="expected 2"):
            Factorization.from_text("#rows a,b,c\n0 2 2 4\n")

    def test_labels_checked_unless_they_are_the_targets(self):
        target = BoolMatrix(np.zeros((2, 3), dtype=np.uint8), ("a", "b"), ("x", "y", "z"))
        f = Factorization((), (2, 3), target.row_labels, target.col_labels, 0, target)
        assert f.row_labels is target.row_labels and f.col_labels is target.col_labels
        # a tuple of the wrong length is refused beside a target of this shape
        with pytest.raises(InputError, match="row labels: expected 2 names, got 3"):
            Factorization((), (2, 3), ("a", "b", "c"), target.col_labels, 0, target)
        with pytest.raises(InputError, match="col labels: expected 3 names, got 2"):
            Factorization((), (2, 3), target.row_labels, ("x", "y"), 0, target)
        # and so are a target's own labels when its shape is not this one
        with pytest.raises(InputError, match="col labels: expected 2 names, got 3"):
            Factorization((), (2, 2), target.row_labels, target.col_labels, 0, target)
        with pytest.raises(InputError, match="invalid row label"):
            Factorization((), (2, 3), ("a", "b c"), target.col_labels, 0, target)

    def test_duplicate_label_header_refused(self):
        with pytest.raises(InputError, match="duplicate #rows"):
            Factorization.from_text("#rows a,b\n#rows c,d\n0 2 2 0\n")

    @pytest.mark.parametrize("error", [-1, 5, 999])
    def test_error_outside_cell_count_refused(self, error):
        with pytest.raises(InputError, match=r"outside \[0, 4\]"):
            Factorization.from_text(f"0 2 2 {error}\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("-1 2 2 0\n", "negative pair count -1"),
            ("1 -2 2 0\n10\n10\n", r"negative dimensions \(-2, 2\)"),
            ("0 2 -1 0\n", r"negative dimensions \(2, -1\)"),
        ],
    )
    def test_negative_header_refused_by_name(self, text, message):
        # these once reported "expected -2 vector lines" and "expected -2 characters"
        with pytest.raises(InputError, match=message):
            Factorization.from_text(text)

    def test_empty_label_refused(self):
        with pytest.raises(InputError, match="label"):
            Factorization.from_text("#rows a,,b\n0 3 2 0\n")

    def test_error_tracks_target(self, example_matrix, example_factorization):
        assert example_factorization.error == hamming_error(
            example_matrix, example_factorization.reconstruct()
        )

    def test_file_round_trip(self, example_factorization):
        parsed = Factorization.from_text(example_factorization.to_text())
        assert parsed == Factorization(
            example_factorization.pairs,
            example_factorization.shape,
            example_factorization.row_labels,
            example_factorization.col_labels,
            example_factorization.error,
        )
        # a second round trip is byte-identical
        assert parsed.to_text() == example_factorization.to_text()

    def test_expected_file_layout(self, example_factorization):
        assert example_factorization.to_text() == (
            "#rows a,b,c,d\n#cols a,b,c,d\n"
            "3 4 4 0\n"
            "0101\n1001\n"
            "1100\n1100\n"
            "0010\n0010\n"
        )

    @pytest.mark.parametrize(
        "text,message",
        [
            ("1 2 2\n10\n01\n", "n k l error"),
            ("1 2 2 0\n10\n", "vector lines"),
            ("1 2 2 0\n12\n01\n", "q vector"),
            ("1 2 2 0\n10\n011\n", "r vector"),
            ("", "missing"),
        ],
    )
    def test_parse_errors(self, text, message):
        with pytest.raises(InputError, match=message):
            Factorization.from_text(text)


class TestBruteForceOracle:
    def test_rank_zero_counts_ones(self, example_matrix):
        assert optimal_error_at_rank(example_matrix, 0) == 8

    def test_zero_error_at_true_rank(self, example_matrix):
        assert optimal_error_at_rank(example_matrix, 3) == 0

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_empty_matrix_has_zero_error(self, shape, rank):
        assert optimal_error_at_rank(BoolMatrix(np.zeros(shape, dtype=np.uint8)), rank) == 0

    def test_work_cap(self, monkeypatch):
        import liftbmf.factorize as factorize_module

        monkeypatch.setattr(factorize_module, "_ORACLE_WORK_CAP", 1000)
        big = BoolMatrix(np.ones((12, 12), dtype=np.uint8))
        with pytest.raises(CapacityError, match="exhaustive"):
            optimal_error_at_rank(big, 4)
