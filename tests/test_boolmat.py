import re

import numpy as np
import pytest

from liftbmf.boolmat import (
    BoolMatrix,
    boolean_product,
    flip_counts,
    hamming_error,
    integer_product_entry,
)
from liftbmf.errors import InputError

from conftest import LABELS, random_matrix


class TestBooleanProduct:
    def test_example_factors_reproduce_evidence_matrix(self, example_matrix, example_factors):
        q, r = example_factors
        assert boolean_product(q, r) == example_matrix

    def test_zero_factors_annihilate(self):
        q = BoolMatrix(np.zeros((4, 1), dtype=np.uint8))
        r = BoolMatrix(np.zeros((3, 1), dtype=np.uint8))
        assert boolean_product(q, r).bits.sum() == 0
        assert boolean_product(q, r).shape == (4, 3)

    def test_vector_product(self):
        # single pair of unary relations: 1s exactly at rows {b,d} x cols {a,d}
        q = BoolMatrix(np.array([[0], [1], [0], [1]], dtype=np.uint8), LABELS, None)
        r = BoolMatrix(np.array([[1], [0], [0], [1]], dtype=np.uint8), LABELS, None)
        product = boolean_product(q, r)
        expected = np.zeros((4, 4), dtype=np.uint8)
        expected[np.ix_([1, 3], [0, 3])] = 1
        assert np.array_equal(product.bits, expected)
        assert product.row_labels == LABELS
        assert product.col_labels == LABELS

    def test_dimension_mismatch_names_both_shapes(self):
        q = BoolMatrix(np.zeros((4, 2), dtype=np.uint8))
        r = BoolMatrix(np.zeros((3, 1), dtype=np.uint8))
        with pytest.raises(InputError, match=r"4x2.*3x1"):
            boolean_product(q, r)

    def test_agrees_with_integer_entries(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 1000:
            k, l, n = rng.integers(1, 8, size=3)
            q = random_matrix(rng, k, n)
            r = random_matrix(rng, l, n)
            product = boolean_product(q, r)
            for i in range(k):
                for j in range(l):
                    entry = integer_product_entry(q, r, i, j)
                    assert product.bits[i, j] == (1 if entry >= 1 else 0)
                    checked += 1

    def test_float32_product_matches_the_int64_product(self):
        # the product is taken in float32; the int64 product is the oracle,
        # on 0-sized shapes, rank 0, dense and sparse factors
        rng = np.random.default_rng(29)
        shapes = [(0, 0, 0), (0, 3, 2), (3, 0, 2), (4, 5, 0), (0, 0, 3), (1, 1, 1)]
        shapes += [tuple(rng.integers(0, 40, size=3)) for _ in range(300)]
        shapes += [(2, 3, 300), (70, 65, 129)]
        for k, l, n in shapes:
            density = rng.choice([0.0, 0.02, 0.3, 0.9, 1.0])
            q = BoolMatrix((rng.random((k, n)) < density).astype(np.uint8))
            r = BoolMatrix((rng.random((l, n)) < density).astype(np.uint8))
            expected = (q.bits.astype(np.int64) @ r.bits.T.astype(np.int64)) >= 1
            product = boolean_product(q, r)
            assert product.shape == (k, l)
            assert product.bits.dtype == np.uint8
            assert np.array_equal(product.bits, expected.astype(np.uint8))

    def test_monotone_in_added_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            k, l, n = rng.integers(1, 7, size=3)
            q = random_matrix(rng, k, n)
            r = random_matrix(rng, l, n)
            before = boolean_product(q, r)
            q2 = BoolMatrix(np.hstack([q.bits, (rng.random((k, 1)) < 0.5).astype(np.uint8)]))
            r2 = BoolMatrix(np.hstack([r.bits, (rng.random((l, 1)) < 0.5).astype(np.uint8)]))
            after = boolean_product(q2, r2)
            assert not ((before.bits == 1) & (after.bits == 0)).any()


class TestIntegerProductEntry:
    def test_example_overcount(self, example_factors):
        q, r = example_factors
        # Boolean product is 1 at (row b, col a) but the integer product is 2
        assert integer_product_entry(q, r, 1, 0) == 2

    def test_single_overlap(self, example_factors):
        q, r = example_factors
        assert integer_product_entry(q, r, 0, 0) == 1

    def test_zero_row(self):
        q = BoolMatrix(np.array([[0, 0], [1, 1]], dtype=np.uint8))
        r = BoolMatrix(np.array([[1, 1], [1, 0]], dtype=np.uint8))
        assert integer_product_entry(q, r, 0, 0) == 0
        assert integer_product_entry(q, r, 0, 1) == 0

    def test_out_of_range(self, example_factors):
        q, r = example_factors
        with pytest.raises(InputError, match="out of range"):
            integer_product_entry(q, r, 4, 0)
        with pytest.raises(InputError, match="out of range"):
            integer_product_entry(q, r, 0, -1)


class TestHammingError:
    def test_rank2_truncation_flips_one_entry(self, example_matrix, example_factors):
        q, r = example_factors
        q2 = BoolMatrix(q.bits[:, :2])
        r2 = BoolMatrix(r.bits[:, :2])
        approx = boolean_product(q2, r2)
        assert hamming_error(example_matrix, approx) == 1
        counts = flip_counts(example_matrix, approx)
        assert counts == (1, 1, 0)
        # the single flip is the diagonal entry of the third constant
        assert example_matrix.bits[2, 2] == 1 and approx.bits[2, 2] == 0

    def test_zero_on_equal(self, example_matrix):
        assert hamming_error(example_matrix, example_matrix) == 0

    def test_against_all_zeros(self, example_matrix):
        zeros = BoolMatrix(np.zeros((4, 4), dtype=np.uint8))
        assert hamming_error(example_matrix, zeros) == 8
        assert flip_counts(example_matrix, zeros) == (8, 8, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError, match="mismatch"):
            hamming_error(
                BoolMatrix(np.zeros((2, 2), dtype=np.uint8)),
                BoolMatrix(np.zeros((2, 3), dtype=np.uint8)),
            )

    def test_metric_properties(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            k, l = rng.integers(1, 7, size=2)
            a, b, c = (random_matrix(rng, k, l) for _ in range(3))
            assert hamming_error(a, b) == hamming_error(b, a)
            assert (hamming_error(a, b) == 0) == (np.array_equal(a.bits, b.bits))
            assert hamming_error(a, c) <= hamming_error(a, b) + hamming_error(b, c)


class TestConstruction:
    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2), ()])
    def test_refuses_arrays_that_are_not_two_dimensional(self, shape):
        message = f"matrix must be 2-dimensional, got shape {shape}"
        with pytest.raises(InputError, match=re.escape(message)):
            BoolMatrix(np.zeros(shape, dtype=np.uint8))

    def test_rejects_non_binary_entries(self):
        with pytest.raises(InputError, match="0 or 1"):
            BoolMatrix(np.array([[0, 2]]))

    @pytest.mark.parametrize(
        "entries",
        [
            [[0.5, 1], [1, 1]],
            [[1.7, 0], [0, 1]],
            [[np.nan, 1], [1, 1]],
            [[256, 0], [0, 1]],
        ],
    )
    def test_refuses_entries_a_uint8_cast_would_change(self, entries):
        # each of these used to be truncated or wrapped to a 0/1 matrix
        with pytest.raises(InputError, match="matrix entries must be 0 or 1"):
            BoolMatrix(np.array(entries))

    def test_accepts_bools_and_integral_floats(self):
        for entries in ([[True, False]], [[1.0, 0.0]], [[1, 0]]):
            assert BoolMatrix(np.array(entries)).bits.tolist() == [[1, 0]]

    def test_rejects_bad_labels(self):
        with pytest.raises(InputError, match="expected 2"):
            BoolMatrix(np.zeros((2, 2), dtype=np.uint8), ("a",), None)
        with pytest.raises(InputError, match="not unique"):
            BoolMatrix(np.zeros((2, 2), dtype=np.uint8), ("a", "a"), None)
        with pytest.raises(InputError, match="invalid"):
            BoolMatrix(np.zeros((1, 1), dtype=np.uint8), ("a b",), None)

    def test_bits_are_read_only(self, example_matrix):
        with pytest.raises(ValueError):
            example_matrix.bits[0, 0] = 0

    def test_callers_writable_array_stays_writable_and_apart(self):
        bits = np.zeros((2, 2), dtype=np.uint8)
        matrix = BoolMatrix(bits)
        bits[0, 0] = 1
        assert matrix.bits[0, 0] == 0
        row = bits[1]  # a writable view is the caller's too
        matrix = BoolMatrix(row.reshape(1, 2))
        row[1] = 1
        assert matrix.bits.tolist() == [[0, 0]]

    def test_read_only_array_is_shared(self):
        bits = np.eye(3, dtype=np.uint8)
        bits.setflags(write=False)
        assert BoolMatrix(bits).bits is bits


class TestTextFormat:
    def test_round_trip_with_labels(self, example_matrix):
        text = example_matrix.to_text()
        assert BoolMatrix.from_text(text) == example_matrix

    def test_round_trip_unlabeled(self):
        rng = np.random.default_rng(3)
        m = random_matrix(rng, 5, 7)
        assert BoolMatrix.from_text(m.to_text()) == m

    def test_expected_layout(self, example_matrix):
        assert example_matrix.to_text() == (
            "#rows a,b,c,d\n#cols a,b,c,d\n4 4\n1100\n1101\n0010\n1001\n"
        )

    def test_comments_and_blank_lines_ignored(self):
        text = "# generated\n\n2 2\n10\n# mid comment\n01\n"
        m = BoolMatrix.from_text(text)
        assert np.array_equal(m.bits, np.eye(2, dtype=np.uint8))

    @pytest.mark.parametrize(
        "text,message",
        [
            ("2 2\n10\n0\n", "expected 2 characters"),
            ("2 2\n10\n012\n", "expected 2 characters"),
            ("2 2\n10\n0x\n", "0 or 1"),
            ("2 2\n10\n", "expected 2 data rows"),
            ("2 2\n10\n01\n11\n", "more than 2 data rows"),
            ("2\n10\n01\n", "expected 'k l'"),
            ("a b\n10\n01\n", "two integers"),
            ("#rows a\n#rows b\n1 1\n0\n", "duplicate"),
            ("10\n01\n", "expected 'k l'"),
            ("", "missing 'k l'"),
            ("#rows a,b,c\n2 2\n10\n01\n", "expected 2 names"),
        ],
    )
    def test_strict_errors(self, text, message):
        with pytest.raises(InputError, match=message):
            BoolMatrix.from_text(text)

    @pytest.mark.parametrize("text", ["-1 2\n", "2 -1\n10\n01\n", "-2 -3\n"])
    def test_negative_dimensions_refused(self, text):
        k, l = map(int, text.split("\n")[0].split())
        with pytest.raises(InputError, match=re.escape(f"negative dimensions {(k, l)}")):
            BoolMatrix.from_text(text)

    def test_empty_label_refused(self):
        # names are split as written: a stray comma is an error, not dropped
        with pytest.raises(InputError, match="label"):
            BoolMatrix.from_text("#rows a,,b\n2 2\n10\n01\n")

    def test_empty_labels_round_trip(self):
        m = BoolMatrix(np.zeros((0, 0), dtype=np.uint8), (), ())
        assert BoolMatrix.from_text(m.to_text()) == m
