import numpy as np
import pytest

from liftbmf.boolmat import BoolMatrix
from liftbmf.factorize import Factorization

LABELS = ("a", "b", "c", "d")

# 4x4 evidence matrix used throughout the worked examples
EXAMPLE_P = np.array(
    [
        [1, 1, 0, 0],
        [1, 1, 0, 1],
        [0, 0, 1, 0],
        [1, 0, 0, 1],
    ],
    dtype=np.uint8,
)

# its rank-3 factors, pairs in display order
EXAMPLE_Q = np.array([[0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=np.uint8)
EXAMPLE_R = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=np.uint8)


def _known_atoms(cond) -> dict:
    """`cond.known`, indexed by atom id, as a mapping from each known atom to its value."""
    ids = cond.model._ids
    return {ids.atom(i): v for i, v in enumerate(cond.known) if v is not None}


@pytest.fixture
def example_matrix() -> BoolMatrix:
    return BoolMatrix(EXAMPLE_P, LABELS, LABELS)


@pytest.fixture
def example_factors() -> tuple[BoolMatrix, BoolMatrix]:
    return (
        BoolMatrix(EXAMPLE_Q, LABELS, None),
        BoolMatrix(EXAMPLE_R, LABELS, None),
    )


@pytest.fixture
def example_factorization(example_matrix) -> Factorization:
    pairs = tuple(
        (EXAMPLE_Q[:, i].copy(), EXAMPLE_R[:, i].copy()) for i in range(3)
    )
    return Factorization(pairs, (4, 4), LABELS, LABELS).with_target(example_matrix)


def random_matrix(rng, k, l, density=0.4, labeled=False) -> BoolMatrix:
    bits = (rng.random((k, l)) < density).astype(np.uint8)
    if labeled:
        rows = tuple(f"x{i}" for i in range(k))
        cols = tuple(f"y{j}" for j in range(l))
        return BoolMatrix(bits, rows, cols)
    return BoolMatrix(bits)
