"""Output checks computed with numpy alone, apart from liftbmf."""
from __future__ import annotations

import numpy as np

# |lhs - rhs| tolerance of the reduction acceptance criterion
EQUIVALENCE_TOLERANCE = 1e-9


class CheckFailed(Exception):
    """An output disagrees with the benchmark's own computation."""


class OpFailed(Exception):
    """The operation gave no usable answer; counted in `failed`."""


def boolean_product(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(k x n) and (l x n) 0/1 factors -> k x l Boolean product."""
    return ((q.astype(np.int64) @ r.T.astype(np.int64)) > 0).astype(np.uint8)


def fooling_set_size(bits: np.ndarray) -> int:
    """Greedy fooling set: 1-cells no two of which fit in one all-ones
    rectangle.  Its size is a lower bound on the Boolean rank."""
    chosen: list[tuple[int, int]] = []
    for i, j in zip(*np.nonzero(bits)):
        if all(not (bits[i, b] and bits[a, j]) for a, b in chosen):
            chosen.append((i, j))
    return len(chosen)


def mean_bernoulli_kld(reference: np.ndarray, estimate: np.ndarray, eps: float = 1e-6) -> float:
    """Mean over atoms of KL(Bernoulli(p) || Bernoulli(q)), q clamped to [eps, 1-eps]."""
    p = reference
    q = np.clip(estimate, eps, 1.0 - eps)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (np.where(p > 0, p * np.log(p / q), 0.0)
                 + np.where(p < 1, (1 - p) * np.log((1 - p) / (1 - q)), 0.0))
    return float(terms.mean())


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)
