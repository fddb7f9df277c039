"""Experiment harness: synthetic evidence, curve sweeps, CSV output.

Everything here is deterministic given the seeds; sweeps iterate in a
fixed order so output rows never depend on scheduling.
"""
from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .boolmat import BoolMatrix, boolean_product
from .errors import InputError, check_integer, check_real, is_integer
from .factorize import AssoParams, asso_factorize, exact_boolean_rank, truncate
from .mln import And, Atom, EvidenceSet, Iff, Implies, Model, Not, Or, exact_marginals, exact_query
from .reduction import encode_evidence, extend_model, matrix_to_evidence
from .sampler import ChainConfig, estimate_marginals, kld

__all__ = [
    "gen_synthetic",
    "error_curve",
    "equivalence_check",
    "random_equivalence_instance",
    "kld_curve",
    "planted_symmetry_instance",
    "block_matrix",
    "planted_block_matrix",
    "csv_text",
    "EQUIVALENCE_TOLERANCE",
]

EQUIVALENCE_TOLERANCE = 1e-9


def _check_ranks(ranks: Sequence[int]) -> None:
    for rank in ranks:
        check_integer(rank, "rank", 0)
    if any(b <= a for a, b in zip(ranks, ranks[1:])):
        raise InputError(f"ranks must be strictly increasing, got {tuple(ranks)}")


# --- synthetic evidence -----------------------------------------------------


def _checked_noise(noise: float) -> float:
    """`noise`, a flip probability, as a float in [0, 0.5); InputError otherwise."""
    noise = check_real(noise, "noise")
    if not 0.0 <= noise < 0.5:
        raise InputError(f"noise must be in [0, 0.5), got {noise}")
    return noise


def gen_synthetic(
    m: int,
    planted_rank: int,
    noise: float,
    seed: int,
    fill_target: float = 0.35,
) -> tuple[BoolMatrix, dict]:
    """Random m x m matrix of planted Boolean rank with entry-flip noise.

    Factor densities are calibrated so the expected fill lands near
    `fill_target` (the 20-50% band); every parameter is returned so file
    headers can record the full recipe.
    """
    check_integer(m, "matrix size", 1)
    check_integer(planted_rank, "planted rank", 0)
    if planted_rank > m:
        raise InputError(f"planted rank must be in [0, {m}], got {planted_rank}")
    noise = _checked_noise(noise)
    fill_target = check_real(fill_target, "fill target")
    if not 0.0 < fill_target < 1.0:
        raise InputError(f"fill target must be in (0, 1), got {fill_target}")
    check_integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    if planted_rank == 0:
        bits = np.zeros((m, m), dtype=np.uint8)
    else:
        density = math.sqrt(1.0 - (1.0 - fill_target) ** (1.0 / planted_rank))
        q = rng.random((m, planted_rank)) < density
        r = rng.random((m, planted_rank)) < density
        bits = ((q.astype(np.int64) @ r.T.astype(np.int64)) >= 1).astype(np.uint8)
    flips = rng.random((m, m)) < noise
    bits = bits ^ flips.astype(np.uint8)
    labels = tuple(f"c{i}" for i in range(m))
    meta = {
        "m": m,
        "planted_rank": planted_rank,
        "noise": noise,
        "seed": seed,
        "fill_target": fill_target,
        "rng": "numpy-pcg64",
    }
    return BoolMatrix(bits, labels, labels), meta


def block_matrix(block_sizes: Sequence[int]) -> BoolMatrix:
    """Square block-diagonal 1-matrix: entry (i, j) is 1 iff same block."""
    for size in block_sizes:
        check_integer(size, "block size", 0)
    m = sum(block_sizes)
    bits = np.zeros((m, m), dtype=np.uint8)
    start = 0
    for size in block_sizes:
        bits[start:start + size, start:start + size] = 1
        start += size
    labels = tuple(f"c{i}" for i in range(m))
    return BoolMatrix(bits, labels, labels)


def planted_block_matrix(
    m: int,
    blocks: int,
    noise: float,
    seed: int,
) -> tuple[BoolMatrix, dict]:
    """Random block-diagonal matrix (Boolean rank = blocks) with flip noise.

    Disjoint blocks are the planted family whose rank truncation cleanly
    separates structure from noise; `noise_count` in the metadata records
    the number of flipped entries.
    """
    check_integer(m, "matrix size", 0)
    check_integer(blocks, "blocks", 1)
    if m < 3 * blocks:
        raise InputError(f"need at least 3 constants per block: m={m}, blocks={blocks}")
    noise = _checked_noise(noise)
    check_integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    extra = rng.multinomial(m - 3 * blocks, np.full(blocks, 1.0 / blocks))
    sizes = [3 + int(e) for e in extra]
    base = block_matrix(sizes)
    flips = rng.random((m, m)) < noise
    bits = base.bits ^ flips.astype(np.uint8)
    meta = {
        "m": m,
        "blocks": blocks,
        "block_sizes": tuple(sizes),
        "noise": noise,
        "noise_count": int(flips.sum()),
        "seed": seed,
        "rng": "numpy-pcg64",
    }
    return BoolMatrix(bits, base.row_labels, base.col_labels), meta


# --- error-vs-rank curve ----------------------------------------------------


def error_curve(
    matrices: Sequence[BoolMatrix],
    ranks: Sequence[int],
    params: AssoParams | None = None,
) -> list[tuple[int, float]]:
    """Mean reconstruction error of the greedy factorization at each rank.

    The greedy pairs are nested, so a single run at the largest rank is
    truncated down for the smaller ones.
    """
    if not matrices:
        raise InputError("no matrices given")
    if not ranks:
        raise InputError("no ranks given")
    _check_ranks(ranks)
    base = params or AssoParams()
    run_params = AssoParams(base.tau, base.w_plus, base.w_minus, max(ranks))
    facts = [asso_factorize(m, run_params) for m in matrices]
    rows = []
    for rank in ranks:
        errors = [truncate(f, min(rank, f.rank())).error for f in facts]
        rows.append((rank, float(np.mean(errors))))
    return rows


# --- reduction equivalence spot checks --------------------------------------

_TEMPLATE_BUILDERS = (
    lambda s_x, s_y, p_xy, p_xx: Implies(And((s_x, p_xy)), s_y),
    lambda s_x, s_y, p_xy, p_xx: Implies(p_xy, Or((s_x, s_y))),
    lambda s_x, s_y, p_xy, p_xx: s_x,
    lambda s_x, s_y, p_xy, p_xx: Iff(p_xx, s_x),
    lambda s_x, s_y, p_xy, p_xx: Implies(p_xy, Not(s_y)),
)


def random_equivalence_instance(
    rng: np.random.Generator,
    max_m: int = 3,
) -> tuple[Model, BoolMatrix, Atom]:
    """Small random model, planted low-rank binary evidence, and a query,
    all drawn from `rng`, over 2 to `max_m` constants, at most 10."""
    if not isinstance(rng, np.random.Generator):
        raise InputError(f"rng must be a numpy Generator, got {type(rng).__name__}")
    check_integer(max_m, "max_m", 2)
    if max_m > 10:
        raise InputError(f"max_m must be at most 10, got {max_m}")
    m = int(rng.integers(2, max_m + 1))
    domain = tuple("abcdefghij"[:m])
    s_x, s_y = Atom("s", ("X",)), Atom("s", ("Y",))
    p_xy, p_xx = Atom("p", ("X", "Y")), Atom("p", ("X", "X"))
    weighted = []
    for _ in range(int(rng.integers(1, 3))):
        build = _TEMPLATE_BUILDERS[int(rng.integers(len(_TEMPLATE_BUILDERS)))]
        weight = float(rng.uniform(-2.0, 2.0))
        weighted.append((weight, build(s_x, s_y, p_xy, p_xx)))
    model = Model(domain, {"p": 2, "s": 1}, tuple(weighted))
    rank = int(rng.integers(0, 3))
    q = BoolMatrix(rng.integers(0, 2, size=(m, rank)).astype(np.uint8), domain, None)
    r = BoolMatrix(rng.integers(0, 2, size=(m, rank)).astype(np.uint8), domain, None)
    evidence_matrix = boolean_product(q, r)
    query = Atom("s", (domain[int(rng.integers(m))],))
    return model, evidence_matrix, query


def equivalence_check(instances: int, seed: int) -> list[tuple[int, float, bool]]:
    """Compare exact inference before and after the unary reduction."""
    if not is_integer(instances) or instances < 1:
        raise InputError(f"instances must be at least 1 and an integer, got {instances!r}")
    check_integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(instances):
        model, matrix, query = random_equivalence_instance(rng)
        evidence = matrix_to_evidence("p", matrix)
        lhs = exact_query(model, evidence, query)
        _, witness = exact_boolean_rank(matrix)
        result = encode_evidence("p", witness, model.predicates)
        extended = extend_model(model, result)
        rhs = exact_query(extended, result.unary_evidence, query)
        diff = abs(lhs - rhs)
        rows.append((i, diff, diff <= EQUIVALENCE_TOLERANCE))
    return rows


# --- KLD-vs-iteration curves -------------------------------------------------


def planted_symmetry_instance(
    block_sizes: Sequence[int] = (4, 4),
) -> tuple[Model, BoolMatrix, tuple[Atom, ...]]:
    """Model plus block-structured binary evidence with large symmetry classes.

    Links discourage two linked constants from both being marked, so the
    posterior modes are relabelings of each other: exactly the situation
    orbital jumps are built for.
    """
    matrix = block_matrix(block_sizes)
    domain = matrix.row_labels
    s_x, s_y = Atom("s", ("X",)), Atom("s", ("Y",))
    p_xy = Atom("p", ("X", "Y"))
    model = Model(
        domain,
        {"p": 2, "s": 1},
        (
            (2.0, Implies(And((s_x, p_xy)), Not(s_y))),
            (0.8, s_x),
        ),
    )
    queries = tuple(Atom("s", (c,)) for c in domain)
    return model, matrix, queries


def kld_curve(
    model: Model,
    evidence_matrix: BoolMatrix,
    pred: str,
    queries: Sequence[Atom],
    ranks: Sequence[int],
    seeds: Sequence[int],
    iterations: int,
    snapshot_every: int,
    reference: str = "exact",
    orbital_prob: float = 0.1,
    estimator: str = "rao_blackwell",
) -> list[tuple[int, str, str, float]]:
    """KLD against exact marginals at logged iterations, averaged over seeds.

    Chains run against the rank-truncated evidence approximations (the
    reduced and direct encodings induce the same posterior; chains use the
    direct one): per level and seed, a plain Gibbs chain (method 'gibbs')
    and one with orbital jumps at `orbital_prob` ('orbital-gibbs').
    reference='exact' measures each curve against marginals under the
    exact evidence and appends method='exact' terminal rows for the
    approximations themselves; reference='self' measures each chain against
    the marginals of its own approximation.
    """
    _check_ranks(ranks)
    if not seeds:
        raise InputError("at least one seed is required")
    for seed in seeds:
        check_integer(seed, "seed", 0)
    # the settings every chain shares, checked before any work
    ChainConfig(iterations, burn_in=0, orbital_move_probability=orbital_prob, estimator=estimator)
    check_integer(snapshot_every, "snapshot_every", 1)
    if snapshot_every > iterations:
        raise InputError(
            f"snapshot_every must be in [1, iterations={iterations}], got {snapshot_every}"
        )
    if reference not in ("exact", "self"):
        raise InputError(f"reference must be 'exact' or 'self', got {reference!r}")

    _, full = exact_boolean_rank(evidence_matrix)
    levels: list[tuple[str, EvidenceSet]] = []
    for rank in ranks:
        approx = truncate(full, min(rank, full.rank())).reconstruct()
        levels.append((str(rank), matrix_to_evidence(pred, approx)))
    if reference == "exact":
        levels.append(("exact", matrix_to_evidence(pred, evidence_matrix)))
    # exact marginals of every level, computed once; the last one is the
    # reference under reference='exact'
    exact = [exact_marginals(model, evidence, queries) for _, evidence in levels]

    rows: list[tuple[int, str, str, float]] = []
    for (label, evidence), own in zip(levels, exact):
        ref = exact[-1] if reference == "exact" else own
        for method, prob in (("gibbs", 0.0), ("orbital-gibbs", orbital_prob)):
            curves = []
            for seed in seeds:
                config = ChainConfig(
                    iterations=iterations,
                    burn_in=0,
                    seed=seed,
                    orbital_move_probability=prob,
                    estimator=estimator,
                )
                est = estimate_marginals(
                    model, evidence, queries, config, snapshot_every=snapshot_every
                )
                curves.append([(it, kld(ref, snap)) for it, snap in est.snapshots])
            for point in range(len(curves[0])):
                iteration = curves[0][point][0]
                mean = float(np.mean([c[point][1] for c in curves]))
                rows.append((iteration, method, label, mean))
    if reference == "exact":
        for (label, _), approx in zip(levels[:-1], exact):
            rows.append((iterations, "exact", label, kld(exact[-1], approx)))
    return rows


# --- CSV ---------------------------------------------------------------------


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def csv_text(columns: Sequence[str], rows: Iterable[Sequence], invocation: str | None = None) -> str:
    """A header comment, a column row, and the data, as CSV text."""
    lines = []
    if invocation:
        lines.append(f"# {invocation}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_format_value(v) for v in row))
    return "\n".join(lines) + "\n"
