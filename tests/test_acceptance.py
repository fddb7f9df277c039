"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every tolerance below is fixed here, not tuned at runtime.
"""
import time

import numpy as np

from liftbmf.boolmat import BoolMatrix, boolean_product, integer_product_entry
from liftbmf.experiments import (
    equivalence_check,
    error_curve,
    kld_curve,
    planted_block_matrix,
    planted_symmetry_instance,
)
from liftbmf.factorize import (
    Factorization,
    asso_factorize,
    exact_boolean_rank,
    optimal_error_at_rank,
    truncate,
)
from liftbmf.mln import Atom, EvidenceSet, enumerate_world_distribution, parse_model
from liftbmf.reduction import (
    constant_symmetry_classes,
    encode_evidence,
    matrix_to_evidence,
    symmetry_signature_classes,
)
from liftbmf.sampler import ChainConfig, _class_permutation, _class_positions, estimate_marginals
from liftbmf.mln import ground

from conftest import EXAMPLE_P, EXAMPLE_Q, EXAMPLE_R, LABELS


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_worked_example_fidelity():
    start = time.perf_counter()
    p = BoolMatrix(EXAMPLE_P, LABELS, LABELS)
    q = BoolMatrix(EXAMPLE_Q, LABELS, None)
    r = BoolMatrix(EXAMPLE_R, LABELS, None)
    product_ok = boolean_product(q, r) == p
    integer_ok = integer_product_entry(q, r, 1, 0) == 2
    pairs = tuple((EXAMPLE_Q[:, i].copy(), EXAMPLE_R[:, i].copy()) for i in range(3))
    fact = Factorization(pairs, (4, 4), LABELS, LABELS).with_target(p)
    truncated = truncate(fact, 2)
    flips_ok = truncated.error == 1 and truncated.flip_cells() == [(2, 2, "1->0")]
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        product_ok and integer_ok and flips_ok and elapsed < 1.0,
        f"factors reproduce the matrix, integer entry 2, single (c,c) flip "
        f"({elapsed:.3f}s < 1s)",
    )


def test_criterion_2_exact_rank_oracle():
    start = time.perf_counter()
    checks = []
    rank, witness = exact_boolean_rank(BoolMatrix(EXAMPLE_P, LABELS, LABELS))
    checks.append(rank == 3 and witness.error == 0)
    for shape in ((1, 1), (3, 5), (6, 6)):
        rank, witness = exact_boolean_rank(BoolMatrix(np.zeros(shape, dtype=np.uint8)))
        checks.append(rank == 0 and witness.error == 0)
    for d in range(1, 7):
        rank, witness = exact_boolean_rank(BoolMatrix(np.eye(d, dtype=np.uint8)))
        checks.append(rank == d and witness.error == 0)
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        all(checks) and elapsed < 10.0,
        f"rank 3 on the worked example, 0 on zero matrices, d on identities "
        f"d<=6, all witnesses exact ({elapsed:.2f}s < 10s)",
    )


def test_criterion_3_reduction_correctness():
    start = time.perf_counter()
    rows = equivalence_check(instances=200, seed=20260810)
    worst = max(diff for _, diff, _ in rows)
    ok = all(passed for _, _, passed in rows)
    elapsed = time.perf_counter() - start
    _verdict(
        3,
        ok and worst <= 1e-9 and elapsed < 60.0,
        f"200 random instances agree to {worst:.2e} <= 1e-9 ({elapsed:.1f}s < 60s)",
    )


def test_criterion_4_heuristic_sanity():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    never_beat = True
    monotone = True
    for _ in range(50):
        bits = (rng.random((10, 10)) < rng.uniform(0.25, 0.6)).astype(np.uint8)
        matrix = BoolMatrix(bits)
        fact = asso_factorize(matrix)
        errors = [truncate(fact, n).error for n in range(fact.rank() + 1)]
        monotone &= all(a >= b for a, b in zip(errors, errors[1:]))
        # the exhaustive oracle is feasible at ranks 1 and 2 for 10x10
        for rank in (1, 2):
            greedy = truncate(fact, min(rank, fact.rank())).error
            never_beat &= greedy >= optimal_error_at_rank(matrix, rank)
    elapsed = time.perf_counter() - start
    _verdict(
        4,
        never_beat and monotone and elapsed < 300.0,
        f"greedy never beats the exhaustive optimum (ranks 1-2, 50 matrices) "
        f"and prefix errors are non-increasing ({elapsed:.1f}s < 5min)",
    )


def test_criterion_5_symmetry_bound():
    rng = np.random.default_rng(505)
    ok = True
    checked = 0
    for _ in range(120):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(0, min(m, 4) + 1))
        labels = tuple(f"e{i}" for i in range(m))
        pairs = tuple(
            (rng.integers(0, 2, m).astype(np.uint8), rng.integers(0, 2, m).astype(np.uint8))
            for _ in range(n)
        )
        fact = Factorization(pairs, (m, m), labels, labels)
        rows, cols = symmetry_signature_classes(encode_evidence("p", fact))
        ok &= rows <= min(m, 2 ** n) and cols <= min(m, 2 ** n)
        checked += 1
    _verdict(
        5,
        ok,
        f"signature classes <= min(m, 2^n) on all {checked} generated instances",
    )


def test_criterion_6_sampler_correctness():
    start = time.perf_counter()
    model = parse_model(
        "domain = a\npred x/1\npred y/1\npred z/1\n"
        "1.0 x(a) ^ y(a)\n0.7 y(a) v !z(a)\n-0.5 z(a)\n"
    )
    _, exact = enumerate_world_distribution(model, EvidenceSet())
    worst_tv = 0.0
    for seed in (1, 2, 3):
        config = ChainConfig(
            iterations=1_000_000, burn_in=10_000, seed=seed,
            orbital_move_probability=0.0,
        )
        est = estimate_marginals(model, EvidenceSet(), [], config,
                                 collect_world_counts=True)
        freq = est.world_counts / est.world_counts.sum()
        worst_tv = max(worst_tv, 0.5 * float(np.abs(freq - exact).sum()))
    tv_ok = worst_tv <= 0.01

    # orbital moves never change the world log weight
    sym_model, sym_matrix, _ = planted_symmetry_instance((4, 4))
    evidence = matrix_to_evidence("p", sym_matrix)
    classes = constant_symmetry_classes(sym_model, evidence)
    cond = ground(sym_model).condition(evidence)
    domain = sym_model.domain
    positions = _class_positions(domain, classes)
    rng = np.random.default_rng(606)
    invariant = True
    for _ in range(1000):
        values = rng.integers(0, 2, size=len(cond.atoms)).astype(np.uint8)
        perm = _class_permutation(len(domain), positions, rng)
        moved = values if perm is None else cond.relabeled(values, perm)
        invariant &= cond.log_weight(moved) == cond.log_weight(values)
    elapsed = time.perf_counter() - start
    _verdict(
        6,
        tv_ok and invariant and elapsed < 300.0,
        f"worst total variation {worst_tv:.4f} <= 0.01 over 3 seeds of 1e6 steps; "
        f"log weight exactly invariant on 1000 orbital moves ({elapsed:.0f}s)",
    )


def test_criterion_7_orbital_chain_dominates():
    start = time.perf_counter()
    model, matrix, queries = planted_symmetry_instance((4, 4))
    rows = kld_curve(
        model, matrix, "p", queries,
        ranks=[2], seeds=list(range(10)),
        iterations=2000, snapshot_every=100, reference="self",
    )
    plain = [v for _, method, _, v in rows if method == "gibbs"]
    orbital = [v for _, method, _, v in rows if method == "orbital-gibbs"]
    wins = sum(1 for p, o in zip(plain, orbital) if o <= p)
    share = wins / len(plain)
    elapsed = time.perf_counter() - start
    _verdict(
        7,
        share >= 0.8,
        f"orbital KLD <= plain KLD at {wins}/{len(plain)} checkpoints "
        f"({share:.0%} >= 80%, 10-seed average, {elapsed:.1f}s)",
    )


def test_criterion_8_rank_accuracy_tradeoff():
    start = time.perf_counter()
    model = parse_model(
        "domain = c0, c1, c2, c3, c4\npred p/2\npred s/1\n"
        "1.2 s(X) ^ p(X,Y) => s(Y)\n0.5 s(X)\n"
    )
    from liftbmf.experiments import gen_synthetic

    matrix, _ = gen_synthetic(5, 2, 0.05, seed=11)
    n_full, _ = exact_boolean_rank(matrix)
    queries = tuple(Atom("s", (c,)) for c in model.domain)
    rows = kld_curve(
        model, matrix, "p", queries,
        ranks=list(range(1, n_full + 1)), seeds=[1, 2, 3],
        iterations=4000, snapshot_every=200, reference="exact",
        methods=("orbital-gibbs",),
    )
    terminal = {label: v for it, m, label, v in rows if m == "exact"}
    full_ok = terminal[str(n_full)] <= 1e-9
    trunc_ok = all(
        terminal[str(rank)] >= terminal[str(n_full)] for rank in range(1, n_full)
    )
    exact_chain = {it: v for it, m, label, v in rows
                   if m == "orbital-gibbs" and label == "exact"}
    crossovers = []
    for rank in range(1, n_full):
        curve = {it: v for it, m, label, v in rows
                 if m == "orbital-gibbs" and label == str(rank)}
        hits = [it for it in sorted(curve) if curve[it] < exact_chain[it]]
        if hits:
            crossovers.append((rank, hits[0]))
    if crossovers:
        report = "crossover observed: " + ", ".join(
            f"rank {r} beats exact evidence at iteration {it}" for r, it in crossovers
        )
    else:
        report = "no crossover occurred at any truncated rank (dataset-dependent)"
    elapsed = time.perf_counter() - start
    _verdict(
        8,
        full_ok and trunc_ok,
        f"terminal KLD {terminal[str(n_full)]:.1e} <= 1e-9 at full rank {n_full}, "
        f"all truncations at or above it; {report} ({elapsed:.1f}s)",
    )


def test_criterion_9_error_curve_shape():
    start = time.perf_counter()
    matrices, noise_counts = [], []
    for seed in range(20):
        matrix, meta = planted_block_matrix(20, 3, 0.01, seed)
        matrices.append(matrix)
        noise_counts.append(meta["noise_count"])
    rows = error_curve(matrices, ranks=[1, 2, 3, 4, 5, 6])
    errors = dict(rows)
    mean_noise = float(np.mean(noise_counts))
    recovery_ok = errors[3] <= 1.5 * mean_noise
    shape_ok = errors[1] > errors[3]
    elapsed = time.perf_counter() - start
    _verdict(
        9,
        recovery_ok and shape_ok,
        f"mean error at rank 3 is {errors[3]:.2f} <= 1.5 x {mean_noise:.2f} noise "
        f"flips and rank-1 error {errors[1]:.1f} exceeds it "
        f"(20 seeds, {elapsed:.2f}s)",
    )
