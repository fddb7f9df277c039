"""The four workloads: inputs, the timed operation, and its output checks.

A workload object is built from the run's seed (that is the set-up) and
hands out rounds of inputs; every round of a workload has the same
make-up, so medians measure the program rather than the input mix.
`run` makes the timed calls into liftbmf; `check` verifies the outputs
with the benchmark's own computations and returns per-op values.
"""
from __future__ import annotations

import contextlib
import statistics
import time

import numpy as np

import exact_ranks
from checks import (
    EQUIVALENCE_TOLERANCE,
    OpFailed,
    boolean_product,
    fooling_set_size,
    mean_bernoulli_kld,
    require,
)
from liftbmf import boolmat, experiments, factorize, mln, reduction, sampler


def _mark(tracer, side: str):
    return tracer.mark(side) if tracer is not None else contextlib.nullcontext()


def _round_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


class Workload:
    """What the four workloads share; each adds round, run and check."""

    @classmethod
    def time_to_kld(cls, latency: list[float], op_values: list[dict],
                    ref_s: list[float]) -> list[float]:
        """Per completed op, the time to its checked answer, in ref: an
        exact or deterministic answer is there when the op ends.  `ref_s`
        is each op's probe loop time in seconds."""
        return latency


class Equivalence(Workload):
    """Binary-evidence query against its unary reduction, domain size 4.

    Each round holds one instance per shape of weighted formulas (the
    grounding count of each formula; the reduced-side enumeration cost
    follows it) plus the fixed domain-5 instance, which the reduced-side
    exact query refuses every time ("30 enumerated atoms exceed the cap
    of 24") and which is therefore counted as failed.
    """

    name = "equivalence"
    SHAPES = ((4,), (16,), (4, 4), (4, 16), (16, 16))
    DOMAIN5_SEED = 5

    def __init__(self, seed: int):
        self.seed = seed
        self.domain5 = self._draw(np.random.default_rng(self.DOMAIN5_SEED), 5)

    @staticmethod
    def _draw(rng, m: int):
        while True:
            instance = experiments.random_equivalence_instance(rng, max_m=m)
            if len(instance[0].domain) == m:
                return instance

    @staticmethod
    def _shape(model) -> tuple[int, ...]:
        m = len(model.domain)
        return tuple(sorted(m ** len(mln.free_variables(f)) for _, f in model.weighted_formulas))

    def round(self, index: int) -> list:
        rng = _round_rng(self.seed, index)
        slots = dict.fromkeys(self.SHAPES)
        while None in slots.values():
            instance = self._draw(rng, 4)
            shape = self._shape(instance[0])
            if slots[shape] is None:
                slots[shape] = instance
        return list(slots.values()) + [self.domain5]

    def run(self, item, tracer):
        model, matrix, query = item
        with _mark(tracer, "direct"):
            lhs = mln.exact_query(model, reduction.matrix_to_evidence("p", matrix), query)
        with _mark(tracer, "reduced"):
            _, witness = factorize.exact_boolean_rank(matrix)
            result = reduction.encode_evidence("p", witness, model.predicates)
            extended = reduction.extend_model(model, result)
            rhs = mln.exact_query(extended, result.unary_evidence, query)
        return lhs, rhs, witness

    def check(self, item, output) -> dict:
        _, matrix, _ = item
        lhs, rhs, witness = output
        require(abs(lhs - rhs) <= EQUIVALENCE_TOLERANCE,
                f"reduction changed the query: {lhs!r} vs {rhs!r}")
        require(np.array_equal(boolean_product(witness.q_matrix().bits, witness.r_matrix().bits),
                               matrix.bits),
                "rank witness does not reconstruct the evidence matrix")
        return {}


class ExactRank(Workload):
    """exact_boolean_rank on row/column-permuted pool matrices.

    Each round is the whole pool (see exact_ranks.py), every matrix
    permuted afresh and transposed with probability 1/2 from the run's
    seed, so each round asks for the same ranks at the same difficulty.
    """

    name = "exact-rank"

    def __init__(self, seed: int):
        self.seed = seed
        self.pool = exact_ranks.pool()
        self.ranks = exact_ranks.load()

    def round(self, index: int) -> list:
        rng = _round_rng(self.seed, index)
        side = exact_ranks.SIDE
        items = []
        for i, bits in enumerate(self.pool):
            bits = bits[rng.permutation(side)][:, rng.permutation(side)]
            if rng.random() < 0.5:
                bits = bits.T
            items.append((i, boolmat.BoolMatrix(np.ascontiguousarray(bits))))
        return items

    def run(self, item, tracer):
        return factorize.exact_boolean_rank(item[1])

    def check(self, item, output) -> dict:
        i, matrix = item
        rank, witness = output
        bits = matrix.bits
        require(np.array_equal(boolean_product(witness.q_matrix().bits, witness.r_matrix().bits),
                               bits), f"pool matrix {i}: witness does not reconstruct it")
        require(witness.rank() == rank, f"pool matrix {i}: witness has rank {witness.rank()}, not {rank}")
        require(fooling_set_size(bits) <= rank <= min(bits.shape),
                f"pool matrix {i}: rank {rank} outside its fooling-set and trivial bounds")
        require(rank == self.ranks[i], f"pool matrix {i}: rank {rank}, recorded {self.ranks[i]}")
        return {}


class Asso(Workload):
    """asso_factorize at rank 10 of planted-rank-10 300x300 matrices."""

    name = "asso"
    M, RANK, NOISE = 300, 10, 0.01
    ROUND = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.params = factorize.AssoParams(max_rank=self.RANK)

    def round(self, index: int) -> list:
        seeds = _round_rng(self.seed, index).integers(2**31, size=self.ROUND)
        return [experiments.gen_synthetic(self.M, self.RANK, self.NOISE, int(s))[0] for s in seeds]

    def run(self, item, tracer):
        return factorize.asso_factorize(item, self.params)

    def check(self, item, output) -> dict:
        bits = item.bits
        require(output.rank() <= self.RANK, f"rank {output.rank()} above {self.RANK}")
        covered = np.zeros_like(bits)
        errors = [int(bits.sum())]
        for q, r in output.pairs:
            covered |= np.outer(q, r)
            errors.append(int((covered != bits).sum()))
        require(output.error == errors[-1],
                f"reported error {output.error}, Hamming distance {errors[-1]}")
        # with w+ = w- = 1 a pair is kept only when its gain is positive
        require(all(b < a for a, b in zip(errors, errors[1:])),
                f"error does not fall with every pair: {errors}")
        return {}


class Gibbs(Workload):
    """Orbital-Gibbs chain pair, binary vs reduced unary evidence, (8,8) blocks.

    The op parses model and evidence text as `liftbmf infer` does, then
    runs one chain per side.  Every run replays the same list of chain
    seeds, in an order drawn from the run's seed: across chain seeds the
    iterations to the KLD target vary with a coefficient of variation near
    0.5, so freshly drawn seeds would make the per-run median measure
    chain luck rather than the program.
    """

    name = "gibbs"
    BLOCKS = (8, 8)
    TARGET_KLD = 0.02
    ORBITAL_PROB = 0.1
    ITERATIONS = {"direct": 1200, "reduced": 5000}
    SNAPSHOT_EVERY = {"direct": 25, "reduced": 100}
    CHAIN_SEEDS = tuple(range(8))

    def __init__(self, seed: int):
        self.seed = seed
        model, matrix, self.queries = experiments.planted_symmetry_instance(self.BLOCKS)
        evidence = reduction.matrix_to_evidence("p", matrix)
        exact = mln.exact_marginals(model, evidence, self.queries)
        self.reference = np.array([exact[q] for q in self.queries])
        # the blocks are exchangeable, so every exact marginal is the same
        require(np.ptp(self.reference) <= 1e-12, f"exact marginals differ: {self.reference}")
        _, witness = factorize.exact_boolean_rank(matrix)
        result = reduction.encode_evidence("p", witness, model.predicates)
        self.texts = {
            "direct": (model.to_text(), evidence.to_text()),
            "reduced": (reduction.extend_model(model, result).to_text(),
                        result.unary_evidence.to_text()),
        }

    def round(self, index: int) -> list:
        order = _round_rng(self.seed, index).permutation(len(self.CHAIN_SEEDS))
        return [self.CHAIN_SEEDS[i] for i in order]

    def _chain(self, side: str, chain_seed: int, orbital_prob: float):
        model_text, evidence_text = self.texts[side]
        model = mln.parse_model(model_text)
        evidence = mln.parse_evidence(evidence_text, model)
        config = sampler.ChainConfig(self.ITERATIONS[side], burn_in=0, seed=chain_seed,
                                     orbital_move_probability=orbital_prob)
        start = time.perf_counter()
        estimate = sampler.estimate_marginals(model, evidence, self.queries, config,
                                              snapshot_every=self.SNAPSHOT_EVERY[side])
        return time.perf_counter() - start, estimate

    def run(self, chain_seed, tracer):
        out = {}
        for side in ("direct", "reduced"):
            with _mark(tracer, side):
                out[side] = self._chain(side, chain_seed, self.ORBITAL_PROB)
        if tracer is not None:
            # the same chain without orbital moves prices one orbital move
            with _mark(tracer, "plain"):
                self._chain("reduced", chain_seed, 0.0)
        return out

    def check(self, chain_seed, output) -> dict:
        values = {}
        for side, (wall, estimate) in output.items():
            hit = None
            for iteration, snapshot in estimate.snapshots:
                kld = mean_bernoulli_kld(self.reference,
                                         np.array([snapshot[q] for q in self.queries]))
                if kld <= self.TARGET_KLD:
                    hit = iteration
                    break
            if hit is None:
                raise OpFailed(f"chain seed {chain_seed}: {side} chain never reached "
                               f"KLD {self.TARGET_KLD} in {estimate.iterations} iterations")
            values[f"sampler.iters_to_kld.{side}"] = hit
            values[f"step_s.{side}"] = wall / estimate.iterations
        return values

    @classmethod
    def time_to_kld(cls, latency, op_values, ref_s):
        """Per pair: iterations each chain needed to reach the target, times
        the run's mean time per iteration of that side's chains, in ref.
        The run's mean rather than the op's own step time keeps one op's
        measurement from deciding the median."""
        step = {side: statistics.mean(v[f"step_s.{side}"] / r for v, r in zip(op_values, ref_s))
                for side in cls.ITERATIONS}
        return [sum(step[side] * v[f"sampler.iters_to_kld.{side}"] for side in cls.ITERATIONS)
                for v in op_values]


WORKLOADS = {w.name: w for w in (Equivalence, ExactRank, Asso, Gibbs)}
