"""Gibbs sampling with optional evidence-symmetry orbital moves.

`estimate_marginals` runs the chain on the compiled model.  Each
iteration resamples one open atom, one that neither the evidence nor unit
propagation over the hard formulas fixes, from its full conditional
(`Conditioned.conditional`, read off the atom's Markov blanket); with the
configured probability the step is preceded by an orbital jump, the
relabeling of `Conditioned.relabeled` by a uniform random permutation
within each class of `constant_symmetry_classes`.  Marginals come from
either the sample frequency or Rao-Blackwellized conditional averaging.

A class permutation preserves the given evidence and fixes every constant
a formula mentions, so it maps the groundings onto themselves; unit
propagation reaches one fixed point whatever the order, so it preserves
the derived atoms too.  Every jump thus keeps open atoms open and
`Conditioned.log_weight` unchanged, and the stationary distribution is
preserved.  The chain therefore checks none of the worlds it builds: it
holds WalkSAT's list of 0/1 ints, with running sums as Python floats,
and gathers the list on each jump.  The checks stay at the boundary, in
`log_weight`, `conditional` and `relabeled`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import CapacityError, InputError, check_integer
from .mln import Atom, Conditioned, EvidenceSet, Model, format_atom, ground
from .reduction import constant_symmetry_classes

__all__ = [
    "ChainConfig",
    "MarginalEstimate",
    "estimate_marginals",
    "kld",
]

_BLOCK = 8192


@dataclass(frozen=True)
class ChainConfig:
    """Single-chain settings; burn_in of None means 10% of iterations."""

    iterations: int
    burn_in: int | None = None
    seed: int = 0
    orbital_move_probability: float = 0.1
    estimator: str = "rao_blackwell"

    def __post_init__(self):
        check_integer(self.iterations, "iterations", 1)
        if self.burn_in is not None:
            check_integer(self.burn_in, "burn_in", 0)
        check_integer(self.seed, "seed", 0)
        if not 0.0 <= self.orbital_move_probability <= 1.0:
            raise InputError(
                f"orbital_move_probability must be in [0, 1], got {self.orbital_move_probability}"
            )
        if self.estimator not in ("frequency", "rao_blackwell"):
            raise InputError(f"unknown estimator {self.estimator!r}")
        if self.resolved_burn_in() >= self.iterations:
            raise InputError(
                f"burn_in {self.resolved_burn_in()} must be below iterations {self.iterations}"
            )

    def resolved_burn_in(self) -> int:
        return self.iterations // 10 if self.burn_in is None else self.burn_in


@dataclass(frozen=True)
class MarginalEstimate:
    """Per-atom probability estimates plus convergence snapshots."""

    estimates: dict[Atom, float]
    snapshots: tuple[tuple[int, dict[Atom, float]], ...]
    iterations: int
    world_counts: np.ndarray | None = field(default=None, repr=False)


# --- elementary chain moves ------------------------------------------------


def _class_positions(domain: Sequence[str], classes: Sequence[Sequence[str]]) -> list[np.ndarray]:
    """The domain positions of each class of two or more constants."""
    position = {c: k for k, c in enumerate(domain)}
    return [np.array([position[c] for c in cls]) for cls in classes if len(cls) > 1]


def _class_permutation(
    m: int, positions: Sequence[np.ndarray], rng: np.random.Generator
) -> np.ndarray | None:
    """A uniform random permutation within each class, as an array over the
    m domain positions; None when every class draws the identity."""
    perm = np.arange(m)
    for at in positions:
        perm[at] = rng.permutation(at)
    return None if (perm == np.arange(m)).all() else perm


def _packed(world: Sequence[int]) -> int:
    """A world as an int, atom i's value at bit i."""
    return sum(v << i for i, v in enumerate(world))


def find_consistent_world(
    cond: Conditioned,
    rng: np.random.Generator,
    max_restarts: int = 60,
    max_flips: int = 4000,
) -> list[int]:
    """Random restarts plus WalkSAT-style repair over the hard formulas.

    Returns the chain's world, a list of 0/1 ints in `cond.atoms` order.
    Gives up with CapacityError: running out of flips proves nothing.
    """
    n = len(cond.atoms)
    flips = 0
    for _ in range(max_restarts):
        values = rng.integers(0, 2, size=n).tolist()
        if not cond.hard:
            return values
        ok = [comp.log_factor(values) > -math.inf for comp in cond.hard]
        for _ in range(max_flips):
            violated = [k for k, good in enumerate(ok) if not good]
            if not violated:
                return values
            atom_ids = cond.hard[violated[int(rng.integers(len(violated)))]].atom_ids
            flip = atom_ids[int(rng.integers(len(atom_ids)))]
            values[flip] ^= 1
            flips += 1
            # only the hard formulas in the flipped atom's blanket can change
            for k in cond.blanket[flip]:
                if k >= len(cond.hard):
                    break
                ok[k] = cond.hard[k].log_factor(values) > -math.inf
    raise CapacityError(
        f"no world satisfying the hard formulas found in {flips} flips over {max_restarts} restarts"
    )


# --- chain runner -----------------------------------------------------------


def estimate_marginals(
    model: Model,
    evidence: EvidenceSet,
    queries: Sequence[Atom],
    config: ChainConfig,
    snapshot_every: int | None = None,
    collect_world_counts: bool = False,
) -> MarginalEstimate:
    """Run one chain and estimate P(atom | evidence) for the query atoms.

    Deterministic given the config: all randomness flows from independent
    PCG64 streams spawned off the seed.  Snapshots record the running
    estimate every `snapshot_every` iterations once past burn-in.  With no
    atom left open, every query is known and every iteration keeps the one
    world.
    """
    if snapshot_every is not None:
        check_integer(snapshot_every, "snapshot_every", 1)
    cond = ground(model).condition(evidence)
    fixed, open_queries = cond.split_queries(queries)
    burn_in = config.resolved_burn_in()
    use_orbital = config.orbital_move_probability > 0.0
    classes = constant_symmetry_classes(model, evidence) if use_orbital else ()
    class_positions = _class_positions(model.domain, classes)

    streams = [
        np.random.default_rng(s)
        for s in np.random.SeedSequence(config.seed).spawn(5)
    ]
    init_rng, atom_rng, unif_rng, orbit_decide_rng, orbit_perm_rng = streams

    world = find_consistent_world(cond, init_rng)
    n = len(world)

    query_ids = [(cond.index[a], k) for k, a in enumerate(open_queries)]
    sums = [0.0] * len(open_queries)
    samples = 0

    counts = None
    world_int = 0
    if collect_world_counts:
        if n > 16:
            raise InputError(f"world counting supports at most 16 atoms, got {n}")
        counts = np.zeros(1 << n, dtype=np.int64)
        world_int = _packed(world)

    snapshots: list[tuple[int, dict[Atom, float]]] = []

    def current_estimates() -> dict[Atom, float]:
        # ChainConfig keeps burn_in below iterations, so samples > 0 here
        est = dict(fixed)
        est.update({a: sums[k] / samples for k, a in enumerate(open_queries)})
        return est

    conditional = cond._conditional
    rao_blackwell = config.estimator == "rao_blackwell"
    t = 0
    while t < config.iterations:
        block = min(_BLOCK, config.iterations - t)
        picks = atom_rng.integers(0, n, size=block).tolist() if n else None
        unifs = unif_rng.random(block).tolist()
        if use_orbital:
            jumps = (orbit_decide_rng.random(block) < config.orbital_move_probability).tolist()
        for b in range(block):
            t += 1
            if use_orbital and jumps[b]:
                perm = _class_permutation(len(model.domain), class_positions, orbit_perm_rng)
                if perm is not None:
                    world = [world[s] for s in cond._relabeling_sources(perm).tolist()]
                    if counts is not None:
                        world_int = _packed(world)
            if n:
                i = picks[b]
                p = conditional(world, i)
                new = 1 if unifs[b] < p else 0
                if new != world[i]:
                    world[i] = new
                    world_int ^= 1 << i
            if t > burn_in:
                samples += 1
                for qi, k in query_ids:
                    sums[k] += p if rao_blackwell and qi == i else world[qi]
                if counts is not None:
                    counts[world_int] += 1
                if snapshot_every and t % snapshot_every == 0:
                    snapshots.append((t, current_estimates()))

    return MarginalEstimate(
        estimates=current_estimates(),
        snapshots=tuple(snapshots),
        iterations=config.iterations,
        world_counts=counts,
    )


def kld(
    reference: Mapping[Atom, float],
    estimate: Mapping[Atom, float] | MarginalEstimate,
) -> float:
    """Mean Bernoulli KL divergence from reference marginals to estimates.

    Estimates are clamped to [1e-6, 1 - 1e-6] so empty-count estimates stay
    finite; the reference is used as-is with the 0 log 0 = 0 convention.
    Raises InputError for a reference atom without an estimate and for any
    value outside [0, 1], NaN included.
    """
    values = estimate.estimates if isinstance(estimate, MarginalEstimate) else estimate
    if not reference:
        raise InputError("reference marginals are empty")
    total = 0.0
    for atom, p in reference.items():
        if atom not in values:
            raise InputError(f"no estimate for reference atom {format_atom(atom)}")
        q = values[atom]
        for what, x in (("reference", p), ("estimate", q)):
            if not 0.0 <= x <= 1.0:
                raise InputError(f"{what} of {format_atom(atom)} must be in [0, 1], got {x}")
        q = min(max(q, 1e-6), 1.0 - 1e-6)
        term = 0.0
        if p > 0.0:
            term += p * math.log(p / q)
        if p < 1.0:
            term += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
        total += term
    return total / len(reference)
