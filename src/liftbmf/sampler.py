"""Gibbs sampling with optional evidence-symmetry orbital moves.

`estimate_marginals` runs the chain on the compiled model.  Each
iteration resamples one open atom, one that neither the evidence nor unit
propagation over the hard formulas fixes, from its full conditional
(`Conditioned.conditional`, read off the atom's Markov blanket); with the
configured probability the step is preceded by an orbital jump, the
relabeling of `Conditioned.relabeled` by a uniform random permutation
within each class of `constant_symmetry_classes`.  Marginals come from
either the sample frequency or Rao-Blackwellized conditional averaging.
Each block of steps draws its jumps' permutations before its steps, from
a stream that serves nothing else: when the classes of two or more
constants share one size, one `rng.permuted` call shuffles the rows of
their stacked position lists, else each jump shuffles each class's list;
both draw what `rng.permutation` draws class by class and jump by jump.
`Conditioned._sources`, the array code behind `relabeled`, turns the
permutations into one source list per jump, at most `_JUMP_CELLS`
entries at a time, and a jump is one list gather: atom b's new value is
the old value of atom `src[b]`.  The classes read the evidence through
the model's one atom layout, as conditioning does, and the chain maps
them to domain positions through the layout's position map.

An atom's conditional depends only on its blanket neighbours
(`Conditioned._neighbours`), so a step packs their values into an int
and looks the conditional up in that atom's memo, local to the call; a
miss asks `Conditioned._conditional`, the one code that sums log
factors, so every probability is the float it computes and an infeasible
state still raises there.  A memo holds at most one entry per step and
per neighbour state.  The running sums, a list indexed by atom id, add 1
only for the query atoms that are true, kept as a set that each flip
updates and each orbital jump rebuilds, and the picked query's
conditional under Rao-Blackwellization; adding 0 changes no float, so
the sums are those of adding every query.

A class permutation preserves the given evidence and fixes every constant
a formula mentions, so it maps the groundings onto themselves; unit
propagation reaches one fixed point whatever the order, so it preserves
the derived atoms too.  Every jump thus keeps open atoms open and
`Conditioned.log_weight` unchanged, and the stationary distribution is
preserved.  The chain therefore checks none of the worlds it builds: it
holds WalkSAT's list of 0/1 ints, with running sums as Python floats,
and gathers a new list on each jump.  The checks stay at the boundary, in
`log_weight`, `conditional` and `relabeled`.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import CapacityError, InputError, check_integer
from .mln import (Atom, Conditioned, EvidenceSet, Model, _check_world_atoms,
                  constant_symmetry_classes, format_atom, ground)

__all__ = [
    "ChainConfig",
    "MarginalEstimate",
    "estimate_marginals",
    "kld",
]

_BLOCK = 8192
_JUMP_CELLS = 1 << 16  # jump source entries converted to lists at a time
_WALKSAT_RESTARTS = 60
_WALKSAT_FLIPS = 4000  # per restart


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
        prob = self.orbital_move_probability
        if isinstance(prob, bool) or not isinstance(prob, numbers.Real) or not 0.0 <= prob <= 1.0:
            raise InputError(f"orbital_move_probability must be a real in [0, 1], got {prob!r}")
        object.__setattr__(self, "orbital_move_probability", float(prob))
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


@functools.cache
def _identity(m: int) -> tuple[int, ...]:
    return tuple(range(m))


def _class_permutation(
    m: int, positions: Sequence[list[int]], rng: np.random.Generator
) -> list[int] | None:
    """A uniform random permutation within each class, as a list over the
    m domain positions, a copy of the identity with the classes filled in;
    None when every class draws the identity.  Each class is shuffled as a
    list, which draws what `rng.permutation` would draw on its positions
    and leaves `rng` in the same state."""
    perm = None
    for at in positions:
        drawn = at[:]
        rng.shuffle(drawn)
        if drawn != at:
            if perm is None:
                perm = list(_identity(m))
            for c, d in zip(at, drawn):
                perm[c] = d
    return perm


def _jump_sources(
    cond: Conditioned, positions: Sequence[list[int]], jumps: int, rng: np.random.Generator
) -> Iterator[list[int] | None]:
    """The relabelings of `jumps` orbital jumps, in order: per jump, a
    uniform random permutation within each class of `positions`, as the
    list of `Conditioned._sources` for it, or None when every class draws
    the identity.  Drawn and converted a chunk of jumps at a time, each
    chunk at most `_JUMP_CELLS` source entries.  When the classes have one
    size, a chunk's permutations are one `rng.permuted` call over the
    stacked class positions, row by row what `_class_permutation` draws
    jump by jump; otherwise `_class_permutation` draws them."""
    m = len(cond.model.domain)
    per_chunk = max(1, _JUMP_CELLS // max(len(cond.atoms), m))
    stacked = np.array(positions) if len({len(at) for at in positions}) == 1 else None
    while jumps:
        rows = min(jumps, per_chunk)
        jumps -= rows
        if stacked is not None:
            flat = stacked.ravel()
            drawn = rng.permuted(np.tile(stacked, (rows, 1)), axis=1).reshape(rows, -1)
            moved = (drawn != flat).any(axis=1)
            perms = np.tile(np.arange(m), (np.count_nonzero(moved), 1))
            perms[:, flat] = drawn[moved]
            moved = moved.tolist()
        else:
            perms = [_class_permutation(m, positions, rng) for _ in range(rows)]
            moved = [perm is not None for perm in perms]
            perms = np.array([perm for perm in perms if perm is not None], dtype=np.intp)
            perms = perms.reshape(-1, m)
        inverses = np.empty_like(perms)
        np.put_along_axis(inverses, perms, np.arange(m), axis=1)
        sources = iter(cond._sources(inverses).tolist())
        for jump_moves in moved:
            yield next(sources) if jump_moves else None
        del sources  # before the next chunk's lists are built


def _packed(world: Sequence[int]) -> int:
    """A world as an int, atom i's value at bit i."""
    return sum(v << i for i, v in enumerate(world))


def find_consistent_world(cond: Conditioned, rng: np.random.Generator) -> list[int]:
    """Random restarts plus WalkSAT-style repair over the hard formulas.

    Returns the chain's world, a list of 0/1 ints in `cond.atoms` order.
    Gives up with CapacityError after `_WALKSAT_RESTARTS` restarts of
    `_WALKSAT_FLIPS` flips each, read at each call: running out of flips
    proves nothing.
    """
    n = len(cond.atoms)
    flips = 0
    for _ in range(_WALKSAT_RESTARTS):
        values = rng.integers(0, 2, size=n).tolist()
        if not cond.hard:
            return values
        ok = [comp.log_factor(values) > -math.inf for comp in cond.hard]
        for _ in range(_WALKSAT_FLIPS):
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
    raise CapacityError(f"no world satisfying the hard formulas found in {flips} flips"
                        f" over {_WALKSAT_RESTARTS} restarts")


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
    fixed, query_ids = cond.split_queries(queries)
    burn_in = config.resolved_burn_in()
    use_orbital = config.orbital_move_probability > 0.0
    classes = constant_symmetry_classes(model, evidence) if use_orbital else ()
    class_positions = [[model._ids.position[c] for c in cls] for cls in classes if len(cls) > 1]

    streams = [
        np.random.default_rng(s)
        for s in np.random.SeedSequence(config.seed).spawn(5)
    ]
    init_rng, atom_rng, unif_rng, orbit_decide_rng, orbit_perm_rng = streams

    world = find_consistent_world(cond, init_rng)
    n = len(world)

    # one running sum per open atom, read for the query atoms only
    distinct_queries = set(query_ids.values())
    is_query = [qi in distinct_queries for qi in range(n)]
    sums = [0.0] * n
    true_queries = {qi for qi in distinct_queries if world[qi]}

    counts = None
    world_int = 0
    if collect_world_counts:
        _check_world_atoms(n)
        counts = [0] * (1 << n)
        world_int = _packed(world)

    snapshots: list[tuple[int, dict[Atom, float]]] = []

    def current_estimates(samples: int) -> dict[Atom, float]:
        # ChainConfig keeps burn_in below iterations, so samples > 0 here
        est = dict(fixed)
        est.update([(a, sums[qi] / samples) for a, qi in query_ids.items()])
        return est

    conditional = cond._conditional
    neighbours = cond._neighbours
    # per atom, its conditional by packed neighbour state, filled on a miss
    memos = [{} for _ in range(n)]
    # the picked query's conditional stands in for its 0/1 value in its
    # sum; off with no open query, as no sum is then read, and with no open
    # atom the pick is -1
    rao_blackwell = config.estimator == "rao_blackwell" and bool(distinct_queries)
    # the first multiple of snapshot_every past burn-in; 0 is never reached
    next_snapshot = (burn_in // snapshot_every + 1) * snapshot_every if snapshot_every else 0
    t = 0
    while t < config.iterations:
        block = min(_BLOCK, config.iterations - t)
        picks = atom_rng.integers(0, n, size=block).tolist() if n else [-1] * block
        unifs = unif_rng.random(block).tolist()
        if class_positions:
            jumps = (orbit_decide_rng.random(block) < config.orbital_move_probability).tolist()
            sources = _jump_sources(cond, class_positions, jumps.count(True), orbit_perm_rng)
        else:
            jumps = itertools.repeat(False, block)
        for i, u, jump in zip(picks, unifs, jumps):
            t += 1
            if jump:
                src = next(sources)
                if src is not None:
                    world = [world[a] for a in src]
                    true_queries = {qi for qi in distinct_queries if world[qi]}
                    if counts is not None:
                        world_int = _packed(world)
            if n:
                key = 0
                for atom_id, bit in neighbours[i]:
                    if world[atom_id]:
                        key |= bit
                memo = memos[i]
                p = memo.get(key)
                if p is None:
                    p = memo[key] = conditional(world, i)
                if (u < p) != world[i]:  # the draw flips atom i
                    world[i] ^= 1
                    if counts is not None:
                        world_int ^= 1 << i
                    if is_query[i]:
                        if world[i]:
                            true_queries.add(i)
                        else:
                            true_queries.discard(i)
            if t > burn_in:
                # a false query adds 0, and x + 0 == x: only true ones are added
                if rao_blackwell and is_query[i]:
                    sums[i] += p
                    for qi in true_queries:
                        if qi != i:
                            sums[qi] += 1.0
                else:
                    for qi in true_queries:
                        sums[qi] += 1.0
                if counts is not None:
                    counts[world_int] += 1
                if t == next_snapshot:
                    snapshots.append((t, current_estimates(t - burn_in)))
                    next_snapshot += snapshot_every

    return MarginalEstimate(
        estimates=current_estimates(config.iterations - burn_in),
        snapshots=tuple(snapshots),
        iterations=config.iterations,
        world_counts=None if counts is None else np.array(counts, dtype=np.int64),
    )


def kld(reference: Mapping[Atom, float], estimate: Mapping[Atom, float]) -> float:
    """Mean Bernoulli KL divergence from reference marginals to estimates.

    Estimates are clamped to [1e-6, 1 - 1e-6] so empty-count estimates stay
    finite; the reference is used as-is with the 0 log 0 = 0 convention.
    Raises InputError for a reference atom without an estimate and for any
    value that is not a real number in [0, 1]: NaN, bools and strings included.
    """
    if not reference:
        raise InputError("reference marginals are empty")
    total = 0.0
    for atom, p in reference.items():
        if atom not in estimate:
            raise InputError(f"no estimate for reference atom {format_atom(atom)}")
        q = estimate[atom]
        for what, x in (("reference", p), ("estimate", q)):
            if isinstance(x, bool) or not isinstance(x, numbers.Real) or not 0.0 <= x <= 1.0:
                raise InputError(f"{what} of {format_atom(atom)} must be in [0, 1], got {x!r}")
        q = min(max(q, 1e-6), 1.0 - 1e-6)
        term = 0.0
        if p > 0.0:
            term += p * math.log(p / q)
        if p < 1.0:
            term += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
        total += term
    return total / len(reference)
