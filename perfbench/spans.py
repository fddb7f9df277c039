"""Spans around calls into liftbmf's public functions, kept in memory.

`Tracer.install()` replaces each traced function by a wrapper in every
loaded `liftbmf` module that holds it, so calls the library makes to its
own public functions (say `estimate_marginals` -> `ground`) are recorded
too and nest.  A span's self time is its duration minus its children's.
Nothing here runs unless a traced run installs it.
"""
from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

from liftbmf import boolmat, factorize, mln, reduction, sampler


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int  # -1 before the first op
    side: str | None
    info: dict = field(default_factory=dict)
    child_s: float = 0.0
    touched: frozenset = frozenset()  # atoms a conditioned model's formulas touch

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _touched_atoms(cond) -> frozenset:
    ids = {i for comp in cond.weighted + cond.hard for i in comp.atom_ids}
    return frozenset(cond.atoms[i] for i in ids)


class Tracer:
    """Records one span per call of a traced function.

    `op` and `side` are set by the benchmark around each operation and
    around its direct/reduced halves; spans inherit them.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1
        self.side: str | None = None
        self._last_condition: Span | None = None

    @contextlib.contextmanager
    def mark(self, side: str):
        outer, self.side = self.side, side
        try:
            yield
        finally:
            self.side = outer

    def wrap(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None, self.op, self.side)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    self.spans[span.parent].child_s += span.end - span.start
            if note is not None:
                note(span, result, args)
            return result

        return traced

    # --- notes: counts read off public return values -------------------

    def _note_condition(self, span, cond, args):
        forced = {c.atom_ids[0] for c in cond.hard if len(c.atom_ids) == 1}
        span.info.update(atoms=len(cond.atoms), forced=len(forced))
        span.touched = _touched_atoms(cond)
        self._last_condition = span

    def _note_queries(self, span, result, args):
        # exact_marginals(model, evidence, queries) and
        # estimate_marginals(model, evidence, queries, config) enumerate or
        # sample the atoms their conditioned model touches plus open queries
        evidence, queries = args[1], args[2]
        touched = self._last_condition.touched if self._last_condition else frozenset()
        open_queries = {q for q in queries if q not in evidence}
        span.info["enumerated_atoms"] = len(touched | open_queries)
        if isinstance(result, sampler.MarginalEstimate):
            span.info["iterations"] = result.iterations
            span.info["orbital_prob"] = args[3].orbital_move_probability

    def _note_pairs(self, span, result, args):
        span.info["pairs"] = result.rank()

    def install(self) -> None:
        targets = [
            (mln.parse_model, "mln.parse", None),
            (mln.parse_evidence, "mln.parse", None),
            (mln.ground, "mln.ground", None),
            (mln.exact_query, "mln.exact_query", None),
            (mln.exact_marginals, "mln.exact_query", self._note_queries),
            (factorize.exact_boolean_rank, "factorize.exact_rank", None),
            (factorize.asso_factorize, "factorize.asso", self._note_pairs),
            (boolmat.boolean_product, "boolmat.product", None),
            (reduction.encode_evidence, "reduction.encode", None),
            (reduction.extend_model, "reduction.encode", None),
            (reduction.constant_symmetry_classes, "reduction.symmetry_classes", None),
            (sampler.estimate_marginals, "sampler.chain", self._note_queries),
        ]
        modules = [m for n, m in sys.modules.items() if n == "liftbmf" or n.startswith("liftbmf.")]
        for fn, name, note in targets:
            traced = self.wrap(name, fn, note)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, traced)
        mln.Grounding.condition = self.wrap(
            "mln.condition", mln.Grounding.condition, self._note_condition
        )

    def dump(self, path, extra: dict) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op": s.op, "side": s.side, "self_s": s.self_s, **s.info}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": rows}, fh)


# --- per-layer metrics ------------------------------------------------------

PER_LAYER_UNITS = {
    "mln.parse_ms": "ms",
    "mln.ground_ms": "ms",
    "mln.condition_ms": "ms",
    "mln.exact_query_ms": "ms",
    "mln.worlds_per_s": "1/s",
    "mln.enumerated_atoms.reduced": "count",
    "factorize.exact_rank_ms": "ms",
    "factorize.asso_ms": "ms",
    "factorize.asso_ms_per_pair": "ms",
    "boolmat.product_ms": "ms",
    "reduction.encode_ms": "ms",
    "reduction.symmetry_classes_ms.direct": "ms",
    "reduction.symmetry_classes_ms.reduced": "ms",
    "sampler.steps_per_s.direct": "1/s",
    "sampler.steps_per_s.reduced": "1/s",
    "sampler.orbital_step_us.reduced": "us",
    "sampler.iters_to_kld.direct": "count",
    "sampler.iters_to_kld.reduced": "count",
    "sampler.unforced_atom_share.reduced": "share",
}

_SELF_MS = {
    "mln.parse_ms": "mln.parse",
    "mln.ground_ms": "mln.ground",
    "mln.condition_ms": "mln.condition",
    "mln.exact_query_ms": "mln.exact_query",
    "factorize.exact_rank_ms": "factorize.exact_rank",
    "factorize.asso_ms": "factorize.asso",
    "boolmat.product_ms": "boolmat.product",
    "reduction.encode_ms": "reduction.encode",
}


def layer_values(spans: list[Span], indices: list[int]) -> dict[str, float]:
    """Per-layer values of one operation from its spans (given by index)."""
    own = [spans[i] for i in indices]
    self_s: dict[tuple[str, str | None], float] = defaultdict(float)
    for s in own:
        self_s[s.name, s.side] += s.self_s

    def total(name):
        return sum(v for (n, _), v in self_s.items() if n == name)

    out = {metric: 1e3 * total(name) for metric, name in _SELF_MS.items()}
    for side in ("direct", "reduced"):
        out[f"reduction.symmetry_classes_ms.{side}"] = (
            1e3 * self_s.get(("reduction.symmetry_classes", side), 0.0)
        )
    worlds = sum(2 ** s.info["enumerated_atoms"] for s in own
                 if s.name == "mln.exact_query" and "enumerated_atoms" in s.info)
    if worlds:
        out["mln.worlds_per_s"] = worlds / total("mln.exact_query")
    pairs = sum(s.info["pairs"] for s in own if s.name == "factorize.asso")
    if pairs:
        out["factorize.asso_ms_per_pair"] = 1e3 * total("factorize.asso") / pairs
    chains = {s.side: s for s in own if s.name == "sampler.chain"}
    for side in ("direct", "reduced"):
        if side in chains:
            chain = chains[side]
            out[f"sampler.steps_per_s.{side}"] = chain.info["iterations"] / chain.self_s
    if "reduced" in chains and "plain" in chains:
        orbital, plain = chains["reduced"], chains["plain"]
        jumps = orbital.info["iterations"] * orbital.info["orbital_prob"]
        out["sampler.orbital_step_us.reduced"] = 1e6 * (orbital.self_s - plain.self_s) / jumps
    reduced = [s.info["enumerated_atoms"] for s in own
               if s.side == "reduced" and "enumerated_atoms" in s.info]
    if reduced:
        out["mln.enumerated_atoms.reduced"] = max(reduced)
    for s in own:
        if (s.name == "mln.condition" and s.side == "reduced" and s.parent is not None
                and spans[s.parent].name == "sampler.chain"):
            out["sampler.unforced_atom_share.reduced"] = (
                (s.info["atoms"] - s.info["forced"]) / s.info["atoms"]
            )
    return out


def per_layer_metrics(spans: list[Span], ops: dict[int, dict]) -> dict:
    """Median over completed ops of each per-layer value; 0 where a layer
    is never called on this workload.  `ops` maps op id to the counts the
    workload's own check produced (e.g. iterations to the KLD target)."""
    by_op: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.op in ops:
            by_op[s.op].append(i)
    values: dict[str, list[float]] = defaultdict(list)
    for op, counts in ops.items():
        for key, value in {**layer_values(spans, by_op[op]), **counts}.items():
            values[key].append(value)
    return {
        name: {"value": statistics.median(values[name]) if values[name] else 0.0, "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }
