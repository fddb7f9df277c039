"""The exact-rank workload's matrix pool and its recorded Boolean ranks.

The pool is POOL_SIZE random SIDE x SIDE matrices of density 0.5 drawn
from a fixed seed.  Each run permutes rows and columns of every pool
matrix (and may transpose it) with its own seed; Boolean rank is
invariant under both, so the ranks recorded in exact_ranks.txt hold for
every seed.  Exact rank is unique, so the record is a fact about the
matrices, not a snapshot of the program.  Rebuild it with

    python3 perfbench/exact_ranks.py
"""
from __future__ import annotations

import pathlib
import sys

import numpy as np

POOL_SEED = 20131125
POOL_SIZE = 200
SIDE = 10
RECORD = pathlib.Path(__file__).with_name("exact_ranks.txt")


def pool() -> np.ndarray:
    rng = np.random.default_rng(POOL_SEED)
    return (rng.random((POOL_SIZE, SIDE, SIDE)) < 0.5).astype(np.uint8)


def load() -> list[int]:
    ranks = [int(t) for line in RECORD.read_text().splitlines()
             if not line.startswith("#") for t in line.split()]
    if len(ranks) != POOL_SIZE:
        raise ValueError(f"{RECORD} holds {len(ranks)} ranks, expected {POOL_SIZE}")
    return ranks


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from liftbmf import BoolMatrix, exact_boolean_rank

    from checks import boolean_product, fooling_set_size

    ranks = []
    for bits in pool():
        rank, witness = exact_boolean_rank(BoolMatrix(bits))
        q, r = witness.q_matrix().bits, witness.r_matrix().bits
        if not np.array_equal(boolean_product(q, r), bits):
            raise SystemExit("witness does not reconstruct its matrix")
        if not fooling_set_size(bits) <= rank <= SIDE:
            raise SystemExit("rank outside its fooling-set and trivial bounds")
        ranks.append(rank)
    lines = [f"# Boolean ranks of the {POOL_SIZE} pool matrices (seed {POOL_SEED}, "
             f"{SIDE}x{SIDE}, density 0.5), in pool order; rebuilt by exact_ranks.py"]
    lines += [" ".join(str(r) for r in ranks[i:i + 20]) for i in range(0, len(ranks), 20)]
    RECORD.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(ranks)} ranks to {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
