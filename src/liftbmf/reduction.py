"""Turn binary evidence into an extended model plus unary evidence.

A factorized relation p = Q R^T becomes the hard equivalence

    p(X, Y) <=> (q1(X) ^ r1(Y)) v ... v (qn(X) ^ rn(Y))

plus full evidence on the fresh unary predicates q_i, r_i.  Conditioning
on that unary evidence reproduces conditioning on the binary relation, so
the original distribution is preserved whenever the factorization is exact.
`constant_symmetry_classes` lives in `mln`, beside the atom layout it reads,
and is re-exported here under the same name."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

import numpy as np

from .boolmat import BoolMatrix
from .errors import InputError
from .factorize import Factorization
from .mln import (
    And,
    Atom,
    EvidenceSet,
    Formula,
    Iff,
    Implies,
    Model,
    Not,
    Or,
    _check_name,
    constant_symmetry_classes,
    format_atom,
)

__all__ = [
    "ReductionResult",
    "PartialEvidenceEncoding",
    "encode_evidence",
    "encode_partial_evidence",
    "symmetry_signature_classes",
    "extend_model",
    "matrix_to_evidence",
    "constant_symmetry_classes",
]

_VAR_X = "X"
_VAR_Y = "Y"


def fresh_predicate_names(pred: str, rank: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    q_names = tuple(f"{pred}__q{i}" for i in range(1, rank + 1))
    r_names = tuple(f"{pred}__r{i}" for i in range(1, rank + 1))
    return q_names, r_names


@dataclass(frozen=True)
class ReductionResult:
    """Extension fragment produced from one factorized binary relation."""

    predicate: str
    added_formulas: tuple[Formula, ...]
    unary_evidence: EvidenceSet
    fresh_predicates: tuple[tuple[str, int], ...]
    rank_used: int
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]


def encode_evidence(
    pred: str,
    f: Factorization,
    existing_predicates: Collection[str] = (),
) -> ReductionResult:
    """Encode a labeled factorization of relation `pred` as unary evidence.

    Emits the hard equivalence tying p(X, Y) to the fresh q_i/r_i
    predicates and assigns every grounding of those predicates.  Rank 0
    degenerates to the hard formula !p(X, Y).  `pred` and the labels must
    be names a `Model` accepts for a predicate and for constants.
    """
    _check_name("predicate", pred)
    if f.row_labels is None or f.col_labels is None:
        raise InputError("factorization must carry row and column labels")
    _check_name("constant", *f.row_labels, *f.col_labels)
    n = f.rank()
    q_names, r_names = fresh_predicate_names(pred, n)
    for name in q_names + r_names:
        if name in existing_predicates:
            raise InputError(f"fresh predicate {name!r} collides with an existing one")

    p_atom = Atom(pred, (_VAR_X, _VAR_Y))
    if n == 0:
        formula: Formula = Not(p_atom)
    else:
        disjuncts = tuple(
            And((Atom(q_names[i], (_VAR_X,)), Atom(r_names[i], (_VAR_Y,))))
            for i in range(n)
        )
        formula = Iff(p_atom, disjuncts[0] if n == 1 else Or(disjuncts))

    evidence = EvidenceSet()
    for i, (q, r) in enumerate(f.pairs):
        for c, label in enumerate(f.row_labels):
            evidence.assign(Atom(q_names[i], (label,)), bool(q[c]))
        for c, label in enumerate(f.col_labels):
            evidence.assign(Atom(r_names[i], (label,)), bool(r[c]))

    fresh = tuple((name, 1) for name in q_names + r_names)
    return ReductionResult(
        pred, (formula,), evidence, fresh, n, f.row_labels, f.col_labels
    )


@dataclass(frozen=True)
class PartialEvidenceEncoding:
    """Partial binary evidence rewritten as two full-evidence relations."""

    formulas: tuple[Formula, ...]
    true_predicate: str
    false_predicate: str
    true_matrix: BoolMatrix
    false_matrix: BoolMatrix


def encode_partial_evidence(
    pred: str,
    known_true: Iterable[Atom],
    known_false: Iterable[Atom],
    domain: Sequence[str],
) -> PartialEvidenceEncoding:
    """Encode partial evidence on `pred` via indicator relations p1 and p0.

    Adds p(X,Y) <= p1(X,Y) and !p(X,Y) <= p0(X,Y); the returned matrices
    have a 1 exactly at the known-true / known-false entries and are ready
    for independent factorization.  `pred` and the domain must be names a
    `Model` accepts for a predicate and for constants.
    """
    domain = tuple(domain)
    _check_name("predicate", pred)
    _check_name("constant", *domain)
    pos = {c: i for i, c in enumerate(domain)}
    true_set = set(known_true)
    false_set = set(known_false)
    overlap = true_set & false_set
    if overlap:
        names = ", ".join(sorted(format_atom(a) for a in overlap))
        raise InputError(f"atoms assigned both true and false: {names}")

    def fill(atoms: set[Atom]) -> np.ndarray:
        bits = np.zeros((len(domain), len(domain)), dtype=np.uint8)
        for atom in atoms:
            if atom.pred != pred or len(atom.args) != 2:
                raise InputError(f"expected a ground {pred}/2 atom, got {format_atom(atom)}")
            x, y = atom.args
            if x not in pos or y not in pos:
                raise InputError(f"atom {format_atom(atom)} uses constants outside the domain")
            bits[pos[x], pos[y]] = 1
        return bits

    true_name, false_name = f"{pred}__p1", f"{pred}__p0"
    p = Atom(pred, (_VAR_X, _VAR_Y))
    formulas = (
        Implies(Atom(true_name, (_VAR_X, _VAR_Y)), p),
        Implies(Atom(false_name, (_VAR_X, _VAR_Y)), Not(p)),
    )
    return PartialEvidenceEncoding(
        formulas,
        true_name,
        false_name,
        BoolMatrix(fill(true_set), domain, domain),
        BoolMatrix(fill(false_set), domain, domain),
    )


def symmetry_signature_classes(result: ReductionResult) -> tuple[int, int]:
    """Distinct q-signatures over rows and r-signatures over columns.

    Constants sharing a signature are exchangeable given the unary
    evidence, which is why bounded rank preserves symmetry: there are at
    most 2^rank signatures per axis.
    """
    q_names, r_names = fresh_predicate_names(result.predicate, result.rank_used)
    ev = result.unary_evidence

    def count(labels: tuple[str, ...], names: tuple[str, ...]) -> int:
        return len({tuple(ev[Atom(p, (c,))] for p in names) for c in labels})

    return count(result.row_labels, q_names), count(result.col_labels, r_names)


def extend_model(model: Model, result: ReductionResult) -> Model:
    """Append the reduction fragment to a model, checking the signature."""
    arity = model.predicates.get(result.predicate)
    if arity != 2:
        raise InputError(
            f"model must declare {result.predicate}/2, found arity {arity}"
        )
    for label in set(result.row_labels) | set(result.col_labels):
        if label not in model.domain:
            raise InputError(f"label {label!r} is not a domain constant")
    return model.extended(
        predicates=dict(result.fresh_predicates), hard=result.added_formulas
    )


def matrix_to_evidence(pred: str, matrix: BoolMatrix) -> EvidenceSet:
    """Full binary evidence on `pred` read off a labeled matrix."""
    if matrix.row_labels is None or matrix.col_labels is None:
        raise InputError("matrix must carry row and column labels")
    evidence = EvidenceSet()
    for i, x in enumerate(matrix.row_labels):
        for j, y in enumerate(matrix.col_labels):
            evidence.assign(Atom(pred, (x, y)), bool(matrix.bits[i, j]))
    return evidence
