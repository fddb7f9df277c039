"""Minimal Markov Logic engine: parsing, grounding, exact inference.

A grounding is a first-order formula plus one binding of its variables to
constants; no ground copy of the formula is built.  Conditioning walks the
formula under the binding, putting in the bound constants and the known
atom values at the leaves, and keeps the residual over the atoms left
open.  Unit propagation over the hard groundings comes first: an atom it
derives becomes known exactly like evidence.  Worlds assign a truth value
to every ground atom that evidence and unit propagation leave open; each
satisfied grounding of a weighted formula multiplies the world weight by
e^w, and hard formulas filter worlds outright (they never down-weight).
Exact queries enumerate those worlds in log space and serve as the
correctness oracle for everything built on top.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import CapacityError, InconsistencyError, InputError, check_integer, is_integer

__all__ = [
    "Atom", "Not", "And", "Or", "Implies", "Iff", "Formula",
    "Model", "EvidenceSet",
    "parse_model", "parse_evidence", "parse_formula", "parse_literal",
    "format_formula", "format_atom", "format_literal",
    "ground", "Grounding", "Conditioned",
    "exact_query", "exact_marginals", "enumerate_world_distribution",
    "DEFAULT_ATOM_CAP", "DEFAULT_GROUND_CAP",
]

DEFAULT_ATOM_CAP = 24
DEFAULT_GROUND_CAP = 1_000_000

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


# --- formulas ------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[str, ...]

    def __str__(self):
        return format_atom(self)


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class And:
    parts: tuple["Formula", ...]


@dataclass(frozen=True)
class Or:
    parts: tuple["Formula", ...]


@dataclass(frozen=True)
class Implies:
    premise: "Formula"
    conclusion: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


Formula = Atom | Not | And | Or | Implies | Iff


def is_variable(token: str) -> bool:
    return token[0].isupper()


def atoms_of(f: Formula) -> Iterator[Atom]:
    if isinstance(f, Atom):
        yield f
    elif isinstance(f, Not):
        yield from atoms_of(f.sub)
    elif isinstance(f, (And, Or)):
        for part in f.parts:
            yield from atoms_of(part)
    elif isinstance(f, Implies):
        yield from atoms_of(f.premise)
        yield from atoms_of(f.conclusion)
    elif isinstance(f, Iff):
        yield from atoms_of(f.left)
        yield from atoms_of(f.right)
    else:
        raise TypeError(f"not a formula: {f!r}")


def free_variables(f: Formula) -> tuple[str, ...]:
    """Variables in order of first occurrence."""
    seen: list[str] = []
    for atom in atoms_of(f):
        for arg in atom.args:
            if is_variable(arg) and arg not in seen:
                seen.append(arg)
    return tuple(seen)


def evaluate(f: Formula, lookup: Mapping[Atom, bool]) -> bool:
    if isinstance(f, Atom):
        return lookup[f]
    if isinstance(f, Not):
        return not evaluate(f.sub, lookup)
    if isinstance(f, And):
        return all(evaluate(p, lookup) for p in f.parts)
    if isinstance(f, Or):
        return any(evaluate(p, lookup) for p in f.parts)
    if isinstance(f, Implies):
        return (not evaluate(f.premise, lookup)) or evaluate(f.conclusion, lookup)
    return evaluate(f.left, lookup) == evaluate(f.right, lookup)


def partial_evaluate(
    f: Formula, known: Mapping[Atom, bool], binding: Mapping[str, str]
) -> Formula | bool:
    """`f` under `binding`, with known atom values folded in at the leaves:
    a bool when fully determined, else the residual over the open atoms."""
    if isinstance(f, Atom):
        atom = Atom(f.pred, tuple(binding.get(a, a) for a in f.args))
        return known.get(atom, atom)
    if isinstance(f, Not):
        sub = partial_evaluate(f.sub, known, binding)
        return (not sub) if isinstance(sub, bool) else Not(sub)
    if isinstance(f, (And, Or)):
        short = isinstance(f, Or)
        parts = []
        for p in f.parts:
            v = partial_evaluate(p, known, binding)
            if isinstance(v, bool):
                if v == short:
                    return short
                continue
            parts.append(v)
        if not parts:
            return not short
        if len(parts) == 1:
            return parts[0]
        return Or(tuple(parts)) if short else And(tuple(parts))
    if isinstance(f, Implies):
        prem = partial_evaluate(f.premise, known, binding)
        conc = partial_evaluate(f.conclusion, known, binding)
        if prem is False or conc is True:
            return True
        if prem is True:
            return conc
        if conc is False:
            return Not(prem) if not isinstance(prem, bool) else not prem
        return Implies(prem, conc)
    left = partial_evaluate(f.left, known, binding)
    right = partial_evaluate(f.right, known, binding)
    if isinstance(left, bool) and isinstance(right, bool):
        return left == right
    if left is True:
        return right
    if right is True:
        return left
    if left is False:
        return Not(right)
    if right is False:
        return Not(left)
    return Iff(left, right)


_PREC = {"iff": 1, "implies": 2, "or": 3, "and": 4, "not": 5}


def format_atom(atom: Atom) -> str:
    return f"{atom.pred}({', '.join(atom.args)})" if atom.args else f"{atom.pred}()"


def format_literal(atom: Atom, value: bool) -> str:
    return format_atom(atom) if value else "!" + format_atom(atom)


def format_formula(f: Formula) -> str:
    def wrap(sub: Formula, parent_prec: int) -> str:
        text, prec = emit(sub)
        return f"({text})" if prec < parent_prec else text

    def emit(g: Formula) -> tuple[str, int]:
        if isinstance(g, Atom):
            return format_atom(g), 6
        if isinstance(g, Not):
            return "!" + wrap(g.sub, _PREC["not"]), _PREC["not"]
        if isinstance(g, And):
            return " ^ ".join(wrap(p, _PREC["and"]) for p in g.parts), _PREC["and"]
        if isinstance(g, Or):
            return " v ".join(wrap(p, _PREC["or"]) for p in g.parts), _PREC["or"]
        if isinstance(g, Implies):
            left = wrap(g.premise, _PREC["implies"] + 1)
            right = wrap(g.conclusion, _PREC["implies"])  # right-associative
            return f"{left} => {right}", _PREC["implies"]
        left = wrap(g.left, _PREC["iff"] + 1)
        right = wrap(g.right, _PREC["iff"] + 1)
        return f"{left} <=> {right}", _PREC["iff"]

    return emit(f)[0]


# --- parsing -------------------------------------------------------------

_TOKEN_RE = re.compile(r"=>|<=>|[()!,^]|[A-Za-z_][A-Za-z0-9_]*")


class _Parser:
    def __init__(self, text: str, where: str):
        self.where = where
        self.tokens: list[str] = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(text, pos)
            if not m:
                raise InputError(f"{where}: unexpected character {text[pos]!r}")
            self.tokens.append(m.group())
            pos = m.end()
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise InputError(f"{self.where}: unexpected end of formula")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise InputError(f"{self.where}: expected {tok!r}, got {got!r}")

    def formula(self) -> Formula:
        f = self.iff()
        if self.peek() is not None:
            raise InputError(f"{self.where}: unexpected trailing {self.peek()!r}")
        return f

    def iff(self) -> Formula:
        f = self.implies()
        while self.peek() == "<=>":
            self.take()
            f = Iff(f, self.implies())
        return f

    def implies(self) -> Formula:
        f = self.disjunction()
        if self.peek() == "=>":
            self.take()
            return Implies(f, self.implies())
        return f

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.peek() == "v":
            self.take()
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conjunction(self) -> Formula:
        parts = [self.unary()]
        while self.peek() == "^":
            self.take()
            parts.append(self.unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "!":
            self.take()
            return Not(self.unary())
        if tok == "(":
            self.take()
            f = self.iff()
            self.expect(")")
            return f
        return self.atom()

    def atom(self) -> Atom:
        name = self.take()
        if not _NAME_RE.fullmatch(name):
            raise InputError(f"{self.where}: expected an atom, got {name!r}")
        args: list[str] = []
        if self.peek() == "(":
            self.take()
            if self.peek() != ")":
                while True:
                    arg = self.take()
                    if not _NAME_RE.fullmatch(arg):
                        raise InputError(f"{self.where}: bad argument {arg!r}")
                    args.append(arg)
                    if self.peek() == ",":
                        self.take()
                        continue
                    break
            self.expect(")")
        return Atom(name, tuple(args))


def parse_formula(text: str, model: "Model | None" = None, where: str = "formula") -> Formula:
    f = _Parser(text, where).formula()
    if model is not None:
        model.check_formula(f, where)
    return f


def parse_literal(text: str, model: "Model | None" = None, where: str = "literal") -> tuple[Atom, bool]:
    stripped = text.strip()
    value = True
    if stripped.startswith("!"):
        value = False
        stripped = stripped[1:]
    parser = _Parser(stripped, where)
    atom = parser.atom()
    if parser.peek() is not None:
        raise InputError(f"{where}: unexpected trailing {parser.peek()!r}")
    for arg in atom.args:
        if is_variable(arg):
            raise InputError(f"{where}: literal must be ground, found variable {arg}")
    if model is not None:
        model.check_formula(atom, where)
    return atom, value


# --- model and evidence --------------------------------------------------


@dataclass(frozen=True)
class Model:
    """Weighted first-order formulas plus hard formulas over a finite domain.

    Free variables are implicitly universally quantified over the domain.
    """

    domain: tuple[str, ...]
    predicates: Mapping[str, int]
    weighted_formulas: tuple[tuple[float, Formula], ...] = ()
    hard_formulas: tuple[Formula, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(self.domain))
        object.__setattr__(self, "predicates", dict(self.predicates))
        object.__setattr__(
            self,
            "weighted_formulas",
            tuple((float(w), f) for w, f in self.weighted_formulas),
        )
        object.__setattr__(self, "hard_formulas", tuple(self.hard_formulas))
        if len(set(self.domain)) != len(self.domain):
            raise InputError("domain constants are not unique")
        for c in self.domain:
            if not _NAME_RE.fullmatch(c) or is_variable(c):
                raise InputError(f"invalid constant name {c!r}")
        for name, arity in self.predicates.items():
            if not _NAME_RE.fullmatch(name) or is_variable(name):
                raise InputError(f"invalid predicate name {name!r}")
            if name == "v":
                raise InputError("'v' is reserved for disjunction")
            check_integer(arity, f"arity of {name}", 0)
        for w, f in self.weighted_formulas:
            if not math.isfinite(w):
                raise InputError(f"weight {w} of {format_formula(f)} is not finite")
            self.check_formula(f, "weighted formula")
        for f in self.hard_formulas:
            self.check_formula(f, "hard formula")

    def __hash__(self):
        return hash((
            self.domain,
            tuple(sorted(self.predicates.items())),
            self.weighted_formulas,
            self.hard_formulas,
        ))

    def check_formula(self, f: Formula, where: str) -> None:
        for atom in atoms_of(f):
            arity = self.predicates.get(atom.pred)
            if arity is None:
                raise InputError(f"{where}: unknown predicate {atom.pred!r}")
            if arity != len(atom.args):
                raise InputError(
                    f"{where}: {atom.pred} expects {arity} arguments, got {len(atom.args)}"
                )
            for arg in atom.args:
                if not is_variable(arg) and arg not in self.domain:
                    raise InputError(f"{where}: unknown constant {arg!r}")

    def all_atoms(self) -> tuple[Atom, ...]:
        """Every ground atom of the signature, in deterministic order."""
        out = []
        for name in sorted(self.predicates):
            for args in itertools.product(self.domain, repeat=self.predicates[name]):
                out.append(Atom(name, args))
        return tuple(out)

    def extended(
        self,
        predicates: Mapping[str, int] = (),
        weighted: Iterable[tuple[float, Formula]] = (),
        hard: Iterable[Formula] = (),
    ) -> "Model":
        """A new model with extra predicates and formulas appended."""
        preds = dict(self.predicates)
        for name, arity in dict(predicates).items():
            if name in preds:
                raise InputError(f"predicate {name!r} already declared")
            preds[name] = arity
        return Model(
            self.domain,
            preds,
            self.weighted_formulas + tuple(weighted),
            self.hard_formulas + tuple(hard),
        )

    def to_text(self) -> str:
        out = ["domain = " + ", ".join(self.domain)]
        for name in sorted(self.predicates):
            out.append(f"pred {name}/{self.predicates[name]}")
        for w, f in self.weighted_formulas:
            out.append(f"{w:g} {format_formula(f)}")
        for f in self.hard_formulas:
            out.append(f"hard {format_formula(f)}")
        return "\n".join(out) + "\n"


class EvidenceSet:
    """Truth assignments to ground atoms; at most one per atom."""

    def __init__(self, assignments: Mapping[Atom, bool] | Iterable[tuple[Atom, bool]] = ()):
        self._assignments: dict[Atom, bool] = {}
        items = assignments.items() if isinstance(assignments, Mapping) else assignments
        for atom, value in items:
            self.assign(atom, value)

    def assign(self, atom: Atom, value: bool) -> None:
        if not isinstance(value, (bool, np.bool_)):
            raise InputError(f"value of {format_atom(atom)} must be a bool, got {value!r}")
        if atom in self._assignments:
            raise InputError(f"atom {format_atom(atom)} assigned twice")
        for arg in atom.args:
            if is_variable(arg):
                raise InputError(f"evidence atom {format_atom(atom)} is not ground")
        self._assignments[atom] = bool(value)

    def get(self, atom: Atom, default=None):
        return self._assignments.get(atom, default)

    def items(self):
        return self._assignments.items()

    def atoms(self):
        return self._assignments.keys()

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._assignments

    def __getitem__(self, atom: Atom) -> bool:
        return self._assignments[atom]

    def __len__(self) -> int:
        return len(self._assignments)

    def __iter__(self):
        return iter(self._assignments)

    def __eq__(self, other):
        if not isinstance(other, EvidenceSet):
            return NotImplemented
        return self._assignments == other._assignments

    def merged(self, other: "EvidenceSet") -> "EvidenceSet":
        out = EvidenceSet(self._assignments)
        for atom, value in other.items():
            out.assign(atom, value)
        return out

    def to_text(self) -> str:
        lines = [format_literal(a, v) for a, v in self._assignments.items()]
        return "\n".join(lines) + ("\n" if lines else "")


# --- model/evidence text formats ------------------------------------------


def _split_sections(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def parse_model(text: str) -> Model:
    domain: tuple[str, ...] | None = None
    predicates: dict[str, int] = {}
    pending: list[tuple[int, str, float | None]] = []  # lineno, formula text, weight
    for lineno, line in _split_sections(text):
        if line.startswith("domain"):
            rest = line[len("domain"):].strip()
            if not rest.startswith("="):
                raise InputError(f"line {lineno}: expected 'domain = a, b, ...'")
            if domain is not None:
                raise InputError(f"line {lineno}: duplicate domain declaration")
            domain = tuple(p.strip() for p in rest[1:].split(",") if p.strip())
            continue
        if line.startswith("pred "):
            rest = line[len("pred "):].strip()
            if "/" not in rest:
                raise InputError(f"line {lineno}: expected 'pred name/arity'")
            name, _, arity_text = rest.partition("/")
            name = name.strip()
            try:
                arity = int(arity_text.strip())
            except ValueError:
                raise InputError(f"line {lineno}: bad arity {arity_text!r}") from None
            if name in predicates:
                raise InputError(f"line {lineno}: predicate {name!r} already declared")
            predicates[name] = arity
            continue
        if line.startswith("hard ") or line == "hard":
            pending.append((lineno, line[len("hard"):].strip(), None))
            continue
        head, _, rest = line.partition(" ")
        try:
            weight = float(head)
        except ValueError:
            raise InputError(
                f"line {lineno}: expected 'domain', 'pred', 'hard' or a weight, got {head!r}"
            ) from None
        if not rest.strip():
            raise InputError(f"line {lineno}: weight {head} without a formula")
        pending.append((lineno, rest.strip(), weight))

    if domain is None:
        raise InputError("model has no domain declaration")
    weighted = []
    hard = []
    # validation happens in the Model constructor; parse against a bare model
    shell = Model(domain, predicates)
    for lineno, ftext, weight in pending:
        f = parse_formula(ftext, shell, where=f"line {lineno}")
        if weight is None:
            hard.append(f)
        else:
            weighted.append((weight, f))
    return Model(domain, predicates, tuple(weighted), tuple(hard))


def parse_evidence(text: str, model: Model) -> EvidenceSet:
    evidence = EvidenceSet()
    for lineno, line in _split_sections(text):
        atom, value = parse_literal(line, model, where=f"line {lineno}")
        try:
            evidence.assign(atom, value)
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
    return evidence


# --- grounding and conditioning -------------------------------------------


@dataclass(frozen=True)
class Grounding:
    """All groundings of the model's formulas, before evidence: each is a
    first-order formula with one binding of its free variables to
    constants, and stands for the formula with those constants put in."""

    model: Model
    weighted: tuple[tuple[float, Formula, Mapping[str, str]], ...]
    hard: tuple[tuple[Formula, Mapping[str, str]], ...]

    def condition(self, evidence: EvidenceSet) -> "Conditioned":
        return _condition(self, evidence)


def _bindings(f: Formula, domain: Sequence[str]) -> Iterator[dict[str, str]]:
    variables = free_variables(f)
    for combo in itertools.product(domain, repeat=len(variables)):
        yield dict(zip(variables, combo))


def ground(model: Model, ground_cap: int = DEFAULT_GROUND_CAP) -> Grounding:
    """One grounding per formula and binding of its variables over the domain."""
    check_integer(ground_cap, "ground_cap", 0)
    m = len(model.domain)
    if m == 0:
        raise InputError("cannot ground a model with an empty domain")
    formulas = [f for _, f in model.weighted_formulas] + list(model.hard_formulas)
    total = sum(m ** len(free_variables(f)) for f in formulas)
    if total > ground_cap:
        raise CapacityError(f"{total} groundings exceed the cap of {ground_cap}")
    weighted = tuple(
        (w, f, b) for w, f in model.weighted_formulas for b in _bindings(f, model.domain)
    )
    hard = tuple((f, b) for f in model.hard_formulas for b in _bindings(f, model.domain))
    return Grounding(model, weighted, hard)


@dataclass(frozen=True)
class _CompiledFormula:
    atom_ids: tuple[int, ...]
    # log factor over the 2^len(atom_ids) assignments: the weight where a
    # weighted grounding holds, else 0; 0 where a hard one holds, else -inf
    log_table: np.ndarray

    def packed(self, column):
        """Index into `log_table` of one world or a batch: `column[i]` holds
        atom i's value(s) as Python ints or int64, since narrower types
        overflow the index past 8 atoms."""
        packed = column[self.atom_ids[0]]
        for pos, atom_id in enumerate(self.atom_ids[1:], 1):
            packed = packed | column[atom_id] << pos
        return packed

    def log_factor(self, column):
        """Log factor in one world or a batch (see `packed`)."""
        return self.log_table[self.packed(column)]


def _compile_formula(f: Formula, weight, index: Mapping[Atom, int]) -> _CompiledFormula:
    """`weight` None compiles a hard formula."""
    atoms = sorted(set(atoms_of(f)), key=lambda a: index[a])
    ids = tuple(index[a] for a in atoms)
    if len(ids) > 20:
        raise CapacityError(f"ground formula touches {len(ids)} atoms; table too large")
    holds, fails = (0.0, -np.inf) if weight is None else (weight, 0.0)
    log_table = np.empty(1 << len(ids))
    for packed in range(1 << len(ids)):
        lookup = {a: bool(packed >> pos & 1) for pos, a in enumerate(atoms)}
        log_table[packed] = holds if evaluate(f, lookup) else fails
    log_table.setflags(write=False)
    return _CompiledFormula(ids, log_table)


def permute_axes(table: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """`table` with every axis reindexed by `perm`: entry (c1, ..., ck) of
    the result is entry (perm[c1], ..., perm[ck]) of `table`."""
    for axis in range(table.ndim):
        table = table.take(perm, axis)
    return table


@dataclass(frozen=True)
class Conditioned:
    """The groundings with their known atoms folded out, compiled once.

    `known` is the given evidence plus every atom that unit propagation
    over the hard groundings derives from it: a hard grounding left with
    one open atom and one allowed value for it fixes that atom, exactly as
    evidence does, and every world of positive weight agrees with it.
    `atoms` is every other ground atom of the signature, the atoms left
    open, in a fixed order; compiled formulas index into it.  `formulas` is
    `hard` then `weighted`, and `blanket[i]` lists the positions in
    `formulas` of those touching atom i, ascending, so hard ones come
    first.  `relabeling` holds one array per predicate of nonzero arity
    with an open atom; it maps the domain positions of an atom's constants
    to its atom id (-1 for a known atom).
    """

    model: Model
    known: Mapping[Atom, bool]
    atoms: tuple[Atom, ...]
    index: Mapping[Atom, int]
    weighted: tuple[_CompiledFormula, ...]
    hard: tuple[_CompiledFormula, ...]
    const_log_weight: float
    formulas: tuple[_CompiledFormula, ...]
    blanket: tuple[tuple[int, ...], ...]
    relabeling: tuple[np.ndarray, ...]

    def log_weights(self, column, shape) -> np.ndarray:
        """Log weights of the worlds `column` describes (see
        `_CompiledFormula.log_factor`), -inf where a hard grounding fails.

        Factors are added one formula at a time in compiled order, so a
        world gets the same float whether evaluated alone or in a batch.
        """
        logw = np.full(shape, self.const_log_weight)
        for comp in self.formulas:
            logw += comp.log_factor(column)
        return logw

    def _column(self, values) -> list[int]:
        """A world as a list of 0/1 ints, one per open atom in `atoms` order;
        InputError for any other shape, for a dtype other than integer or
        bool, and for any entry other than 0 or 1."""
        values = np.asarray(values)
        if values.shape != (len(self.atoms),):
            raise InputError(
                f"world must assign {len(self.atoms)} atoms, got shape {values.shape}"
            )
        kind = values.dtype.kind
        if kind == "b":
            values = values.view(np.uint8)
        column = values.tolist()
        if (kind not in "biu" and column) or not set(column) <= {0, 1}:
            raise InputError("world entries must be 0 or 1, as integers or bools")
        return column

    def log_weight(self, values) -> float:
        """Log weight of a world; -inf when a hard grounding is violated."""
        return float(self.log_weights(self._column(values), ()))

    @cached_property
    def _plans(self) -> tuple[tuple[tuple[memoryview, int, tuple[tuple[int, int], ...]], ...], ...]:
        """Per open atom i, one entry per formula of `blanket[i]`, in order:
        the formula's log table as a memoryview of its array (indexing it
        gives a Python float), atom i's bit in the packed index, and the
        (atom id, bit position) pairs of its other atoms.  Built on the
        first conditional, so exact enumeration never pays for it."""
        tables = [memoryview(comp.log_table) for comp in self.formulas]
        return tuple(
            tuple(
                (
                    tables[k],
                    1 << self.formulas[k].atom_ids.index(i),
                    tuple((a, pos) for pos, a in enumerate(self.formulas[k].atom_ids) if a != i),
                )
                for k in near
            )
            for i, near in enumerate(self.blanket)
        )

    def conditional(self, values, i: int) -> float:
        """P(atom i = true | the other atoms as in `values`), read off atom
        i's Markov blanket.  Raises InputError if neither setting satisfies
        the hard formulas there: the given world is infeasible, which
        proves nothing about the model."""
        column = self._column(values)
        if not is_integer(i):
            raise InputError(f"atom index must be an integer, got {i!r}")
        if not 0 <= i < len(column):
            raise InputError(f"atom index {i} outside [0, {len(column)})")
        return self._conditional(column, i)

    def _conditional(self, column: list[int], i: int) -> float:
        """`conditional` on a world already checked by `_column` and an atom
        index in range.  Factors are added one blanket formula at a time, in
        blanket order, the order every caller's floats depend on."""
        log0 = log1 = 0.0
        for table, bit, others in self._plans[i]:
            packed = 0
            for atom_id, pos in others:
                packed |= column[atom_id] << pos
            log0 += table[packed]
            log1 += table[packed | bit]
        if log0 == log1 == -math.inf:
            raise InputError(
                f"both settings of {format_atom(self.atoms[i])} violate hard formulas "
                "given the rest of the world; the world is infeasible"
            )
        if log1 == -math.inf:
            return 0.0
        if log0 == -math.inf:
            return 1.0
        # clamp the log-odds gap so extreme weights cannot overflow exp()
        gap = min(max(log0 - log1, -700.0), 700.0)
        return 1.0 / (1.0 + math.exp(gap))

    def relabeled(self, values, perm: np.ndarray) -> np.ndarray:
        """`values` with constants renamed by `perm`, a permutation of domain
        positions: atom p(c1, ..., ck)'s value moves to p(perm[c1], ..., perm[ck]).
        Raises InputError unless `perm` holds each domain position exactly
        once, and when an open atom would land on a known one."""
        values = np.array(self._column(values), dtype=np.int64)
        perm = np.asarray(perm)
        m = len(self.model.domain)
        if not (perm.shape == (m,) and perm.dtype.kind in "iu"
                and (np.sort(perm) == np.arange(m)).all()):
            raise InputError(f"perm must hold each of the {m} domain positions exactly once")
        for lookup in self.relabeling:
            if not (permute_axes(lookup, perm)[lookup >= 0] >= 0).all():
                raise InputError("the permutation moves an open atom onto a known atom")
        return values[self._relabeling_sources(perm)]

    def _relabeling_sources(self, perm: np.ndarray) -> np.ndarray:
        """For each open atom, the id of the atom whose value it takes when
        constants are renamed by `perm`, a permutation that keeps open atoms
        open: the relabeled world is `values[sources]`."""
        sources = np.arange(len(self.atoms))
        for lookup in self.relabeling:
            is_open = lookup >= 0
            sources[permute_axes(lookup, perm)[is_open]] = lookup[is_open]
        return sources

    def split_queries(self, queries: Sequence[Atom]) -> tuple[dict[Atom, float], list[Atom]]:
        """Check query atoms; split off the known ones, given or derived,
        with their probability, from the open ones."""
        fixed: dict[Atom, float] = {}
        open_queries: list[Atom] = []
        for atom in queries:
            self.model.check_formula(atom, "query")
            if atom in self.known:
                fixed[atom] = 1.0 if self.known[atom] else 0.0
            else:
                open_queries.append(atom)
        return fixed, open_queries


def _condition(grounding: Grounding, evidence: EvidenceSet) -> Conditioned:
    model = grounding.model
    known: dict[Atom, bool] = {}
    for atom, value in evidence.items():
        model.check_formula(atom, "evidence")
        known[atom] = value
    residual_hard = _propagate_units(grounding.hard, known)
    atoms = tuple(a for a in model.all_atoms() if a not in known)
    index = {a: i for i, a in enumerate(atoms)}
    const_log_weight = 0.0
    weighted = []
    for w, f, binding in grounding.weighted:
        simp = partial_evaluate(f, known, binding)
        if simp is True:
            const_log_weight += w
        elif simp is not False:
            weighted.append(_compile_formula(simp, w, index))
    hard = [_compile_formula(simp, None, index) for simp in residual_hard if simp is not True]
    formulas = tuple(hard + weighted)
    lookups = (
        np.array([
            index.get(Atom(name, args), -1)
            for args in itertools.product(model.domain, repeat=arity)
        ]).reshape((len(model.domain),) * arity)
        for name, arity in model.predicates.items() if arity
    )
    relabeling = tuple(lookup for lookup in lookups if (lookup >= 0).any())
    blanket: list[list[int]] = [[] for _ in atoms]
    for k, comp in enumerate(formulas):
        for atom_id in comp.atom_ids:
            blanket[atom_id].append(k)
    return Conditioned(
        model, known, atoms, index, tuple(weighted), tuple(hard), const_log_weight,
        formulas, tuple(map(tuple, blanket)), relabeling,
    )


def _propagate_units(
    hard: Sequence[tuple[Formula, Mapping[str, str]]], known: dict[Atom, bool]
) -> list[Formula | bool]:
    """Unit propagation to a fixed point: a hard grounding left with one
    open atom and one allowed value for it adds that atom to `known`, just
    as evidence does.  Returns every grounding partially evaluated under
    the final `known`.  Raises when a grounding admits no value: then no
    world satisfies the evidence and the hard formulas.  A grounding
    watches the atoms of its first residual, a superset of every later one."""
    watchers: dict[Atom, list[int]] = {}
    residual: list[Formula | bool | None] = [None] * len(hard)
    pending = list(range(len(hard)))
    while pending:
        k = pending.pop()
        f, binding = hard[k]
        first = residual[k] is None
        simp = residual[k] = partial_evaluate(f, known, binding)
        if simp is True:
            continue
        open_atoms = () if simp is False else set(atoms_of(simp))
        if first:
            for atom in open_atoms:
                watchers.setdefault(atom, []).append(k)
        if len(open_atoms) > 1:
            continue
        allowed = [(a, v) for a in open_atoms for v in (False, True) if evaluate(simp, {a: v})]
        if not allowed:
            # with nothing known, partial evaluation is plain substitution
            ground_text = format_formula(partial_evaluate(f, {}, binding))
            raise InconsistencyError(
                f"unit propagation refutes hard formula {ground_text}; "
                "evidence and hard formulas are inconsistent"
            )
        if len(allowed) == 1:
            atom, value = allowed[0]
            known[atom] = value
            residual[k] = True
            pending.extend(j for j in watchers[atom] if j != k)
    return residual


# --- exact inference by enumeration ---------------------------------------

_CHUNK_BITS = 18


def _world_chunks(cond: Conditioned, atom_ids: Sequence[int]):
    """Every assignment to `atom_ids`, 2^_CHUNK_BITS worlds at a time: yields
    (columns, log weights), world w setting atom_ids[b] to bit b of w."""
    total = 1 << len(atom_ids)
    for start in range(0, total, 1 << _CHUNK_BITS):
        idx = np.arange(start, min(start + (1 << _CHUNK_BITS), total), dtype=np.int64)
        columns = {atom_id: (idx >> pos) & 1 for pos, atom_id in enumerate(atom_ids)}
        yield columns, cond.log_weights(columns, idx.shape)


def _enumerate(cond: Conditioned, query_ids: Sequence[int], atom_cap: int):
    """Streaming world sum; returns (logZ, per-query marginals)."""
    active = sorted({i for i, near in enumerate(cond.blanket) if near} | set(query_ids))
    if len(active) > atom_cap:
        raise CapacityError(
            f"{len(active)} enumerated atoms exceed the cap of {atom_cap}"
        )
    pieces: list[tuple[float, float, np.ndarray]] = []  # (shift, sum, query sums)
    for columns, logw in _world_chunks(cond, active):
        mask = logw > -np.inf
        if mask.any():
            logw = logw[mask]
            shift = float(logw.max())
            weights = np.exp(logw - shift)
            qsums = np.array(
                [weights[(columns[q][mask]).astype(bool)].sum() for q in query_ids]
            )
            pieces.append((shift, float(weights.sum()), qsums))
        del columns  # free this chunk's columns before the next chunk builds its own
    if not pieces:
        raise InconsistencyError("evidence and hard formulas admit no world")
    top = max(shift for shift, _, _ in pieces)
    z = sum(s * np.exp(shift - top) for shift, s, _ in pieces)
    qtotals = sum(
        (qs * np.exp(shift - top) for shift, _, qs in pieces),
        np.zeros(len(query_ids)),
    )
    if z <= 0.0:
        raise InconsistencyError("zero partition mass")
    return float(np.log(z) + top), qtotals / z


def exact_marginals(
    model: Model,
    evidence: EvidenceSet,
    queries: Sequence[Atom],
    atom_cap: int = DEFAULT_ATOM_CAP,
    ground_cap: int = DEFAULT_GROUND_CAP,
) -> dict[Atom, float]:
    """P(atom = true | evidence) for each query atom, by enumeration."""
    check_integer(atom_cap, "atom_cap", 0)
    cond = ground(model, ground_cap).condition(evidence)
    result, open_queries = cond.split_queries(queries)
    if open_queries or cond.hard:
        ids = [cond.index[a] for a in open_queries]
        _, probs = _enumerate(cond, ids, atom_cap)
        result.update({a: float(p) for a, p in zip(open_queries, probs)})
    return result


def exact_query(
    model: Model,
    evidence: EvidenceSet,
    query: tuple[Atom, bool] | Atom,
    atom_cap: int = DEFAULT_ATOM_CAP,
    ground_cap: int = DEFAULT_GROUND_CAP,
) -> float:
    """Probability that the query literal holds given the evidence."""
    atom, value = query if isinstance(query, tuple) else (query, True)
    p = exact_marginals(model, evidence, [atom], atom_cap, ground_cap)[atom]
    return p if value else 1.0 - p


def enumerate_world_distribution(
    model: Model,
    evidence: EvidenceSet,
    atom_cap: int = 16,
    ground_cap: int = DEFAULT_GROUND_CAP,
) -> tuple[tuple[Atom, ...], np.ndarray]:
    """Exact distribution over the worlds of the atoms that evidence and
    unit propagation leave open, indexed by packed atom bits.

    Index w sets atoms[i] to bit i of w.  Only sensible for
    small models; guarded by `atom_cap`.
    """
    check_integer(atom_cap, "atom_cap", 0)
    cond = ground(model, ground_cap).condition(evidence)
    n = len(cond.atoms)
    if n > atom_cap:
        raise CapacityError(f"{n} atoms exceed the world-distribution cap of {atom_cap}")
    logw = np.concatenate([logw for _, logw in _world_chunks(cond, range(n))])
    shift = logw.max()
    if shift == -np.inf:
        raise InconsistencyError("evidence and hard formulas admit no world")
    probs = np.exp(logw - shift)
    probs /= probs.sum()
    return cond.atoms, probs
