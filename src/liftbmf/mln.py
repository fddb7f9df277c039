"""Minimal Markov Logic engine: parsing, grounding, exact inference.

Every ground atom has an integer id (`_AtomIds`), its place in `Model.all_atoms()`.
Grounding turns each first-order formula into one template, whose leaves
compute an atom id from a binding given as domain positions; a grounding
is a template plus one such binding, and no ground copy of the formula is
built.  Conditioning walks a template under a binding with the known atom
values in one flat list indexed by id, and keeps the residual over the
atoms left open, whose leaves are ids.  Unit propagation over the hard
groundings comes first: an atom it derives becomes known exactly like
evidence.  A model of many groundings is conditioned one formula at a
time instead, its groundings' atom ids and values as arrays, with the
template evaluated once per distinct row of values (`_FormulaArray`); the
result is the same.  Each residual is compiled to a table of log
factors; within one conditioning, residuals of the same shape (the same
formula once their atoms are renamed in id order) and the same weight
share one table.
`Atom` objects are built only for the atoms left open.  Worlds assign a
truth value to every ground atom that evidence and unit propagation leave
open; each satisfied grounding of a weighted formula multiplies the world
weight by e^w, and hard formulas filter worlds outright (they never
down-weight).  Exact queries enumerate those worlds in log space, adding each
table to a chunk of them as one strided view: the oracle for all built on top.
"""
from __future__ import annotations

import bisect
import itertools
import math
import numbers
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (CapacityError, InconsistencyError, InputError, check_integer, is_integer,
                     read_integer, read_real)

__all__ = [
    "Atom", "Not", "And", "Or", "Implies", "Iff", "Formula",
    "Model", "EvidenceSet",
    "parse_model", "parse_evidence", "parse_formula", "parse_literal",
    "format_formula", "format_atom", "format_literal",
    "ground", "Grounding", "Conditioned", "constant_symmetry_classes",
    "exact_query", "exact_marginals", "enumerate_world_distribution",
    "DEFAULT_ATOM_CAP", "DEFAULT_GROUND_CAP",
]

DEFAULT_ATOM_CAP = 24
DEFAULT_GROUND_CAP = 1_000_000
_WORLD_ATOM_CAP = 16  # atoms whose whole world distribution is built or counted
_ARRAY_GROUNDINGS = 128  # groundings from which conditioning evaluates formulas as arrays

# The one name grammar, of predicates, constants and variables.
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)


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
    return isinstance(token, str) and token[:1].isupper()


def _check_ground(atom: Atom, kind: str) -> None:
    """InputError unless the arguments of `atom` are a tuple of nonempty
    strings, none a variable."""
    if not isinstance(atom.args, tuple):
        raise InputError(f"{kind}: arguments {atom.args!r} of {atom.pred} are not a tuple")
    for arg in atom.args:
        if not (isinstance(arg, str) and arg):
            raise InputError(f"{kind}: argument {arg!r} of {atom.pred} is not a name")
    for arg in atom.args:
        if is_variable(arg):
            raise InputError(f"{kind} atom {format_atom(atom)} is not ground")


def _check_name(kind: str, *names: str) -> None:
    """InputError unless each of `names` can name a `kind`, "constant" or
    "predicate": a string of letters, digits and "_", not a digit or an uppercase
    letter (a variable) first, and for a predicate not "v", the disjunction."""
    for name in names:
        if not (isinstance(name, str) and _NAME_RE.fullmatch(name)) or is_variable(name):
            raise InputError(f"invalid {kind} name {name!r}")
        if kind == "predicate" and name == "v":
            raise InputError("'v' is reserved for disjunction")


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
        raise InputError(f"not a formula: {f!r}")


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

# A token after optional whitespace, or else the one character that starts no token.
_TOKEN_RE = re.compile(rf"\s*(?:(=>|<=>|[()!,^]|{_NAME})|(\S))")


class _Parser:
    def __init__(self, text: str, where: str):
        self.where = where
        self.tokens: list[str] = []
        for tok, bad in _TOKEN_RE.findall(text):
            if bad:
                raise InputError(f"{where}: unexpected character {bad!r}")
            self.tokens.append(tok)
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


# The common form of a literal, `!?name(c1, ..., ck)` with spaces and tabs
# around its tokens; the groups are the "!", the name and the arguments.
_LITERAL_RE = re.compile(
    rf"[ \t]*(!?)[ \t]*({_NAME})[ \t]*"
    rf"(?:\([ \t]*({_NAME}(?:[ \t]*,[ \t]*{_NAME})*)?[ \t]*\))?[ \t]*"
)


def parse_literal(text: str, model: "Model | None" = None, where: str = "literal") -> tuple[Atom, bool]:
    """A ground atom, negated by a leading "!", and its truth value.

    The common form is read with one regex and checked against the
    model's atom layout; every other text, and every literal that a check
    refuses, goes through `_Parser`, the one source of error text, so both
    paths return the same literal or raise the same error."""
    m = _LITERAL_RE.fullmatch(text)
    if m is not None:
        bang, name, listed = m.groups()
        atom = Atom(name, tuple(map(str.strip, listed.split(","))) if listed else ())
        if model is None:
            ok = not any(map(is_variable, atom.args))
        else:
            ok = model._ids.id_of(atom) is not None
        if ok:
            return atom, not bang
    return _parsed_literal(text, model, where)


def _parsed_literal(text: str, model: "Model | None", where: str) -> tuple[Atom, bool]:
    """`parse_literal` through `_Parser`, for any text."""
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

    Free variables are implicitly universally quantified over the domain;
    the model builds its one atom layout, `_AtomIds`, when it is made."""

    domain: tuple[str, ...]
    predicates: Mapping[str, int]
    weighted_formulas: tuple[tuple[float, Formula], ...] = ()
    hard_formulas: tuple[Formula, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(self.domain))
        object.__setattr__(self, "predicates", dict(self.predicates))
        _check_name("constant", *self.domain)
        _check_name("predicate", *self.predicates)
        for name, arity in self.predicates.items():
            check_integer(arity, f"arity of {name}", 0)
        object.__setattr__(self, "_ids", _AtomIds(self.domain, self.predicates))
        if len(self._ids.position) != len(self.domain):
            raise InputError("domain constants are not unique")
        weighted = []
        for w, f in self.weighted_formulas:
            self.check_formula(f, "weighted formula")  # before a weight message formats `f`
            if isinstance(w, bool) or not isinstance(w, numbers.Real):
                raise InputError(f"weight {w!r} of {format_formula(f)} is not a real number")
            try:
                weighted.append((float(w), f))
            except OverflowError:  # an int beyond the float range
                raise InputError(f"weight of {format_formula(f)} is not finite as a float") from None
            if not math.isfinite(w):
                raise InputError(f"weight {float(w)} of {format_formula(f)} is not finite")
        object.__setattr__(self, "weighted_formulas", tuple(weighted))
        object.__setattr__(self, "hard_formulas", tuple(self.hard_formulas))
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
        self._ids.check(f, where)

    def all_atoms(self) -> tuple[Atom, ...]:
        """Every ground atom of the signature, in atom id order (see `_AtomIds`)."""
        return tuple(map(self._ids.atom, range(self._ids.count)))

    def extended(self, predicates: Mapping[str, int] = (), hard: Iterable[Formula] = ()) -> "Model":
        """A new model with extra predicates and hard formulas appended."""
        preds = dict(self.predicates)
        for name, arity in dict(predicates).items():
            if name in preds:
                raise InputError(f"predicate {name!r} already declared")
            preds[name] = arity
        return Model(
            self.domain,
            preds,
            self.weighted_formulas,
            self.hard_formulas + tuple(hard),
        )

    def to_text(self) -> str:
        out = ["domain = " + ", ".join(self.domain)]
        for name in sorted(self.predicates):
            out.append(f"pred {name}/{self.predicates[name]}")
        for w, f in self.weighted_formulas:
            out.append(f"{w!r} {format_formula(f)}")
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
        _check_ground(atom, "evidence")
        if not isinstance(value, (bool, np.bool_)):
            raise InputError(f"value of {format_atom(atom)} must be a bool, got {value!r}")
        if atom in self._assignments:
            raise InputError(f"atom {format_atom(atom)} assigned twice")
        self._assignments[atom] = bool(value)

    def items(self):
        return self._assignments.items()

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
            arity = read_integer(arity_text.strip(), f"line {lineno}: bad arity {arity_text!r}")
            if name in predicates:
                raise InputError(f"line {lineno}: predicate {name!r} already declared")
            predicates[name] = arity
            continue
        if line.startswith("hard ") or line == "hard":
            pending.append((lineno, line[len("hard"):].strip(), None))
            continue
        head, _, rest = line.partition(" ")
        weight = read_real(
            head, f"line {lineno}: expected 'domain', 'pred', 'hard' or a weight, got {head!r}"
        )
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

# Templates and residuals are nested tuples.  A leaf is an int, the id of an
# atom, or, in a template only, (_ATOM, offset, ((slot, stride), ...)): the
# atom whose id is offset plus, per variable slot, the domain position bound
# to it times its stride.  Every other node is a connective tag followed by
# its operands: (_NOT, sub), (_AND, *parts), (_OR, *parts),
# (_IMPLIES, premise, conclusion) and (_IFF, left, right).
_ATOM, _NOT, _AND, _OR, _IMPLIES, _IFF = range(6)


class _AtomIds:
    """A model's one atom layout, read by its formula checks, literal parsing,
    conditioning, `all_atoms()` and symmetry classes.  An atom's id is its
    predicate's offset (predicates in name order, m^arity ids each) plus the
    mixed-radix value of its arguments' domain positions, the first most significant."""

    def __init__(self, domain: Sequence[str], predicates: Mapping[str, int]):
        self.domain = domain
        self.position = {c: k for k, c in enumerate(domain)}
        self.layout = dict.fromkeys(predicates)  # name -> (offset, arity), in declared order
        self.count = 0
        for name in sorted(predicates):  # offsets in name order
            arity = int(predicates[name])
            self.layout[name] = (self.count, arity)
            self.count += len(domain) ** arity
        self._names = sorted(self.layout)
        self._offsets = [self.layout[name][0] for name in self._names]

    def check(self, f: Formula, where: str) -> None:
        """InputError, naming what is wrong, unless `f` is a formula whose
        atoms, each with a tuple of arguments, are over the signature."""
        try:
            atoms = list(atoms_of(f))
        except InputError as exc:
            raise InputError(f"{where}: {exc}") from None
        for atom in atoms:
            if not isinstance(atom.args, tuple):
                raise InputError(f"{where}: arguments {atom.args!r} of {atom.pred} are not a tuple")
            _, arity = self.layout.get(atom.pred, (0, None))
            if arity is None:
                raise InputError(f"{where}: unknown predicate {atom.pred!r}")
            if arity != len(atom.args):
                raise InputError(f"{where}: {atom.pred} expects {arity} arguments, "
                                 f"got {len(atom.args)}")
            for arg in atom.args:
                if not is_variable(arg) and arg not in self.position:
                    raise InputError(f"{where}: unknown constant {arg!r}")

    def id_of(self, atom: Atom) -> int | None:
        """The id of `atom`, or None unless it is a ground atom of the signature."""
        offset, arity = self.layout.get(atom.pred, (0, -1))
        if arity != len(atom.args):
            return None
        position, m = self.position, len(self.domain)
        value = 0
        try:
            for arg in atom.args:
                value = value * m + position[arg]
        except KeyError:
            return None
        return offset + value

    def atom(self, atom_id: int) -> Atom:
        name = self._names[bisect.bisect_right(self._offsets, atom_id) - 1]
        offset, arity = self.layout[name]
        value, m, args = atom_id - offset, len(self.domain), [None] * arity
        for j in range(arity - 1, -1, -1):  # base-m digits, the last argument least significant
            value, args[j] = divmod(value, m)
        return Atom(name, tuple(self.domain[k] for k in args))

    def known(self, evidence: EvidenceSet) -> list[bool | None]:
        """The evidence as a list indexed by atom id, None where unassigned;
        InputError, from `check`, for an atom outside the signature."""
        known: list[bool | None] = [None] * self.count
        for atom, value in evidence.items():
            atom_id = self.id_of(atom)
            if atom_id is None:
                self.check(atom, "evidence")  # raises, naming what is wrong
            known[atom_id] = value
        return known

    def arrays(self, flat: np.ndarray) -> Iterator[np.ndarray]:
        """`flat`, indexed by atom id, cut into one m x ... x m view per predicate
        of nonzero arity, in declaration order; entry (c1, ..., ck) is p(c1, ..., ck)'s."""
        m = len(self.domain)
        for offset, arity in self.layout.values():
            if arity:
                yield flat[offset:offset + m ** arity].reshape((m,) * arity)

    def template(self, f: Formula, variables: Sequence[str]):
        """`f` as a template whose slot k holds variables[k]."""
        if isinstance(f, Atom):
            offset, arity = self.layout[f.pred]
            strides: dict[int, int] = {}
            for j, arg in enumerate(f.args):
                stride = len(self.domain) ** (arity - 1 - j)
                if is_variable(arg):
                    slot = variables.index(arg)
                    strides[slot] = strides.get(slot, 0) + stride
                else:
                    offset += self.position[arg] * stride
            return (_ATOM, offset, tuple(strides.items())) if strides else offset
        if isinstance(f, Not):
            return (_NOT, self.template(f.sub, variables))
        if isinstance(f, (And, Or)):
            tag = _OR if isinstance(f, Or) else _AND
            return (tag, *(self.template(p, variables) for p in f.parts))
        if isinstance(f, Implies):
            return (_IMPLIES, self.template(f.premise, variables),
                    self.template(f.conclusion, variables))
        return (_IFF, self.template(f.left, variables), self.template(f.right, variables))

    def formula(self, residual) -> Formula:
        """A residual as a formula over ground atoms."""
        if type(residual) is int:
            return self.atom(residual)
        tag, *subs = residual
        subs = [self.formula(sub) for sub in subs]
        if tag == _NOT:
            return Not(subs[0])
        if tag == _AND or tag == _OR:
            return (Or if tag == _OR else And)(tuple(subs))
        return (Implies if tag == _IMPLIES else Iff)(*subs)


def _partial(node, positions: Sequence[int], known: Sequence[bool | None]):
    """`node`, a template or a residual, under `positions` (the domain
    position bound to each variable slot), with the values of `known`
    (indexed by atom id, None for an open atom) folded in at the leaves:
    a bool when fully determined, else the residual over the open atoms."""
    if type(node) is int:
        value = known[node]
        return node if value is None else value
    tag = node[0]
    if tag == _ATOM:
        atom_id = node[1]
        for slot, stride in node[2]:
            atom_id += positions[slot] * stride
        value = known[atom_id]
        return atom_id if value is None else value
    if tag == _NOT:
        sub = _partial(node[1], positions, known)
        return (not sub) if type(sub) is bool else (_NOT, sub)
    if tag == _AND or tag == _OR:
        short = tag == _OR
        parts = []
        for part in node[1:]:
            value = _partial(part, positions, known)
            if type(value) is bool:
                if value is short:
                    return short
                continue
            parts.append(value)
        if not parts:
            return not short
        if len(parts) == 1:
            return parts[0]
        return (tag, *parts)
    left = _partial(node[1], positions, known)
    right = _partial(node[2], positions, known)
    if tag == _IMPLIES:
        if left is False or right is True:
            return True
        if left is True:
            return right
        if right is False:
            return (_NOT, left)
        return (_IMPLIES, left, right)
    if type(left) is bool and type(right) is bool:
        return left == right
    if left is True:
        return right
    if right is True:
        return left
    if left is False:
        return (_NOT, right)
    if right is False:
        return (_NOT, left)
    return (_IFF, left, right)


def _leaf_ids(residual, out: list[int]) -> list[int]:
    """`out` with the atom ids at the leaves of `residual` appended."""
    if type(residual) is int:
        out.append(residual)
    else:
        for sub in residual[1:]:
            _leaf_ids(sub, out)
    return out


def _renamed(residual, rank: Mapping[int, int]):
    """`residual` with each leaf id replaced by rank[id]."""
    if type(residual) is int:
        return rank[residual]
    return (residual[0], *(_renamed(sub, rank) for sub in residual[1:]))


@dataclass(frozen=True)
class Grounding:
    """All groundings of the model's formulas, before evidence: each is a
    formula's template (see `_AtomIds.template`) with one binding of its
    variables, a tuple holding the domain position of each variable's
    constant, and stands for the formula with those constants put in."""

    model: Model
    weighted: tuple[tuple[float, object, tuple[int, ...]], ...]
    hard: tuple[tuple[object, tuple[int, ...]], ...]

    def condition(self, evidence: EvidenceSet) -> "Conditioned":
        return _condition(self, evidence)


def ground(model: Model) -> Grounding:
    """One grounding per formula and binding of its variables over the
    domain, bindings in `itertools.product` order; each formula's template
    is built once.  CapacityError when the groundings, or the ground atoms
    of the signature (the sum over predicates of m^arity, every one of
    which conditioning gives a place), number more than `DEFAULT_GROUND_CAP`,
    read at each call."""
    m = len(model.domain)
    if m == 0:
        raise InputError("cannot ground a model with an empty domain")
    ids = model._ids
    if ids.count > DEFAULT_GROUND_CAP:
        raise CapacityError(f"{ids.count} ground atoms exceed the cap of {DEFAULT_GROUND_CAP}")
    formulas = [f for _, f in model.weighted_formulas] + list(model.hard_formulas)
    total = sum(m ** len(free_variables(f)) for f in formulas)
    if total > DEFAULT_GROUND_CAP:
        raise CapacityError(f"{total} groundings exceed the cap of {DEFAULT_GROUND_CAP}")

    def groundings(f: Formula):
        variables = free_variables(f)
        template = ids.template(f, variables)
        return ((template, b) for b in itertools.product(range(m), repeat=len(variables)))

    weighted = tuple((w, t, b) for w, f in model.weighted_formulas for t, b in groundings(f))
    hard = tuple(g for f in model.hard_formulas for g in groundings(f))
    return Grounding(model, weighted, hard)


@dataclass(frozen=True)
class _CompiledFormula:
    atom_ids: tuple[int, ...]
    # log factor over the 2^len(atom_ids) assignments: the weight where a
    # weighted grounding holds, else 0; 0 where a hard one holds, else -inf
    log_table: np.ndarray

    def packed(self, column) -> int:
        """Index into `log_table` of one world, `column[i]` atom i's value, 0 or 1."""
        return sum(column[atom_id] << pos for pos, atom_id in enumerate(self.atom_ids))

    def log_factor(self, column) -> float:
        """Log factor in one world (see `packed`)."""
        return self.log_table[self.packed(column)]


def permute_axes(table: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """`table` with every axis reindexed by `perm`: entry (c1, ..., ck) of
    the result is entry (perm[c1], ..., perm[ck]) of `table`."""
    for axis in range(table.ndim):
        table = table.take(perm, axis)
    return table


def constant_symmetry_classes(model: Model, evidence: EvidenceSet) -> tuple[tuple[str, ...], ...]:
    """Constants exchangeable under the evidence and the model's formulas.

    Two constants share a class when swapping them maps the evidence onto
    itself, i.e. leaves each predicate's int8 evidence array (-1 unassigned)
    equal with every axis permuted; constants mentioned in a formula stay
    singletons, so class permutations keep world weights.  Preserving swaps
    form a group, so a constant is tested against one member per class:
    O(classes * m * m^arity).  The evidence is read as conditioning reads it
    (`_AtomIds.known`), so evidence outside the model raises its InputError.
    """
    ids = model._ids
    formulas = model.hard_formulas + tuple(f for _, f in model.weighted_formulas)
    mentioned = {a for f in formulas for atom in atoms_of(f) for a in atom.args
                 if a in ids.position}
    flat = np.array([-1 if value is None else value for value in ids.known(evidence)], np.int8)
    assigned = [t for t in ids.arrays(flat) if (t >= 0).any()]
    # a swap keeps a unary table iff the two entries it exchanges are equal
    unary = [t.tolist() for t in assigned if t.ndim == 1]
    signature = [tuple(values[k] for values in unary) for k in range(len(model.domain))]
    wider = [(t, t.tobytes()) for t in assigned if t.ndim > 1]
    identity = np.arange(len(model.domain))

    def swaps(a: str, b: str) -> bool:
        a, b = ids.position[a], ids.position[b]
        if signature[a] != signature[b]:
            return False
        perm = identity.copy()
        perm[a], perm[b] = b, a
        return all(permute_axes(t, perm).tobytes() == raw for t, raw in wider)

    classes: list[list[str]] = []
    for c in model.domain:
        # (c d) = (d0 d)(c d0)(d0 d), and each member d of a class swaps with
        # its first member d0: so c swaps with all members iff with d0.
        for cls in () if c in mentioned else classes:
            if cls[0] not in mentioned and swaps(c, cls[0]):
                cls.append(c)
                break
        else:
            classes.append([c])
    return tuple(tuple(cls) for cls in classes)


@dataclass(frozen=True)
class Conditioned:
    """The groundings with their known atoms folded out, compiled once.

    `known`, indexed by atom id, holds the given evidence plus every atom
    that unit propagation over the hard groundings derives from it, and
    None where an atom is open: a hard grounding left with one open atom
    and one allowed value for it fixes that atom, exactly as evidence
    does, and every world of positive weight agrees with it.
    `atoms` is every other ground atom of the signature, the atoms left
    open, in atom id order; compiled formulas index into it.  `formulas`
    is `hard` then `weighted`, and `blanket[i]` lists the positions in
    `formulas` of those touching atom i, ascending, so hard ones come
    first.  `slot`, indexed by atom id like `known`, holds an open atom's
    index in `atoms` and -1 for a known atom: the one map from atom ids to
    open atoms, from which compiled formulas, queries and relabeling take indices.
    """

    model: Model
    known: list[bool | None]
    atoms: tuple[Atom, ...]
    slot: list[int]
    weighted: tuple[_CompiledFormula, ...]
    hard: tuple[_CompiledFormula, ...]
    const_log_weight: float
    formulas: tuple[_CompiledFormula, ...]
    blanket: tuple[tuple[int, ...], ...]

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
        """Log weight of a world, -inf if a hard grounding fails; factors added in compiled order."""
        column = self._column(values)
        logw = self.const_log_weight
        for comp in self.formulas:
            logw += comp.log_factor(column)
        return float(logw)

    @cached_property
    def _plans(self) -> tuple[tuple[tuple[memoryview, int, tuple[tuple[int, int], ...]], ...], ...]:
        """Per open atom i, one entry per formula of `blanket[i]`, in order:
        the formula's log table as a memoryview of its array (indexing it
        gives a Python float), atom i's bit in the packed index, and the
        (bit position, atom id) pairs of its other atoms.  Built on the
        first conditional, so exact enumeration never pays for it."""
        plans: list[list] = [[] for _ in self.atoms]
        views: dict[int, memoryview] = {}  # formulas of one shape share a table
        for comp in self.formulas:
            table = views.get(id(comp.log_table))
            if table is None:
                table = views[id(comp.log_table)] = memoryview(comp.log_table)
            pairs = tuple(enumerate(comp.atom_ids))
            for pos, i in enumerate(comp.atom_ids):
                plans[i].append((table, 1 << pos, pairs[:pos] + pairs[pos + 1:]))
        return tuple(map(tuple, plans))

    @cached_property
    def _neighbours(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per open atom i, its Markov blanket neighbours: the other atoms
        of the formulas of `blanket[i]`, ascending, each as (atom id, bit)
        with bit 1 << its rank.  OR-ing the bits of the true ones packs the
        only state `_conditional(column, i)` reads.  Read off `_plans`, so
        built for the chain only, and exact enumeration never pays for it."""
        neighbours = []
        for plan in self._plans:
            ids = sorted({a for _, _, others in plan for _, a in others})
            neighbours.append(tuple((a, 1 << rank) for rank, a in enumerate(ids)))
        return tuple(neighbours)

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
            for pos, atom_id in others:
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
        column = self._column(values)
        perm = np.asarray(perm)
        m = len(self.model.domain)
        if not (perm.shape == (m,) and perm.dtype.kind in "iu"
                and (np.sort(perm) == np.arange(m)).all()):
            raise InputError(f"perm must hold each of the {m} domain positions exactly once")
        for lookup in self.model._ids.arrays(np.array(self.slot)):
            if not (permute_axes(lookup, perm)[lookup >= 0] >= 0).all():
                raise InputError("the permutation moves an open atom onto a known atom")
        return np.array(self._relabeled(column, perm.tolist()), dtype=np.int64)

    @cached_property
    def _relabeling_parts(self) -> tuple[tuple[tuple[int, list[int], int], ...],
                                         tuple[tuple[int, list[int], tuple[int, ...]], ...]]:
        """Per open atom of a predicate of nonzero arity, in declaration order:
        its index in `atoms`, its predicate's part of `slot` as a list and
        its constants' domain positions, one int for a unary atom (the first
        part), a tuple for the rest.  Cut from `slot` on the first relabeling."""
        unary, rest = [], []
        for lookup in self.model._ids.arrays(np.array(self.slot)):
            flat = lookup.ravel().tolist()
            is_open = lookup >= 0
            for atom_id, places in zip(lookup[is_open].tolist(), np.argwhere(is_open).tolist()):
                if lookup.ndim == 1:
                    unary.append((atom_id, flat, places[0]))
                else:
                    rest.append((atom_id, flat, tuple(places)))
        return tuple(unary), tuple(rest)

    def _relabeled(self, column: list[int], perm: Sequence[int]) -> list[int]:
        """`relabeled` as a new list, on a world already checked by `_column`
        and a permutation, as a list, that keeps open atoms open.  An atom's
        new place is read off its predicate's flat lookup at the renamed
        positions, taken as the digits of a base-m number: one lookup for a
        unary atom."""
        m = len(perm)
        new = column[:]
        unary, rest = self._relabeling_parts
        for atom_id, flat, c in unary:
            new[flat[perm[c]]] = column[atom_id]
        for atom_id, flat, places in rest:
            at = 0
            for c in places:
                at = at * m + perm[c]
            new[flat[at]] = column[atom_id]
        return new

    def split_queries(self, queries: Sequence[Atom]) -> tuple[dict[Atom, float], dict[Atom, int]]:
        """Check query atoms; split off the known ones, given or derived,
        with their probability, from the open ones, with their index in `atoms`."""
        fixed: dict[Atom, float] = {}
        open_queries: dict[Atom, int] = {}
        for atom in queries:
            _check_ground(atom, "query")
            self.model.check_formula(atom, "query")
            atom_id = self.model._ids.id_of(atom)
            value = self.known[atom_id]
            if value is None:
                open_queries[atom] = self.slot[atom_id]
            else:
                fixed[atom] = 1.0 if value else 0.0
        return fixed, open_queries


def _log_table(shape, n: int, weight: float | None) -> np.ndarray:
    """Read-only log factors of a residual whose leaves are 0 to n-1, one
    per assignment: entry `packed` sets leaf r to bit r of `packed`.
    `weight` None compiles a hard residual."""
    if n > 20:
        raise CapacityError(f"ground formula touches {n} atoms; table too large")
    holds, fails = (0.0, -np.inf) if weight is None else (weight, 0.0)
    table = np.empty(1 << n)
    for packed in range(1 << n):
        bits = [packed >> r & 1 == 1 for r in range(n)]
        table[packed] = holds if _partial(shape, (), bits) else fails
    table.setflags(write=False)
    return table


def _condition(grounding: Grounding, evidence: EvidenceSet) -> Conditioned:
    """The compiled model.  From `_ARRAY_GROUNDINGS` groundings, read at each
    call, formulas are evaluated as arrays (`_FormulaArray`), else one
    grounding at a time; both give equal fields and raise the same errors."""
    model = grounding.model
    ids = model._ids
    known = ids.known(evidence)
    arrays = len(grounding.weighted) + len(grounding.hard) >= _ARRAY_GROUNDINGS
    if arrays:
        weighted_parts, hard_parts = _formula_arrays(grounding)
        values = np.array([2 if value is None else value for value in known], np.int8)
        hard_groups = _propagate_arrays(hard_parts, values)
        arrays = hard_groups is not None
        if arrays:
            known = [_VALUES[value] for value in values.tolist()]
    if not arrays:  # the worklist refutes what the rounds refute, with its own message
        residual_hard = _unit_propagate(grounding.hard, known, ids)
    open_ids = [i for i, value in enumerate(known) if value is None]
    slot = [-1] * ids.count
    for k, atom_id in enumerate(open_ids):
        slot[atom_id] = k
    atoms = tuple(map(ids.atom, open_ids))
    # Groundings whose residuals agree up to renaming their atoms in id
    # order share one table.  The key holds the weight's hex so that -0.0
    # and 0.0, whose tables differ, are told apart.
    tables: dict[tuple, np.ndarray] = {}

    def table(shape, n: int, weight: float | None) -> np.ndarray:
        key = (shape, None if weight is None else weight.hex())
        found = tables.get(key)
        if found is None:
            found = tables[key] = _log_table(shape, n, weight)
        return found

    def compiled(residual, weight: float | None) -> _CompiledFormula:
        leaves = sorted(set(_leaf_ids(residual, [])))
        shape = _renamed(residual, {atom_id: r for r, atom_id in enumerate(leaves)})
        return _CompiledFormula(tuple(slot[i] for i in leaves), table(shape, len(leaves), weight))

    const_log_weight = 0.0
    weighted = []
    if arrays:
        slots = np.array(slot)
        for part in weighted_parts:
            holds, comps = part.compiled(part.groups(values), slots, table)
            for _ in range(holds):  # one addition per grounding, so the sum rounds as the loop's
                const_log_weight += part.weight
            weighted += comps
        hard = [comp for part, groups in zip(hard_parts, hard_groups)
                for comp in part.compiled(groups, slots, table)[1]]
    else:
        for w, template, positions in grounding.weighted:
            simp = _partial(template, positions, known)
            if simp is True:
                const_log_weight += w
            elif simp is not False:
                weighted.append(compiled(simp, w))
        hard = [compiled(simp, None) for simp in residual_hard if simp is not True]
    formulas = tuple(hard + weighted)
    blanket: list[list[int]] = [[] for _ in atoms]
    for k, comp in enumerate(formulas):
        for atom_id in comp.atom_ids:
            blanket[atom_id].append(k)
    return Conditioned(
        model, known, atoms, slot, tuple(weighted), tuple(hard), const_log_weight, formulas,
        tuple(map(tuple, blanket)),
    )


# --- conditioning one formula at a time, as arrays --------------------------

_VALUES = (False, True, None)  # an atom's value as the array path codes it: 0, 1 or 2 (open)


def _numbered(template, leaves: list):
    """`template` with each leaf, appended to `leaves`, replaced by its place there."""
    if type(template) is int or template[0] == _ATOM:
        leaves.append(template)
        return len(leaves) - 1
    return (template[0], *(_numbered(sub, leaves) for sub in template[1:]))


def _equal_rows(rows: np.ndarray) -> list[np.ndarray]:
    """The row indices of a 2-d array, one ascending array per distinct row."""
    if not rows.shape[1]:
        return [np.arange(len(rows))]
    order = np.lexsort(rows.T)  # stable
    ordered = rows[order]
    cuts = (np.flatnonzero((ordered[1:] != ordered[:-1]).any(axis=1)) + 1).tolist()
    return [order[start:end] for start, end in zip([0] + cuts, cuts + [len(order)])]


class _FormulaArray:
    """One formula's groundings as an array: `atom_ids[g, j]` is the id of
    the atom at leaf j of grounding g, groundings in `ground`'s order, and
    `numbered` is the template with leaf j numbered j.  Under its leaf
    values as a list, `_partial` turns `numbered` into the residual of every
    grounding with those values, leaf numbers standing for ids: a formula
    is evaluated once per distinct row of leaf values, and groundings that
    come out True or False cost no Python."""

    def __init__(self, weight: float | None, template, n_vars: int, m: int):
        self.weight = weight
        leaves: list = []
        self.numbered = _numbered(template, leaves)
        positions = np.indices((m,) * n_vars).reshape(n_vars, m ** n_vars)
        self.atom_ids = np.empty((m ** n_vars, len(leaves)), np.int64)
        for j, leaf in enumerate(leaves):
            self.atom_ids[:, j] = leaf if type(leaf) is int else (
                leaf[1] + sum(positions[s] * stride for s, stride in leaf[2]))

    def groups(self, values: np.ndarray) -> list[tuple[object, list[int], np.ndarray]]:
        """Per distinct row of leaf values under `values` (0, 1 or 2 per
        atom id, see `_VALUES`): the residual, its leaf numbers ascending,
        and the groundings with that row, ascending."""
        at_leaves = values[self.atom_ids]
        out = []
        for rows in _equal_rows(at_leaves):
            row = [_VALUES[v] for v in at_leaves[rows[0]].tolist()]
            residual = _partial(self.numbered, (), row)
            leaves = [] if type(residual) is bool else sorted(set(_leaf_ids(residual, [])))
            out.append((residual, leaves, rows))
        return out

    def compiled(self, groups, slots: np.ndarray, table) -> tuple[int, list[_CompiledFormula]]:
        """How many groundings of `groups` hold, and the compiled formula of
        each open one, in grounding order.  The open groundings of a group
        whose leaf ids compare alike share one shape and one `table(shape,
        n, weight)`, and map their atoms to open atoms in one gather from
        `slots`.  Tables are made in the order of their first grounding, so
        the first grounding over the cap raises the CapacityError."""
        holds = 0
        shapes = []  # (groundings, residual, rank per leaf, atom ids in id order)
        for residual, leaves, rows in groups:
            if residual is True:
                holds += len(rows)
            elif residual is not False:
                at = self.atom_ids[np.ix_(rows, leaves)]
                first, second = np.triu_indices(len(leaves), 1)
                for alike in _equal_rows(np.sign(at[:, first] - at[:, second])):
                    sample = at[alike[0]].tolist()
                    distinct = sorted(set(sample))
                    rank = {leaf: distinct.index(i) for leaf, i in zip(leaves, sample)}
                    columns = [sample.index(i) for i in distinct]
                    shapes.append((rows[alike], residual, rank, at[np.ix_(alike, columns)]))
        comps: list = [None] * len(self.atom_ids)
        for rows, residual, rank, at in sorted(shapes, key=lambda shape: shape[0][0]):
            shared = table(_renamed(residual, rank), at.shape[1], self.weight)
            for g, atom_ids in zip(rows.tolist(), slots[at].tolist()):
                comps[g] = _CompiledFormula(tuple(atom_ids), shared)
        return holds, [comp for comp in comps if comp is not None]


def _formula_arrays(grounding: Grounding) -> tuple[list[_FormulaArray], list[_FormulaArray]]:
    """The weighted and the hard formulas' `_FormulaArray`s, from the
    templates of `grounding`, where a formula of k variables has m^k groundings in a row."""
    m = len(grounding.model.domain)

    def parts(groundings, weights):
        out, k = [], 0
        for weight in weights:
            template, positions = groundings[k][-2:]
            out.append(_FormulaArray(weight, template, len(positions), m))
            k += m ** len(positions)
        return out

    return (parts(grounding.weighted, [w for w, _ in grounding.model.weighted_formulas]),
            parts(grounding.hard, [None] * len(grounding.model.hard_formulas)))


def _propagate_arrays(hard: Sequence[_FormulaArray], values: np.ndarray) -> list | None:
    """Unit propagation over the hard groundings in rounds.  Each round reads
    every grounding under `values` as the round found them and sets each atom
    that a grounding, left with that atom alone open, allows one value for;
    rounds run until one sets nothing, and that round's `groups` per formula
    are returned.  An atom set both ways in a round keeps one value, which
    refutes a grounding in the next.  None, with `values` part-way, when a
    grounding admits no value: `_unit_propagate` refutes the evidence then
    too.  Else `values` ends at the fixed point the worklist reaches, which
    is the same in any order."""
    while True:
        groups = [part.groups(values) for part in hard]
        forced: tuple[list, list] = ([], [])  # atom ids set False, True
        for part, part_groups in zip(hard, groups):
            for residual, leaves, rows in part_groups:
                if residual is False:
                    return None
                if residual is True:
                    continue
                at = part.atom_ids[np.ix_(rows, leaves)]
                alone = at[(at == at[:, :1]).all(axis=1), 0]  # groundings with one open atom
                if not len(alone):
                    continue
                allowed = [v for v in (False, True)
                           if _partial(residual, (), dict.fromkeys(leaves, v))]
                if not allowed:
                    return None
                if len(allowed) == 1:
                    forced[allowed[0]].append(alone)
        if not (forced[False] or forced[True]):
            return groups
        for value, ids in enumerate(forced):
            if ids:
                values[np.concatenate(ids)] = value


def _unit_propagate(
    hard: Sequence[tuple[object, tuple[int, ...]]], known: list[bool | None], ids: _AtomIds
) -> list:
    """Unit propagation to a fixed point: a hard grounding left with one
    open atom and one allowed value for it sets that atom in `known`, just
    as evidence does.  Returns every grounding's residual under the final
    `known`.  Raises when a grounding admits no value: then no world
    satisfies the evidence and the hard formulas.  A grounding watches the
    atoms of its first residual, a superset of every later one."""
    watchers: dict[int, list[int]] = {}
    residual: list = [None] * len(hard)
    pending = list(range(len(hard)))
    while pending:
        k = pending.pop()
        template, positions = hard[k]
        first = residual[k] is None
        simp = residual[k] = _partial(template, positions, known)
        if simp is True:
            continue
        open_ids = () if simp is False else set(_leaf_ids(simp, []))
        if first:
            for atom_id in open_ids:
                watchers.setdefault(atom_id, []).append(k)
        if len(open_ids) > 1:
            continue
        allowed = []
        for atom_id in open_ids:
            for value in (False, True):
                known[atom_id] = value
                if _partial(simp, (), known):
                    allowed.append((atom_id, value))
            known[atom_id] = None
        if not allowed:
            # with nothing known, the residual is the ground formula
            substituted = _partial(template, positions, [None] * ids.count)
            raise InconsistencyError(
                f"unit propagation refutes hard formula {format_formula(ids.formula(substituted))}; "
                "evidence and hard formulas are inconsistent"
            )
        if len(allowed) == 1:
            atom_id, known[atom_id] = allowed[0]
            residual[k] = True
            pending.extend(j for j in watchers[atom_id] if j != k)
    return residual


# --- exact inference by enumeration ---------------------------------------

_CHUNK_BITS = 18


def _chunk_log_weights(cond: Conditioned, bit: Mapping[int, int] | Sequence[int]):
    """Log weights of every world, world w setting each formula atom a to bit bit[a] of
    w, 2^_CHUNK_BITS worlds at a time: yields (first, logw), logw[j] that of world
    first + j.  Each table is added as a view whose axis ~b holds bit b: its r-th
    atom's axis steps 1 << r entries, or moves the view's start if a high bit, other
    axes none.  Added in compiled order, so each float is `log_weight`'s."""
    n = len(bit)
    low = min(n, _CHUNK_BITS)
    shape = (2,) * low
    for first in range(0, 1 << n, 1 << low):
        logw = np.full(shape, cond.const_log_weight)
        for comp in cond.formulas:
            offset, strides = 0, [0] * low
            for r, atom_id in enumerate(comp.atom_ids):
                b = bit[atom_id]
                if b < low:
                    strides[~b] = 8 << r  # in bytes, 8 per float64 entry
                elif first >> b & 1:
                    offset += 8 << r
            logw += np.ndarray(shape, np.float64, comp.log_table, offset, strides)
        yield first, logw.reshape(-1)


def _enumerate(cond: Conditioned, query_ids: Sequence[int], atom_cap: int) -> np.ndarray:
    """Streaming world sum over the open atoms some compiled formula
    touches, the same atoms whatever is queried; returns the marginal of
    each query.  A query outside every blanket is in no factor and no hard
    constraint, so it is uniform and independent of the rest: its sum is
    half the total, exactly."""
    active = [i for i, near in enumerate(cond.blanket) if near]
    if len(active) > atom_cap:
        raise CapacityError(
            f"{len(active)} enumerated atoms exceed the cap of {atom_cap}"
        )
    bit = dict(zip(active, range(len(active))))
    pieces: list[tuple[float, float, np.ndarray]] = []  # (shift, sum, query sums)
    for first, logw in _chunk_log_weights(cond, bit):
        mask = logw > -np.inf
        if mask.any():
            logw = logw[mask]
            shift = float(logw.max())
            weights = np.exp(logw - shift)
            total = float(weights.sum())
            idx = np.arange(first, first + len(mask), dtype=np.int64)
            qsums = np.array([
                weights[((idx >> bit[q]) & 1)[mask].astype(bool)].sum() if q in bit
                else 0.5 * total for q in query_ids
            ])
            pieces.append((shift, total, qsums))
    if not pieces:
        raise InconsistencyError("evidence and hard formulas admit no world")
    # every kept chunk holds a world of weight exp(0) = 1, so z >= 1
    top = max(shift for shift, _, _ in pieces)
    z = sum(s * np.exp(shift - top) for shift, s, _ in pieces)
    qtotals = sum(
        (qs * np.exp(shift - top) for shift, _, qs in pieces),
        np.zeros(len(query_ids)),
    )
    return qtotals / z


def exact_marginals(
    model: Model,
    evidence: EvidenceSet,
    queries: Sequence[Atom],
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> dict[Atom, float]:
    """P(atom = true | evidence) for each query atom, by enumeration of the
    open atoms the compiled formulas touch; each answer is the same
    whatever else is queried with it.  Without hard formulas every world
    is feasible, so when no open query is in a blanket every answer is 1/2
    and nothing is enumerated.  CapacityError when more than `atom_cap`
    atoms would be enumerated, or when `ground` refuses the model."""
    check_integer(atom_cap, "atom_cap", 0)
    cond = ground(model).condition(evidence)
    result, open_queries = cond.split_queries(queries)
    if cond.hard or any(cond.blanket[i] for i in open_queries.values()):
        probs = _enumerate(cond, list(open_queries.values()), atom_cap)
        result.update({a: float(p) for a, p in zip(open_queries, probs)})
    else:
        result.update(dict.fromkeys(open_queries, 0.5))
    return result


def exact_query(model: Model, evidence: EvidenceSet, query: Atom) -> float:
    """Probability that the query atom is true given the evidence, by
    `exact_marginals` at its default caps."""
    return exact_marginals(model, evidence, [query])[query]


def _check_world_atoms(n: int) -> None:
    """CapacityError when `n` open atoms exceed `_WORLD_ATOM_CAP`, read at each call."""
    if n > _WORLD_ATOM_CAP:
        raise CapacityError(f"{n} atoms exceed the world-distribution cap of {_WORLD_ATOM_CAP}")


def enumerate_world_distribution(
    model: Model, evidence: EvidenceSet
) -> tuple[tuple[Atom, ...], np.ndarray]:
    """Exact distribution over the worlds of the atoms that evidence and
    unit propagation leave open, indexed by packed atom bits.

    Index w sets atoms[i] to bit i of w.  Only sensible for small models:
    CapacityError over `_WORLD_ATOM_CAP` open atoms, read at each
    call, or when `ground` refuses the model.
    """
    cond = ground(model).condition(evidence)
    n = len(cond.atoms)
    _check_world_atoms(n)
    logw = np.concatenate([logw for _, logw in _chunk_log_weights(cond, range(n))])
    shift = logw.max()
    if shift == -np.inf:
        raise InconsistencyError("evidence and hard formulas admit no world")
    probs = np.exp(logw - shift)
    probs /= probs.sum()
    return cond.atoms, probs
