import itertools
import re

import numpy as np
import pytest

from liftbmf.boolmat import BoolMatrix, boolean_product
from liftbmf.errors import InconsistencyError, InputError
from liftbmf.experiments import planted_symmetry_instance, random_equivalence_instance
from liftbmf.factorize import Factorization, exact_boolean_rank, truncate
from liftbmf.mln import (
    Atom,
    EvidenceSet,
    Model,
    Not,
    atoms_of,
    format_formula,
    exact_query,
    ground,
    parse_evidence,
    parse_model,
)
from liftbmf.reduction import (
    constant_symmetry_classes,
    encode_evidence,
    encode_partial_evidence,
    extend_model,
    matrix_to_evidence,
    symmetry_signature_classes,
)

from conftest import LABELS, _known_atoms


def make_factorization(q_cols, r_cols, labels=LABELS):
    if not q_cols:
        return Factorization((), (len(labels), len(labels)), labels, labels)
    pairs = tuple(
        (np.array(q, dtype=np.uint8), np.array(r, dtype=np.uint8))
        for q, r in zip(q_cols, r_cols)
    )
    return Factorization(pairs, (len(q_cols[0]), len(r_cols[0])), labels, labels)


class TestEncodeEvidence:
    def test_rank_one_gives_eight_unary_literals(self):
        f = make_factorization([[0, 1, 0, 1]], [[1, 0, 0, 1]])
        result = encode_evidence("p", f)
        ev = result.unary_evidence
        assert len(ev) == 8
        expected = {
            ("p__q1", "a"): False,
            ("p__q1", "b"): True,
            ("p__q1", "c"): False,
            ("p__q1", "d"): True,
            ("p__r1", "a"): True,
            ("p__r1", "b"): False,
            ("p__r1", "c"): False,
            ("p__r1", "d"): True,
        }
        assert {(a.pred, a.args[0]): v for a, v in ev.items()} == expected
        # with one pair the hard formula is the plain conjunction form
        assert format_formula(result.added_formulas[0]) == (
            "p(X, Y) <=> p__q1(X) ^ p__r1(Y)"
        )

    def test_rank_three_gives_twenty_four_literals(self, example_factorization):
        result = encode_evidence("p", example_factorization)
        ev = result.unary_evidence
        assert len(ev) == 24
        # the display block of the worked example, transcribed
        q_signs = {
            "p__q1": {"a": False, "b": True, "c": False, "d": True},
            "p__q2": {"a": True, "b": True, "c": False, "d": False},
            "p__q3": {"a": False, "b": False, "c": True, "d": False},
            "p__r1": {"a": True, "b": False, "c": False, "d": True},
            "p__r2": {"a": True, "b": True, "c": False, "d": False},
            "p__r3": {"a": False, "b": False, "c": True, "d": False},
        }
        for pred, per_constant in q_signs.items():
            for constant, value in per_constant.items():
                assert ev[Atom(pred, (constant,))] is value
        assert result.rank_used == 3
        assert len(result.fresh_predicates) == 6

    def test_rank_zero_is_hard_negation(self):
        f = make_factorization([], [])
        result = encode_evidence("p", f)
        assert result.fresh_predicates == ()
        assert len(result.unary_evidence) == 0
        assert result.added_formulas == (Not(Atom("p", ("X", "Y"))),)

    def test_requires_labels(self):
        f = Factorization(
            ((np.ones(2, dtype=np.uint8), np.ones(2, dtype=np.uint8)),), (2, 2)
        )
        with pytest.raises(InputError, match="labels"):
            encode_evidence("p", f)

    @pytest.mark.parametrize(
        "pred, message",
        [
            ("P", "invalid predicate name 'P'"),
            ("a b", "invalid predicate name 'a b'"),
            ("p(x)", "invalid predicate name 'p(x)'"),
            ("1p", "invalid predicate name '1p'"),
            ("", "invalid predicate name ''"),
            ("v", "'v' is reserved for disjunction"),
        ],
    )
    def test_relation_names_follow_the_model_rule(self, example_factorization, pred, message):
        # the fragment would name a predicate that parsing it then refuses
        with pytest.raises(InputError, match=re.escape(message)):
            encode_evidence(pred, example_factorization)
        with pytest.raises(InputError, match=re.escape(message)):
            Model(LABELS, {pred: 2})

    @pytest.mark.parametrize("label", ["1a", "A", "Xy", "_"])
    @pytest.mark.parametrize("axis", ["row", "col"])
    def test_labels_follow_the_constant_rule(self, label, axis):
        labels = ("a", "b", "c", label)
        rows, cols = (labels, LABELS) if axis == "row" else (LABELS, labels)
        f = Factorization(((np.ones(4, np.uint8), np.ones(4, np.uint8)),), (4, 4), rows, cols)
        if label == "_":
            assert len(encode_evidence("p", f).unary_evidence) == 8
            return
        message = re.escape(f"invalid constant name {label!r}")
        with pytest.raises(InputError, match=message):
            encode_evidence("p", f)
        with pytest.raises(InputError, match=message):
            Model(labels, {"p": 2})

    def test_name_collision_is_an_error(self, example_factorization):
        with pytest.raises(InputError, match="collides"):
            encode_evidence("p", example_factorization, existing_predicates={"p__q2"})

    def test_round_trip_reproduces_boolean_product(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(0, min(m, 3) + 1))
            labels = tuple(f"e{i}" for i in range(m))
            q = BoolMatrix(rng.integers(0, 2, (m, n)).astype(np.uint8), labels, None)
            r = BoolMatrix(rng.integers(0, 2, (m, n)).astype(np.uint8), labels, None)
            pairs = tuple((q.bits[:, i].copy(), r.bits[:, i].copy()) for i in range(n))
            f = Factorization(pairs, (m, m), labels, labels)
            result = encode_evidence("p", f)
            # conditioning on the unary evidence alone fixes p to Q R^T
            extended = extend_model(Model(labels, {"p": 2}), result)
            cond = ground(extended).condition(result.unary_evidence)
            cells = list(itertools.product(labels, repeat=2))
            fixed, open_atoms = cond.split_queries([Atom("p", xy) for xy in cells])
            assert open_atoms == []
            product = boolean_product(q, r).bits.ravel().tolist()
            assert [fixed[Atom("p", xy)] for xy in cells] == product


class TestPartialEvidence:
    def test_single_known_atom(self):
        enc = encode_partial_evidence(
            "p", {Atom("p", ("a", "b"))}, set(), domain=("a", "b")
        )
        assert np.array_equal(enc.true_matrix.bits, np.array([[0, 1], [0, 0]]))
        assert enc.false_matrix.bits.sum() == 0
        assert enc.true_predicate == "p__p1"
        assert enc.false_predicate == "p__p0"
        texts = [format_formula(f) for f in enc.formulas]
        assert texts == ["p__p1(X, Y) => p(X, Y)", "p__p0(X, Y) => !p(X, Y)"]

    def test_full_split_recovers_matrix_and_complement(self, example_matrix):
        true_atoms = set()
        false_atoms = set()
        for i, x in enumerate(LABELS):
            for j, y in enumerate(LABELS):
                (true_atoms if example_matrix.bits[i, j] else false_atoms).add(
                    Atom("p", (x, y))
                )
        enc = encode_partial_evidence("p", true_atoms, false_atoms, LABELS)
        assert np.array_equal(enc.true_matrix.bits, example_matrix.bits)
        assert np.array_equal(enc.false_matrix.bits, 1 - example_matrix.bits)

    def test_withholding_one_entry(self, example_matrix):
        true_atoms = set()
        false_atoms = set()
        for i, x in enumerate(LABELS):
            for j, y in enumerate(LABELS):
                if (x, y) == ("c", "c"):
                    continue
                (true_atoms if example_matrix.bits[i, j] else false_atoms).add(
                    Atom("p", (x, y))
                )
        enc = encode_partial_evidence("p", true_atoms, false_atoms, LABELS)
        assert enc.true_matrix.ones() == 7
        assert enc.false_matrix.ones() == 8

    def test_reducing_both_indicators_preserves_marginals(self):
        # p1 and p0 each reduced to unary evidence: unit propagation forces
        # every p1 and p0 atom, then in a second round each p atom they fix
        rng = np.random.default_rng(41)
        for _ in range(30):
            model, _, query = random_equivalence_instance(rng, max_m=4)
            status = rng.integers(0, 3, size=len(model.domain) ** 2)  # 0/1 known, 2 open
            pairs = itertools.product(model.domain, repeat=2)
            known = [(Atom("p", xy), bool(v)) for xy, v in zip(pairs, status) if v < 2]
            enc = encode_partial_evidence(
                "p", [a for a, v in known if v], [a for a, v in known if not v], model.domain
            )
            extended = model.extended(
                {enc.true_predicate: 2, enc.false_predicate: 2}, hard=enc.formulas
            )
            unary = EvidenceSet()
            for pred, matrix in ((enc.true_predicate, enc.true_matrix),
                                 (enc.false_predicate, enc.false_matrix)):
                _, witness = exact_boolean_rank(matrix)
                result = encode_evidence(pred, witness, extended.predicates)
                extended = extend_model(extended, result)
                unary = unary.merged(result.unary_evidence)
            cond = ground(extended).condition(unary)
            derived_p = {a: v for a, v in _known_atoms(cond).items() if a.pred == "p"}
            assert derived_p == dict(known)
            assert exact_query(extended, unary, query) == pytest.approx(
                exact_query(model, EvidenceSet(known), query), abs=1e-9
            )

    def test_overlap_rejected(self):
        atom = Atom("p", ("a", "a"))
        with pytest.raises(InputError, match="both true and false"):
            encode_partial_evidence("p", {atom}, {atom}, ("a",))

    def test_requires_matching_signature(self):
        with pytest.raises(InputError, match="expected a ground"):
            encode_partial_evidence("p", {Atom("q", ("a", "a"))}, set(), ("a",))
        with pytest.raises(InputError, match="outside the domain"):
            encode_partial_evidence("p", {Atom("p", ("z", "a"))}, set(), ("a",))


class TestSignatureClasses:
    def test_rank_three_example(self, example_factorization):
        result = encode_evidence("p", example_factorization)
        assert symmetry_signature_classes(result) == (4, 4)

    def test_rank_two_truncation(self, example_factorization):
        result = encode_evidence("p", truncate(example_factorization, 2))
        rows, cols = symmetry_signature_classes(result)
        assert rows == 4  # signatures 01, 11, 00, 10
        assert cols <= min(4, 2 ** 2)

    def test_rank_zero_single_class(self):
        f = make_factorization([], [])
        result = encode_evidence("p", f)
        assert symmetry_signature_classes(result) == (1, 1)

    def test_bounded_by_two_to_the_rank(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            m = int(rng.integers(1, 8))
            n = int(rng.integers(0, min(m, 3) + 1))
            labels = tuple(f"e{i}" for i in range(m))
            pairs = tuple(
                (
                    rng.integers(0, 2, m).astype(np.uint8),
                    rng.integers(0, 2, m).astype(np.uint8),
                )
                for _ in range(n)
            )
            f = Factorization(pairs, (m, m), labels, labels)
            rows, cols = symmetry_signature_classes(encode_evidence("p", f))
            assert rows <= min(m, 2 ** n)
            assert cols <= min(m, 2 ** n)


class TestExtendModel:
    def test_distribution_preserved_on_worked_example(self, example_matrix):
        model = parse_model(
            "domain = a, b, c, d\npred s/1\npred p/2\n1.5 s(X) ^ p(X,Y) => s(Y)\n"
        )
        _, witness = exact_boolean_rank(example_matrix)
        result = encode_evidence("p", witness, model.predicates)
        extended = extend_model(model, result)
        binary = matrix_to_evidence("p", example_matrix)
        for c in model.domain:
            q = Atom("s", (c,))
            assert exact_query(model, binary, q) == pytest.approx(
                exact_query(extended, result.unary_evidence, q), abs=1e-9
            )

    def test_requires_binary_predicate(self, example_factorization):
        model = parse_model("domain = a, b, c, d\npred p/1\n")
        result = encode_evidence("p", example_factorization)
        with pytest.raises(InputError, match="p/2"):
            extend_model(model, result)

    def test_rejects_foreign_labels(self, example_factorization):
        model = parse_model("domain = a, b\npred p/2\n")
        result = encode_evidence("p", example_factorization)
        with pytest.raises(InputError, match="domain"):
            extend_model(model, result)

    def test_collision_detected_on_extension(self, example_factorization):
        model = parse_model("domain = a, b, c, d\npred p/2\npred p__q1/1\n")
        result = encode_evidence("p", example_factorization)
        with pytest.raises(InputError, match="already declared"):
            extend_model(model, result)


class TestMatrixEvidenceConversion:
    def test_round_trip(self, example_matrix):
        ev = matrix_to_evidence("p", example_matrix)
        assert len(ev) == 16
        for (i, x), (j, y) in itertools.product(enumerate(LABELS), repeat=2):
            assert ev[Atom("p", (x, y))] == bool(example_matrix.bits[i, j])

    def test_requires_labels(self):
        with pytest.raises(InputError, match="labels"):
            matrix_to_evidence("p", BoolMatrix(np.zeros((2, 2), dtype=np.uint8)))


def _compiled(cond):
    return (
        cond.atoms, cond.const_log_weight, cond.blanket,
        [(comp.atom_ids, comp.log_table.tolist()) for comp in cond.formulas],
        [lookup.tolist() for lookup in cond.relabeling],
    )


class TestReducedModelIsTheDirectModel:
    """Unit propagation derives every p atom from the unary evidence, so the
    reduced side conditions to the direct side's compiled model itself."""

    def _check(self, model, matrix, query):
        evidence = matrix_to_evidence("p", matrix)
        _, witness = exact_boolean_rank(matrix)
        result = encode_evidence("p", witness, model.predicates)
        extended = extend_model(model, result)
        direct = ground(model).condition(evidence)
        reduced = ground(extended).condition(result.unary_evidence)
        assert _compiled(reduced) == _compiled(direct)
        assert exact_query(extended, result.unary_evidence, query) == exact_query(
            model, evidence, query
        )

    @pytest.mark.parametrize("blocks", [(2, 2), (3, 2), (4, 4), (8, 8), (5, 3, 4)])
    def test_planted_instances(self, blocks):
        model, matrix, queries = planted_symmetry_instance(blocks)
        self._check(model, matrix, queries[0])

    def test_random_instances(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            self._check(*random_equivalence_instance(rng, max_m=5))


def _swapped(evidence, a, b):
    """The evidence with constants a and b exchanged in every atom."""
    swap = {a: b, b: a}
    return EvidenceSet(
        (Atom(atom.pred, tuple(swap.get(c, c) for c in atom.args)), value)
        for atom, value in evidence.items()
    )


CLASS_INSTANCE_KINDS = ("full", "partial", "reduced", "zero-arity", "mentioned")


def _random_class_instance(rng, kind):
    """A small model plus evidence: full or partial binary evidence, the
    unary evidence of a reduction, zero-arity plus unary plus sparse
    ternary evidence, or unary evidence under formulas naming a constant."""
    if kind == "reduced":
        model, matrix, _ = random_equivalence_instance(rng, max_m=6)
        _, witness = exact_boolean_rank(matrix)
        result = encode_evidence("p", witness, model.predicates)
        return extend_model(model, result), result.unary_evidence
    domain = "abcdef"[: int(rng.integers(1, 7))]
    header = f"domain = {', '.join(domain)}\n"

    def coin(p):
        return bool(rng.random() < p)

    if kind in ("full", "partial"):
        model = parse_model(header + "pred p/2\npred s/1\n0.5 s(X) ^ p(X,Y) => s(Y)\n")
        q = rng.integers(0, 2, size=(len(domain), 2))
        r = q if coin(0.5) else rng.integers(0, 2, size=(len(domain), 2))
        bits = q @ r.T > 0
        w = rng.integers(0, 2, size=(len(domain), 2))
        known = w @ w.T > 0 if kind == "partial" else np.ones_like(bits)
        pairs = itertools.product(enumerate(domain), repeat=2)
        return model, EvidenceSet(
            (Atom("p", (x, y)), bool(bits[i, j])) for (i, x), (j, y) in pairs if known[i, j]
        )
    if kind == "zero-arity":
        model = parse_model(header + "pred r/0\npred u/1\npred t/3\n0.3 r\n")
        evidence = [(Atom("r", ()), coin(0.5))] if coin(0.5) else []
        evidence += [(Atom("u", (c,)), coin(0.7)) for c in domain if coin(0.6)]
        sparse = coin(0.5)
        evidence += [
            (Atom("t", args), True)
            for args in itertools.product(domain, repeat=3) if sparse and coin(0.05)
        ]
        return model, EvidenceSet(evidence)
    named = domain[int(rng.integers(len(domain)))]
    text = header + f"pred p/2\npred s/1\n0.5 s({named}) => p(X,{named})\n"
    if coin(0.5):
        text += f"hard s(X) v !s({domain[-1]})\n"
    return parse_model(text), EvidenceSet(
        (Atom("s", (c,)), coin(0.5)) for c in domain if coin(0.5)
    )


class TestConstantSymmetryClasses:
    def test_classes_against_swapped_evidence(self):
        rng = np.random.default_rng(61)
        grouped = separated = 0
        for k in range(1000):
            model, evidence = _random_class_instance(rng, CLASS_INSTANCE_KINDS[k % 5])
            classes = constant_symmetry_classes(model, evidence)
            assert sorted(itertools.chain(*classes)) == sorted(model.domain)
            mentioned = {
                a for f in model.hard_formulas + tuple(f for _, f in model.weighted_formulas)
                for atom in atoms_of(f) for a in atom.args if a in model.domain
            }
            for cls in classes:
                assert len(cls) == 1 or not mentioned & set(cls)
                for c, d in itertools.combinations(cls, 2):
                    assert _swapped(evidence, c, d) == evidence, (model, cls)
                    grouped += 1
            firsts = [cls[0] for cls in classes if cls[0] not in mentioned]
            for c, d in itertools.combinations(firsts, 2):
                assert _swapped(evidence, c, d) != evidence, (model, c, d)
                separated += 1
        assert grouped > 500 and separated > 500

    def test_class_swaps_keep_open_atoms_open_and_the_log_weight(self):
        # The Gibbs chain relabels by class permutations without checking
        # them: every swap (first member, c) must be accepted by `relabeled`
        # and keep the log weight exactly, derived atoms included.
        rng = np.random.default_rng(61)
        swaps = derived_swaps = 0
        for k in range(1000):
            model, evidence = _random_class_instance(rng, CLASS_INSTANCE_KINDS[k % 5])
            try:
                cond = ground(model).condition(evidence)
            except InconsistencyError:
                continue
            position = {c: i for i, c in enumerate(model.domain)}
            for cls in constant_symmetry_classes(model, evidence):
                for c in cls[1:]:
                    perm = np.arange(len(model.domain))
                    a, b = position[cls[0]], position[c]
                    perm[[a, b]] = b, a
                    values = rng.integers(0, 2, size=len(cond.atoms))
                    moved = cond.relabeled(values, perm)
                    assert cond.log_weight(moved) == cond.log_weight(values), (model, cls, c)
                    swaps += 1
                    derived_swaps += sum(v is not None for v in cond.known) > len(evidence)
        assert swaps > 1000 and derived_swaps > 300

    @pytest.mark.parametrize("k", [16, 32])
    def test_planted_blocks_are_the_classes(self, k):
        model, matrix, _ = planted_symmetry_instance((k, k))
        classes = constant_symmetry_classes(model, matrix_to_evidence("p", matrix))
        assert classes == (model.domain[:k], model.domain[k:])

    @pytest.mark.parametrize(
        "atom, message",
        [
            (Atom("q", ("zz",)), "unknown constant 'zz'"),
            (Atom("nope", ("a",)), "unknown predicate 'nope'"),
            (Atom("p", ("a",)), "p expects 2 arguments, got 1"),
            (Atom("q", ()), "q expects 1 arguments, got 0"),
        ],
    )
    def test_evidence_outside_the_model_is_refused(self, atom, message):
        model = parse_model("domain = a, b\npred p/2\npred q/1\n")
        evidence = EvidenceSet({Atom("q", ("a",)): True, atom: False})
        with pytest.raises(InputError, match=re.escape(message)):
            constant_symmetry_classes(model, evidence)

    def test_unary_signatures_group_constants(self):
        model = parse_model("domain = a, b, c, d\npred q/1\npred s/1\n0.5 s(X)\n")
        ev = parse_evidence("q(a)\nq(b)\n!q(c)\n!q(d)\n", model)
        classes = constant_symmetry_classes(model, ev)
        assert set(map(frozenset, classes)) == {
            frozenset({"a", "b"}),
            frozenset({"c", "d"}),
        }

    def test_binary_evidence_must_be_swap_invariant(self):
        model = parse_model("domain = a, b\npred p/2\npred s/1\n0.5 s(X)\n")
        # identical rows/columns except the cross entries break the swap
        ev = parse_evidence("p(a,b)\n!p(b,a)\n!p(a,a)\n!p(b,b)\n", model)
        classes = constant_symmetry_classes(model, ev)
        assert all(len(c) == 1 for c in classes)
        ev2 = parse_evidence("p(a,b)\np(b,a)\n!p(a,a)\n!p(b,b)\n", model)
        classes2 = constant_symmetry_classes(model, ev2)
        assert any(len(c) == 2 for c in classes2)

    def test_constants_mentioned_in_formulas_stay_singletons(self):
        model = parse_model("domain = a, b, c\npred s/1\n0.5 s(a)\n")
        classes = constant_symmetry_classes(model, EvidenceSet())
        assert ("a",) in classes
        assert set(map(frozenset, classes)) == {
            frozenset({"a"}),
            frozenset({"b", "c"}),
        }
