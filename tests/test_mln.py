import gc
import hashlib
import itertools
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from liftbmf.errors import CapacityError, InconsistencyError, InputError
from liftbmf.experiments import planted_symmetry_instance, random_equivalence_instance
from liftbmf import mln
from liftbmf.factorize import exact_boolean_rank
from liftbmf.mln import (
    DEFAULT_ATOM_CAP,
    And,
    Atom,
    Conditioned,
    EvidenceSet,
    Iff,
    Implies,
    Model,
    Not,
    Or,
    _CompiledFormula,
    atoms_of,
    enumerate_world_distribution,
    evaluate,
    exact_marginals,
    exact_query,
    format_formula,
    free_variables,
    ground,
    parse_evidence,
    parse_formula,
    parse_literal,
    parse_model,
    permute_axes,
)
from liftbmf.reduction import (
    constant_symmetry_classes,
    encode_evidence,
    extend_model,
    matrix_to_evidence,
)
from liftbmf.sampler import ChainConfig, _class_permutation, estimate_marginals

from conftest import _class_positions, _index, _known_atoms, _relabeling
from test_reduction import CLASS_INSTANCE_KINDS, _random_class_instance

PEER_MODEL = """
domain = a, b, c, d
pred studentpage/1
pred linkto/2
1.5 studentpage(X) ^ linkto(X,Y) => studentpage(Y)
"""


def _substituted(f, env):
    """`f` with every variable that `env` names replaced by its constant."""
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(env.get(a, a) for a in f.args))
    if isinstance(f, Not):
        return Not(_substituted(f.sub, env))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(_substituted(p, env) for p in f.parts))
    if isinstance(f, Implies):
        return Implies(_substituted(f.premise, env), _substituted(f.conclusion, env))
    return Iff(_substituted(f.left, env), _substituted(f.right, env))


def _ground_trees(model):
    """Every grounding of the model as a ground formula tree, for oracles
    that `evaluate` whole worlds: (weight, tree) pairs, then hard trees."""
    def trees(f):
        variables = free_variables(f)
        for combo in itertools.product(model.domain, repeat=len(variables)):
            yield _substituted(f, dict(zip(variables, combo)))

    weighted = [(w, g) for w, f in model.weighted_formulas for g in trees(f)]
    hard = [g for f in model.hard_formulas for g in trees(f)]
    return weighted, hard


class TestParseModel:
    def test_peer_to_peer_line(self):
        model = parse_model(PEER_MODEL)
        assert model.domain == ("a", "b", "c", "d")
        assert model.predicates == {"studentpage": 1, "linkto": 2}
        assert len(model.weighted_formulas) == 1
        weight, formula = model.weighted_formulas[0]
        assert weight == 1.5
        assert formula == Implies(
            And((Atom("studentpage", ("X",)), Atom("linkto", ("X", "Y")))),
            Atom("studentpage", ("Y",)),
        )

    def test_hard_line_and_comments(self):
        model = parse_model(
            "# comment\ndomain = a\npred q/1\n\nhard q(a)\n-0.5 q(X)\n"
        )
        assert len(model.hard_formulas) == 1
        assert model.weighted_formulas[0][0] == -0.5

    def test_equal_models_hash_equal(self):
        model = parse_model(PEER_MODEL)
        twin = parse_model(model.to_text())
        # declaration order of predicates does not matter for equality
        reordered = Model(model.domain, dict(reversed(list(model.predicates.items()))),
                          model.weighted_formulas)
        assert model == twin == reordered
        assert hash(model) == hash(twin) == hash(reordered)
        extended = model.extended(hard=[Atom("studentpage", ("a",))])
        assert len({model, twin, reordered, extended}) == 2

    def test_round_trip(self):
        model = parse_model(PEER_MODEL)
        assert parse_model(model.to_text()) == model
        # `{w:g}` once wrote these as 1.23457 and 1.23457e+08
        s_a, s_b = Atom("studentpage", ("a",)), Atom("studentpage", ("b",))
        weights = [1.23456789, 123456789.0, -0.0, 5e-324, 0.1 + 0.2, 1e16, -2.5e-7]
        exotic = Model(
            model.domain,
            model.predicates,
            model.weighted_formulas + tuple((w, s_a) for w in weights),
            model.hard_formulas + (Or((s_a, Not(s_b))), Implies(s_b, Atom("linkto", ("b", "a")))),
        )
        twin = parse_model(exotic.to_text())
        assert twin == exotic
        assert [w.hex() for w, _ in twin.weighted_formulas] == [
            w.hex() for w, _ in exotic.weighted_formulas
        ]

    @pytest.mark.parametrize(
        "text,message",
        [
            ("pred q/1\n1.0 q(a)\n", "no domain"),
            ("domain = a\ndomain = b\npred q/1\n", "duplicate domain"),
            ("domain = a\npred q/1\npred q/1\n", "already declared"),
            ("domain = a\npred q/x\n", "bad arity"),
            ("domain = a\npred q/1\n1.0 p(a)\n", "line 3.*unknown predicate"),
            ("domain = a\npred q/1\n1.0 q(a, b)\n", "expects 1 argument"),
            ("domain = a\npred q/1\n1.0 q(b)\n", "unknown constant"),
            ("domain = a\npred q/1\nfoo bar\n", "got 'foo'"),
            ("domain = a\npred q/1\n1.0\n", "without a formula"),
            ("domain = a\npred q/1\n1.0 q(a\n", "line 3.*end of formula"),
            ("domain = a\npred v/1\n", "reserved"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, message):
        with pytest.raises(InputError, match=message):
            parse_model(text)

    @pytest.mark.parametrize("arity", [2.5, True, -1, "1", None])
    def test_arity_must_be_a_non_negative_integer(self, arity):
        # 2.5 once failed later in grounding, and True was read as arity 1
        with pytest.raises(InputError, match="arity of p must be an integer >= 0"):
            Model(("a",), {"p": arity})
        assert Model(("a",), {"p": np.int64(2)}).all_atoms() == (Atom("p", ("a", "a")),)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("pred q/1_0", "line 3: bad arity '1_0'"),
            ("pred q/\u0661", "line 3: bad arity"),
            ("pred q/\uff12", "line 3: bad arity"),
            ("pred q/+1", "line 3: bad arity"),
            ("1_0 s(a)", "line 3: expected .* got '1_0'"),
            ("1_000.5 s(a)", "line 3: expected .* got '1_000.5'"),
            ("\u0661 s(a)", "line 3: expected .* or a weight"),
            ("\u0663.5 s(a)", "line 3: expected .* or a weight"),
            ("\uff11e1 s(a)", "line 3: expected .* or a weight"),
        ],
    )
    def test_numbers_are_ascii_decimal(self, line, message):
        # int() and float() once read 1_0 as 10 and Arabic-Indic or
        # full-width digits as their values
        with pytest.raises(InputError, match=message):
            parse_model(f"domain = a\npred s/1\n{line}\n")

    @pytest.mark.parametrize("weight", ["1.5", "-2e-3", ".5", "5.", "+1E+2", "007"])
    def test_ascii_weights_parse(self, weight):
        model = parse_model(f"domain = a\npred s/1\n{weight} s(a)\n")
        assert model.weighted_formulas[0][0] == float(weight)

    @pytest.mark.parametrize("weight", ["1_0", "1.5", True, np.bool_(False), None, 1j])
    def test_weight_must_be_a_real_number(self, weight):
        # float() once read '1_0' as 10.0 and True as 1.0
        with pytest.raises(InputError, match=r"weight .* of q\(a\) is not a real number"):
            Model(("a",), {"q": 1}, ((weight, Atom("q", ("a",))),))

    @pytest.mark.parametrize("weight", ["x", math.inf, 0.5])
    def test_formula_is_checked_before_its_weight(self, weight):
        # formatting the formula for a weight message once raised a bare TypeError
        with pytest.raises(InputError, match="weighted formula: unknown constant 1"):
            Model(("a",), {"q": 1}, ((weight, Atom("q", (1,))),))

    @pytest.mark.parametrize("weight", [2, np.int64(-3), np.float32(0.5), np.float64(1.25)])
    def test_integer_and_numpy_weights_are_real(self, weight):
        model = Model(("a",), {"q": 1}, ((weight, Atom("q", ("a",))),))
        assert type(model.weighted_formulas[0][0]) is float
        assert model.weighted_formulas[0][0] == float(weight)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "+inf", "1e999"])
    def test_non_finite_formula_weight_is_refused(self, weight):
        with pytest.raises(InputError, match="not finite"):
            parse_model(f"domain = a\npred q/1\n{weight} q(a)\n")
        with pytest.raises(InputError, match="not finite"):
            Model(("a",), {"q": 1}, ((float(weight), Atom("q", ("a",))),))

    def test_integer_weight_beyond_the_float_range_is_refused(self):
        # float() once raised a bare OverflowError
        with pytest.raises(InputError, match=r"weight of q\(a\) is not finite as a float"):
            Model(("a",), {"q": 1}, ((10**400, Atom("q", ("a",))),))


class TestParseEvidence:
    def test_negative_literal(self):
        model = parse_model(PEER_MODEL)
        ev = parse_evidence("!linkto(a,c)\nlinkto(a,b)\n", model)
        assert ev[Atom("linkto", ("a", "c"))] is False
        assert ev[Atom("linkto", ("a", "b"))] is True

    def test_duplicate_assignment_rejected(self):
        model = parse_model(PEER_MODEL)
        with pytest.raises(InputError, match="line 2.*twice"):
            parse_evidence("linkto(a,c)\nlinkto(a,c)\n", model)

    def test_ground_literals_only(self):
        model = parse_model(PEER_MODEL)
        with pytest.raises(InputError, match="variable"):
            parse_evidence("linkto(X,c)\n", model)

    def test_signature_checked(self):
        model = parse_model(PEER_MODEL)
        with pytest.raises(InputError, match="unknown predicate"):
            parse_evidence("other(a)\n", model)


def _parser_literal(text, model=None, where="literal"):
    """`parse_literal` as it was before the one-regex reader: every literal
    through `_Parser`.  Kept as the oracle for results and error text."""
    stripped = text.strip()
    value = True
    if stripped.startswith("!"):
        value = False
        stripped = stripped[1:]
    parser = mln._Parser(stripped, where)
    atom = parser.atom()
    if parser.peek() is not None:
        raise InputError(f"{where}: unexpected trailing {parser.peek()!r}")
    for arg in atom.args:
        if mln.is_variable(arg):
            raise InputError(f"{where}: literal must be ground, found variable {arg}")
    if model is not None:
        model.check_formula(atom, where)
    return atom, value


LITERAL_MODEL = "domain = a, b, v, _u, c9\npred r/0\npred q/1\npred p/2\npred t/3\n"


def _outcome(read, text, model):
    try:
        atom, value = read(text, model, where="line 3")
    except InputError as exc:
        return "refused", str(exc)
    assert type(value) is bool
    return atom, value


def _literal_corpus():
    """Literals of arity 0-3 in many spacings, and malformed ones."""
    texts = [
        "r", "r()", "!r", "! r", "q(a)", "!q(a)", "! q(a)", "p( a , b )", "p(a,b)", "p(a, b)",
        "t(a,b,v)", "t( _u ,\tc9,a )", "\tp(a,\tb)\t", " !p(a, b) ", "p (a, b)", "q(v)",
        "!!p(a,b)", "p(a,)", "p(,a)", "p(a b)", "p(X, a)", "q(X)", "q(Xa)", "q(_u)", "zz(a)",
        "P(a)", "v(a)", "p(a)", "q(a, b)", "q()", "r(a)", "t(a, b)", "q(a) ^ q(b)", "q(a) x",
        "q(a))", "q(a", "q a", "q(a)(b)", "p(٢, a)", "q(é)", "q(\u00a0a)", "\u00a0q(a)",
        "q(a)\u2003", "q(a)\n", "\rq(a)", "", " ", "!", "!!", "()", "(q(a))", "q(zz)",
        "p(a, zz)", "q(1a)", "1q(a)", "q(a,,b)", "t(a, b, v, a)", "q(a)!", "!\tq(a)", "q\t(a)",
        "q(a)#", "p(a,\u00a0b)", "q(_)", "_(a)", "! p(a)", "p", "p()", "!!p(a)", "p(a,)",
        "p(a b)", "p(X)", "p(٢)",
    ]
    rng = np.random.default_rng(97)

    def pick(common, rare):
        # one draw in eight is malformed or unknown
        options = rare if rng.random() < 0.125 else common
        return options[rng.integers(0, len(options))]

    for _ in range(1500):
        pad = [pick(["", " ", "\t", "  "], ["\u00a0", "\u2003", "\n"]) for _ in range(5)]
        name = pick(["r", "q", "p", "t"], ["zz", "P", "v", "1q"])
        arity = {"r": 0, "q": 1, "p": 2, "t": 3}.get(name, 1)
        if rng.random() < 0.125:
            arity = int(rng.integers(0, 4))
        listed = (pad[2] + "," + pad[3]).join(
            pick(["a", "b", "v", "_u", "c9"], ["X", "zz", "٢", "a b", ""]) for _ in range(arity)
        )
        body = "" if arity == 0 and rng.random() < 0.5 else f"{pad[1]}({pad[2]}{listed}{pad[3]})"
        texts.append(pad[0] + pick(["", "!", "! "], ["!!", "!\t!"]) + name + body
                     + pick([""], [" ^ q(a)", ",", ")", " x"]) + pad[4])
    return texts


class TestLiteralReader:
    """`parse_literal` reads the common form with one regex and hands every
    other text to `_Parser`; the parser-only reader is the oracle."""

    def test_agrees_with_the_parser_only_reader(self):
        model = parse_model(LITERAL_MODEL)
        refused = {model: 0, None: 0}
        corpus = _literal_corpus()
        for text in corpus:
            for against in (model, None):
                want = _outcome(_parser_literal, text, against)
                assert _outcome(parse_literal, text, against) == want, repr(text)
                refused[against] += want[0] == "refused"
        assert 0.2 < refused[model] / len(corpus) < 0.8
        assert 0.1 < refused[None] / len(corpus) < refused[model] / len(corpus)

    def test_common_forms_never_reach_the_parser(self, monkeypatch):
        model = parse_model(LITERAL_MODEL)

        def refuse(*_):
            raise AssertionError("the parser read a common literal")

        monkeypatch.setattr(mln, "_Parser", refuse)
        for text, atom, value in [
            ("r", Atom("r", ()), True), ("!r()", Atom("r", ()), False),
            ("q(a)", Atom("q", ("a",)), True), ("! q( v )", Atom("q", ("v",)), False),
            ("p(a, b)", Atom("p", ("a", "b")), True), ("\tt(a,\tb , c9) ", Atom("t", ("a", "b", "c9")), True),
        ]:
            assert parse_literal(text, model) == (atom, value)
            assert parse_literal(text) == (atom, value)


def _loop_tokens(text, where="formula"):
    """Formula tokens as `_Parser` once read them: a loop that skips each
    `str.isspace` character and matches one token at a time."""
    token = re.compile(r"=>|<=>|[()!,^]|[A-Za-z_][A-Za-z0-9_]*")
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = token.match(text, pos)
        if not m:
            raise InputError(f"{where}: unexpected character {text[pos]!r}")
        tokens.append(m.group())
        pos = m.end()
    return tokens


# Pieces of random formula texts: tokens, near-tokens and characters that
# start none, Unicode spaces (U+00A0, U+2003, U+001C) and a digit that is
# not ASCII among them.
TOKEN_PIECES = (
    "=>", "<=>", "<=", "=", "<", ">", "(", ")", "!", ",", "^", "v", "q", "p2", "_x", "X",
    "a_b9", "9", " ", "  ", "\t", "\n", "\u00a0", "\u2003", "\x1c", "\u0662", "\u00e9", "-", ".",
)


class TestTokenizer:
    """`_Parser` reads its tokens with one regex scan; the old loop is the oracle."""

    def _outcome(self, read, text):
        try:
            return "tokens", read(text)
        except InputError as exc:
            return "refused", str(exc)

    def test_agrees_with_the_loop(self):
        rng = np.random.default_rng(27)
        refused = 0
        for _ in range(20_000):
            picks = rng.integers(len(TOKEN_PIECES), size=int(rng.integers(0, 12)))
            text = "".join(TOKEN_PIECES[k] for k in picks)
            want = self._outcome(_loop_tokens, text)
            assert self._outcome(lambda t: mln._Parser(t, "formula").tokens, text) == want, text
            refused += want[0] == "refused"
        assert 0.3 < refused / 20_000 < 0.9

    def test_regex_whitespace_is_str_isspace(self):
        # the scan skips `\s`, the loop skipped `str.isspace`
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", every) == [c for c in every if c.isspace()]


class TestFormulaSyntax:
    @pytest.mark.parametrize(
        "text",
        [
            "q(a)",
            "!q(a)",
            "q(X) ^ p(X, Y) => q(Y)",
            "q(X) <=> p(X, X) v !q(X)",
            "(q(a) v q(b)) ^ q(c)",
            "q(a) => q(b) => q(c)",
            "!(q(a) ^ q(b))",
        ],
    )
    def test_format_parse_round_trip(self, text):
        f = parse_formula(text)
        assert parse_formula(format_formula(f)) == f

    def test_precedence(self):
        f = parse_formula("a(x) ^ b(x) v c(x) ^ d(x)")
        assert isinstance(f, Or)
        assert all(isinstance(p, And) for p in f.parts)
        g = parse_formula("a(x) => b(x) <=> c(x)")
        assert isinstance(g, Iff)
        assert isinstance(g.left, Implies)

    def test_implication_right_associative(self):
        f = parse_formula("a(x) => b(x) => c(x)")
        assert isinstance(f, Implies)
        assert isinstance(f.conclusion, Implies)

    def test_predicate_named_v_parses_as_atom_in_operand_position(self):
        # 'v' is reserved as a predicate name, but constants may be called v
        f = parse_formula("q(v) v q(w)")
        assert isinstance(f, Or)

    @pytest.mark.parametrize("text, token", [("q(a) q(b)", "q"), ("q(a) v q(b))", ")"),
                                             ("!q(a) ^ q(b) !", "!")])
    def test_trailing_token_refused(self, text, token):
        with pytest.raises(InputError, match=re.escape(f"formula: unexpected trailing {token!r}")):
            parse_formula(text)
        with pytest.raises(InputError, match=re.escape(f"line 3: unexpected trailing {token!r}")):
            parse_model(f"domain = a, b\npred q/1\n0.5 {text}\n")

    def test_literal_parsing(self):
        atom, value = parse_literal("!q(a)")
        assert atom == Atom("q", ("a",)) and value is False
        with pytest.raises(InputError, match="trailing"):
            parse_literal("q(a) ^ q(b)")


class TestGrounding:
    def test_two_variable_formula_has_m_squared_groundings(self):
        model = parse_model(PEER_MODEL)
        g = ground(model)
        assert len(g.weighted) == 16

    def test_equivalence_formula_groundings(self):
        # rank-3 equivalence still grounds once per (X, Y) pair
        lines = ["domain = a, b, c, d", "pred p/2"]
        for i in (1, 2, 3):
            lines += [f"pred q{i}/1", f"pred r{i}/1"]
        lines.append(
            "hard p(X,Y) <=> (q1(X) ^ r1(Y)) v (q2(X) ^ r2(Y)) v (q3(X) ^ r3(Y))"
        )
        model = parse_model("\n".join(lines))
        g = ground(model)
        assert len(g.hard) == 16

    def test_zero_variable_formula(self):
        model = parse_model("domain = a, b\npred q/1\n0.7 q(a)\n")
        assert len(ground(model).weighted) == 1

    def test_grounding_cap(self, monkeypatch):
        monkeypatch.setattr(mln, "DEFAULT_GROUND_CAP", 10)
        model = parse_model(PEER_MODEL)
        with pytest.raises(CapacityError, match="cap"):
            ground(model)


class TestExactQuery:
    def test_uniform_without_formulas(self):
        model = parse_model("domain = a, b\npred q/1\npred p/2\n")
        ev = parse_evidence("p(a,b)\n!p(b,a)\n", model)
        assert exact_query(model, ev, Atom("q", ("a",))) == pytest.approx(0.5)

    def test_hard_formula_forces_truth(self):
        model = parse_model("domain = a\npred q/1\nhard q(a)\n")
        assert exact_query(model, EvidenceSet(), Atom("q", ("a",))) == 1.0

    def test_evidence_query_short_circuit(self):
        model = parse_model("domain = a\npred q/1\n")
        ev = parse_evidence("!q(a)\n", model)
        assert exact_query(model, ev, Atom("q", ("a",))) == 0.0

    def test_entailed_hard_formula_is_free(self):
        base = parse_model(
            "domain = a, b\npred s/1\npred p/2\n0.9 s(X) ^ p(X,Y) => s(Y)\n"
        )
        ev = parse_evidence("p(a,b)\n", base)
        with_hard = base.extended(hard=[parse_formula("p(a,b)", base)])
        for c in ("a", "b"):
            q = Atom("s", (c,))
            assert exact_query(base, ev, q) == pytest.approx(
                exact_query(with_hard, ev, q), abs=1e-12
            )

    def test_inconsistent_evidence_raises(self):
        model = parse_model("domain = a\npred q/1\nhard q(a)\n")
        ev = parse_evidence("!q(a)\n", model)
        with pytest.raises(InconsistencyError):
            exact_query(model, ev, Atom("q", ("a",)))

    def test_unsatisfiable_hard_formulas_raise(self):
        model = parse_model("domain = a\npred q/1\nhard q(a)\nhard !q(a)\n")
        with pytest.raises(InconsistencyError):
            exact_query(model, EvidenceSet(), Atom("q", ("a",)))

    def test_atom_cap(self):
        model = parse_model(
            "domain = a, b, c, d, e, f\npred p/2\n0.5 p(X,Y) => p(Y,X)\n"
        )
        with pytest.raises(CapacityError, match="cap"):
            exact_marginals(model, EvidenceSet(), [Atom("p", ("a", "b"))], atom_cap=24)

    @pytest.mark.parametrize("caps", [{"atom_cap": -1}])
    def test_negative_caps_are_input_errors(self, caps):
        model = parse_model("domain = a\npred q/1\n")
        name = next(iter(caps))
        with pytest.raises(InputError, match=f"{name} must be an integer >= 0"):
            exact_marginals(model, EvidenceSet(), [], **caps)

    @pytest.mark.parametrize("cap", [2.5, True, -1])
    @pytest.mark.parametrize("name", ["atom_cap"])
    def test_caps_must_be_non_negative_integers(self, name, cap):
        # atom_cap=2.5 once answered
        model = parse_model("domain = a\npred q/1\n")
        message = f"{name} must be an integer >= 0"
        with pytest.raises(InputError, match=message):
            exact_marginals(model, EvidenceSet(), [Atom("q", ("a",))], **{name: cap})

    def test_renaming_invariance(self):
        # permuting two constants with identical evidence leaves the
        # permuted query unchanged
        model = parse_model(
            "domain = a, b, c\npred s/1\npred p/2\n1.1 s(X) ^ p(X,Y) => s(Y)\n"
        )
        ev = parse_evidence("p(a,b)\np(a,c)\n!p(b,a)\n!p(c,a)\n", model)
        # b and c have identical signatures; a is distinct
        p_b = exact_query(model, ev, Atom("s", ("b",)))
        p_c = exact_query(model, ev, Atom("s", ("c",)))
        assert p_b == pytest.approx(p_c, abs=1e-12)

    def test_renaming_invariance_randomized(self):
        # swap-invariant random evidence: Pr(q | e) == Pr(swapped q | e)
        rng = np.random.default_rng(59)
        model = parse_model(
            "domain = a, b, c\npred s/1\npred p/2\n"
            "1.3 s(X) ^ p(X,Y) => s(Y)\n-0.6 p(X,X) => s(X)\n"
        )
        swap = {"b": "c", "c": "b"}
        for _ in range(12):
            ev = EvidenceSet()
            seen = set()
            for atom in model.all_atoms():
                if atom.pred != "p" or atom in seen:
                    continue
                mirrored = Atom("p", tuple(swap.get(x, x) for x in atom.args))
                value = bool(rng.random() < 0.5)
                ev.assign(atom, value)
                seen.add(atom)
                if mirrored != atom:
                    ev.assign(mirrored, value)
                    seen.add(mirrored)
            for constant in ("b", "c"):
                q = Atom("s", (constant,))
                mirror_q = Atom("s", (swap[constant],))
                assert exact_query(model, ev, q) == pytest.approx(
                    exact_query(model, ev, mirror_q), abs=1e-12
                )


class TestQueryIndependentEnumeration:
    """Exact enumeration ranges over the open atoms that some compiled
    formula touches, whatever is queried: a batch answers each query with
    the bits of the single query, and an open atom outside every blanket is
    exactly uniform."""

    @staticmethod
    def _pool():
        rng = np.random.default_rng(101)
        base = parse_model(
            "domain = a, b, c\npred r/0\npred s/1\npred t/1\npred u/1\npred f/1\n"
            "0.7 s(X) ^ t(X)\n-1.1 u(X) v r\n0.4 t(X) => s(X)\n"
        )
        for trial in range(24):
            picks = rng.random(len(PROPAGATION_HARD_POOL)) < 0.35
            model = base.extended(hard=[
                parse_formula(text, base) for text, pick in zip(PROPAGATION_HARD_POOL, picks)
                if pick
            ])
            evidence = EvidenceSet()
            for atom in model.all_atoms():
                if rng.random() < 0.2:
                    evidence.assign(atom, bool(rng.random() < 0.5))
            yield model, evidence

    def test_batch_equals_single_queries_bit_for_bit(self):
        answered = free_seen = 0
        for model, evidence in self._pool():
            queries = model.all_atoms()
            try:
                batch = exact_marginals(model, evidence, queries)
            except InconsistencyError:
                with pytest.raises(InconsistencyError):
                    exact_query(model, evidence, queries[0])
                continue
            answered += 1
            cond = ground(model).condition(evidence)
            index = _index(cond)
            for q in queries:
                assert batch[q].hex() == exact_query(model, evidence, q).hex()
                if q in index and not cond.blanket[index[q]]:
                    assert batch[q] == 0.5
                    free_seen += 1
        # f/1 is in no formula, so each open f atom is outside every blanket
        assert answered >= 12 and free_seen >= 30

    def test_free_queries_do_not_count_toward_the_atom_cap(self):
        # 18 touched atoms plus 7 free queries was once refused as
        # "25 enumerated atoms exceed the cap of 24"
        domain = ", ".join(f"c{i}" for i in range(18))
        model = parse_model(f"domain = {domain}\npred s/1\npred t/1\n0.3 s(X)\n")
        queries = [Atom("t", (f"c{i}",)) for i in range(7)] + [Atom("s", ("c0",))]
        marg = exact_marginals(model, EvidenceSet(), queries)
        assert [marg[q] for q in queries[:7]] == [0.5] * 7
        assert marg[queries[-1]] == pytest.approx(1.0 / (1.0 + math.exp(-0.3)), abs=1e-12)
        with pytest.raises(CapacityError, match="18 enumerated atoms exceed the cap of 17"):
            exact_marginals(model, EvidenceSet(), queries, atom_cap=17)

    @pytest.mark.parametrize("m", [22, 25])
    def test_free_queries_alone_enumerate_nothing(self, monkeypatch, m):
        # without hard formulas every world is feasible, so queries outside
        # every blanket are answered without the enumeration (2^22 worlds at
        # m = 22, over the atom cap at m = 25)
        domain = ", ".join(f"c{i}" for i in range(m))
        model = parse_model(f"domain = {domain}\npred s/1\npred t/1\n0.3 s(X)\n")
        free, touched = Atom("t", ("c0",)), Atom("s", ("c0",))
        with monkeypatch.context() as patch:
            patch.setattr(mln, "_enumerate", lambda *_: pytest.fail("enumerated"))
            assert exact_marginals(model, EvidenceSet(), [free, free]) == {free: 0.5}
        if m > DEFAULT_ATOM_CAP:
            with pytest.raises(CapacityError, match=f"{m} enumerated atoms exceed the cap of 24"):
                exact_marginals(model, EvidenceSet(), [free, touched])

    def test_free_query_under_unsatisfiable_hard_clauses_is_refused(self):
        model = parse_model(
            "domain = a, b\npred q/1\npred f/1\n"
            "hard q(a) v q(b)\nhard q(a) v !q(b)\nhard !q(a) v q(b)\nhard !q(a) v !q(b)\n"
        )
        cond = ground(model).condition(EvidenceSet())
        assert not cond.blanket[_index(cond)[Atom("f", ("a",))]]
        with pytest.raises(InconsistencyError, match="admit no world"):
            exact_marginals(model, EvidenceSet(), [Atom("f", ("a",))])

    def test_hard_clauses_no_world_satisfies_are_refused(self):
        # four 2-clauses: no unit clause, so unit propagation cannot refute
        # them, and every world violates one
        model = parse_model(
            "domain = a, b\npred q/1\n"
            "hard q(a) v q(b)\nhard q(a) v !q(b)\nhard !q(a) v q(b)\nhard !q(a) v !q(b)\n"
        )
        cond = ground(model).condition(EvidenceSet())
        assert len(cond.atoms) == 2 and len(cond.hard) == 4
        with pytest.raises(InconsistencyError, match="admit no world"):
            exact_query(model, EvidenceSet(), Atom("q", ("a",)))
        with pytest.raises(InconsistencyError, match="admit no world"):
            enumerate_world_distribution(model, EvidenceSet())


class TestWorldWeights:
    def test_log_weight_matches_direct_evaluation(self):
        rng = np.random.default_rng(31)
        model = parse_model(
            "domain = a, b\npred s/1\npred p/2\n"
            "1.5 s(X) ^ p(X,Y) => s(Y)\n-0.4 p(X,X)\nhard s(a) v s(b)\n"
        )
        ev = parse_evidence("p(a,b)\n", model)
        cond = ground(model).condition(ev)
        weighted, hard = _ground_trees(model)
        for _ in range(40):
            values = rng.integers(0, 2, size=len(cond.atoms)).astype(np.uint8)
            lookup = {a: bool(v) for a, v in zip(cond.atoms, values)}
            for atom, value in ev.items():
                lookup[atom] = value
            expected = 0.0
            dead = False
            for w, f in weighted:
                if evaluate(f, lookup):
                    expected += w
            for f in hard:
                if not evaluate(f, lookup):
                    dead = True
            got = cond.log_weight(values)
            if dead:
                assert got == float("-inf")
            else:
                assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("size", [0, 3, 5])
    def test_world_of_the_wrong_size_is_refused(self, size):
        # four open atoms: q(a), q(b), s(a), s(b)
        model = parse_model("domain = a, b\npred q/1\npred s/1\n0.5 q(X) ^ s(X)\n")
        cond = ground(model).condition(EvidenceSet())
        values = np.ones(size, dtype=np.int64)
        with pytest.raises(InputError, match="must assign 4 atoms"):
            cond.log_weight(values)
        with pytest.raises(InputError, match="must assign 4 atoms"):
            cond.conditional(values, 0)
        with pytest.raises(InputError, match="must assign 4 atoms"):
            cond.relabeled(values, np.array([1, 0]))
        with pytest.raises(InputError, match="must assign 4 atoms"):
            cond.log_weight(np.ones((2, 2), dtype=np.int64))

    @pytest.mark.parametrize(
        "values", [[2, 0, 2, 0], [-1, 0, 0, 0], [0, 3, 0, 0], [0.5, 0, 0, 0], [1.0, 0, 0, 0]]
    )
    def test_world_entries_other_than_0_or_1_are_refused(self, values):
        # these used to index past a log table, wrap to its last entry, or
        # be truncated to 0 by the int64 cast
        model = parse_model("domain = a, b\npred q/1\npred s/1\n0.5 q(X) ^ s(X)\n")
        cond = ground(model).condition(EvidenceSet())
        with pytest.raises(InputError, match="world entries must be 0 or 1"):
            cond.log_weight(values)
        with pytest.raises(InputError, match="world entries must be 0 or 1"):
            cond.conditional(values, 0)
        with pytest.raises(InputError, match="world entries must be 0 or 1"):
            cond.relabeled(values, np.array([1, 0]))

    def test_bool_worlds_are_read_as_0_and_1(self):
        model = parse_model("domain = a, b\npred q/1\npred s/1\n0.5 q(X) ^ s(X)\n")
        cond = ground(model).condition(EvidenceSet())
        flags = np.array([True, False, True, True])
        ints = flags.astype(np.int64)
        assert cond.log_weight(flags) == cond.log_weight(ints) == 0.5
        assert cond.conditional(flags, 1) == cond.conditional(ints, 1)
        assert cond.relabeled(flags, np.array([1, 0])).tolist() == [0, 1, 1, 1]

    @pytest.mark.parametrize("i", [True, 1.0, "1", None])
    def test_conditional_atom_index_must_be_an_integer(self, i):
        # True once answered for atom 1, and 1.0 raised a bare TypeError
        model = parse_model("domain = a, b\npred q/1\npred s/1\n0.5 q(X) ^ s(X)\n")
        cond = ground(model).condition(EvidenceSet())
        with pytest.raises(InputError, match="atom index must be an integer"):
            cond.conditional([1, 0, 1, 1], i)
        assert cond.conditional([1, 0, 1, 1], np.int64(1)) == cond.conditional([1, 0, 1, 1], 1)

    @pytest.mark.parametrize("i", [-1, 4, 100])
    def test_conditional_of_an_atom_outside_the_world_is_refused(self, i):
        model = parse_model("domain = a, b\npred q/1\npred s/1\n0.5 q(X) ^ s(X)\n")
        cond = ground(model).condition(EvidenceSet())
        with pytest.raises(InputError, match=r"outside \[0, 4\)"):
            cond.conditional([1, 0, 1, 1], i)


class TestEnumeration:
    def test_distribution_sums_to_one_and_matches_marginals(self):
        model = parse_model(
            "domain = a, b\npred s/1\npred p/2\n0.8 s(X) ^ p(X,Y) => s(Y)\n"
        )
        ev = parse_evidence("p(a,b)\np(b,a)\n!p(a,a)\n!p(b,b)\n", model)
        atoms, probs = enumerate_world_distribution(model, ev)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        marg = exact_marginals(model, ev, atoms)
        for i, atom in enumerate(atoms):
            direct = probs[(np.arange(len(probs)) >> i) & 1 == 1].sum()
            assert direct == pytest.approx(marg[atom], abs=1e-12)

    def test_vectorized_enumeration_agrees_with_scalar_weights(self):
        # the chunked enumeration and the per-world table path must agree
        rng = np.random.default_rng(71)
        model = parse_model(
            "domain = a, b\npred s/1\npred p/2\n"
            "1.4 s(X) ^ p(X,Y) => s(Y)\n-0.8 p(X,X)\n0.3 s(X) v p(X,X)\n"
            "hard s(a) v s(b)\n"
        )
        for _ in range(6):
            ev = EvidenceSet()
            for atom in model.all_atoms():
                if rng.random() < 0.4:
                    ev.assign(atom, bool(rng.random() < 0.5))
            try:
                atoms, probs = enumerate_world_distribution(model, ev)
            except InconsistencyError:
                continue
            cond = ground(model).condition(ev)
            n = len(atoms)
            logw = np.array([
                cond.log_weight(
                    np.array([(w >> i) & 1 for i in range(n)], dtype=np.uint8)
                )
                for w in range(1 << n)
            ])
            finite = np.isfinite(logw)
            direct = np.zeros_like(probs)
            direct[finite] = np.exp(logw[finite] - logw[finite].max())
            direct /= direct.sum()
            np.testing.assert_allclose(probs, direct, atol=1e-12)

    def test_enumeration_combines_chunks(self):
        # 19 active atoms stream as two chunks of 2^18 worlds, split on
        # s(c18), whose maxima lie about 30 apart in log weight
        domain = ", ".join(f"c{i}" for i in range(19))
        model = parse_model(
            f"domain = {domain}\npred s/1\n0.4 s(X)\n30 s(c18)\nhard s(c0) => s(c1)\n"
        )
        queries = [Atom("s", (c,)) for c in ("c18", "c5", "c0", "c1")]
        marg = exact_marginals(model, EvidenceSet(), queries)
        z = 1 + math.exp(0.4) + math.exp(0.8)
        expected = [1 / (1 + math.exp(-30.4)), 1 / (1 + math.exp(-0.4)),
                    math.exp(0.8) / z, (math.exp(0.4) + math.exp(0.8)) / z]
        for atom, p in zip(queries, expected):
            assert marg[atom] == pytest.approx(p, abs=1e-12)

    def test_exact_marginals_peak_memory(self):
        # 19 active atoms, two chunks of 2^18 worlds: 82.3 MB traced at peak
        # when each chunk built an int64 column per atom, 12.3 MB since the
        # log tables are added as views and a column is built per query
        model, matrix, queries = planted_symmetry_instance((10, 9))
        evidence = matrix_to_evidence("p", matrix)
        tracemalloc.start()
        try:
            exact_marginals(model, evidence, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20

    def test_evidence_atoms_are_substituted_out(self):
        model = parse_model(PEER_MODEL)
        ev = parse_evidence("linkto(a,b)\n", model)
        cond = ground(model).condition(ev)
        assert Atom("linkto", ("a", "b")) not in cond.atoms
        assert len(cond.atoms) == 4 + 16 - 1


COMPILED_MODEL = """
domain = a, b, c
pred r/0
pred s/1
pred p/2
1.3 s(X) ^ p(X,Y) => s(Y)
-0.7 p(X,X)
0.4 s(X) v p(X,Y) v r
hard s(a) v s(b) v p(c,c)
hard r => s(c)
"""


def _relabeled_by_atoms(cond, values, perm):
    """Reference relabeling that rebuilds every atom under the renaming."""
    domain = cond.model.domain
    sigma = {c: domain[perm[k]] for k, c in enumerate(domain)}
    out, index = values.copy(), _index(cond)
    for i, atom in enumerate(cond.atoms):
        out[index[Atom(atom.pred, tuple(sigma[a] for a in atom.args))]] = values[i]
    return out


def _relabeled_by_gather(cond, values, perm):
    """Reference relabeling by one index gather per array of `_relabeling`,
    the way the chain relabeled before its per-atom plan."""
    sources = np.arange(len(cond.atoms))
    for lookup in _relabeling(cond):
        is_open = lookup >= 0
        sources[permute_axes(lookup, np.asarray(perm))[is_open]] = lookup[is_open]
    return np.asarray(values)[sources]


class TestCompiledModel:
    def _conditioned(self, evidence_text=""):
        model = parse_model(COMPILED_MODEL)
        return ground(model).condition(parse_evidence(evidence_text, model))

    def test_blanket_lists_hard_then_weighted_formulas_of_each_atom(self):
        cond = self._conditioned("p(a,b)\n!p(b,a)\n")
        assert cond.formulas == cond.hard + cond.weighted
        for i in range(len(cond.atoms)):
            touching = [k for k, comp in enumerate(cond.formulas) if i in comp.atom_ids]
            assert list(cond.blanket[i]) == touching

    def test_blanket_conditional_matches_full_log_weights(self):
        cond = self._conditioned("p(a,b)\n!p(b,a)\n")
        rng = np.random.default_rng(17)
        decided = 0
        for _ in range(30):
            values = rng.integers(0, 2, size=len(cond.atoms))
            before = values.copy()
            for i in range(len(cond.atoms)):
                lw = []
                for setting in (0, 1):
                    world = values.copy()
                    world[i] = setting
                    lw.append(cond.log_weight(world))
                if lw[0] == lw[1] == -math.inf:
                    continue  # a hard grounding outside atom i's blanket fails
                p = cond.conditional(values, i)
                if lw[1] == -math.inf:
                    assert p == 0.0
                elif lw[0] == -math.inf:
                    assert p == 1.0
                else:
                    assert p == pytest.approx(1.0 / (1.0 + math.exp(lw[0] - lw[1])),
                                              rel=1e-12, abs=1e-300)
                decided += 1
            assert np.array_equal(values, before)
        assert decided > 100

    def test_relabeling_matches_atom_rebuilding(self):
        cond = self._conditioned()
        rng = np.random.default_rng(23)
        for _ in range(20):
            values = rng.integers(0, 2, size=len(cond.atoms))
            perm = rng.permutation(len(cond.model.domain))
            out = cond.relabeled(values, perm)
            assert np.array_equal(out, _relabeled_by_atoms(cond, values, perm))
            assert np.array_equal(out, _relabeled_by_gather(cond, values, perm))

    def test_relabeling_onto_a_known_atom_is_refused(self):
        # swapping a and b would move open q(b) onto the evidence atom q(a)
        model = parse_model("domain = a, b, c\npred t/1\npred q/1\n0.5 q(X)\n0.3 t(X)\n")
        cond = ground(model).condition(parse_evidence("q(a)\n", model))
        values = np.array([1, 0, 0, 0, 0], dtype=np.uint8)
        with pytest.raises(InputError, match="moves an open atom onto a known atom"):
            cond.relabeled(values, np.array([1, 0, 2]))
        assert np.array_equal(cond.relabeled(values, np.array([0, 2, 1])), [0, 1, 0, 0, 0])

    @pytest.mark.parametrize(
        "perm",
        [[1, 0, 0], [0, 0, 2], [0, 1], [0, 1, 2, 3], [0, 1, 3], [-1, 0, 1], [[0, 1, 2]],
         [0.0, 1.0, 2.0]],
    )
    def test_relabeling_needs_a_permutation(self, perm):
        # [1, 0, 0] once sent t(b) and t(c) to one slot and lost the true value
        cond = ground(parse_model("domain = a, b, c\npred t/1\n")).condition(EvidenceSet())
        values = np.array([0, 0, 1], dtype=np.uint8)
        with pytest.raises(InputError, match="each of the 3 domain positions exactly once"):
            cond.relabeled(values, np.array(perm))
        assert np.array_equal(cond.relabeled(values, np.array([2, 0, 1])), [0, 1, 0])

    def test_relabeling_under_evidence_symmetries(self):
        model, matrix, _ = planted_symmetry_instance((3, 2))
        evidence = matrix_to_evidence("p", matrix)
        cond = ground(model).condition(evidence)
        positions = _class_positions(model.domain, constant_symmetry_classes(model, evidence))
        rng = np.random.default_rng(29)
        moved = 0
        for _ in range(20):
            values = rng.integers(0, 2, size=len(cond.atoms)).astype(np.uint8)
            perm = _class_permutation(len(model.domain), positions, rng)
            if perm is None:
                continue
            out = cond.relabeled(values, perm)
            assert np.array_equal(out, _relabeled_by_atoms(cond, values, perm))
            assert cond.log_weight(out) == cond.log_weight(values)
            moved += 1
        assert moved > 10


PROPAGATION_HARD_POOL = (
    "s(a)", "!t(b)", "u(c)", "r", "!r",
    "s(X) => t(X)", "t(X) => u(X)", "r => s(b)", "u(X) => !s(X)", "s(a) v t(b) v u(c)",
)


def _brute_force_worlds(model, evidence):
    """Every full world that agrees with the evidence and satisfies every
    hard grounding, with its weight, by `evaluate` on the ground formulas."""
    weighted, hard = _ground_trees(model)
    free = [a for a in model.all_atoms() if a not in evidence]
    worlds = []
    for bits in range(1 << len(free)):
        lookup = dict(evidence.items())
        lookup.update({a: bool(bits >> i & 1) for i, a in enumerate(free)})
        if all(evaluate(f, lookup) for f in hard):
            log_weight = sum(w for w, f in weighted if evaluate(f, lookup))
            worlds.append((lookup, math.exp(log_weight)))
    return free, worlds


class TestUnitPropagation:
    """Atoms that unit propagation derives are substituted out like
    evidence; brute force over full worlds is the oracle."""

    def test_marginals_match_full_world_enumeration(self):
        rng = np.random.default_rng(43)
        base = parse_model(
            "domain = a, b, c\npred r/0\npred s/1\npred t/1\npred u/1\n"
            "0.7 s(X) ^ t(X)\n-1.1 u(X) v r\n0.4 t(X) => s(X)\n"
        )
        outcomes = {"answered": 0, "refuted": 0, "most_derived": 0}
        for trial in range(60):
            picks = rng.random(len(PROPAGATION_HARD_POOL)) < 0.35
            model = base.extended(hard=[
                parse_formula(text, base) for text, pick in zip(PROPAGATION_HARD_POOL, picks)
                if pick
            ])
            evidence = EvidenceSet()
            if trial % 2:
                for atom in model.all_atoms():
                    if rng.random() < 0.2:
                        evidence.assign(atom, bool(rng.random() < 0.5))
            free, worlds = _brute_force_worlds(model, evidence)
            try:
                cond = ground(model).condition(evidence)
            except InconsistencyError as exc:
                assert not worlds
                outcomes["refuted"] += "unit propagation" in str(exc)
                continue
            try:
                exact = exact_marginals(model, evidence, free)
            except InconsistencyError:
                assert not worlds
                continue
            z = sum(w for _, w in worlds)
            for atom in free:
                oracle = sum(w for lookup, w in worlds if lookup[atom]) / z
                assert exact[atom] == pytest.approx(oracle, abs=1e-12)
            derived = {a: v for a, v in _known_atoms(cond).items() if a not in evidence}
            for atom, value in derived.items():
                # every world of positive mass agrees with the derived value
                assert exact[atom] == value
                assert all(lookup[atom] == value for lookup, _ in worlds)
            outcomes["answered"] += 1
            outcomes["most_derived"] = max(outcomes["most_derived"], len(derived))
        assert outcomes["answered"] > 20 and outcomes["refuted"] > 5
        assert outcomes["most_derived"] >= 6

    def test_forced_atoms_follow_an_implication_chain(self):
        model = parse_model(
            "domain = a\npred s/1\npred t/1\npred u/1\npred v0/1\n"
            "hard s(a)\nhard s(X) => t(X)\nhard t(X) => u(X)\nhard u(X) v v0(X)\n"
        )
        cond = ground(model).condition(EvidenceSet())
        known = {a.pred: v for a, v in _known_atoms(cond).items()}
        assert known == {"s": True, "t": True, "u": True}
        assert cond.atoms == (Atom("v0", ("a",)),)

    def test_planted_8_8_reduced_side_enumerates_only_open_atoms(self):
        model, matrix, queries = planted_symmetry_instance((8, 8))
        _, witness = exact_boolean_rank(matrix)
        result = encode_evidence("p", witness, model.predicates)
        extended = extend_model(model, result)
        cond = ground(extended).condition(result.unary_evidence)
        assert sum(a.pred == "p" for a in _known_atoms(cond)) == 256
        assert cond.atoms == queries
        lhs = exact_marginals(model, matrix_to_evidence("p", matrix), queries)
        rhs = exact_marginals(extended, result.unary_evidence, queries)
        assert rhs == lhs
        linked, unlinked = Atom("p", ("c0", "c7")), Atom("p", ("c0", "c8"))
        derived_answers = exact_marginals(extended, result.unary_evidence, [linked, unlinked])
        assert derived_answers == {linked: 1.0, unlinked: 0.0}


def _scanning_conditional(cond, values, i):
    """The conditional as the compiled model first computed it: every
    blanket formula packs its index from the whole world with atom i at 0
    and finds atom i's bit by search.  None for an infeasible world."""
    column = [int(v) for v in values]
    column[i] = 0
    log0 = log1 = 0.0
    for k in cond.blanket[i]:
        comp = cond.formulas[k]
        packed = comp.packed(column)
        log0 += comp.log_table[packed]
        log1 += comp.log_table[packed | 1 << comp.atom_ids.index(i)]
    if log0 == log1 == -math.inf:
        return None
    if log1 == -math.inf:
        return 0.0
    if log0 == -math.inf:
        return 1.0
    gap = min(max(log0 - log1, -700.0), 700.0)
    return 1.0 / (1.0 + math.exp(gap))


WIDE_FORMULA_MODEL = """
domain = a, b, c
pred q/1
pred p/2
1.3 p(X,Y) ^ p(Y,Z) ^ q(X) => p(X,Z) v q(Y) v q(Z) v p(Z,Y) v p(Z,X)
-0.6 q(X) ^ p(X,Y) ^ p(Y,X) ^ q(Y) ^ p(X,X)
hard p(X,Y) v p(Y,X) v q(X) v q(Y) v p(X,X)
"""


class TestPlanConditional:
    """`Conditioned.conditional` reads per-atom blanket plans; the scanning
    loop it replaced is the oracle, and the two must agree bit for bit."""

    def _check(self, cond, rng, worlds=4):
        infeasible = 0
        for _ in range(worlds):
            world = rng.integers(0, 2, size=len(cond.atoms))
            # each world and its complement, so every neighbour takes both values
            for values in (world, 1 - world):
                for i in range(len(cond.atoms)):
                    for own in (0, 1):
                        values = values.copy()
                        values[i] = own
                        expected = _scanning_conditional(cond, values, i)
                        if expected is None:
                            infeasible += 1
                            with pytest.raises(InputError, match="infeasible"):
                                cond.conditional(values, i)
                        else:
                            assert cond.conditional(values, i).hex() == expected.hex()
        return infeasible

    def test_random_equivalence_instances_on_both_sides(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            model, matrix, _ = random_equivalence_instance(rng, max_m=4)
            _, witness = exact_boolean_rank(matrix)
            result = encode_evidence("p", witness, model.predicates)
            for side_model, evidence in (
                (model, matrix_to_evidence("p", matrix)),
                (extend_model(model, result), result.unary_evidence),
            ):
                self._check(ground(side_model).condition(evidence), rng, worlds=2)

    def test_models_with_residual_hard_formulas(self):
        rng = np.random.default_rng(67)
        base = parse_model(
            "domain = a, b, c\npred r/0\npred s/1\npred t/1\npred u/1\n"
            "0.7 s(X) ^ t(X)\n-1.1 u(X) v r\n0.4 t(X) => s(X)\n"
        )
        infeasible = hard_models = 0
        for _ in range(40):
            picks = rng.random(len(PROPAGATION_HARD_POOL)) < 0.35
            model = base.extended(hard=[
                parse_formula(text, base) for text, pick in zip(PROPAGATION_HARD_POOL, picks)
                if pick
            ])
            try:
                cond = ground(model).condition(EvidenceSet())
            except InconsistencyError:
                continue
            hard_models += bool(cond.hard)
            infeasible += self._check(cond, rng)
        assert hard_models > 10 and infeasible > 0

    def test_formulas_touching_five_to_eight_atoms(self):
        model = parse_model(WIDE_FORMULA_MODEL)
        rng = np.random.default_rng(71)
        widths = set()
        for evidence_text in ("", "q(a)\n!p(b,c)\n", "p(a,a)\np(b,b)\n!q(c)\n"):
            cond = ground(model).condition(parse_evidence(evidence_text, model))
            widths |= {len(comp.atom_ids) for comp in cond.formulas}
            self._check(cond, rng, worlds=1)
        assert set(range(5, 9)) <= widths

    def test_exact_inference_never_builds_the_plans(self, monkeypatch):
        def unbuildable(what):
            def build(cond):
                raise AssertionError(f"{what} built")
            return property(build)

        monkeypatch.setattr(Conditioned, "_plans", unbuildable("blanket plans"))
        monkeypatch.setattr(Conditioned, "_neighbours", unbuildable("blanket neighbours"))
        monkeypatch.setattr(Conditioned, "_relabeling_parts", unbuildable("relabeling plan"))
        model = parse_model(COMPILED_MODEL)
        evidence = parse_evidence("p(a,b)\n!p(b,a)\n", model)
        with monkeypatch.context() as patch:
            # nor does it cut `slot` into per-predicate views, as relabeling does
            patch.setattr(mln._AtomIds, "arrays", lambda *_: pytest.fail("views built"))
            cond = ground(model).condition(evidence)
            exact_marginals(model, evidence, cond.atoms[:3])
            exact_query(model, evidence, cond.atoms[-1])
            enumerate_world_distribution(model, parse_evidence("p(a,b)\np(a,a)\n", model))
        with pytest.raises(AssertionError, match="plans built"):
            cond.conditional(np.ones(len(cond.atoms), dtype=np.int64), 0)
        with pytest.raises(AssertionError, match="neighbours built"):
            estimate_marginals(model, evidence, cond.atoms[:3], ChainConfig(10))
        with pytest.raises(AssertionError, match="relabeling plan built"):
            cond.relabeled(np.ones(len(cond.atoms), dtype=np.int64), np.arange(3))


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


class TestPinnedExactValues:
    """Enumeration results recorded with the per-formula evaluation paths
    that the compiled ground model replaced; float.hex keeps them exact."""

    def test_planted_marginals(self):
        model, matrix, queries = planted_symmetry_instance((4, 4))
        exact = exact_marginals(model, matrix_to_evidence("p", matrix), queries)
        assert [exact[q].hex() for q in queries] == ["0x1.1b20994651c7dp-3"] * 8

    def test_reduction_sides(self):
        model, matrix, queries = planted_symmetry_instance((2, 2))
        _, witness = exact_boolean_rank(matrix)
        result = encode_evidence("p", witness, model.predicates)
        lhs = exact_marginals(model, matrix_to_evidence("p", matrix), queries)
        rhs = exact_marginals(extend_model(model, result), result.unary_evidence, queries)
        assert [lhs[q].hex() for q in queries] == ["0x1.82ad369253f1ep-3"] * 4
        # unit propagation leaves the reduced side the same four open atoms
        assert [rhs[q].hex() for q in queries] == ["0x1.82ad369253f1ep-3"] * 4

    def test_world_distribution(self):
        model = parse_model(
            "domain = a, b\npred s/1\npred p/2\n"
            "1.4 s(X) ^ p(X,Y) => s(Y)\n-0.8 p(X,X)\n0.3 s(X) v p(X,X)\n"
            "hard s(a) v s(b)\n"
        )
        _, probs = enumerate_world_distribution(model, parse_evidence("p(a,b)\n", model))
        assert len(probs) == 32
        assert _digest([p.hex() for p in probs.tolist()]) == "4126ed3b12a6d17c"


def _compiled_record(model, evidence):
    """Every field of the compiled model that inference reads, floats as
    float.hex; a marker when conditioning refutes the model."""
    try:
        cond = ground(model).condition(evidence)
    except InconsistencyError:
        return "refuted"
    return _compiled_fields(cond)


def _compiled_fields(cond):
    return (
        cond.atoms,
        sorted((repr(a), v) for a, v in _known_atoms(cond).items()),
        cond.const_log_weight.hex(),
        len(cond.hard),
        cond.blanket,
        [(comp.atom_ids, [x.hex() for x in comp.log_table.tolist()]) for comp in cond.formulas],
        [lookup.tolist() for lookup in _relabeling(cond)],
    )


def _reduction_sides(model, matrix):
    _, witness = exact_boolean_rank(matrix)
    result = encode_evidence("p", witness, model.predicates)
    return [
        (model, matrix_to_evidence("p", matrix)),
        (extend_model(model, result), result.unary_evidence),
    ]


def _equivalence_pool():
    rng = np.random.default_rng(83)
    for _ in range(300):
        model, matrix, _ = random_equivalence_instance(rng, max_m=4)
        yield from _reduction_sides(model, matrix)


def _propagation_pool():
    rng = np.random.default_rng(89)
    base = parse_model(
        "domain = a, b, c\npred r/0\npred s/1\npred t/1\npred u/1\n"
        "0.7 s(X) ^ t(X)\n-1.1 u(X) v r\n0.4 t(X) => s(X)\n"
    )
    for trial in range(300):
        picks = rng.random(len(PROPAGATION_HARD_POOL)) < 0.35
        model = base.extended(hard=[
            parse_formula(text, base) for text, pick in zip(PROPAGATION_HARD_POOL, picks)
            if pick
        ])
        evidence = EvidenceSet()
        if trial % 2:
            for atom in model.all_atoms():
                if rng.random() < 0.2:
                    evidence.assign(atom, bool(rng.random() < 0.5))
        yield model, evidence


def _class_pool():
    rng = np.random.default_rng(97)
    for k in range(1000):
        yield _random_class_instance(rng, CLASS_INSTANCE_KINDS[k % 5])


def _small_pools():
    model = parse_model(
        "domain = a, b\npred s/1\npred p/2\n"
        "1.4 s(X) ^ p(X,Y) => s(Y)\n-0.8 p(X,X)\n0.3 s(X) v p(X,X)\n"
        "hard s(a) v s(b)\n"
    )
    yield model, parse_evidence("p(a,b)\n", model)
    model, matrix, _ = planted_symmetry_instance((8, 8))
    yield from _reduction_sides(model, matrix)


def _active(cond):
    return [i for i, near in enumerate(cond.blanket) if near]


def _chunked(cond, atom_ids):
    """Every chunk of `mln._chunk_log_weights`, world w setting atom_ids[b] to bit b
    of w, as (first, logw) pairs."""
    bit = dict(zip(atom_ids, range(len(atom_ids))))
    return [(first, logw.copy()) for first, logw in mln._chunk_log_weights(cond, bit)]


# Before the first chunk, every world violates `s(c) v s(d)`: the open atoms
# are s(a), ..., s(d), in id order, and two bits make a chunk.
INFEASIBLE_FIRST_CHUNK = """
domain = a, b, c, d
pred s/1
pred p/2
0.7 s(X) ^ p(X,Y) => s(Y)
-0.4 s(X)
hard s(c) v s(d)
"""


class TestChunkedEnumeration:
    """Chunks of a few worlds, so that most atoms are high bits of a chunk,
    against the single-world evaluator and against one whole chunk."""

    @pytest.mark.parametrize("pool", [_equivalence_pool, _propagation_pool, _class_pool,
                                      _small_pools])
    def test_pool_worlds_and_marginals(self, pool, monkeypatch):
        checked = 0
        for model, evidence in pool():
            try:
                cond = ground(model).condition(evidence)
            except InconsistencyError:
                continue
            active = _active(cond)
            if not 3 <= len(active) <= 8:
                continue
            whole = _chunked(cond, active)
            queries = [cond.atoms[i] for i in active]
            try:
                expected = exact_marginals(model, evidence, queries)
            except InconsistencyError:
                expected = None
            monkeypatch.setattr(mln, "_CHUNK_BITS", 2)
            chunks = _chunked(cond, active)
            assert [first for first, _ in chunks] == list(range(0, 1 << len(active), 4))
            logw = np.concatenate([logw for _, logw in chunks])
            assert logw.tobytes() == whole[0][1].tobytes()
            world = np.zeros(len(cond.atoms), dtype=np.int64)
            for w in range(1 << len(active)):
                world[active] = [w >> b & 1 for b in range(len(active))]
                assert logw[w].hex() == cond.log_weight(world).hex()
            if expected is None:
                with pytest.raises(InconsistencyError):
                    exact_marginals(model, evidence, queries)
            else:
                got = exact_marginals(model, evidence, queries)
                for q in queries:
                    assert got[q] == pytest.approx(expected[q], abs=1e-12)
            monkeypatch.undo()
            checked += 1
        assert checked > 0

    def test_skips_a_first_chunk_without_a_feasible_world(self, monkeypatch):
        model = parse_model(INFEASIBLE_FIRST_CHUNK)
        links = {("a", "b"), ("b", "c"), ("c", "d")}
        evidence = EvidenceSet((atom, atom.args in links) for atom in model.all_atoms()
                               if atom.pred == "p")
        cond = ground(model).condition(evidence)
        assert cond.atoms == tuple(Atom("s", (c,)) for c in "abcd")
        queries = cond.atoms
        expected = exact_marginals(model, evidence, queries)
        monkeypatch.setattr(mln, "_CHUNK_BITS", 2)
        chunks = _chunked(cond, _active(cond))
        assert len(chunks) == 4
        assert (chunks[0][1] == -np.inf).all()
        assert all(np.isfinite(logw).all() for _, logw in chunks[1:])
        for first, logw in chunks:
            for j in range(4):
                world = [(first + j) >> b & 1 for b in range(4)]
                assert logw[j].hex() == cond.log_weight(world).hex()
        got = exact_marginals(model, evidence, queries)
        for q in queries:
            assert got[q] == pytest.approx(expected[q], abs=1e-12)


class TestPinnedCompiledModel:
    """The compiled model of every instance in four pools, recorded when
    conditioning still built one substituted formula tree per grounding."""

    @pytest.mark.parametrize(
        "pool, count, refuted, digest",
        [
            (_equivalence_pool, 600, 0, "f1765fdd428b1c6c"),
            (_propagation_pool, 300, 68, "7e0d072f47aacb23"),
            (_class_pool, 1000, 12, "5ad94b1f233f0514"),
            (_small_pools, 3, 0, "8e815c7967969683"),
        ],
    )
    def test_compiled_fields(self, pool, count, refuted, digest):
        records = [_compiled_record(model, evidence) for model, evidence in pool()]
        assert len(records) == count
        assert records.count("refuted") == refuted
        assert _digest(records) == digest


# --- the Atom-tree conditioning that integer atom ids replaced --------------
#
# Kept as a differential oracle: each grounding is a formula and a binding
# dict, evaluated with Atom objects at the leaves and compiled by
# evaluating its residual under every assignment.


def _tree_partial_evaluate(f, known, binding):
    if isinstance(f, Atom):
        atom = Atom(f.pred, tuple(binding.get(a, a) for a in f.args))
        return known.get(atom, atom)
    if isinstance(f, Not):
        sub = _tree_partial_evaluate(f.sub, known, binding)
        return (not sub) if isinstance(sub, bool) else Not(sub)
    if isinstance(f, (And, Or)):
        short = isinstance(f, Or)
        parts = []
        for p in f.parts:
            v = _tree_partial_evaluate(p, known, binding)
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
        prem = _tree_partial_evaluate(f.premise, known, binding)
        conc = _tree_partial_evaluate(f.conclusion, known, binding)
        if prem is False or conc is True:
            return True
        if prem is True:
            return conc
        if conc is False:
            return Not(prem) if not isinstance(prem, bool) else not prem
        return Implies(prem, conc)
    left = _tree_partial_evaluate(f.left, known, binding)
    right = _tree_partial_evaluate(f.right, known, binding)
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


def _tree_compile_formula(f, weight, index):
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


def _tree_propagate_units(hard, known):
    watchers = {}
    residual = [None] * len(hard)
    pending = list(range(len(hard)))
    while pending:
        k = pending.pop()
        f, binding = hard[k]
        first = residual[k] is None
        simp = residual[k] = _tree_partial_evaluate(f, known, binding)
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
            ground_text = format_formula(_tree_partial_evaluate(f, {}, binding))
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


def _tree_condition(model, evidence):
    def bindings(f):
        variables = free_variables(f)
        for combo in itertools.product(model.domain, repeat=len(variables)):
            yield dict(zip(variables, combo))

    known = {}
    for atom, value in evidence.items():
        model.check_formula(atom, "evidence")
        known[atom] = value
    hard_groundings = [(f, b) for f in model.hard_formulas for b in bindings(f)]
    residual_hard = _tree_propagate_units(hard_groundings, known)
    atoms = tuple(a for a in model.all_atoms() if a not in known)
    index = {a: i for i, a in enumerate(atoms)}
    const_log_weight = 0.0
    weighted = []
    for w, f in model.weighted_formulas:
        for binding in bindings(f):
            simp = _tree_partial_evaluate(f, known, binding)
            if simp is True:
                const_log_weight += w
            elif simp is not False:
                weighted.append(_tree_compile_formula(simp, w, index))
    hard = [_tree_compile_formula(simp, None, index) for simp in residual_hard if simp is not True]
    formulas = tuple(hard + weighted)
    blanket = [[] for _ in atoms]
    for k, comp in enumerate(formulas):
        for atom_id in comp.atom_ids:
            blanket[atom_id].append(k)
    return Conditioned(
        model=model, known=[known.get(a) for a in model.all_atoms()], atoms=atoms,
        slot=[index.get(a, -1) for a in model.all_atoms()], weighted=tuple(weighted),
        hard=tuple(hard), const_log_weight=const_log_weight, formulas=formulas,
        blanket=tuple(map(tuple, blanket)),
    )


# 0-ary to 3-ary, declared out of name order so that declaration order and
# atom id order differ
ORACLE_PREDICATES = {"t": 3, "s": 1, "r": 0, "p": 2}
ORACLE_TERMS = ("X", "Y", "Z", "X", "Y", "a", "b")  # X and Y drawn twice as often


def _random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        pred = list(ORACLE_PREDICATES)[int(rng.integers(len(ORACLE_PREDICATES)))]
        terms = rng.integers(len(ORACLE_TERMS), size=ORACLE_PREDICATES[pred])
        return Atom(pred, tuple(ORACLE_TERMS[k] for k in terms))
    kind = int(rng.integers(5))
    if kind == 0:
        return Not(_random_formula(rng, depth - 1))
    if kind in (1, 2):
        parts = tuple(_random_formula(rng, depth - 1) for _ in range(int(rng.integers(2, 4))))
        return And(parts) if kind == 1 else Or(parts)
    left, right = _random_formula(rng, depth - 1), _random_formula(rng, depth - 1)
    return Implies(left, right) if kind == 3 else Iff(left, right)


def _random_oracle_instance(rng, trial, sizes=(2, 3)):
    """A random model over r/0, s/1, p/2 and t/3, its domain `sizes[0]` to
    `sizes[1]` constants, with constants inside its formulas, weights that
    include both zeros, short hard formulas that unit propagation can
    refute, and partial evidence; every 20th instance holds one evidence
    atom outside the model."""
    domain = ("a", "b", "c", "d", "e")[:int(rng.integers(sizes[0], sizes[1] + 1))]
    weighted = [
        (float(rng.choice([-0.0, 0.0])) if rng.random() < 0.1 else float(rng.uniform(-2, 2)),
         _random_formula(rng, 2))
        for _ in range(int(rng.integers(1, 4)))
    ]
    hard = [_random_formula(rng, int(rng.integers(0, 2))) for _ in range(int(rng.integers(0, 4)))]
    model = Model(domain, ORACLE_PREDICATES, weighted, hard)
    evidence = EvidenceSet()
    for atom in model.all_atoms():
        if rng.random() < 0.25:
            evidence.assign(atom, bool(rng.random() < 0.5))
    if trial % 20 == 19:
        bad = [Atom("s", ("zz",)), Atom("p", ("a",)), Atom("q", ("a",)), Atom("r", ("a",))]
        evidence.assign(bad[trial // 20 % len(bad)], True)
    return model, evidence


def _connectives(f):
    """Names of the connectives in `f`."""
    if isinstance(f, Atom):
        return set()
    if isinstance(f, Not):
        subs = (f.sub,)
    elif isinstance(f, (And, Or)):
        subs = f.parts
    elif isinstance(f, Implies):
        subs = (f.premise, f.conclusion)
    else:
        subs = (f.left, f.right)
    return {type(f).__name__}.union(*map(_connectives, subs))


class TestConditionOracle:
    """Conditioning on integer atom ids against the Atom-tree path it
    replaced: the same compiled fields, or the same exception and message."""

    @staticmethod
    def _outcome(condition, model, evidence):
        try:
            return _compiled_fields(condition(model, evidence))
        except (InconsistencyError, InputError, CapacityError) as exc:
            return type(exc).__name__, str(exc)

    def test_random_models_match_the_atom_tree_path(self):
        rng = np.random.default_rng(101)
        kinds = {"compiled": 0, "InconsistencyError": 0, "InputError": 0}
        connectives, arities, constants = set(), set(), False
        for trial in range(600):
            model, evidence = _random_oracle_instance(rng, trial)
            new = self._outcome(lambda m, e: ground(m).condition(e), model, evidence)
            old = self._outcome(_tree_condition, model, evidence)
            assert new == old, (model.to_text(), evidence.to_text())
            kinds[new[0] if isinstance(new[0], str) else "compiled"] += 1
            formulas = [f for _, f in model.weighted_formulas] + list(model.hard_formulas)
            for f in formulas:
                connectives |= _connectives(f)
                for atom in atoms_of(f):
                    arities.add(len(atom.args))
                    constants |= any(a in model.domain for a in atom.args)
        assert kinds["compiled"] > 250 and kinds["InconsistencyError"] > 100
        assert kinds["InputError"] == 30
        assert connectives == {"Not", "And", "Or", "Implies", "Iff"}
        assert arities == {0, 1, 2, 3} and constants

    def test_refutation_prints_the_ground_formula(self):
        model = parse_model("domain = a, b\npred p/2\npred s/1\nhard p(X,Y) => s(Y)\n")
        evidence = parse_evidence("p(a,b)\n!s(b)\n", model)
        with pytest.raises(InconsistencyError, match=r"refutes hard formula p\(a, b\) => s\(b\);"):
            ground(model).condition(evidence)


# 24 leaves: 22 atoms per grounding with X and Y apart, 11 with X = Y.
WIDE_MODEL = "domain = a, b, c\npred t/3\npred p/2\npred r/1\n0.5 p(X, Y) v r(X)\n-0.25 " + (
    " v ".join([f"t({v}, {i}, {j})" for v in "XY" for i in "abc" for j in "abc"]
               + ["p(X, Y)", "p(Y, X)", "r(X)", "r(Y)"])
) + "\n"


def _ci_full_model(tmp_path):
    """The model and evidence that CI's CLI step writes as full.model and
    reduced.evidence: `gen -m 12 --rank 3`, its exact witness reduced."""
    from liftbmf.cli import main

    assert main(["gen", "-m", "12", "--rank", "3", "-o", str(tmp_path / "matrix.txt")]) == 0
    assert main(["rank", str(tmp_path / "matrix.txt"), "--witness", str(tmp_path / "w.fct")]) == 0
    assert main(["reduce", str(tmp_path / "w.fct"), "--predicate", "linkto",
                 "-o", str(tmp_path / "reduced")]) == 0
    model = parse_model(
        "domain = " + ", ".join(f"c{k}" for k in range(12))
        + "\npred linkto/2\npred s/1\n1.5 s(X) ^ linkto(X,Y) => s(Y)\n"
        + (tmp_path / "reduced.model").read_text()
    )
    return model, parse_evidence((tmp_path / "reduced.evidence").read_text(), model)


class TestArrayConditioning:
    """Conditioning one formula at a time as arrays against one grounding at
    a time: the same compiled fields, or the same exception and message."""

    @staticmethod
    def _both_paths(monkeypatch, model, evidence):
        outcomes = []
        for threshold in (0, mln.DEFAULT_GROUND_CAP + 1):  # arrays, then the loop
            monkeypatch.setattr(mln, "_ARRAY_GROUNDINGS", threshold)
            outcomes.append(TestConditionOracle._outcome(
                lambda m, e: ground(m).condition(e), model, evidence))
        return outcomes

    def test_random_models(self, monkeypatch):
        kinds = {}
        for seed, count, sizes in [(101, 600, (2, 3)), (103, 300, (3, 5))]:
            rng = np.random.default_rng(seed)
            for trial in range(count):
                model, evidence = _random_oracle_instance(rng, trial, sizes)
                arrays, loop = self._both_paths(monkeypatch, model, evidence)
                assert arrays == loop, (model.to_text(), evidence.to_text())
                kind = arrays[0] if isinstance(arrays[0], str) else "compiled"
                kinds[kind] = kinds.get(kind, 0) + 1
        assert kinds["compiled"] > 400 and kinds["InconsistencyError"] > 200
        assert kinds["InputError"] == 45

    def test_planted_and_ci_models(self, monkeypatch, tmp_path):
        pools = [_ci_full_model(tmp_path)]
        for blocks in [(8, 8), (10, 10)]:
            model, matrix, _ = planted_symmetry_instance(blocks)
            pools += _reduction_sides(model, matrix)
        for model, evidence in pools:
            arrays, loop = self._both_paths(monkeypatch, model, evidence)
            assert isinstance(arrays[0], tuple) and arrays == loop

    def test_the_first_wide_grounding_names_the_capacity_error(self, monkeypatch):
        # in grounding order (a, a) touches 11 atoms and (a, b) 22; (a, c),
        # with t(c, a, a) known, touches 21 and sorts first by leaf values
        model = parse_model(WIDE_MODEL)
        evidence = EvidenceSet({Atom("t", ("c", "a", "a")): False})
        arrays, loop = self._both_paths(monkeypatch, model, evidence)
        message = "ground formula touches 22 atoms; table too large"
        assert arrays == loop == ("CapacityError", message)

    def test_which_path_runs(self, monkeypatch):
        # the planted (4, 4) sides have 72 and 136 groundings; the constant is read at each call
        assert mln._ARRAY_GROUNDINGS == 128
        runs = []
        build = mln._formula_arrays
        monkeypatch.setattr(mln, "_formula_arrays", lambda g: runs.append(1) or build(g))
        model, matrix, _ = planted_symmetry_instance((4, 4))
        for (side, evidence), count in zip(_reduction_sides(model, matrix), (72, 136)):
            grounding = ground(side)
            assert len(grounding.weighted) + len(grounding.hard) == count
            for threshold, arrays in [(128, count >= 128), (count + 1, False), (count, True)]:
                monkeypatch.setattr(mln, "_ARRAY_GROUNDINGS", threshold)
                runs.clear()
                grounding.condition(evidence)
                assert runs == [1] * arrays


class TestTableMemo:
    def test_planted_8_8_shares_four_tables_per_side(self):
        model, matrix, _ = planted_symmetry_instance((8, 8))
        for side_model, evidence in _reduction_sides(model, matrix):
            cond = ground(side_model).condition(evidence)
            assert len(cond.formulas) == 144
            assert len({id(comp.log_table) for comp in cond.formulas}) <= 4
            assert not any(comp.log_table.flags.writeable for comp in cond.formulas)

    def test_weights_zero_and_minus_zero_keep_their_own_tables(self):
        model = parse_model("domain = a, b\npred s/1\n0.0 s(X)\n-0.0 s(X)\n")
        cond = ground(model).condition(EvidenceSet())
        assert _compiled_fields(cond) == _compiled_fields(_tree_condition(model, EvidenceSet()))
        tables = [comp.log_table[1].hex() for comp in cond.formulas]
        assert tables == ["0x0.0p+0"] * 2 + ["-0x0.0p+0"] * 2



# --- the atom layout's second copies that `_AtomIds` replaced ----------------
#
# Kept as differential oracles: `all_atoms` spelled out the atom order and
# `constant_symmetry_classes` read the evidence through its own position
# map into int8 tables built per predicate.


def _listed_atoms(model):
    out = []
    for name in sorted(model.predicates):
        for args in itertools.product(model.domain, repeat=model.predicates[name]):
            out.append(Atom(name, args))
    return tuple(out)


def _table_classes(model, evidence):
    position = {c: k for k, c in enumerate(model.domain)}
    formulas = model.hard_formulas + tuple(f for _, f in model.weighted_formulas)
    mentioned = {a for f in formulas for atom in atoms_of(f) for a in atom.args if a in position}
    tables = {p: np.full((len(position),) * k, -1, np.int8) for p, k in model.predicates.items()}
    for atom, value in evidence.items():
        at = tuple(map(position.get, atom.args))
        if model.predicates.get(atom.pred) != len(at) or None in at:
            model.check_formula(atom, "evidence")
        tables[atom.pred][at] = value
    assigned = [t for t in tables.values() if t.ndim and t.max() >= 0]
    unary = [t.tolist() for t in assigned if t.ndim == 1]
    signature = [tuple(values[k] for values in unary) for k in range(len(position))]
    wider = [(t, t.tobytes()) for t in assigned if t.ndim > 1]
    identity = np.arange(len(position))

    def swaps(a, b):
        a, b = position[a], position[b]
        if signature[a] != signature[b]:
            return False
        perm = identity.copy()
        perm[a], perm[b] = b, a
        return all(permute_axes(t, perm).tobytes() == raw for t, raw in wider)

    classes = []
    for c in model.domain:
        for cls in () if c in mentioned else classes:
            if cls[0] not in mentioned and swaps(c, cls[0]):
                cls.append(c)
                break
        else:
            classes.append([c])
    return tuple(tuple(cls) for cls in classes)


BAD_EVIDENCE_MODEL = "domain = a, b, c\npred r/0\npred u/1\npred p/2\npred t/3\n0.3 r\n0.5 u(b)\n"
BAD_EVIDENCE_ATOMS = (
    Atom("r", ("a",)), Atom("u", ()), Atom("u", ("zz",)), Atom("p", ("a",)),
    Atom("t", ("a", "b")), Atom("t", ("a", "b", "zz")), Atom("nope", ()), Atom("nope", ("a",)),
)


def _bad_evidence_pool():
    """Random valid evidence on r/0, u/1, p/2 and t/3 with one or two atoms
    outside the model put in at random places."""
    rng = np.random.default_rng(103)
    model = parse_model(BAD_EVIDENCE_MODEL)
    atoms = model.all_atoms()
    for _ in range(200):
        chosen = [atoms[k] for k in rng.permutation(len(atoms))[:int(rng.integers(0, 12))]]
        for _ in range(int(rng.integers(1, 3))):
            bad = BAD_EVIDENCE_ATOMS[int(rng.integers(len(BAD_EVIDENCE_ATOMS)))]
            if bad not in chosen:
                chosen.insert(int(rng.integers(len(chosen) + 1)), bad)
        yield model, EvidenceSet((atom, bool(rng.random() < 0.5)) for atom in chosen)


class TestAtomLayoutAgainstTheCopiesItReplaced:
    """`Model.all_atoms` and `constant_symmetry_classes` on `_AtomIds`
    against the code that kept its own atom order and evidence tables:
    the same atoms and classes, or the same InputError text."""

    @staticmethod
    def _outcome(classes, model, evidence):
        try:
            return classes(model, evidence)
        except InputError as exc:
            return "InputError", str(exc)

    @pytest.mark.parametrize(
        "pool, count, refused",
        [
            (_equivalence_pool, 600, 0),
            (_small_pools, 3, 0),
            (_class_pool, 1000, 0),
            (_propagation_pool, 300, 0),
            (lambda: (_random_oracle_instance(np.random.default_rng(107), k)
                      for k in range(600)), 600, 30),
            (_bad_evidence_pool, 200, 200),
        ],
    )
    def test_pools(self, pool, count, refused):
        seen = refusals = 0
        for model, evidence in pool():
            assert model.all_atoms() == _listed_atoms(model)
            new = self._outcome(constant_symmetry_classes, model, evidence)
            assert new == self._outcome(_table_classes, model, evidence), (
                model.to_text(), evidence.to_text())
            seen += 1
            refusals += new[0] == "InputError"
        assert (seen, refusals) == (count, refused)

    def test_the_pools_cover_every_arity_and_multi_member_classes(self):
        arities, grouped = set(), 0
        for pool in (_equivalence_pool, _small_pools, _class_pool):
            for model, evidence in pool():
                arities |= {len(atom.args) for atom in evidence}
                grouped += any(len(cls) > 1 for cls in constant_symmetry_classes(model, evidence))
        assert arities == {0, 1, 2, 3} and grouped > 500

    def test_an_empty_domain_has_no_classes(self):
        # the per-predicate tables had no entries, and taking their max raised ValueError
        model = Model((), {"r": 0, "s": 1, "p": 2})
        assert model.all_atoms() == _listed_atoms(model) == (Atom("r", ()),)
        assert constant_symmetry_classes(model, EvidenceSet({Atom("r", ()): True})) == ()


class TestEvidenceSet:
    def test_double_assignment_rejected_even_if_consistent(self):
        ev = EvidenceSet()
        ev.assign(Atom("q", ("a",)), True)
        with pytest.raises(InputError, match="twice"):
            ev.assign(Atom("q", ("a",)), True)

    @pytest.mark.parametrize("value", ["false", 2, 1, 0.0, None])
    def test_values_must_be_bools(self, value):
        # "false" and 2 were once both stored as True
        with pytest.raises(InputError, match=r"value of q\(a\) must be a bool"):
            EvidenceSet().assign(Atom("q", ("a",)), value)
        with pytest.raises(InputError, match="must be a bool"):
            EvidenceSet({Atom("q", ("a",)): value})
        ev = EvidenceSet({Atom("q", ("a",)): np.bool_(False)})
        assert ev[Atom("q", ("a",))] is False

    def test_merged(self):
        left = EvidenceSet({Atom("q", ("a",)): True})
        right = EvidenceSet({Atom("q", ("b",)): False})
        merged = left.merged(right)
        assert len(merged) == 2

    def test_to_text_round_trip(self):
        model = parse_model("domain = a, b\npred q/1\n")
        ev = parse_evidence("q(a)\n!q(b)\n", model)
        assert parse_evidence(ev.to_text(), model) == ev

    def test_evidence_atoms_must_be_ground(self):
        with pytest.raises(InputError, match=r"evidence atom p\(a, X\) is not ground"):
            EvidenceSet().assign(Atom("p", ("a", "X")), True)
        with pytest.raises(InputError, match=r"evidence atom q\(Y\) is not ground"):
            EvidenceSet({Atom("q", ("Y",)): False})

    @pytest.mark.parametrize("args", [(1,), ("a", None), ("",), ("X", 1)])
    def test_evidence_arguments_must_be_names(self, args):
        # a non-string argument once raised TypeError from `is_variable`
        bad = next(arg for arg in args if not (isinstance(arg, str) and arg))
        message = re.escape(f"evidence: argument {bad!r} of p is not a name")
        with pytest.raises(InputError, match=message):
            EvidenceSet().assign(Atom("p", args), True)
        with pytest.raises(InputError, match=message):
            EvidenceSet({Atom("p", args): "not a bool either"})

    @pytest.mark.parametrize("args", ["ab", ["a", "b"]])
    def test_evidence_arguments_must_be_a_tuple(self, args):
        # a string once passed as its characters: p(a, b)
        message = re.escape(f"evidence: arguments {args!r} of p are not a tuple")
        with pytest.raises(InputError, match=message):
            EvidenceSet().assign(Atom("p", args), True)
        with pytest.raises(InputError, match=message):
            EvidenceSet([(Atom("p", args), True)])


class TestQueryRefusals:
    """Malformed query atoms are refused with InputError before anything is
    enumerated or sampled; exact and Gibbs inference once raised TypeError."""

    @pytest.mark.parametrize("infer", [
        lambda model, queries: exact_marginals(model, EvidenceSet(), queries),
        lambda model, queries: estimate_marginals(model, EvidenceSet(), queries, ChainConfig(5)),
    ], ids=["exact", "gibbs"])
    @pytest.mark.parametrize("query, message", [
        (Atom("studentpage", ("X",)), "query atom studentpage(X) is not ground"),
        (Atom("linkto", ("a", "Y")), "query atom linkto(a, Y) is not ground"),
        (Atom("studentpage", (1,)), "query: argument 1 of studentpage is not a name"),
        (Atom("linkto", ("X", None)), "query: argument None of linkto is not a name"),
        # a string once passed as its characters: linkto(a, b)
        (Atom("linkto", "ab"), "query: arguments 'ab' of linkto are not a tuple"),
        (Atom("studentpage", ["a"]), "query: arguments ['a'] of studentpage are not a tuple"),
    ])
    def test_malformed_queries(self, infer, query, message):
        model = parse_model(PEER_MODEL)
        with pytest.raises(InputError, match=re.escape(message)):
            infer(model, [Atom("studentpage", ("a",)), query])


class TestModelRefusals:
    def test_duplicate_constants(self):
        with pytest.raises(InputError, match="domain constants are not unique"):
            parse_model("domain = a, b, a\npred q/1\n")
        with pytest.raises(InputError, match="domain constants are not unique"):
            Model(("a", "a"), {})

    @pytest.mark.parametrize("name", ["A", "Ab", "1a", "a b", "p(x)", "", "q-r", "\u00e9", 1, None])
    def test_bad_constant_and_predicate_names(self, name):
        with pytest.raises(InputError, match=re.escape(f"invalid constant name {name!r}")):
            Model(("a", name), {})
        with pytest.raises(InputError, match=re.escape(f"invalid predicate name {name!r}")):
            Model(("a",), {"q": 1, name: 1})

    @pytest.mark.parametrize("arg", [1, "", None])
    def test_non_name_argument_in_a_formula(self, arg):
        # no variable, so an unknown constant; `is_variable` once raised TypeError
        with pytest.raises(InputError, match=re.escape(
                f"weighted formula: unknown constant {arg!r}")):
            Model(("a",), {"q": 1}, ((0.5, Atom("q", (arg,))),))

    @pytest.mark.parametrize("args", ["ab", ["a", "b"]])
    def test_formula_arguments_must_be_a_tuple(self, args):
        # a string once passed as its characters: 0.5 p(a, b)
        atom = Atom("p", args)
        with pytest.raises(InputError, match=re.escape(
                f"weighted formula: arguments {args!r} of p are not a tuple")):
            Model(("a", "b"), {"p": 2}, ((0.5, atom),))
        with pytest.raises(InputError, match=re.escape(
                f"hard formula: arguments {args!r} of p are not a tuple")):
            Model(("a", "b"), {"p": 2}, (), (Not(atom),))

    @pytest.mark.parametrize("formula, bad", [
        ("q(a)", "'q(a)'"), (Not("q(a)"), "'q(a)'"), (And((Atom("q", ("a",)), None)), "None"),
    ])
    def test_non_formulas(self, formula, bad):
        # `atoms_of` once raised a bare TypeError
        with pytest.raises(InputError, match=re.escape(f"weighted formula: not a formula: {bad}")):
            Model(("a",), {"q": 1}, ((0.5, formula),))
        with pytest.raises(InputError, match=re.escape(f"hard formula: not a formula: {bad}")):
            Model(("a",), {"q": 1}, (), (formula,))

    def test_v_is_reserved_for_predicates_only(self):
        with pytest.raises(InputError, match="'v' is reserved for disjunction"):
            Model(("a",), {"v": 1})
        assert Model(("v", "_b", "c9"), {"_p": 1, "p_2": 2}).domain == ("v", "_b", "c9")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("domain a, b\npred q/1\n", "line 1: expected 'domain = a, b, ...'"),
            ("domain = a\npred q 1\n", "line 2: expected 'pred name/arity'"),
        ],
    )
    def test_declarations_without_their_separator(self, text, message):
        with pytest.raises(InputError, match=re.escape(message)):
            parse_model(text)


class TestGroundingRefusals:
    def test_empty_domain(self):
        with pytest.raises(InputError, match="cannot ground a model with an empty domain"):
            ground(Model((), {"q": 1, "r": 0}))

    def test_ground_atoms_over_the_cap(self, monkeypatch):
        # one grounding, but conditioning gives each of the m^3 + m atoms a place
        s_c0 = Atom("s", ("c0",))

        def model(m):
            return Model(tuple(f"c{k}" for k in range(m)), {"t": 3, "s": 1}, ((0.5, s_c0),))

        with pytest.raises(CapacityError, match="1000001000 ground atoms exceed the cap of 1000000"):
            ground(model(1000))
        monkeypatch.setattr(mln, "DEFAULT_GROUND_CAP", 512_079)
        with pytest.raises(CapacityError, match="512080 ground atoms exceed the cap of 512079"):
            ground(model(80))
        monkeypatch.setattr(mln, "DEFAULT_GROUND_CAP", 512_080)
        assert len(ground(model(80)).weighted) == 1
        monkeypatch.setattr(mln, "DEFAULT_GROUND_CAP", 1009)
        with pytest.raises(CapacityError, match="1010 ground atoms exceed the cap of 1009"):
            exact_marginals(model(10), EvidenceSet(), [s_c0])
        monkeypatch.setattr(mln, "DEFAULT_GROUND_CAP", 1010)
        p = exact_marginals(model(10), EvidenceSet(), [s_c0])[s_c0]
        assert p == pytest.approx(1.0 / (1.0 + math.exp(-0.5)))

    def test_groundings_over_the_cap(self, monkeypatch):
        # 101 ground atoms, but 101^4 bindings of one formula: refused before
        # any grounding's template is built
        def model(m):
            domain = ", ".join(f"c{k}" for k in range(m))
            return parse_model(f"domain = {domain}\npred s/1\n0.5 s(X) ^ s(Y) ^ s(Z) => s(W)\n")

        wide = model(101)
        with monkeypatch.context() as patch:
            patch.setattr(mln._AtomIds, "template", None)
            with pytest.raises(CapacityError,
                               match="104060401 groundings exceed the cap of 1000000"):
                ground(wide)
        monkeypatch.setattr(mln, "DEFAULT_GROUND_CAP", 80)
        with pytest.raises(CapacityError, match="81 groundings exceed the cap of 80"):
            ground(model(3))
        monkeypatch.setattr(mln, "DEFAULT_GROUND_CAP", 81)
        assert len(ground(model(3)).weighted) == 81

    def test_a_ground_formula_over_twenty_atoms_gets_no_table(self):
        names = [f"r{k}" for k in range(21)]
        wide = Or(tuple(Atom(name, ()) for name in names))
        model = Model(("a",), dict.fromkeys(names, 0), hard_formulas=(wide,))
        with pytest.raises(CapacityError, match="ground formula touches 21 atoms; table too large"):
            ground(model).condition(EvidenceSet())

    def test_world_distribution_cap(self, monkeypatch):
        model = Model(tuple(f"c{k}" for k in range(17)), {"s": 1})
        with pytest.raises(CapacityError,
                           match="17 atoms exceed the world-distribution cap of 16"):
            enumerate_world_distribution(model, EvidenceSet())
        with monkeypatch.context() as patch:
            patch.setattr(mln, "_WORLD_ATOM_CAP", 3)
            with pytest.raises(CapacityError,
                               match="17 atoms exceed the world-distribution cap of 3"):
                enumerate_world_distribution(model, EvidenceSet())
        atoms, probs = enumerate_world_distribution(model, EvidenceSet({Atom("s", ("c0",)): True}))
        assert len(atoms) == 16 and probs.shape == (1 << 16,)


class TestOneLayoutPerModel:
    """A model builds its atom layout once; grounding, conditioning, the
    symmetry classes, the chain and `all_atoms` read that one."""

    def test_only_the_model_builds_a_layout(self, monkeypatch):
        model, matrix, queries = planted_symmetry_instance((3, 3))
        evidence = matrix_to_evidence("p", matrix)
        built = []
        build = mln._AtomIds.__init__
        monkeypatch.setattr(mln._AtomIds, "__init__",
                            lambda ids, *args: built.append(args) or build(ids, *args))
        config = ChainConfig(200, burn_in=0, seed=1, orbital_move_probability=0.5)
        estimate_marginals(model, evidence, queries, config)
        exact_marginals(model, evidence, queries)
        constant_symmetry_classes(model, evidence)
        assert len(model.all_atoms()) == model._ids.count == 6 * 6 + 6
        assert built == []
        Model(model.domain, model.predicates)
        assert built == [(model.domain, model.predicates)]

    def test_the_layout_checks_what_the_model_checks(self):
        model = parse_model(PEER_MODEL)
        for text, message in [("zz(a)", "unknown predicate 'zz'"),
                              ("linkto(a)", "linkto expects 2 arguments, got 1"),
                              ("studentpage(e)", "unknown constant 'e'")]:
            with pytest.raises(InputError, match=re.escape(f"query: {message}")):
                model.check_formula(parse_formula(text), "query")
            with pytest.raises(InputError, match=re.escape(f"line 1: {message}")):
                parse_evidence(text + "\n", model)
            atom = parse_formula(text)
            assert model._ids.id_of(atom) is None
            with pytest.raises(InputError, match=re.escape(f"evidence: {message}")):
                ground(model).condition(EvidenceSet({atom: True}))

    def test_conditioning_builds_atoms_only_for_open_atoms(self, monkeypatch):
        # the reduced side derives all 256 p atoms and leaves the 16 s atoms open
        model, matrix, queries = planted_symmetry_instance((8, 8))
        reduced, evidence = _reduction_sides(model, matrix)[1]
        grounding = ground(reduced)
        decoded = []
        decode = mln._AtomIds.atom
        monkeypatch.setattr(mln._AtomIds, "atom",
                            lambda ids, atom_id: decoded.append(atom_id) or decode(ids, atom_id))
        cond = grounding.condition(evidence)
        assert cond.atoms == queries
        assert decoded == [reduced._ids.id_of(atom) for atom in cond.atoms]

    def test_decoding_an_atom_keeps_nothing_in_the_layout(self):
        model = parse_model(
            "domain = " + ", ".join(f"c{k}" for k in range(60)) + "\npred t/3\npred s/1\n"
        )
        atom = Atom("t", ("c59", "c0", "c7"))
        atom_id = model._ids.id_of(atom)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert model._ids.atom(atom_id) == atom
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1 << 20
