import re
import subprocess
import sys

import numpy as np
import pytest

from liftbmf import mln
from liftbmf.boolmat import BoolMatrix
from liftbmf.cli import _planted_recipe, main
from liftbmf.errors import InputError
from liftbmf.factorize import Factorization
from liftbmf.mln import parse_evidence, parse_model

BASE_MODEL = """\
domain = a, b, c, d
pred linkto/2
pred studentpage/1
1.5 studentpage(X) ^ linkto(X,Y) => studentpage(Y)
"""


@pytest.fixture
def example_file(tmp_path, example_matrix):
    path = tmp_path / "ex.txt"
    path.write_text(example_matrix.to_text())
    return str(path)


def run(*argv):
    return main(list(argv))


class TestRank:
    def test_prints_rank_three(self, example_file, capsys):
        assert run("rank", example_file) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_zero_matrix(self, tmp_path, capsys):
        path = tmp_path / "z.txt"
        path.write_text(BoolMatrix(np.zeros((3, 3), dtype=np.uint8)).to_text())
        assert run("rank", str(path)) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_size_cap_refusal(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        rng = np.random.default_rng(0)
        path.write_text(BoolMatrix((rng.random((30, 30)) < 0.5).astype(np.uint8)).to_text())
        assert run("rank", str(path)) == 2
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--max-search", "--size-cap"])
    def test_negative_cap_exits_one(self, example_file, flag, capsys):
        assert run("rank", example_file, flag, "-1") == 1
        assert "must be an integer >= 0" in capsys.readouterr().err

    def test_witness_file(self, example_file, tmp_path, capsys):
        out = tmp_path / "w.fct"
        assert run("rank", example_file, "--witness", str(out)) == 0
        witness = Factorization.from_text(out.read_text())
        assert witness.rank() == 3 and witness.error == 0

    def test_missing_file_is_input_error(self, capsys):
        assert run("rank", "/nonexistent/m.txt") == 1

    @pytest.mark.parametrize("via_env", [False, True])
    def test_search_budget_refusal(self, tmp_path, monkeypatch, capsys, via_env):
        # the first matrix of TestExactRankPinned.test_pinned_budget_errors
        path = tmp_path / "m.txt"
        bits = np.random.default_rng(910).random((10, 10)) < 0.5
        path.write_text(BoolMatrix(bits.astype(np.uint8)).to_text())
        if via_env:
            monkeypatch.setenv("LIFTBMF_MAX_SEARCH", "500")
            argv = ("rank", str(path))
        else:
            argv = ("rank", str(path), "--max-search", "500")
        assert run(*argv) == 2
        assert capsys.readouterr().err == (
            "liftbmf: refused: exact rank search exceeded 500 nodes; "
            "best bounds so far: 8 <= rank <= 9\n"
        )


class TestFactorize:
    def test_prints_rank_and_flip_counts(self, example_file, tmp_path, capsys):
        out = tmp_path / "f.fct"
        assert run("factorize", example_file, "-o", str(out), "--rank", "2") == 0
        rank, err, one_zero, zero_one = capsys.readouterr().out.split()
        assert (rank, err, one_zero, zero_one) == ("2", "1", "1", "0")
        assert Factorization.from_text(out.read_text()).rank() == 2

    def test_exact_mode(self, example_file, tmp_path, capsys):
        out = tmp_path / "f.fct"
        assert run("factorize", example_file, "-o", str(out), "--exact") == 0
        assert capsys.readouterr().out.split()[:2] == ["3", "0"]

    def test_env_default_tau(self, example_file, tmp_path, monkeypatch, capsys):
        out = tmp_path / "f.fct"
        monkeypatch.setenv("LIFTBMF_TAU", "0.4")
        assert run("factorize", example_file, "-o", str(out)) == 0
        monkeypatch.setenv("LIFTBMF_TAU", "not-a-number")
        assert run("factorize", example_file, "-o", str(out)) == 1

    def test_non_finite_weights_exit_one(self, example_file, tmp_path, monkeypatch, capsys):
        out = tmp_path / "f.fct"
        assert run("factorize", example_file, "-o", str(out), "--w-plus", "nan") == 1
        assert "w_plus must be finite" in capsys.readouterr().err
        assert run("factorize", example_file, "-o", str(out), "--w-minus", "inf") == 1
        monkeypatch.setenv("LIFTBMF_W_PLUS", "nan")
        assert run("factorize", example_file, "-o", str(out)) == 1
        assert "w_plus must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_flag_beats_env(self, example_file, tmp_path, monkeypatch, capsys):
        out = tmp_path / "f.fct"
        monkeypatch.setenv("LIFTBMF_TAU", "1.5")  # invalid, but flag wins
        assert run("factorize", example_file, "-o", str(out), "--tau", "0.7") == 0


class TestReduce:
    def test_emits_model_fragment_and_evidence(self, example_file, tmp_path, capsys):
        fct = tmp_path / "f.fct"
        run("factorize", example_file, "-o", str(fct), "--exact")
        capsys.readouterr()
        assert run("reduce", str(fct), "--predicate", "linkto", "-o", str(tmp_path / "red")) == 0
        fragment = (tmp_path / "red.model").read_text()
        evidence = (tmp_path / "red.evidence").read_text()
        assert "hard linkto(X, Y) <=>" in fragment
        assert fragment.count("pred ") == 6
        assert len(evidence.strip().splitlines()) == 24
        # fragment concatenates onto a base model and parses
        model = parse_model(BASE_MODEL + fragment)
        parse_evidence(evidence, model)

    @pytest.mark.parametrize("predicate", ["P", "a b", "v", "p(x)"])
    def test_refuses_a_predicate_name_a_model_refuses(self, example_file, tmp_path, capsys,
                                                      predicate):
        fct = tmp_path / "f.fct"
        assert run("factorize", example_file, "-o", str(fct), "--exact") == 0
        capsys.readouterr()
        assert run("reduce", str(fct), "--predicate", predicate, "-o", str(tmp_path / "red")) == 1
        err = capsys.readouterr().err
        assert "invalid predicate name" in err or "reserved" in err
        assert not list(tmp_path.glob("red*"))

    def test_refuses_a_label_a_model_refuses(self, tmp_path, capsys):
        fct = tmp_path / "f.fct"
        fct.write_text("#rows 1a,b\n#cols a,b\n1 2 2 0\n11\n11\n")
        assert run("reduce", str(fct), "--predicate", "p", "-o", str(tmp_path / "red")) == 1
        assert "invalid constant name '1a'" in capsys.readouterr().err
        assert not list(tmp_path.glob("red*"))

    def test_factorization_without_labels_fails(self, tmp_path, capsys):
        fct = tmp_path / "f.fct"
        fct.write_text("1 2 2 0\n11\n11\n")
        assert run("reduce", str(fct), "--predicate", "p", "-o", str(tmp_path / "r")) == 1


class TestInfer:
    def test_exact_single_atom_uniform(self, tmp_path, capsys):
        model = tmp_path / "m.mln"
        model.write_text("domain = a\npred q/1\n")
        ev = tmp_path / "e.ev"
        ev.write_text("")
        assert run("infer", str(model), str(ev), "--query", "q(a)") == 0
        atom, prob = capsys.readouterr().out.split()
        assert atom == "q(a)" and prob == "0.5"

    def test_negative_atom_cap_exits_one(self, tmp_path, capsys):
        model = tmp_path / "m.mln"
        model.write_text("domain = a\npred q/1\n")
        ev = tmp_path / "e.ev"
        ev.write_text("")
        assert run("infer", str(model), str(ev), "--query", "q(a)", "--atom-cap", "-1") == 1
        assert "atom_cap must be an integer >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_formula_weight_exits_one(self, tmp_path, weight, capsys):
        model = tmp_path / "m.mln"
        model.write_text(f"domain = a\npred q/1\n{weight} q(a)\n")
        ev = tmp_path / "e.ev"
        ev.write_text("")
        assert run("infer", str(model), str(ev), "--query", "q(a)") == 1
        assert "not finite" in capsys.readouterr().err

    def test_ground_atoms_over_the_cap_exit_two(self, tmp_path, capsys):
        # 101^3 + 101 ground atoms for one grounding: refused before any is placed
        model = tmp_path / "m.mln"
        domain = ", ".join(f"c{k}" for k in range(101))
        model.write_text(f"domain = {domain}\npred t/3\npred s/1\n0.5 s(c0)\n")
        ev = tmp_path / "e.ev"
        ev.write_text("")
        for method in ("exact", "gibbs", "orbital-gibbs"):
            assert run("infer", str(model), str(ev), "--query", "s(c0)", "--method", method) == 2
            assert capsys.readouterr().err == (
                "liftbmf: refused: 1030402 ground atoms exceed the cap of 1000000\n"
            )

    def test_groundings_over_the_cap_exit_two(self, tmp_path, capsys):
        # 101 ground atoms, but 101^4 bindings of one formula
        model = tmp_path / "m.mln"
        domain = ", ".join(f"c{k}" for k in range(101))
        model.write_text(f"domain = {domain}\npred s/1\n0.5 s(X) ^ s(Y) ^ s(Z) => s(W)\n")
        ev = tmp_path / "e.ev"
        ev.write_text("")
        assert run("infer", str(model), str(ev), "--query", "s(c0)") == 2
        assert capsys.readouterr().err == (
            "liftbmf: refused: 104060401 groundings exceed the cap of 1000000\n"
        )

    def test_inconsistent_exits_three(self, tmp_path, capsys):
        model = tmp_path / "m.mln"
        model.write_text("domain = a\npred q/1\nhard q(a)\n")
        ev = tmp_path / "e.ev"
        ev.write_text("!q(a)\n")
        assert run("infer", str(model), str(ev), "--query", "q(a)") == 3

    def test_contradictory_hard_formulas_exit_three_from_every_method(self, tmp_path, capsys):
        # unit propagation refutes the model before any sampling starts
        model = tmp_path / "m.mln"
        model.write_text("domain = a\npred q/1\nhard q(a)\nhard !q(a)\n")
        ev = tmp_path / "e.ev"
        ev.write_text("")
        for method in ("exact", "gibbs", "orbital-gibbs"):
            assert run("infer", str(model), str(ev), "--query", "q(a)",
                       "--method", method) == 3
            assert "inconsistent" in capsys.readouterr().err

    def test_gibbs_and_orbital_methods(self, tmp_path, capsys):
        model = tmp_path / "m.mln"
        model.write_text("domain = a, b\npred q/1\npred s/1\n0.7 s(X) ^ q(X)\n")
        ev = tmp_path / "e.ev"
        ev.write_text("q(a)\nq(b)\n")
        for method in ("gibbs", "orbital-gibbs"):
            assert run(
                "infer", str(model), str(ev), "--query", "s(a)",
                "--method", method, "--iters", "4000", "--seed", "5",
            ) == 0
            out = capsys.readouterr().out
            assert out.startswith("s(a) ")
            assert 0.0 <= float(out.split()[1]) <= 1.0

    def test_frequency_estimator(self, tmp_path, capsys):
        model = tmp_path / "m.mln"
        model.write_text("domain = a\npred q/1\nhard q(a)\n")
        ev = tmp_path / "e.ev"
        ev.write_text("")
        assert run("infer", str(model), str(ev), "--query", "q(a)",
                   "--method", "gibbs", "--iters", "500",
                   "--estimator", "frequency") == 0
        assert capsys.readouterr().out.strip() == "q(a) 1"

    def test_gibbs_with_no_open_atom_answers_from_evidence(self, tmp_path, capsys):
        model = tmp_path / "m.mln"
        model.write_text("domain = a\npred q/1\n0.5 q(X)\n")
        ev = tmp_path / "e.ev"
        ev.write_text("q(a)\n")
        for method in ("exact", "gibbs"):
            assert run("infer", str(model), str(ev), "--query", "q(a)",
                       "--method", method, "--iters", "500") == 0
            assert capsys.readouterr().out.strip() == "q(a) 1"

    @pytest.mark.parametrize("name", ["LIFTBMF_METHOD", "LIFTBMF_ESTIMATOR"])
    def test_env_value_outside_choices_refused(self, name, tmp_path, monkeypatch, capsys):
        # argparse checks choices only on the command line; a bogus method
        # once ran the Gibbs sampler instead of refusing
        model = tmp_path / "m.mln"
        model.write_text("domain = a, b\npred q/1\n0.4 q(X)\n")
        ev = tmp_path / "e.ev"
        ev.write_text("")
        monkeypatch.setenv(name, "bogus")
        assert run("infer", str(model), str(ev), "--query", "q(a)", "--iters", "50") == 1
        captured = capsys.readouterr()
        assert f"bad value for {name}: 'bogus'" in captured.err
        assert captured.out == ""

    def test_seed_env_variable(self, tmp_path, monkeypatch, capsys):
        model = tmp_path / "m.mln"
        model.write_text("domain = a, b\npred q/1\n0.4 q(X)\n")
        ev = tmp_path / "e.ev"
        ev.write_text("")
        outputs = []
        for seed_env in ("3", "3", "4"):
            monkeypatch.setenv("LIFTBMF_SEED", seed_env)
            assert run("infer", str(model), str(ev), "--query", "q(a)",
                       "--method", "gibbs", "--iters", "300") == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]  # same env seed, same estimate
        monkeypatch.setenv("LIFTBMF_SEED", "4")
        assert run("infer", str(model), str(ev), "--query", "q(a)",
                   "--method", "gibbs", "--iters", "300", "--seed", "3") == 0
        assert capsys.readouterr().out == outputs[0]  # flag beats env

    def test_negative_query_literal(self, tmp_path, capsys):
        model = tmp_path / "m.mln"
        model.write_text("domain = a\npred q/1\nhard q(a)\n")
        ev = tmp_path / "e.ev"
        ev.write_text("")
        assert run("infer", str(model), str(ev), "--query", "!q(a)") == 0
        assert capsys.readouterr().out.strip() == "!q(a) 0"


    def test_exact_batch_prints_the_single_query_lines_and_conditions_once(
        self, tmp_path, capsys, monkeypatch
    ):
        model = tmp_path / "m.mln"
        model.write_text(
            "domain = c0, c1, c2, c3, c4, c5, c6, c7\npred p/2\npred s/1\npred t/1\n"
            "2.0 s(X) ^ p(X, Y) => !s(Y)\n0.8 s(X)\n"
        )
        ev = tmp_path / "e.ev"
        ev.write_text("".join(
            f"{'' if (i < 4) == (j < 4) and i != j else '!'}p(c{i},c{j})\n"
            for i in range(8) for j in range(8)
        ))
        # open, negated, known (true and false) and free literals
        queries = [f"s(c{i})" for i in range(8)] + [
            "!s(c0)", "!s(c5)", "p(c0,c1)", "!p(c0,c1)", "p(c0,c4)", "!p(c3,c3)",
            "t(c0)", "!t(c1)", "t(c7)", "s(c2)",
        ]
        assert len(queries) == 18
        calls = []
        condition = mln._condition
        monkeypatch.setattr(mln, "_condition", lambda *a: calls.append(1) or condition(*a))
        single = []
        for q in queries:
            assert run("infer", str(model), str(ev), "--query", q) == 0
            single.append(capsys.readouterr().out)
        calls.clear()
        argv = ["infer", str(model), str(ev), "--method", "exact"]
        for q in queries:
            argv += ["--query", q]
        assert run(*argv) == 0
        assert capsys.readouterr().out == "".join(single)
        assert len(calls) == 1
        lines = "".join(single).splitlines()
        assert lines[10:16] == [
            "p(c0, c1) 1", "!p(c0, c1) 0", "p(c0, c4) 0", "!p(c3, c3) 1",
            "t(c0) 0.5", "!t(c1) 0.5",
        ]

    def test_hard_clauses_no_world_satisfies_exit_three(self, tmp_path, capsys):
        # no unit clause, so only the enumeration proves the inconsistency
        model = tmp_path / "m.mln"
        model.write_text(
            "domain = a, b\npred q/1\n"
            "hard q(a) v q(b)\nhard q(a) v !q(b)\nhard !q(a) v q(b)\nhard !q(a) v !q(b)\n"
        )
        ev = tmp_path / "e.ev"
        ev.write_text("")
        assert run("infer", str(model), str(ev), "--query", "q(a)", "--method", "exact") == 3
        captured = capsys.readouterr()
        assert "admit no world" in captured.err and captured.out == ""


class TestFullPipeline:
    def test_reduced_inference_matches_original(self, tmp_path, capsys):
        # gen -> factorize --exact -> reduce -> infer on both encodings
        matrix_path = tmp_path / "m.txt"
        assert run("gen", "-m", "3", "--rank", "2", "--noise", "0.0",
                   "--seed", "4", "-o", str(matrix_path)) == 0
        matrix = BoolMatrix.from_text(matrix_path.read_text())
        base_text = (
            "domain = c0, c1, c2\npred p/2\npred s/1\n"
            "1.1 s(X) ^ p(X,Y) => s(Y)\n-0.4 s(X)\n"
        )
        base_path = tmp_path / "base.mln"
        base_path.write_text(base_text)

        from liftbmf.reduction import matrix_to_evidence

        binary_ev_path = tmp_path / "binary.ev"
        binary_ev_path.write_text(matrix_to_evidence("p", matrix).to_text())

        fct = tmp_path / "m.fct"
        run("factorize", str(matrix_path), "-o", str(fct), "--exact")
        run("reduce", str(fct), "--predicate", "p", "-o", str(tmp_path / "red"))
        full_path = tmp_path / "full.mln"
        full_path.write_text(base_text + (tmp_path / "red.model").read_text())
        capsys.readouterr()

        assert run("infer", str(base_path), str(binary_ev_path), "--query", "s(c0)") == 0
        lhs = float(capsys.readouterr().out.split()[1])
        assert run("infer", str(full_path), str(tmp_path / "red.evidence"),
                   "--query", "s(c0)") == 0
        rhs = float(capsys.readouterr().out.split()[1])
        assert abs(lhs - rhs) <= 1e-9


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            assert run("gen", "-m", "20", "--rank", "3", "--noise", "0.01",
                       "--seed", "1", "-o", str(path)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_noise_guard_exits_one(self, tmp_path, capsys):
        assert run("gen", "-m", "5", "--rank", "2", "--noise", "0.5",
                   "-o", str(tmp_path / "x.txt")) == 1
        assert "noise" in capsys.readouterr().err

    def test_header_records_recipe(self, tmp_path):
        path = tmp_path / "g.txt"
        run("gen", "-m", "6", "--rank", "2", "--noise", "0.1", "--seed", "9",
            "-o", str(path))
        head = path.read_text().splitlines()[0]
        assert head.startswith("# gen ") and "seed=9" in head


class TestBadSeeds:
    """Every seed-taking command refuses a negative seed with exit 1 and a
    one-line error, not a traceback from numpy's seeding."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("infer", "{model}", "{evidence}", "--query", "q(b)", "--method", "gibbs",
             "--seed", "-1"),
            ("gen", "-m", "10", "--rank", "2", "--seed", "-1", "-o", "{out}"),
            ("experiment", "equivalence-check", "--seed", "-1", "-o", "{out}"),
            ("experiment", "error-curve", "--planted", "10,2,0.1", "--ranks", "1,2",
             "--seeds", "-1", "-o", "{out}"),
        ],
        ids=["infer", "gen", "equivalence-check", "error-curve"],
    )
    def test_negative_seed_exits_one(self, tmp_path, capsys, argv):
        paths = {"model": tmp_path / "m.mln", "evidence": tmp_path / "e.ev",
                 "out": tmp_path / "out.txt"}
        paths["model"].write_text("domain = a, b\npred q/1\n0.5 q(X)\n")
        paths["evidence"].write_text("q(a)\n")
        assert run(*(arg.format(**paths) for arg in argv)) == 1
        err = capsys.readouterr().err
        assert err.startswith("liftbmf: error: ") and "seed must be an integer >= 0" in err
        assert "Traceback" not in err
        assert not paths["out"].exists()


class TestExperimentCommands:
    def test_error_curve_on_example(self, example_file, tmp_path, capsys):
        out = tmp_path / "err.csv"
        assert run("experiment", "error-curve", "--matrix", example_file,
                   "--ranks", "1,2,3", "-o", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# liftbmf experiment error-curve")
        assert lines[1] == "rank,error"
        errors = {int(r.split(",")[0]): float(r.split(",")[1]) for r in lines[2:]}
        assert errors[1] >= 1 and errors[2] == 1 and errors[3] == 0

    def test_error_curve_planted(self, tmp_path):
        out = tmp_path / "err.csv"
        assert run("experiment", "error-curve", "--planted", "20,3,0.01",
                   "--seeds", "0,1,2", "--ranks", "1,2,3,4", "-o", str(out)) == 0
        rows = out.read_text().splitlines()[2:]
        assert len(rows) == 4

    def test_error_curve_needs_exactly_one_source(self, example_file, tmp_path):
        assert run("experiment", "error-curve", "--ranks", "1",
                   "-o", str(tmp_path / "x.csv")) == 1
        assert run("experiment", "error-curve", "--matrix", example_file,
                   "--planted", "5,2,0.0", "--ranks", "1",
                   "-o", str(tmp_path / "x.csv")) == 1
        assert run("experiment", "error-curve", "--matrix", example_file,
                   "--seeds", "1,2", "--ranks", "1",
                   "-o", str(tmp_path / "x.csv")) == 1

    @pytest.mark.parametrize("recipe", ["20,3", "20", "20,3,0.1,4", ""])
    def test_planted_recipe_needs_three_parts(self, recipe, tmp_path, capsys):
        with pytest.raises(InputError, match=re.escape(f"expected m,rank,noise, got {recipe!r}")):
            _planted_recipe(recipe)
        assert run("experiment", "error-curve", "--planted", recipe, "--ranks", "1",
                   "-o", str(tmp_path / "x.csv")) == 1
        assert "--planted" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_ranks_must_increase(self, example_file, tmp_path):
        assert run("experiment", "error-curve", "--matrix", example_file,
                   "--ranks", "2,1", "-o", str(tmp_path / "x.csv")) == 1

    def test_equivalence_check_csv(self, tmp_path):
        out = tmp_path / "eq.csv"
        assert run("experiment", "equivalence-check", "--instances", "5",
                   "--seed", "3", "-o", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "instance,max_abs_diff,pass"
        assert all(line.endswith(",true") for line in lines[2:])

    @pytest.mark.parametrize("instances", ["0", "-5"])
    def test_equivalence_check_needs_an_instance(self, tmp_path, instances, capsys):
        out = tmp_path / "eq.csv"
        assert run("experiment", "equivalence-check", "--instances", instances,
                   "-o", str(out)) == 1
        assert "instances must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_kld_curve_refuses_an_unknown_query_predicate(self, tmp_path, capsys):
        model = tmp_path / "m.mln"
        model.write_text("domain = c0, c1, c2, c3\npred p/2\npred s/1\n")
        matrix = tmp_path / "p.txt"
        run("gen", "-m", "4", "--rank", "2", "--seed", "2", "-o", str(matrix))
        out = tmp_path / "kld.csv"
        assert run("experiment", "kld-curve", "--model", str(model),
                   "--matrix", str(matrix), "--predicate", "p",
                   "--query-pred", "nope", "--ranks", "1", "--seeds", "1",
                   "-o", str(out)) == 1
        assert "unknown query predicate 'nope'" in capsys.readouterr().err
        assert not out.exists()

    def test_kld_curve_csv(self, tmp_path):
        model = tmp_path / "m.mln"
        model.write_text(
            "domain = c0, c1, c2, c3\npred p/2\npred s/1\n"
            "1.0 s(X) ^ p(X,Y) => s(Y)\n"
        )
        matrix = tmp_path / "p.txt"
        run("gen", "-m", "4", "--rank", "2", "--noise", "0.0", "--seed", "2",
            "-o", str(matrix))
        out = tmp_path / "kld.csv"
        assert run("experiment", "kld-curve", "--model", str(model),
                   "--matrix", str(matrix), "--predicate", "p",
                   "--query-pred", "s", "--ranks", "1,2", "--seeds", "1,2",
                   "--iters", "400", "--snapshot-every", "200",
                   "-o", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "iteration,method,rank,kld"
        assert any(",exact," in line for line in lines[2:])

    def test_csv_output_is_rewritten_not_appended(self, tmp_path):
        same, fresh = tmp_path / "same.csv", tmp_path / "fresh.csv"
        for ranks, outputs in (("1,2", (same,)), ("1", (same, fresh))):
            for out in outputs:
                assert run("experiment", "error-curve", "--planted", "6,2,0.0",
                           "--ranks", ranks, "-o", str(out)) == 0
        assert same.read_text() == fresh.read_text().replace(str(fresh), str(same))
        assert same.read_text().count("\n") == 3


class TestDeterminism:
    def test_kld_curve_csv_byte_identical(self, tmp_path):
        model = tmp_path / "m.mln"
        model.write_text(
            "domain = c0, c1, c2, c3\npred p/2\npred s/1\n"
            "0.9 s(X) ^ p(X,Y) => s(Y)\n"
        )
        matrix = tmp_path / "p.txt"
        run("gen", "-m", "4", "--rank", "2", "--noise", "0.0", "--seed", "6",
            "-o", str(matrix))
        args = ["experiment", "kld-curve", "--model", str(model),
                "--matrix", str(matrix), "--predicate", "p",
                "--query-pred", "s", "--ranks", "1,2", "--seeds", "3,4",
                "--iters", "300", "--snapshot-every", "150"]
        out1, out2 = tmp_path / "k1.csv", tmp_path / "k2.csv"
        assert run(*args, "-o", str(out1)) == 0
        assert run(*args, "-o", str(out2)) == 0
        # identical up to the recorded output path in the header
        assert out1.read_text().splitlines()[1:] == out2.read_text().splitlines()[1:]

    def test_equivalence_check_csv_byte_identical(self, tmp_path):
        outs = []
        for name in ("e1.csv", "e2.csv"):
            path = tmp_path / name
            assert run("experiment", "equivalence-check", "--instances", "10",
                       "--seed", "8", "-o", str(path)) == 0
            outs.append(path.read_text().splitlines()[1:])
        assert outs[0] == outs[1]


class TestUnreadableInput:
    # every file argument of every command that reads one; {bad} cannot be read
    ARGUMENTS = {
        "rank": ("rank", "{bad}"),
        "factorize": ("factorize", "{bad}", "-o", "{out}"),
        "reduce": ("reduce", "{bad}", "--predicate", "p", "-o", "{out}"),
        "infer-model": ("infer", "{bad}", "{evidence}", "--query", "q(a)"),
        "infer-evidence": ("infer", "{model}", "{bad}", "--query", "q(a)"),
        "error-curve-matrix": ("experiment", "error-curve", "--matrix", "{bad}",
                               "--ranks", "1", "-o", "{out}"),
        "kld-curve-model": ("experiment", "kld-curve", "--model", "{bad}", "--matrix", "{matrix}",
                            "--predicate", "p", "--query-pred", "q", "--ranks", "1",
                            "--seeds", "1", "-o", "{out}"),
        "kld-curve-matrix": ("experiment", "kld-curve", "--model", "{model}", "--matrix", "{bad}",
                             "--predicate", "p", "--query-pred", "q", "--ranks", "1",
                             "--seeds", "1", "-o", "{out}"),
    }

    @pytest.mark.parametrize("fault", ["not-utf8", "missing", "directory"])
    @pytest.mark.parametrize("argument", ARGUMENTS)
    def test_unreadable_file_exits_one(self, argument, fault, tmp_path, capsys):
        paths = {name: tmp_path / name for name in ("model", "evidence", "matrix", "out")}
        paths["model"].write_text("domain = a, b\npred p/2\npred q/1\n")
        paths["evidence"].write_text("")
        paths["matrix"].write_text("#rows a,b\n#cols a,b\n2 2\n10\n01\n")
        paths["bad"] = tmp_path / "bad"
        if fault == "not-utf8":
            paths["bad"].write_bytes(b"\xff\xfe2 2\n10\n01\n")
        elif fault == "directory":
            paths["bad"].mkdir()
        assert run(*(arg.format(**paths) for arg in self.ARGUMENTS[argument])) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"liftbmf: error: cannot read {paths['bad']}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        if fault == "not-utf8":
            assert "can't decode byte 0xff" in err
        assert not paths["out"].exists()


class TestArgumentHandling:
    def test_unknown_subcommand_exits_one(self, capsys):
        assert run("frobnicate") == 1

    def test_missing_required_flag_exits_one(self, capsys):
        assert run("factorize", "x.txt") == 1

    def test_console_script_entry_point(self, example_file):
        proc = subprocess.run(
            [sys.executable, "-m", "liftbmf.cli", "rank", example_file],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "3"
