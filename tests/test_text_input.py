"""The one reader for text input: the number grammar shared by files, flags
and LIFTBMF_* values, and the record reader behind matrix and
factorization files."""
import math

import numpy as np
import pytest

from liftbmf.boolmat import BoolMatrix
from liftbmf.cli import _int_list, _planted_recipe, main
from liftbmf.errors import InputError, read_integer, read_real
from liftbmf.factorize import Factorization

from conftest import random_matrix

# Unicode digits, underscores, padding and a leading '+' all pass int()
NOT_INTEGERS = ["1_0", "٢", "２", " 1", "1 ", "+1", "--1", "", "1.0", "0x1"]


class TestNumberGrammar:
    @pytest.mark.parametrize("text, value", [("0", 0), ("007", 7), ("-3", -3), ("123", 123)])
    def test_integers(self, text, value):
        assert read_integer(text, "refused") == value

    @pytest.mark.parametrize("text", NOT_INTEGERS)
    def test_non_integers_refused(self, text):
        with pytest.raises(InputError, match="^refused$"):
            read_integer(text, "refused")

    @pytest.mark.parametrize(
        "text, value", [("1.5", 1.5), ("-2e-3", -2e-3), (".5", 0.5), ("5.", 5.0), ("+1E+2", 100.0)]
    )
    def test_reals(self, text, value):
        assert read_real(text, "refused") == value

    @pytest.mark.parametrize("text", ["inf", "-Infinity", "NaN"])
    def test_non_finite_spellings_are_read(self, text):
        # refused by name where they are used, not as malformed numbers
        assert not math.isfinite(read_real(text, "refused"))

    @pytest.mark.parametrize("text", ["1_0.5", "٣.5", "１e1", " 1.5", "1e", ".", "e1"])
    def test_non_reals_refused(self, text):
        with pytest.raises(InputError, match="^refused$"):
            read_real(text, "refused")


class TestNonAsciiNumbersRefused:
    """Inputs that int() and float() once read as other numbers."""

    @pytest.mark.parametrize(
        "read, text",
        [
            (BoolMatrix.from_text, "٢ 1_0\n1010101010\n0101010101\n"),
            (Factorization.from_text, "1 ٢ 2 0\n10\n10\n"),
            (_int_list, "1_0,٢"),
            (_planted_recipe, "1_0,٢,0.0_5"),
        ],
    )
    def test_library_readers(self, read, text):
        with pytest.raises(InputError):
            read(text)

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "-m", "1_0", "--rank", "2", "-o", "{out}"],
            ["gen", "-m", "١٠", "--rank", "2", "-o", "{out}"],
            ["infer", "{model}", "{evidence}", "--query", "q(a)", "--method", "gibbs",
             "--iters", "1_000"],
            ["experiment", "error-curve", "--planted", "6,2,0.0_5", "--ranks", "1",
             "-o", "{out}"],
        ],
    )
    def test_flags(self, argv, tmp_path, capsys):
        paths = _files(tmp_path)
        assert main([a.format(**paths) for a in argv]) == 1
        assert not (tmp_path / "out").exists()

    def test_env_value(self, tmp_path, monkeypatch, capsys):
        paths = _files(tmp_path)
        monkeypatch.setenv("LIFTBMF_SEED", "٣")
        assert main(["gen", "-m", "6", "--rank", "2", "-o", paths["out"]]) == 1
        assert "LIFTBMF_SEED" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def _files(tmp_path) -> dict[str, str]:
    model = tmp_path / "m.mln"
    model.write_text("domain = a, b\npred q/1\n0.4 q(X)\n")
    evidence = tmp_path / "e.ev"
    evidence.write_text("")
    return {"model": str(model), "evidence": str(evidence), "out": str(tmp_path / "out")}


def _with_noise(text: str, rng) -> str:
    """`text` with comments and blank lines after random lines."""
    out = []
    for line in text.splitlines():
        out.append(line)
        if rng.random() < 0.5:
            out.append(rng.choice(["", "# note", "   ", "#rowsish"]))
    return "\n".join(out) + "\n"


SHAPES = [(0, 0), (0, 3), (4, 0), (1, 1), (3, 5), (6, 2), (7, 7)]


class TestSharedReaderRoundTrip:
    @pytest.mark.parametrize("labeled", [False, True])
    @pytest.mark.parametrize("k, l", SHAPES)
    def test_matrix(self, k, l, labeled):
        rng = np.random.default_rng(100 * k + l)
        m = random_matrix(rng, k, l, labeled=labeled)
        text = m.to_text()
        assert BoolMatrix.from_text(text) == m
        assert BoolMatrix.from_text(text).to_text() == text
        assert BoolMatrix.from_text(_with_noise(text, rng)) == m

    @pytest.mark.parametrize("labeled", [False, True])
    @pytest.mark.parametrize("k, l", SHAPES)
    def test_factorization(self, k, l, labeled):
        rng = np.random.default_rng(100 * k + l)
        target = random_matrix(rng, k, l, labeled=labeled)
        for rank in range(min(k, l) + 1):
            pairs = tuple(
                ((rng.random(k) < 0.5).astype(np.uint8), (rng.random(l) < 0.5).astype(np.uint8))
                for _ in range(rank)
            )
            f = Factorization(
                pairs, (k, l), target.row_labels, target.col_labels
            ).with_target(target)
            text = f.to_text()
            assert Factorization.from_text(text) == f
            assert Factorization.from_text(text).to_text() == text
            assert Factorization.from_text(_with_noise(text, rng)) == f
