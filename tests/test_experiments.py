import numpy as np
import pytest

from liftbmf import experiments
from liftbmf.boolmat import hamming_error
from liftbmf.errors import InputError
from liftbmf.experiments import (
    EQUIVALENCE_TOLERANCE,
    block_matrix,
    equivalence_check,
    error_curve,
    gen_synthetic,
    kld_curve,
    planted_block_matrix,
    planted_symmetry_instance,
    random_equivalence_instance,
    csv_text,
)
from liftbmf.factorize import exact_boolean_rank
from liftbmf.mln import Atom, exact_marginals, parse_model
from liftbmf.reduction import matrix_to_evidence
from liftbmf.sampler import kld


class TestGenSynthetic:
    def test_noiseless_rank_bounded_by_planted(self):
        for seed in range(5):
            matrix, _ = gen_synthetic(8, 3, 0.0, seed)
            rank, _ = exact_boolean_rank(matrix)
            assert rank <= 3

    def test_deterministic_output(self):
        a, _ = gen_synthetic(20, 3, 0.01, 1)
        b, _ = gen_synthetic(20, 3, 0.01, 1)
        assert a.to_text() == b.to_text()

    def test_fill_in_expected_band(self):
        fills = []
        for seed in range(10):
            matrix, _ = gen_synthetic(20, 3, 0.0, seed)
            fills.append(matrix.ones() / 400)
        assert 0.2 <= np.mean(fills) <= 0.5

    @pytest.mark.parametrize("noise", [0.5, 0.7, -0.1, -1e-12])
    def test_noise_guard(self, noise):
        message = rf"noise must be in \[0, 0.5\), got {noise}"
        with pytest.raises(InputError, match=message):
            gen_synthetic(5, 2, noise, 0)
        with pytest.raises(InputError, match=message):
            planted_block_matrix(9, 3, noise, 0)

    @pytest.mark.parametrize("noise", [0, 0.0, 0.499])
    def test_both_generators_take_noise_inside_its_range(self, noise):
        assert gen_synthetic(5, 2, noise, 0)[1]["noise"] == noise
        assert planted_block_matrix(9, 3, noise, 0)[1]["noise"] == noise

    def test_planted_rank_above_m_is_refused(self):
        with pytest.raises(InputError, match=r"planted rank must be in \[0, 4\], got 5"):
            gen_synthetic(4, 5, 0.0, 0)
        assert gen_synthetic(4, 4, 0.0, 0)[1]["planted_rank"] == 4

    @pytest.mark.parametrize("fill", [0, 0.0, 1, 1.0, -0.2, 1.5])
    def test_fill_target_outside_the_open_unit_interval_is_refused(self, fill):
        with pytest.raises(InputError, match=rf"fill target must be in \(0, 1\), got {fill}"):
            gen_synthetic(4, 1, 0.0, 0, fill_target=fill)

    @pytest.mark.parametrize("value", ["0.1", None, True, np.bool_(False), 1j])
    def test_noise_and_fill_must_be_real_numbers(self, value):
        with pytest.raises(InputError, match=f"noise must be a real number, got {value!r}"):
            gen_synthetic(4, 1, value, 0)
        with pytest.raises(InputError, match=f"fill target must be a real number, got {value!r}"):
            gen_synthetic(4, 1, 0.1, 0, fill_target=value)
        with pytest.raises(InputError, match=f"noise must be a real number, got {value!r}"):
            planted_block_matrix(9, 3, value, 0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10 ** 400])
    def test_noise_and_fill_must_be_finite(self, value):
        with pytest.raises(InputError, match="noise must be finite"):
            gen_synthetic(4, 1, value, 0)
        with pytest.raises(InputError, match="fill target must be finite"):
            gen_synthetic(4, 1, 0.1, 0, fill_target=value)
        with pytest.raises(InputError, match="noise must be finite"):
            planted_block_matrix(9, 3, value, 0)

    def test_metadata_records_recipe(self):
        _, meta = gen_synthetic(6, 2, 0.1, 42)
        assert meta["m"] == 6 and meta["seed"] == 42 and meta["rng"] == "numpy-pcg64"

    def test_rank_zero_matrix_is_empty(self):
        matrix, _ = gen_synthetic(4, 0, 0.0, 0)
        assert matrix.ones() == 0


class TestPlantedBlocks:
    def test_block_matrix_structure(self):
        m = block_matrix([2, 3])
        assert m.ones() == 4 + 9
        assert m.bits[0, 1] == 1 and m.bits[0, 2] == 0

    def test_planted_block_rank_equals_blocks(self):
        matrix, meta = planted_block_matrix(12, 3, 0.0, 7)
        assert exact_boolean_rank(matrix)[0] == 3
        assert meta["noise_count"] == 0
        assert sum(meta["block_sizes"]) == 12

    def test_noise_counted(self):
        matrix, meta = planted_block_matrix(12, 3, 0.05, 7)
        clean = block_matrix(meta["block_sizes"])
        assert hamming_error(matrix, clean) == meta["noise_count"]

    def test_size_guard(self):
        with pytest.raises(InputError, match="3 constants"):
            planted_block_matrix(5, 2, 0.0, 0)

    @pytest.mark.parametrize("sizes", [[-1, 3], [2, -2], [1.5, 2]])
    def test_block_sizes_must_be_non_negative_integers(self, sizes):
        with pytest.raises(InputError, match="block size must be an integer >= 0"):
            block_matrix(sizes)


class TestErrorCurve:
    def test_planted_block_recovery(self):
        matrices, noise_counts = [], []
        for seed in range(3):
            matrix, meta = planted_block_matrix(20, 3, 0.01, seed)
            matrices.append(matrix)
            noise_counts.append(meta["noise_count"])
        rows = error_curve(matrices, ranks=[1, 2, 3, 4, 5, 6])
        errors = dict(rows)
        mean_noise = np.mean(noise_counts)
        assert errors[3] <= max(1.5 * mean_noise, mean_noise + 1)
        assert errors[1] > errors[3]

    def test_example_matrix_curve(self, example_matrix):
        rows = error_curve([example_matrix], ranks=[1, 2, 3])
        errors = dict(rows)
        assert errors[1] >= 1
        assert errors[2] == 1
        assert errors[3] == 0

    def test_requires_inputs(self, example_matrix):
        with pytest.raises(InputError):
            error_curve([], [1])
        with pytest.raises(InputError):
            error_curve([example_matrix], [])


class TestEquivalenceCheck:
    def test_all_instances_pass(self):
        rows = equivalence_check(25, seed=13)
        assert len(rows) == 25
        assert all(ok for _, _, ok in rows)
        assert all(diff <= EQUIVALENCE_TOLERANCE for _, diff, _ in rows)

    def test_instance_generator_shapes(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            model, matrix, query = random_equivalence_instance(rng)
            assert 2 <= len(model.domain) <= 3
            assert matrix.shape == (len(model.domain), len(model.domain))
            assert query.pred == "s"
            assert exact_boolean_rank(matrix)[0] <= 2

    def test_instance_domain_spans_two_to_ten_constants(self):
        rng = np.random.default_rng(4)
        sizes = {len(random_equivalence_instance(rng, max_m=10)[0].domain) for _ in range(60)}
        assert min(sizes) >= 2 and max(sizes) == 10
        for _ in range(5):
            assert len(random_equivalence_instance(rng, max_m=2)[0].domain) == 2

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_m": 1}, "max_m must be an integer >= 2"),
            ({"max_m": 11}, "max_m must be at most 10"),
            ({"max_m": 4.0}, "max_m must be an integer >= 2"),
        ],
    )
    def test_instance_ranges_are_checked(self, kwargs, message):
        with pytest.raises(InputError, match=message):
            random_equivalence_instance(np.random.default_rng(0), **kwargs)


class TestExperimentSpec:
    """The checks error_curve and kld_curve make on the ranks and seeds
    that specify an experiment."""

    def test_valid(self, small_setup):
        model, matrix, queries = small_setup
        assert [rank for rank, _ in error_curve([matrix], (1, 2, 3))] == [1, 2, 3]
        rows = kld_curve(model, matrix, "p", queries, ranks=(1, 2), seeds=(0,),
                         iterations=20, snapshot_every=10)
        assert {label for _, _, label, _ in rows} == {"1", "2", "exact"}

    def test_ranks_strictly_increasing(self, small_setup):
        model, matrix, queries = small_setup
        with pytest.raises(InputError, match="strictly increasing"):
            error_curve([matrix], (1, 1))
        with pytest.raises(InputError, match="strictly increasing"):
            kld_curve(model, matrix, "p", queries, ranks=(3, 2), seeds=(0,),
                      iterations=20, snapshot_every=10)

    @pytest.mark.parametrize("reference", ["exact", "self"])
    def test_needs_a_rank(self, small_setup, reference):
        model, matrix, queries = small_setup
        with pytest.raises(InputError, match="no ranks given"):
            error_curve([matrix], ())
        with pytest.raises(InputError, match="no ranks given"):
            kld_curve(model, matrix, "p", queries, ranks=(), seeds=(0,),
                      iterations=20, snapshot_every=10, reference=reference)

    def test_needs_a_seed(self, small_setup):
        model, matrix, queries = small_setup
        with pytest.raises(InputError, match="seed"):
            kld_curve(model, matrix, "p", queries, ranks=(1,), seeds=(),
                      iterations=20, snapshot_every=10)


BAD_SEEDS = [-1, 1.5, 2.0, True, "3"]


class TestSeedsAreChecked:
    """A seed that is not a non-negative integer is an InputError, not a
    ValueError from inside numpy's seeding."""

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_generators(self, seed):
        with pytest.raises(InputError, match="seed must be an integer >= 0"):
            gen_synthetic(5, 2, 0.0, seed)
        with pytest.raises(InputError, match="seed must be an integer >= 0"):
            planted_block_matrix(6, 2, 0.0, seed)
        with pytest.raises(InputError, match="seed must be an integer >= 0"):
            equivalence_check(1, seed)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_kld_curve(self, small_setup, seed):
        model, matrix, queries = small_setup
        with pytest.raises(InputError, match="seed must be an integer >= 0"):
            kld_curve(model, matrix, "p", queries, ranks=(1,), seeds=(0, seed),
                      iterations=20, snapshot_every=10)

    @pytest.mark.parametrize("rng", [3, None, np.random.RandomState(3)])
    def test_random_instances_need_a_generator(self, rng):
        with pytest.raises(InputError, match="rng must be a numpy Generator"):
            random_equivalence_instance(rng)

    def test_numpy_integer_seeds_are_accepted(self):
        a, _ = gen_synthetic(6, 2, 0.1, np.int64(4))
        b, _ = gen_synthetic(6, 2, 0.1, 4)
        assert a.to_text() == b.to_text()


BAD_COUNTS = [2.5, 1.0, True]


class TestCountsAreChecked:
    """A size, rank or count that is not an integer, bools included, is an
    InputError, not a TypeError from numpy nor a silent 1."""

    @pytest.mark.parametrize("count", BAD_COUNTS)
    def test_generators(self, count):
        with pytest.raises(InputError, match="matrix size must be an integer >= 1"):
            gen_synthetic(count, 1, 0, 1)
        with pytest.raises(InputError, match="planted rank must be an integer >= 0"):
            gen_synthetic(5, count, 0, 1)
        with pytest.raises(InputError, match="matrix size must be an integer >= 0"):
            planted_block_matrix(count, 1, 0, 1)
        with pytest.raises(InputError, match="blocks must be an integer >= 1"):
            planted_block_matrix(10, count, 0, 1)
        with pytest.raises(InputError, match="instances must be at least 1"):
            equivalence_check(count, 0)

    @pytest.mark.parametrize("count", BAD_COUNTS)
    def test_ranks(self, small_setup, count):
        model, matrix, queries = small_setup
        with pytest.raises(InputError, match="rank must be an integer >= 0"):
            error_curve([matrix], [count])
        with pytest.raises(InputError, match="rank must be an integer >= 0"):
            error_curve([matrix], [0, count, 3])
        with pytest.raises(InputError, match="rank must be an integer >= 0"):
            kld_curve(model, matrix, "p", queries, ranks=(count,), seeds=(0,),
                      iterations=20, snapshot_every=10)

    def test_numpy_integer_counts_are_accepted(self, small_setup):
        _, matrix, _ = small_setup
        i = np.int64
        assert gen_synthetic(i(6), i(2), 0.1, 4)[0] == gen_synthetic(6, 2, 0.1, 4)[0]
        assert planted_block_matrix(i(9), i(3), 0.0, 1)[0] == planted_block_matrix(9, 3, 0.0, 1)[0]
        assert block_matrix([i(2), i(3)]) == block_matrix([2, 3])
        assert error_curve([matrix], [i(1), i(2)]) == error_curve([matrix], [1, 2])
        assert len(equivalence_check(i(2), 0)) == 2


@pytest.fixture(scope="module")
def small_setup():
    model = parse_model(
        "domain = c0, c1, c2, c3, c4\npred p/2\npred s/1\n"
        "1.2 s(X) ^ p(X,Y) => s(Y)\n0.5 s(X)\n"
    )
    matrix, _ = gen_synthetic(5, 2, 0.05, seed=11)
    queries = tuple(Atom("s", (c,)) for c in model.domain)
    return model, matrix, queries


class TestKldCurve:
    def test_full_rank_terminal_kld_is_zero(self, small_setup):
        model, matrix, queries = small_setup
        n_full, _ = exact_boolean_rank(matrix)
        rows = kld_curve(
            model, matrix, "p", queries,
            ranks=list(range(1, n_full + 1)), seeds=[1, 2],
            iterations=400, snapshot_every=200, reference="exact",
        )
        terminal = {label: v for it, m, label, v in rows if m == "exact"}
        assert terminal[str(n_full)] <= 1e-9
        assert all(v >= terminal[str(n_full)] for v in terminal.values())

    def test_full_rank_chain_matches_exact_evidence_chain(self, small_setup):
        # identical evidence: the full-rank approximation chain and the
        # exact-evidence chain produce the same terminal KLD
        model, matrix, queries = small_setup
        n_full, _ = exact_boolean_rank(matrix)
        rows = kld_curve(
            model, matrix, "p", queries,
            ranks=[n_full], seeds=[5, 6], iterations=600, snapshot_every=300, reference="exact",
        )
        full_chain = {it: v for it, m, label, v in rows
                      if m == "gibbs" and label == str(n_full)}
        exact_chain = {it: v for it, m, label, v in rows
                       if m == "gibbs" and label == "exact"}
        assert full_chain[600] == pytest.approx(exact_chain[600], abs=1e-12)

    def test_self_reference_has_no_terminal_rows(self, small_setup):
        model, matrix, queries = small_setup
        rows = kld_curve(
            model, matrix, "p", queries, ranks=[1], seeds=[1],
            iterations=200, snapshot_every=100, reference="self",
        )
        assert {m for _, m, _, _ in rows} == {"gibbs", "orbital-gibbs"}
        assert {label for _, _, label, _ in rows} == {"1"}

    def test_row_schema_and_determinism(self, small_setup):
        model, matrix, queries = small_setup
        kwargs = dict(
            ranks=[1, 2], seeds=[3, 4], iterations=300, snapshot_every=150, reference="exact",
        )
        rows1 = kld_curve(model, matrix, "p", queries, **kwargs)
        rows2 = kld_curve(model, matrix, "p", queries, **kwargs)
        assert rows1 == rows2
        labels = [label for _, _, label, _ in rows1]
        assert labels.index("1") < labels.index("2") < labels.index("exact")

    @pytest.mark.parametrize("reference, levels", [("exact", 3), ("self", 2)])
    def test_exact_marginals_once_per_evidence_level(
        self, small_setup, monkeypatch, reference, levels
    ):
        # the chain reference and the terminal 'exact' rows read one list
        model, matrix, queries = small_setup
        calls = []
        exact = experiments.exact_marginals
        monkeypatch.setattr(
            experiments, "exact_marginals", lambda *a: calls.append(a[1]) or exact(*a)
        )
        rows = kld_curve(
            model, matrix, "p", queries, ranks=[1, 2], seeds=[1], iterations=100,
            snapshot_every=50, reference=reference,
        )
        assert len(calls) == levels
        terminal = [(label, v) for _, m, label, v in rows if m == "exact"]
        if reference == "exact":
            assert [label for label, _ in terminal] == ["1", "2"]
            for (label, v), evidence in zip(terminal, calls):
                assert v == kld(exact(model, calls[-1], queries), exact(model, evidence, queries))
        else:
            assert terminal == []

    def test_bad_arguments(self, small_setup):
        model, matrix, queries = small_setup
        with pytest.raises(InputError, match="reference"):
            kld_curve(model, matrix, "p", queries, [1], [0], 100, 50, reference="x")

    @pytest.mark.parametrize("prob", ["0.5", None, 0.1 + 0j, True, 1.5])
    def test_orbital_probability_is_refused_before_any_work(self, small_setup, monkeypatch, prob):
        model, matrix, queries = small_setup
        monkeypatch.setattr(experiments, "exact_marginals",
                            lambda *args: pytest.fail("exact marginals computed"))
        with pytest.raises(InputError, match="orbital_move_probability"):
            kld_curve(model, matrix, "p", queries, [1], [0], 100, 50, orbital_prob=prob)

    @pytest.mark.parametrize("snapshot_every", [0, -1, 101, 2.5, True])
    def test_snapshot_interval_within_iterations(self, small_setup, snapshot_every):
        # outside [1, iterations] no chain row would be logged
        model, matrix, queries = small_setup
        with pytest.raises(InputError, match="snapshot_every"):
            kld_curve(model, matrix, "p", queries, [1], [0], 100, snapshot_every)


class TestPlantedSymmetryInstance:
    def test_classes_are_blocks(self):
        model, matrix, queries = planted_symmetry_instance((4, 4))
        from liftbmf.reduction import constant_symmetry_classes

        ev = matrix_to_evidence("p", matrix)
        classes = constant_symmetry_classes(model, ev)
        assert sorted(len(c) for c in classes) == [4, 4]
        assert len(queries) == 8

    def test_marginals_equal_within_class(self):
        model, matrix, queries = planted_symmetry_instance((3, 3))
        ev = matrix_to_evidence("p", matrix)
        marg = exact_marginals(model, ev, queries)
        block = [marg[q] for q in queries[:3]]
        assert max(block) - min(block) < 1e-12


class TestWriteCsv:
    def test_layout(self):
        text = csv_text(("a", "b"), [(1, 0.5), (2, True)], invocation="liftbmf x")
        assert text == "# liftbmf x\na,b\n1,0.5\n2,true\n"
