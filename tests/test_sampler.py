import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from liftbmf import mln, sampler
from liftbmf.errors import CapacityError, InconsistencyError, InputError
from liftbmf.experiments import planted_symmetry_instance, random_equivalence_instance
from liftbmf.factorize import exact_boolean_rank
from liftbmf.mln import (
    Atom,
    Conditioned,
    EvidenceSet,
    Model,
    enumerate_world_distribution,
    exact_marginals,
    ground,
    parse_evidence,
    parse_model,
)
from liftbmf.reduction import (
    constant_symmetry_classes,
    encode_evidence,
    extend_model,
    matrix_to_evidence,
)
from liftbmf.sampler import (
    ChainConfig,
    _class_permutation,
    estimate_marginals,
    find_consistent_world,
    kld,
)

from conftest import _class_positions, _index
from test_mln import _relabeled_by_atoms, _relabeled_by_gather


def _conditioned(model_text, evidence_text=""):
    model = parse_model(model_text)
    evidence = parse_evidence(evidence_text, model)
    return model, evidence, ground(model).condition(evidence)


class TestGibbsStep:
    def test_single_free_atom_is_fair(self):
        _, _, cond = _conditioned("domain = a\npred q/1\n")
        values = np.array([0], dtype=np.uint8)
        assert cond.conditional(values, 0) == pytest.approx(0.5)

    def test_hard_forced_atom_always_true(self):
        # two open atoms, so unit propagation leaves the grounding to the chain
        _, _, cond = _conditioned("domain = a\npred q/1\npred s/1\nhard q(a) ^ (s(a) v !s(a))\n")
        q = _index(cond)[Atom("q", ("a",))]
        rng = np.random.default_rng(0)
        values = np.array([1, 0])
        for _ in range(20):
            i = int(rng.integers(len(values)))
            values[i] = 1 if rng.random() < cond.conditional(values, i) else 0
            assert values[q] == 1

    def test_agreement_chain_conditional_is_sigmoid(self):
        # one weighted equivalence between two atoms: flipping the sampled
        # atom toward its neighbor wins by exactly the formula weight
        w = 1.3
        _, _, cond = _conditioned(
            f"domain = a, b\npred q/1\n{w} q(a) <=> q(b)\n"
        )
        i, j = (_index(cond)[Atom("q", (c,))] for c in "ab")
        values = np.zeros(2, dtype=np.uint8)
        values[j] = 1
        assert cond.conditional(values, i) == pytest.approx(
            1.0 / (1.0 + math.exp(-w))
        )
        values[j] = 0
        assert cond.conditional(values, i) == pytest.approx(
            1.0 / (1.0 + math.exp(w))
        )

    def test_contradictory_hard_formulas_raise(self):
        model = parse_model("domain = a\npred q/1\nhard q(a)\nhard !q(a)\n")
        with pytest.raises(InconsistencyError, match="inconsistent"):
            cond = ground(model).condition(EvidenceSet())
            cond.conditional(np.array([0], dtype=np.uint8), 0)

    def test_infeasible_world_is_an_input_error(self):
        # the model is satisfiable (t(a) true), only the given world is not
        _, _, cond = _conditioned(
            "domain = a\npred s/1\npred t/1\nhard (s(a) v !s(a)) ^ t(a)\n"
        )
        with pytest.raises(InputError, match="infeasible"):
            cond.conditional([0, 0], _index(cond)[Atom("s", ("a",))])

    def test_step_is_pure(self):
        _, _, cond = _conditioned("domain = a, b\npred q/1\n0.5 q(X)\n")
        values = np.array([1, 0])
        cond.conditional(values, 0)
        cond.relabeled(values, np.array([1, 0]))
        assert list(values) == [1, 0]


def _orbital_move(cond, values, classes, rng):
    """The chain's orbital jump: one class permutation, then relabeling."""
    domain = cond.model.domain
    perm = _class_permutation(len(domain), _class_positions(domain, classes), rng)
    return values if perm is None else cond.relabeled(values, perm)


class TestOrbitalStep:
    def test_singleton_classes_leave_state_unchanged(self):
        _, _, cond = _conditioned("domain = a, b\npred q/1\n")
        out = _orbital_move(cond, np.array([1, 0]), (("a",), ("b",)), np.random.default_rng(0))
        assert list(out) == [1, 0]

    def test_identity_permutation_possible(self):
        _, _, cond = _conditioned("domain = a, b\npred q/1\n")
        values = np.array([1, 0])
        # some draw eventually produces the identity; state must survive it
        seen_identity = False
        for seed in range(20):
            out = _orbital_move(cond, values, (("a", "b"),), np.random.default_rng(seed))
            if list(out) == [1, 0]:
                seen_identity = True
        assert seen_identity

    @pytest.mark.parametrize("size", range(1, 65))
    def test_list_shuffle_draws_what_permutation_draws(self, size):
        # `_class_permutation` shuffles each class as a list, and a chain
        # whose classes share one size shuffles the rows of a stacked tile
        # with `rng.permuted`; chains drawn with `rng.permutation` on a
        # position array stay reproducible only while all three give the
        # same values and leave the same stream state
        at = list(range(5, 5 + 3 * size, 3))
        for seed in range(3):
            by_array, by_list = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = at[:]
            by_list.shuffle(drawn)
            assert by_array.permutation(np.array(at)).tolist() == drawn
            assert by_array.random().hex() == by_list.random().hex()
        for count in range(1, 5):
            positions = [[c + k * 3 * size for c in at] for k in range(count)]
            by_rows, by_list = np.random.default_rng(size), np.random.default_rng(size)
            rows = by_rows.permuted(np.tile(positions, (40, 1)), axis=1).tolist()
            drawn = []
            for _ in range(40):
                for class_at in positions:
                    drawn.append(class_at[:])
                    by_list.shuffle(drawn[-1])
            assert rows == drawn
            assert by_rows.random().hex() == by_list.random().hex()

    def test_class_permutation_moves_each_class_within_itself(self):
        positions = [[0, 2, 5], [1, 4]]
        rng = np.random.default_rng(12)
        draws = [_class_permutation(7, positions, rng) for _ in range(200)]
        moved = [perm for perm in draws if perm is not None]
        assert 0 < len(moved) < len(draws)
        for perm in moved:
            assert sorted(perm[c] for c in positions[0]) == positions[0]
            assert sorted(perm[c] for c in positions[1]) == positions[1]
            assert perm[3] == 3 and perm[6] == 6
            assert perm != list(range(7))

    def test_log_weight_invariant_under_class_permutations(self):
        model, evidence, cond = _conditioned(
            "domain = a, b, c, d\npred s/1\npred p/2\n1.2 s(X) ^ p(X,Y) => s(Y)\n",
            "p(a,b)\np(b,a)\np(c,d)\np(d,c)\n"
            "!p(a,a)\n!p(b,b)\n!p(c,c)\n!p(d,d)\n"
            "!p(a,c)\n!p(a,d)\n!p(b,c)\n!p(b,d)\n"
            "!p(c,a)\n!p(c,b)\n!p(d,a)\n!p(d,b)\n",
        )
        classes = constant_symmetry_classes(model, evidence)
        assert sorted(len(c) for c in classes) == [2, 2]
        rng = np.random.default_rng(5)
        for _ in range(50):
            values = rng.integers(0, 2, size=len(cond.atoms)).astype(np.uint8)
            moved = _orbital_move(cond, values, classes, rng)
            assert cond.log_weight(moved) == cond.log_weight(values)

    def test_relabeling_moves_atom_values(self):
        _, _, cond = _conditioned("domain = a, b\npred s/1\n")
        values = np.array([1, 0])
        # force the swap by hunting for a non-identity draw
        for seed in range(20):
            out = _orbital_move(cond, values, (("a", "b"),), np.random.default_rng(seed))
            if list(out) != [1, 0]:
                assert list(out) == [0, 1]
                break
        else:
            pytest.fail("no swap drawn in 20 attempts")

    def test_class_that_moves_an_open_atom_onto_evidence_is_refused(self):
        _, _, cond = _conditioned(
            "domain = a, b, c\npred t/1\npred q/1\n0.5 q(X)\n0.3 t(X)\n", "q(a)\n"
        )
        values = np.array([1, 0, 0, 0, 0])
        # seed 3 draws the swap of a and b, which q(a) alone tells apart
        with pytest.raises(InputError, match="onto a known atom"):
            _orbital_move(cond, values, (("a", "b"),), np.random.default_rng(3))

    def test_jump_sources_are_built_a_chunk_at_a_time(self):
        # 240 open atoms in one class of 15 constants and a jump before
        # every step: built a block at a time, 6,000 more jumps would hold
        # 6,000 x 240 more source entries, over 11 MB as lists alone; the
        # block's own lists grow by under 100 bytes a step.  Below 257
        # atoms each source is a cached small int, which keeps the traced
        # run short.
        domain = ", ".join(f"c{k}" for k in range(15))
        model = parse_model(f"domain = {domain}\npred t/2\npred s/1\n")
        evidence = EvidenceSet()
        assert len(ground(model).condition(evidence).atoms) == 240
        assert [len(c) for c in constant_symmetry_classes(model, evidence)] == [15]

        def peak(iterations):
            config = ChainConfig(iterations, seed=3, orbital_move_probability=1.0)
            tracemalloc.start()
            try:
                estimate_marginals(model, evidence, [Atom("s", ("c0",))], config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2000)  # the first call also pays for one-off caches
        few, many = peak(2000), peak(8000)
        assert many - few < 1 << 20, (few, many)


class TestChainConfig:
    def test_burn_in_default_is_ten_percent(self):
        assert ChainConfig(iterations=1000).resolved_burn_in() == 100

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 0},
            {"iterations": 10, "burn_in": 10},
            {"iterations": 100, "burn_in": -5},
            {"iterations": 10, "orbital_move_probability": 1.5},
            {"iterations": 10, "estimator": "magic"},
            {"iterations": 2.5},
            {"iterations": True},
            {"iterations": 10, "burn_in": 2.5},
            {"iterations": 10, "burn_in": False},
            {"iterations": 10, "seed": -1},
            {"iterations": 10, "seed": 1.0},
            {"iterations": 10, "seed": "1"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InputError):
            ChainConfig(**kwargs)

    def test_numpy_integers_are_accepted(self):
        config = ChainConfig(np.int64(10), burn_in=np.int32(2), seed=np.uint8(3))
        assert config.resolved_burn_in() == 2

    @pytest.mark.parametrize(
        "prob", ["0.5", None, 0.1 + 0j, True, False, np.True_, [0.5], math.nan, -0.1, 1.0001]
    )
    def test_orbital_probability_must_be_a_real_in_the_unit_interval(self, prob):
        # strings, None and complex numbers once escaped as a bare TypeError
        # from the range check, and True ran as probability 1
        with pytest.raises(InputError, match="orbital_move_probability must be a real"):
            ChainConfig(10, orbital_move_probability=prob)

    @pytest.mark.parametrize("prob", [0, 1, 0.25, np.float32(0.5), np.int64(1), Fraction(1, 4)])
    def test_orbital_probability_is_kept_as_a_float(self, prob):
        config = ChainConfig(10, orbital_move_probability=prob)
        assert type(config.orbital_move_probability) is float
        assert config.orbital_move_probability == prob


class TestEstimateMarginals:
    def test_hard_forced_atom_is_exactly_one(self):
        model = parse_model("domain = a\npred q/1\npred s/1\nhard q(a)\n")
        for estimator in ("frequency", "rao_blackwell"):
            config = ChainConfig(iterations=500, seed=2, estimator=estimator)
            est = estimate_marginals(model, EvidenceSet(), [Atom("q", ("a",))], config)
            assert est.estimates[Atom("q", ("a",))] == 1.0

    def test_formula_free_model_near_half(self):
        model = parse_model("domain = a, b\npred q/1\n")
        config = ChainConfig(iterations=10_000, seed=4, orbital_move_probability=0.0)
        est = estimate_marginals(model, EvidenceSet(), [Atom("q", ("a",))], config)
        assert abs(est.estimates[Atom("q", ("a",))] - 0.5) < 0.03

    def test_weighted_model_matches_oracle(self):
        model = parse_model(
            "domain = a, b\npred s/1\npred p/2\n1.1 s(X) ^ p(X,Y) => s(Y)\n0.4 s(X)\n"
        )
        evidence = parse_evidence("p(a,b)\n!p(b,a)\n!p(a,a)\n!p(b,b)\n", model)
        queries = [Atom("s", ("a",)), Atom("s", ("b",))]
        exact = exact_marginals(model, evidence, queries)
        config = ChainConfig(iterations=50_000, seed=9, orbital_move_probability=0.0)
        est = estimate_marginals(model, evidence, queries, config)
        for q in queries:
            assert abs(est.estimates[q] - exact[q]) < 0.02

    def test_rao_blackwell_beats_frequency_variance(self):
        model = parse_model("domain = a, b, c\npred s/1\n0.8 s(X)\n")
        queries = [Atom("s", ("a",))]
        exact = exact_marginals(model, EvidenceSet(), queries)[queries[0]]
        errs = {"frequency": [], "rao_blackwell": []}
        for estimator in errs:
            for seed in range(8):
                config = ChainConfig(
                    iterations=2000, seed=seed, estimator=estimator,
                    orbital_move_probability=0.0,
                )
                est = estimate_marginals(model, EvidenceSet(), queries, config)
                errs[estimator].append((est.estimates[queries[0]] - exact) ** 2)
        assert np.mean(errs["rao_blackwell"]) <= np.mean(errs["frequency"])

    def test_deterministic_given_seed(self):
        model = parse_model(
            "domain = a, b, c, d\npred s/1\npred q/1\n0.6 s(X) ^ q(X)\n"
        )
        evidence = parse_evidence("q(a)\nq(b)\n!q(c)\n!q(d)\n", model)
        queries = [Atom("s", (c,)) for c in model.domain]
        config = ChainConfig(iterations=3000, seed=11, orbital_move_probability=0.3)
        a = estimate_marginals(model, evidence, queries, config, snapshot_every=500)
        b = estimate_marginals(model, evidence, queries, config, snapshot_every=500)
        assert a.estimates == b.estimates
        assert a.snapshots == b.snapshots

    def test_snapshots_recorded_on_schedule(self):
        model = parse_model("domain = a\npred q/1\n")
        config = ChainConfig(iterations=1000, burn_in=0, seed=0)
        est = estimate_marginals(model, EvidenceSet(), [Atom("q", ("a",))], config,
                                 snapshot_every=250)
        assert [it for it, _ in est.snapshots] == [250, 500, 750, 1000]

    @pytest.mark.parametrize("snapshot_every", [0, -3, 2.5, True])
    def test_snapshot_interval_must_be_positive(self, snapshot_every):
        model = parse_model("domain = a\npred q/1\n")
        config = ChainConfig(iterations=100, seed=0)
        with pytest.raises(InputError, match="snapshot_every"):
            estimate_marginals(model, EvidenceSet(), [Atom("q", ("a",))], config,
                               snapshot_every=snapshot_every)

    def test_no_open_atom_answers_from_known_values(self):
        # unit propagation fixes q(a); s(a) is evidence: nothing is left open
        model = parse_model("domain = a\npred q/1\npred s/1\nhard q(a)\n")
        evidence = parse_evidence("!s(a)\n", model)
        queries = [Atom("q", ("a",)), Atom("s", ("a",))]
        config = ChainConfig(iterations=100, burn_in=10, seed=0)
        est = estimate_marginals(model, evidence, queries, config, snapshot_every=25,
                                 collect_world_counts=True)
        expected = {queries[0]: 1.0, queries[1]: 0.0}
        assert est.estimates == expected
        assert est.snapshots == tuple((t, expected) for t in (25, 50, 75, 100))
        assert est.world_counts.tolist() == [90]

    def test_classes_become_positions_once_per_chain(self, monkeypatch):
        model, matrix, queries = planted_symmetry_instance((3, 3))
        calls = []
        real = sampler.constant_symmetry_classes
        monkeypatch.setattr(
            sampler, "constant_symmetry_classes", lambda *args: calls.append(args) or real(*args)
        )
        config = ChainConfig(iterations=500, seed=1, orbital_move_probability=1.0)
        estimate_marginals(model, matrix_to_evidence("p", matrix), queries, config)
        assert len(calls) == 1

    def test_the_chain_checks_none_of_its_own_worlds(self, monkeypatch):
        # worlds come from WalkSAT or from a class permutation of a world,
        # so the chain never needs the boundary check `_column`
        model, matrix, queries = planted_symmetry_instance((3, 3))
        evidence = matrix_to_evidence("p", matrix)
        config = ChainConfig(iterations=500, seed=2, orbital_move_probability=0.5)
        expected = estimate_marginals(model, evidence, queries, config)

        def refuse(*_):
            raise AssertionError("the chain checked a world it built")

        monkeypatch.setattr(Conditioned, "_column", refuse)
        assert estimate_marginals(model, evidence, queries, config) == expected

    def test_evidence_query_is_constant(self):
        model = parse_model("domain = a, b\npred q/1\n")
        evidence = parse_evidence("q(a)\n", model)
        config = ChainConfig(iterations=100, seed=0)
        est = estimate_marginals(model, evidence, [Atom("q", ("a",))], config)
        assert est.estimates[Atom("q", ("a",))] == 1.0

    def test_world_counts_track_visits(self):
        model = parse_model("domain = a\npred q/1\npred s/1\n0.9 q(a) <=> s(a)\n")
        config = ChainConfig(
            iterations=200_000, burn_in=1000, seed=3, orbital_move_probability=0.0
        )
        est = estimate_marginals(
            model, EvidenceSet(), [], config, collect_world_counts=True
        )
        atoms, probs = enumerate_world_distribution(model, EvidenceSet())
        freq = est.world_counts / est.world_counts.sum()
        tv = 0.5 * np.abs(freq - probs).sum()
        assert tv < 0.02


class TestOrbitalChainOnReducedModel:
    def test_matches_oracle_under_hard_equivalence(self, example_matrix):
        # rank-1 truncation merges constants into two classes, so orbital
        # moves fire while the hard equivalence formula pins every p atom
        from liftbmf.factorize import exact_boolean_rank, truncate
        from liftbmf.reduction import encode_evidence, extend_model

        model = parse_model(
            "domain = a, b, c, d\npred s/1\npred p/2\n1.5 s(X) ^ p(X,Y) => s(Y)\n"
        )
        _, witness = exact_boolean_rank(example_matrix)
        result = encode_evidence("p", truncate(witness, 1), model.predicates)
        extended = extend_model(model, result)
        classes = constant_symmetry_classes(extended, result.unary_evidence)
        assert sorted(len(c) for c in classes) == [2, 2]
        queries = [Atom("s", (c,)) for c in model.domain]
        exact = exact_marginals(extended, result.unary_evidence, queries)
        config = ChainConfig(iterations=60_000, seed=21, orbital_move_probability=0.2)
        est = estimate_marginals(extended, result.unary_evidence, queries, config)
        for q in queries:
            assert abs(est.estimates[q] - exact[q]) < 0.02


class TestKld:
    def test_zero_when_equal(self):
        ref = {Atom("q", ("a",)): 0.3, Atom("q", ("b",)): 0.9}
        assert kld(ref, dict(ref)) == pytest.approx(0.0, abs=1e-12)

    def test_half_vs_half(self):
        ref = {Atom("q", ("a",)): 0.5}
        assert kld(ref, {Atom("q", ("a",)): 0.5}) == 0.0

    def test_derived_value(self):
        ref = {Atom("q", ("a",)): 0.8}
        got = kld(ref, {Atom("q", ("a",)): 0.5})
        assert got == pytest.approx(0.8 * math.log(1.6) + 0.2 * math.log(0.4), abs=1e-9)
        assert got == pytest.approx(0.19274, abs=5e-6)

    def test_clamping_keeps_divergence_finite(self):
        ref = {Atom("q", ("a",)): 1.0}
        assert math.isfinite(kld(ref, {Atom("q", ("a",)): 0.0}))

    @pytest.mark.parametrize(
        "p, q, message",
        [
            (1.5, 0.5, r"reference of q\(a\) must be in \[0, 1\], got 1.5"),
            ("0.5", 0.5, r"reference of q\(a\) must be in \[0, 1\], got '0.5'"),
            (0.5, True, r"estimate of q\(a\) must be in \[0, 1\], got True"),
            (None, 0.5, "reference of q.a. must be in .*None"),
            (-0.1, 0.5, "reference of q.a. must be in"),
            (float("nan"), 0.5, "reference of q.a. must be in .*nan"),
            (0.5, float("nan"), "estimate of q.a. must be in .*nan"),
            (0.5, 1.2, "estimate of q.a. must be in"),
        ],
    )
    def test_refuses_values_outside_the_unit_interval(self, p, q, message):
        # a reference of 1.5 gave 1.648, a NaN reference counted as 0, a
        # NaN estimate gave nan and a string raised a bare TypeError
        with pytest.raises(InputError, match=message):
            kld({Atom("q", ("a",)): p}, {Atom("q", ("a",)): q})

    def test_refuses_a_reference_atom_without_estimate(self):
        ref = {Atom("q", ("a",)): 0.5, Atom("q", ("b",)): 0.5}
        with pytest.raises(InputError, match=r"no estimate for reference atom q\(b\)"):
            kld(ref, {Atom("q", ("a",)): 0.5})


class TestChainRefusals:
    def test_world_counting_stops_at_sixteen_open_atoms(self):
        model = Model(tuple(f"c{k}" for k in range(17)), {"s": 1})
        query = [Atom("s", ("c0",))]
        with pytest.raises(CapacityError, match="17 atoms exceed the world-distribution cap of 16"):
            estimate_marginals(model, EvidenceSet(), query, ChainConfig(10),
                               collect_world_counts=True)
        evidence = EvidenceSet({Atom("s", ("c16",)): False})
        counted = estimate_marginals(model, evidence, query, ChainConfig(10),
                                     collect_world_counts=True)
        assert counted.world_counts.shape == (1 << 16,) and counted.world_counts.sum() == 9

    def test_world_counting_reads_the_one_cap_at_call_time(self, monkeypatch):
        # the chain once held its own copy of the cap and counted all 16 worlds here
        model = Model(("c0", "c1", "c2", "c3"), {"s": 1})
        monkeypatch.setattr(mln, "_WORLD_ATOM_CAP", 3)
        message = "^4 atoms exceed the world-distribution cap of 3$"
        with pytest.raises(CapacityError, match=message):
            enumerate_world_distribution(model, EvidenceSet())
        with pytest.raises(CapacityError, match=message):
            estimate_marginals(model, EvidenceSet(), [], ChainConfig(10), collect_world_counts=True)

    def test_kld_refuses_an_empty_reference(self):
        with pytest.raises(InputError, match="reference marginals are empty"):
            kld({}, {Atom("q", ("a",)): 0.5})


class TestFindConsistentWorld:
    def test_satisfies_equivalence_constraints(self):
        model = parse_model(
            "domain = a, b\npred p/2\npred q/1\npred r/1\n"
            "hard p(X,Y) <=> q(X) ^ r(Y)\n"
        )
        evidence = parse_evidence("q(a)\n!q(b)\nr(a)\nr(b)\n", model)
        cond = ground(model).condition(evidence)
        values = find_consistent_world(cond, np.random.default_rng(7))
        assert cond.log_weight(values) > float("-inf")

    def test_returns_the_chains_list_world(self):
        _, _, cond = _conditioned("domain = a, b\npred p/2\npred q/1\nhard p(X,Y) => q(X)\n")
        values = find_consistent_world(cond, np.random.default_rng(3))
        assert type(values) is list and {type(v) for v in values} <= {int}
        assert len(values) == len(cond.atoms) and cond.log_weight(values) > float("-inf")
        # without hard formulas the first draw is the world
        _, _, free = _conditioned("domain = a, b\npred p/2\n")
        draw = np.random.default_rng(3).integers(0, 2, size=len(free.atoms)).tolist()
        assert find_consistent_world(free, np.random.default_rng(3)) == draw

    def test_giving_up_is_a_capacity_refusal(self, monkeypatch):
        # running out of flips proves nothing about consistency
        monkeypatch.setattr(sampler, "_WALKSAT_RESTARTS", 1)
        monkeypatch.setattr(sampler, "_WALKSAT_FLIPS", 0)
        model = parse_model("domain = a\npred s/1\npred t/1\nhard s(a) v t(a)\n")
        cond = ground(model).condition(EvidenceSet())
        with pytest.raises(CapacityError, match="0 flips over 1 restarts"):
            find_consistent_world(cond, np.random.default_rng(0))


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


RESIDUAL_HARD_MODEL = (
    "domain = a, b, c, d\npred s/1\npred t/1\n"
    "hard s(X) v t(X)\n1.1 s(X) ^ t(Y) => s(Y)\n-0.4 t(X)\n"
)


@pytest.fixture(scope="module")
def planted_sides():
    """The (4,4) planted instance with binary evidence and with its exact
    unary reduction."""
    model, matrix, queries = planted_symmetry_instance((4, 4))
    _, witness = exact_boolean_rank(matrix)
    result = encode_evidence("p", witness, model.predicates)
    return queries, {
        "binary": (model, matrix_to_evidence("p", matrix)),
        "unary": (extend_model(model, result), result.unary_evidence),
    }


class TestPinnedChainOutputs:
    """Chain outputs for fixed seeds, recorded with the formula-scanning
    sampler that the compiled ground model replaced.  A refactor that keeps
    the RNG draw order and adds weights in compiled order reproduces them
    bit for bit; estimates are compared as float.hex strings.  The unary
    side conditions to the binary side's compiled model, so it reproduces
    the binary rows.  The frequency, burn-in, always-jump and residual-hard
    rows were recorded with the chain that held its world as a numpy array
    and converted it on every conditional."""

    @pytest.mark.parametrize(
        "side,prob,estimates,snapshots",
        [
            ("binary", 0.0, [
                "0x1.4d5ccdb76329ap-4", "0x1.411da0ec2daf1p-3", "0x1.34f563e9e16b1p-3",
                "0x1.3b4fb68e1ae79p-3", "0x1.fc2a19a079307p-4", "0x1.08c5289ecc009p-3",
                "0x1.3dab09344d2b6p-3", "0x1.25a1fbae8faa9p-3",
            ], "49f15607e7ca79f5"),
            ("binary", 0.2, [
                "0x1.1dde02c541e9ep-3", "0x1.1b236d0f225d0p-3", "0x1.13cd6337ec951p-3",
                "0x1.28a954dc37265p-3", "0x1.b623eeaf31eb2p-4", "0x1.211d97a351ef0p-3",
                "0x1.305602cda1918p-3", "0x1.3f7ec73d227e9p-3",
            ], "59548e1f8d483fd7"),
            ("unary", 0.0, [
                "0x1.4d5ccdb76329ap-4", "0x1.411da0ec2daf1p-3", "0x1.34f563e9e16b1p-3",
                "0x1.3b4fb68e1ae79p-3", "0x1.fc2a19a079307p-4", "0x1.08c5289ecc009p-3",
                "0x1.3dab09344d2b6p-3", "0x1.25a1fbae8faa9p-3",
            ], "49f15607e7ca79f5"),
            ("unary", 0.2, [
                "0x1.1dde02c541e9ep-3", "0x1.1b236d0f225d0p-3", "0x1.13cd6337ec951p-3",
                "0x1.28a954dc37265p-3", "0x1.b623eeaf31eb2p-4", "0x1.211d97a351ef0p-3",
                "0x1.305602cda1918p-3", "0x1.3f7ec73d227e9p-3",
            ], "59548e1f8d483fd7"),
        ],
    )
    def test_estimates_and_snapshots(self, planted_sides, side, prob, estimates, snapshots):
        queries, sides = planted_sides
        config = ChainConfig(3000, seed=4, orbital_move_probability=prob)
        est = estimate_marginals(*sides[side], queries, config, snapshot_every=1000)
        assert [est.estimates[q].hex() for q in queries] == estimates
        assert _digest(
            [(t, [snap[q].hex() for q in queries]) for t, snap in est.snapshots]
        ) == snapshots

    @pytest.mark.parametrize(
        "config,estimates,snapshots",
        [
            (ChainConfig(3000, seed=5, orbital_move_probability=0.2, estimator="frequency"), [
                "0x1.04ee2cc0a9e88p-3", "0x1.08b91419ca253p-3", "0x1.240795ceb2408p-3",
                "0x1.104ee2cc0a9e8p-3", "0x1.d6480f2b9d648p-4", "0x1.0d4629b7f0d46p-3",
                "0x1.20fedcba98765p-3", "0x1.1a2b3c4d5e6f8p-3",
            ], "bf005db2197164f8"),
            (ChainConfig(3000, burn_in=250, seed=6, orbital_move_probability=0.2), [
                "0x1.1fc5270e33378p-3", "0x1.e8f8c8d9da46ap-4", "0x1.20f2bf1151efdp-3",
                "0x1.f01ab87ee622fp-4", "0x1.1284ddee41a88p-3", "0x1.28eed4f416b13p-3",
                "0x1.3c6c069e16b30p-3", "0x1.f6665cee5c9d5p-4",
            ], "657de6db09b0dc51"),
            (ChainConfig(3000, seed=7, orbital_move_probability=1.0), [
                "0x1.08f2206236329p-3", "0x1.094658e1f3050p-3", "0x1.06a8c1a3d0f9ep-3",
                "0x1.15ef2cfbddb15p-3", "0x1.2a3a11c5d5d68p-3", "0x1.2a7346815ee34p-3",
                "0x1.278b974de5b67p-3", "0x1.19a37bcd507a0p-3",
            ], "da3d137e59586c87"),
        ],
        ids=["frequency", "burn_in", "always_jump"],
    )
    def test_other_chain_settings(self, planted_sides, config, estimates, snapshots):
        queries, sides = planted_sides
        est = estimate_marginals(*sides["binary"], queries, config, snapshot_every=1000)
        assert [est.estimates[q].hex() for q in queries] == estimates
        assert _digest(
            [(t, [snap[q].hex() for q in queries]) for t, snap in est.snapshots]
        ) == snapshots

    def test_residual_hard_formulas(self):
        # t(a) and t(b) satisfy two groundings of the hard formula; the two
        # for c and d stay in the compiled model, and {a, b}, {c, d} are
        # exchangeable, so jumps move atoms that hard formulas constrain
        model, evidence, cond = _conditioned(RESIDUAL_HARD_MODEL, "t(a)\nt(b)\n")
        assert len(cond.hard) == 2
        queries = [Atom("s", (c,)) for c in "abcd"] + [Atom("t", (c,)) for c in "cd"]
        config = ChainConfig(3000, seed=8, orbital_move_probability=0.3)
        est = estimate_marginals(model, evidence, queries, config, snapshot_every=1000)
        assert [est.estimates[q].hex() for q in queries] == [
            "0x1.3e888b41e0df6p-1", "0x1.39396ff2938f4p-1", "0x1.38709edc73d66p-1",
            "0x1.36fa37b13c0c2p-1", "0x1.453507cba3667p-1", "0x1.4bf3e6b3be77cp-1",
        ]
        assert _digest(
            [(t, [snap[q].hex() for q in queries]) for t, snap in est.snapshots]
        ) == "d9f608e24fdec036"
        config = ChainConfig(4000, seed=9, orbital_move_probability=0.5)
        est = estimate_marginals(model, evidence, [], config, collect_world_counts=True)
        assert est.world_counts.sum() == 3600
        assert _digest(est.world_counts.tolist()) == "7fa563451e7a4d1e"

    @pytest.mark.parametrize(
        "seed,counts",
        [(0, "126d5b595a2071e4"), (1, "9c717c5d06d17c9b"), (2, "14d600ad17b43b22")],
    )
    def test_orbital_world_counts(self, planted_sides, seed, counts):
        _, sides = planted_sides
        config = ChainConfig(4000, seed=seed, orbital_move_probability=0.2)
        est = estimate_marginals(*sides["binary"], [], config, collect_world_counts=True)
        assert est.world_counts.sum() == 3600
        assert _digest(est.world_counts.tolist()) == counts


def _reference_chain(model, evidence, queries, config, snapshot_every=None,
                     collect_world_counts=False):
    """The chain loop as it was before the per-atom memo and the relabeling
    plan: `conditional`, with its boundary checks, on every step, every
    query slot added on every sample, and each jump drawn by
    `rng.permutation` per class and applied by one index gather per
    predicate.  Same streams, same draws, same order."""
    cond = ground(model).condition(evidence)
    fixed, open_queries = cond.split_queries(queries)
    burn_in = config.resolved_burn_in()
    use_orbital = config.orbital_move_probability > 0.0
    classes = constant_symmetry_classes(model, evidence) if use_orbital else ()
    class_positions = _class_positions(model.domain, classes)
    init_rng, atom_rng, unif_rng, orbit_decide_rng, orbit_perm_rng = [
        np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(5)
    ]
    world = find_consistent_world(cond, init_rng)
    n = len(world)
    query_ids = [(i, k) for k, i in enumerate(open_queries.values())]
    sums = [0.0] * len(open_queries)
    samples = 0
    counts = np.zeros(1 << n, dtype=np.int64) if collect_world_counts else None
    snapshots = []

    def current_estimates():
        est = dict(fixed)
        est.update({a: sums[k] / samples for k, a in enumerate(open_queries)})
        return est

    t = 0
    while t < config.iterations:
        block = min(sampler._BLOCK, config.iterations - t)
        picks = atom_rng.integers(0, n, size=block).tolist() if n else None
        unifs = unif_rng.random(block).tolist()
        if use_orbital:
            jumps = (orbit_decide_rng.random(block) < config.orbital_move_probability).tolist()
        for b in range(block):
            t += 1
            if use_orbital and jumps[b]:
                perm = np.arange(len(model.domain))
                for at in class_positions:
                    perm[at] = orbit_perm_rng.permutation(at)
                if (perm != np.arange(len(model.domain))).any():
                    world = _relabeled_by_gather(cond, world, perm).tolist()
            if n:
                i = picks[b]
                p = cond.conditional(world, i)
                world[i] = 1 if unifs[b] < p else 0
            if t > burn_in:
                samples += 1
                for qi, k in query_ids:
                    sums[k] += p if config.estimator == "rao_blackwell" and qi == i else world[qi]
                if counts is not None:
                    counts[sampler._packed(world)] += 1
                if snapshot_every and t % snapshot_every == 0:
                    snapshots.append((t, current_estimates()))
    return current_estimates(), snapshots, counts


def _hexed(values):
    return [(a, v.hex()) for a, v in values.items()]


CHAIN_SETTINGS = list(itertools.product(("rao_blackwell", "frequency"), (0.0, 0.3, 1.0), (0, None)))


class TestChainAgainstReferenceLoop:
    """The chain reads each conditional from a per-atom memo keyed by the
    packed neighbour state and adds only the queries that are true; the
    loop that called `conditional` on every step and added every query is
    the oracle, and the two must agree bit for bit."""

    def _check(self, model, evidence, queries, settings, iterations=400):
        for estimator, prob, burn_in in settings:
            config = ChainConfig(iterations, burn_in=burn_in, seed=len(queries) + iterations,
                                 orbital_move_probability=prob, estimator=estimator)
            est = estimate_marginals(model, evidence, queries, config, snapshot_every=50,
                                     collect_world_counts=True)
            estimates, snapshots, counts = _reference_chain(
                model, evidence, queries, config, snapshot_every=50, collect_world_counts=True
            )
            assert _hexed(est.estimates) == _hexed(estimates)
            assert [(t, _hexed(s)) for t, s in est.snapshots] == [
                (t, _hexed(s)) for t, s in snapshots
            ]
            assert est.world_counts.tolist() == counts.tolist()

    def test_random_equivalence_instances_on_both_sides(self):
        rng = np.random.default_rng(73)
        settings = itertools.cycle(CHAIN_SETTINGS)
        isolated = 0
        for _ in range(40):
            model, matrix, query = random_equivalence_instance(rng, max_m=4)
            # u is in no formula, so its open atoms are outside every blanket
            model = model.extended(predicates={"u": 1})
            _, witness = exact_boolean_rank(matrix)
            result = encode_evidence("p", witness, model.predicates)
            for side_model, evidence in (
                (model, matrix_to_evidence("p", matrix)),
                (extend_model(model, result), result.unary_evidence),
            ):
                cond = ground(side_model).condition(evidence)
                # open, known and isolated atoms, the drawn query three times
                queries = [query, *model.all_atoms(), query, query]
                index = _index(cond)
                isolated += sum(not cond.blanket[index[a]] for a in queries if a in index)
                self._check(side_model, evidence, queries, [next(settings)])
        assert isolated > 0

    def test_residual_hard_formulas_under_every_setting(self):
        model, evidence, cond = _conditioned(RESIDUAL_HARD_MODEL, "t(a)\nt(b)\n")
        assert len(cond.hard) == 2
        queries = [Atom("s", (c,)) for c in "abcd"] + [Atom("t", (c,)) for c in "abcd"]
        self._check(model, evidence, queries + queries[::3], CHAIN_SETTINGS)

    def test_model_with_no_open_atom(self):
        model = parse_model("domain = a\npred q/1\npred s/1\nhard q(a)\n")
        evidence = parse_evidence("!s(a)\n", model)
        assert not ground(model).condition(evidence).atoms
        queries = [Atom("q", ("a",)), Atom("s", ("a",)), Atom("q", ("a",))]
        self._check(model, evidence, queries, CHAIN_SETTINGS, iterations=60)

    @pytest.mark.parametrize("side", ["direct", "reduced"])
    def test_benchmark_sides(self, side):
        # the planted (8,8) instance as the gibbs benchmark runs it: both
        # sides condition to the same 16 open atoms, and jumps permute two
        # classes of 8 constants
        model, matrix, queries = planted_symmetry_instance((8, 8))
        evidence = matrix_to_evidence("p", matrix)
        iterations, snapshot_every = 1200, 25
        if side == "reduced":
            _, witness = exact_boolean_rank(matrix)
            result = encode_evidence("p", witness, model.predicates)
            model, evidence = extend_model(model, result), result.unary_evidence
            iterations, snapshot_every = 5000, 100
        assert len(ground(model).condition(evidence).atoms) == 16
        for seed in range(8):
            config = ChainConfig(iterations, burn_in=0, seed=seed, orbital_move_probability=0.1)
            est = estimate_marginals(model, evidence, queries, config,
                                     snapshot_every=snapshot_every, collect_world_counts=True)
            estimates, snapshots, counts = _reference_chain(
                model, evidence, queries, config, snapshot_every=snapshot_every,
                collect_world_counts=True,
            )
            assert _hexed(est.estimates) == _hexed(estimates)
            assert [(t, _hexed(snap)) for t, snap in est.snapshots] == [
                (t, _hexed(snap)) for t, snap in snapshots
            ]
            assert est.world_counts.tolist() == counts.tolist()

    def test_queries_a_strict_subset_of_the_open_atoms(self):
        model, matrix, _ = planted_symmetry_instance((4, 4))
        evidence = matrix_to_evidence("p", matrix)
        atoms = ground(model).condition(evidence).atoms
        # open atoms left out, others asked twice, in no particular order
        queries = [atoms[k] for k in (5, 0, 2, 5, 7, 0, 5)]
        assert len(set(queries)) < len(atoms)
        settings = itertools.product(("rao_blackwell", "frequency"), (0.0, 0.3, 1.0), (0, None))
        self._check(model, evidence, queries, settings, iterations=1500)

    @pytest.mark.parametrize("blocks", [(3, 5), (2, 3, 4)])
    def test_classes_of_unequal_sizes(self, blocks):
        # jumps draw class by class, not as one array shuffle, when the
        # classes differ in size
        model, matrix, queries = planted_symmetry_instance(blocks)
        evidence = matrix_to_evidence("p", matrix)
        classes = constant_symmetry_classes(model, evidence)
        assert sorted(len(c) for c in classes if len(c) > 1) == sorted(blocks)
        settings = itertools.product(("rao_blackwell", "frequency"), (0.3, 1.0), (0, None))
        self._check(model, evidence, queries, settings, iterations=1500)

    def test_memo_holds_one_conditional_per_visited_neighbour_state(self, monkeypatch):
        model, matrix, queries = planted_symmetry_instance((3, 3))
        evidence = matrix_to_evidence("p", matrix)
        cond = ground(model).condition(evidence)
        states = sum(1 << len(near) for near in cond._neighbours)
        calls = []
        real = Conditioned._conditional
        monkeypatch.setattr(
            Conditioned, "_conditional",
            lambda self, column, i: calls.append(i) or real(self, column, i),
        )
        config = ChainConfig(20_000, seed=3, orbital_move_probability=0.3)
        estimate_marginals(model, evidence, queries, config)
        assert 0 < len(calls) <= min(config.iterations, states)
        assert len(calls) < config.iterations // 4


BINARY_OPEN_MODEL = """
domain = a, b, c, d, e, f
pred r/0
pred s/1
pred t/2
pred p/2
0.7 s(X) ^ t(X,Y) => s(Y)
1.1 p(X,Y) => t(X,Y)
-0.4 t(X,X)
0.5 r => s(X)
"""

# p holds exactly within the blocks {a, b, c} and {d, e, f}
BINARY_OPEN_EVIDENCE = "".join(
    f"{'' if (x in 'abc') == (y in 'abc') else '!'}p({x},{y})\n" for x in "abcdef" for y in "abcdef"
)


class TestJumpOverBinaryAtoms:
    """Planted instances leave only unary atoms open; here every t(x, y)
    stays open, so jumps move binary atoms inside and across the two
    classes, and the 0-arity r stays where it is."""

    def _setup(self):
        model, evidence, cond = _conditioned(BINARY_OPEN_MODEL, BINARY_OPEN_EVIDENCE)
        assert sorted(map(len, constant_symmetry_classes(model, evidence))) == [3, 3]
        assert len(cond.atoms) == 1 + 6 + 36
        assert set((cond._relabeling_plan[3] > 0).sum(axis=1).tolist()) == {0, 1, 2}
        return model, evidence, cond

    @pytest.mark.parametrize("estimator", ["rao_blackwell", "frequency"])
    @pytest.mark.parametrize("prob", [0.3, 1.0])
    def test_chain_matches_the_reference_loop(self, estimator, prob):
        model, evidence, _ = self._setup()
        queries = [Atom("r", ()), *(Atom("s", (c,)) for c in "abcdef"),
                   *(Atom("t", args) for args in (("a", "b"), ("a", "d"), ("d", "d"), ("f", "c")))]
        config = ChainConfig(600, seed=31, orbital_move_probability=prob, estimator=estimator)
        est = estimate_marginals(model, evidence, queries, config, snapshot_every=40)
        estimates, snapshots, _ = _reference_chain(model, evidence, queries, config,
                                                   snapshot_every=40)
        assert _hexed(est.estimates) == _hexed(estimates)
        assert [(t, _hexed(snap)) for t, snap in est.snapshots] == [
            (t, _hexed(snap)) for t, snap in snapshots
        ]
        assert len(snapshots) == 14

    def test_relabeled_matches_both_reference_relabelings(self):
        _, _, cond = self._setup()
        rng = np.random.default_rng(41)
        for _ in range(200):
            values = rng.integers(0, 2, size=len(cond.atoms))
            perm = rng.permutation(len(cond.model.domain))
            out = cond.relabeled(values, perm)
            assert out.dtype == np.int64
            assert np.array_equal(out, _relabeled_by_atoms(cond, values, perm))
            assert np.array_equal(out, _relabeled_by_gather(cond, values, perm))
