import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import liftbmf
from liftbmf import experiments, factorize, mln, sampler
from liftbmf.boolmat import BoolMatrix

MODULES = {"liftbmf": liftbmf} | {
    f"liftbmf.{m.name}": importlib.import_module(f"liftbmf.{m.name}")
    for m in pkgutil.iter_modules(liftbmf.__path__)
}
EXPORTING = sorted(name for name, module in MODULES.items() if hasattr(module, "__all__"))

# Wrappers the chain runner never called, replaced by the compiled model's
# own primitives.  Spelled in parts so a text search for the old names
# finds only real leftovers.
REMOVED = {f"{move}_step" for move in ("gibbs", "orbital")} | {"world".title()}
# Helpers nothing in the library called, and the chain result fields
# nothing read.
REMOVED_FIELDS = {"seed", "estimator", "rng_" + "algorithm"}
REMOVED |= {"implied_" + "relation", "evidence_to_" + "matrix", "real_" + "rank",
            "en" + "try", "RNG_" + "ALGORITHM"} | REMOVED_FIELDS
# The chain's copy of the atom layout's constant positions.
REMOVED |= {"_class_" + "positions"}
# File wrappers around the text forms: only the CLI opens files.
REMOVED |= {f"{verb}_{what}" for verb in ("read", "write") for what in ("matrix", "factorization")}
REMOVED |= {"write_" + "csv"}

# The whole parameter list of each function that lost parameters every
# caller left at their defaults: caps and budgets that only tests set are
# module constants.
PARAMETERS = {
    sampler.kld: ("reference", "estimate"),
    experiments.equivalence_check: ("instances", "seed"),
    experiments.planted_symmetry_instance: ("block_sizes",),
    experiments.random_equivalence_instance: ("rng", "max_m"),
    experiments.kld_curve: ("model", "evidence_matrix", "pred", "queries", "ranks", "seeds",
                            "iterations", "snapshot_every", "reference", "orbital_prob",
                            "estimator"),
    mln.ground: ("model",),
    mln.exact_marginals: ("model", "evidence", "queries", "atom_cap"),
    mln.exact_query: ("model", "evidence", "query"),
    mln.enumerate_world_distribution: ("model", "evidence"),
    mln.Model.extended: ("self", "predicates", "hard"),
    sampler.find_consistent_world: ("cond", "rng"),
    factorize.optimal_error_at_rank: ("p", "rank"),
}


def test_the_modules_that_export_are_found():
    assert {"liftbmf", "liftbmf.mln", "liftbmf.sampler", "liftbmf.factorize"} <= set(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_resolves(name):
    module = MODULES[name]
    assert len(set(module.__all__)) == len(module.__all__), f"{name}.__all__ repeats a name"
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", sorted(MODULES))
def test_removed_wrappers_stay_removed(name):
    module = MODULES[name]
    assert REMOVED.isdisjoint(getattr(module, "__all__", ()))
    assert not [n for n in REMOVED if hasattr(module, n)]


def test_conditioned_has_no_world_wrapper():
    assert not hasattr(mln.Conditioned, "world")


def test_removed_members_stay_removed():
    assert not hasattr(BoolMatrix, "en" + "try")
    assert not hasattr(mln.EvidenceSet, "get")
    fields = {f.name for f in dataclasses.fields(sampler.MarginalEstimate)}
    assert REMOVED_FIELDS.isdisjoint(fields)


@pytest.mark.parametrize("function", PARAMETERS, ids=lambda f: f.__name__)
def test_fixed_parameters_stay_removed(function):
    assert tuple(inspect.signature(function).parameters) == PARAMETERS[function]


def test_only_the_cli_opens_files():
    opened = {}
    for path in sorted(pathlib.Path(liftbmf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "open":
                    opened.setdefault(path.name, []).append(node.lineno)
    assert set(opened) == {"cli.py"}, opened


def test_symmetry_classes_live_beside_the_atom_layout():
    from liftbmf import reduction

    assert reduction.constant_symmetry_classes is mln.constant_symmetry_classes
    assert liftbmf.constant_symmetry_classes is mln.constant_symmetry_classes
    assert "constant_symmetry_classes" in mln.__all__
    assert "constant_symmetry_classes" in reduction.__all__


def test_readme_library_sketch_runs():
    # the README's one library example, run as written, so it follows the signatures
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library sketch\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```\n", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md (Library sketch)", "exec"), namespace)
    assert abs(namespace["lhs"] - namespace["rhs"]) <= 1e-9
