"""Command-line surface: rank, factorize, reduce, infer, gen, experiment.

Exit codes: 0 success, 1 input error, 2 capability refusal (size, search or
flip caps), 3 proven inconsistency (zero partition mass).  Flags beat LIFTBMF_*
environment variables, which beat built-in defaults.
"""
from __future__ import annotations

import argparse
import itertools
import os
import shlex
import sys

from . import experiments, factorize, mln, reduction, sampler
from .boolmat import flip_counts, read_matrix, write_matrix
from .errors import (CapacityError, InconsistencyError, InputError, LiftBmfError, read_integer,
                     read_real)

ENV_PREFIX = "LIFTBMF_"


# argparse names the cast when it refuses a flag: "invalid integer value: '1_0'"
def integer(text: str) -> int:
    return read_integer(text, f"expected an integer, got {text!r}")


def real(text: str) -> float:
    return read_real(text, f"expected a real number, got {text!r}")


def _int_list(text: str) -> tuple[int, ...]:
    message = f"expected a comma-separated integer list, got {text!r}"
    return tuple(read_integer(p.strip(), message) for p in text.split(",") if p.strip())


def _planted_recipe(text: str) -> tuple[int, int, float]:
    message = f"expected m,rank,noise, got {text!r}"
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise InputError(message)
    m, rank, noise = parts
    return read_integer(m, message), read_integer(rank, message), read_real(noise, message)


def _option(p, *flags, cast=str, choices=None, env: str | None = None, default=None, **kwargs):
    """Add an option read by `cast` and checked against `choices`; a set
    LIFTBMF_<env> replaces `default` and is read and checked the same way."""
    raw = os.environ.get(ENV_PREFIX + env) if env else None
    if raw is not None:
        try:
            default = cast(raw)
        except ValueError:
            raise InputError(f"bad value for {ENV_PREFIX}{env}: {raw!r}") from None
        if choices is not None and default not in choices:
            raise InputError(
                f"bad value for {ENV_PREFIX}{env}: {raw!r} (choose from {', '.join(choices)})"
            )
    p.add_argument(*flags, type=cast, choices=choices, default=default, **kwargs)


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors, not capability refusals
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


# --- subcommand implementations ---------------------------------------------


def _cmd_rank(args) -> int:
    matrix = read_matrix(args.matrix)
    rank, witness = factorize.exact_boolean_rank(
        matrix, max_search=args.max_search, size_cap=args.size_cap
    )
    if args.witness:
        factorize.write_factorization(witness, args.witness)
    print(rank)
    return 0


def _cmd_factorize(args) -> int:
    matrix = read_matrix(args.matrix)
    if args.exact:
        _, fact = factorize.exact_boolean_rank(
            matrix, max_search=args.max_search, size_cap=args.size_cap
        )
    else:
        params = factorize.AssoParams(
            tau=args.tau, w_plus=args.w_plus, w_minus=args.w_minus, max_rank=args.rank
        )
        fact = factorize.asso_factorize(matrix, params)
    factorize.write_factorization(fact, args.output)
    counts = flip_counts(matrix, fact.reconstruct())
    print(f"{fact.rank()} {counts.total} {counts.ones_to_zeros} {counts.zeros_to_ones}")
    return 0


def _cmd_reduce(args) -> int:
    fact = factorize.read_factorization(args.factorization)
    result = reduction.encode_evidence(args.predicate, fact)
    model_path = args.output_prefix + ".model"
    evidence_path = args.output_prefix + ".evidence"
    lines = [f"# reduction fragment: predicate {args.predicate}, rank {result.rank_used}"]
    for name, arity in result.fresh_predicates:
        lines.append(f"pred {name}/{arity}")
    for f in result.added_formulas:
        lines.append(f"hard {mln.format_formula(f)}")
    with open(model_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(evidence_path, "w", encoding="utf-8") as fh:
        fh.write(result.unary_evidence.to_text())
    print(model_path)
    print(evidence_path)
    return 0


def _cmd_infer(args) -> int:
    model = mln.parse_model(_read_text(args.model))
    evidence = mln.parse_evidence(_read_text(args.evidence), model)
    queries = [mln.parse_literal(q, model, where=f"query {q!r}") for q in args.query]
    atoms = [atom for atom, _ in queries]
    if args.method == "exact":
        marginals = mln.exact_marginals(model, evidence, atoms, atom_cap=args.atom_cap)
    else:
        orbital = args.orbital_prob if args.method == "orbital-gibbs" else 0.0
        config = sampler.ChainConfig(
            iterations=args.iters,
            burn_in=args.burnin,
            seed=args.seed,
            orbital_move_probability=orbital,
            estimator=args.estimator,
        )
        marginals = sampler.estimate_marginals(model, evidence, atoms, config).estimates
    for atom, value in queries:
        p = marginals[atom] if value else 1.0 - marginals[atom]
        print(f"{mln.format_literal(atom, value)} {format(p, '.9g')}")
    return 0


def _cmd_gen(args) -> int:
    matrix, meta = experiments.gen_synthetic(
        args.size, args.rank, args.noise, args.seed, fill_target=args.fill
    )
    header = "gen " + " ".join(f"{k}={v}" for k, v in meta.items())
    write_matrix(matrix, args.output, comments=[header])
    return 0


def _invocation(argv) -> str:
    return "liftbmf " + shlex.join(argv)


def _cmd_experiment_error_curve(args) -> int:
    if bool(args.matrix) == bool(args.planted):
        raise InputError("give either --matrix files or a --planted recipe")
    if args.matrix:
        matrices = [read_matrix(p) for p in args.matrix]
    else:
        m, rank, noise = args.planted
        matrices = [
            experiments.planted_block_matrix(m, rank, noise, seed)[0]
            for seed in args.seeds or (0,)
        ]
    params = factorize.AssoParams(tau=args.tau, w_plus=args.w_plus, w_minus=args.w_minus)
    rows = experiments.error_curve(matrices, args.ranks, params)
    experiments.write_csv(
        args.output, ("rank", "error"), rows, invocation=_invocation(args.argv)
    )
    return 0


def _cmd_experiment_kld_curve(args) -> int:
    model = mln.parse_model(_read_text(args.model))
    matrix = read_matrix(args.matrix)
    arity = model.predicates.get(args.query_pred)
    if arity is None:
        raise InputError(f"unknown query predicate {args.query_pred!r}")
    queries = [
        mln.Atom(args.query_pred, combo)
        for combo in itertools.product(model.domain, repeat=arity)
    ]
    rows = experiments.kld_curve(
        model,
        matrix,
        args.predicate,
        queries,
        args.ranks,
        args.seeds,
        iterations=args.iters,
        snapshot_every=args.snapshot_every,
        reference=args.reference,
        orbital_prob=args.orbital_prob,
        estimator=args.estimator,
    )
    experiments.write_csv(
        args.output,
        ("iteration", "method", "rank", "kld"),
        rows,
        invocation=_invocation(args.argv),
    )
    return 0


def _cmd_experiment_equivalence(args) -> int:
    rows = experiments.equivalence_check(args.instances, args.seed)
    experiments.write_csv(
        args.output,
        ("instance", "max_abs_diff", "pass"),
        rows,
        invocation=_invocation(args.argv),
    )
    return 0


# --- parser wiring ------------------------------------------------------------


def _add_factorize_flags(p: _Parser) -> None:
    _option(p, "--tau", env="TAU", default=0.7, cast=real)
    _option(p, "--w-plus", env="W_PLUS", default=1.0, cast=real)
    _option(p, "--w-minus", env="W_MINUS", default=1.0, cast=real)


def _add_search_flags(p: _Parser) -> None:
    _option(p, "--size-cap", env="SIZE_CAP", default=factorize.DEFAULT_SIZE_CAP, cast=integer)
    _option(p, "--max-search", env="MAX_SEARCH", default=factorize.DEFAULT_MAX_SEARCH,
            cast=integer)


def _add_chain_flags(p: _Parser) -> None:
    _option(p, "--iters", env="ITERS", default=20000, cast=integer)
    _option(p, "--orbital-prob", env="ORBITAL_PROB", default=0.1, cast=real)
    _option(p, "--estimator", env="ESTIMATOR", default="rao_blackwell",
            choices=("frequency", "rao_blackwell"))


def build_parser() -> _Parser:
    parser = _Parser(prog="liftbmf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("rank", help="exact Boolean rank of a matrix file")
    p.add_argument("matrix")
    p.add_argument("--witness", help="write the witness factorization here")
    _add_search_flags(p)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("factorize", help="approximate (or exact) factorization")
    p.add_argument("matrix")
    p.add_argument("-o", "--output", required=True)
    _option(p, "--rank", env="MAX_RANK", default=None, cast=integer)
    p.add_argument("--exact", action="store_true", help="use the exact solver")
    _add_factorize_flags(p)
    _add_search_flags(p)
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("reduce", help="encode a factorization as unary evidence")
    p.add_argument("factorization")
    p.add_argument("--predicate", required=True)
    p.add_argument("-o", "--output-prefix", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("infer", help="query a model given evidence")
    p.add_argument("model")
    p.add_argument("evidence")
    p.add_argument("--query", action="append", required=True)
    _option(p, "--method", env="METHOD", default="exact",
            choices=("exact", "gibbs", "orbital-gibbs"))
    _option(p, "--atom-cap", env="ATOM_CAP", default=mln.DEFAULT_ATOM_CAP, cast=integer)
    _add_chain_flags(p)
    _option(p, "--burnin", env="BURNIN", default=None, cast=integer)
    _option(p, "--seed", env="SEED", default=0, cast=integer)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("gen", help="synthetic planted-rank evidence matrix")
    _option(p, "-m", "--size", cast=integer, required=True)
    _option(p, "--rank", cast=integer, required=True)
    _option(p, "--noise", cast=real, default=0.0)
    _option(p, "--seed", env="SEED", default=0, cast=integer)
    _option(p, "--fill", cast=real, default=0.35)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("experiment", help="curve sweeps written as CSV")
    esub = p.add_subparsers(dest="experiment", required=True, parser_class=_Parser)

    e = esub.add_parser("error-curve", help="reconstruction error vs rank")
    e.add_argument("--matrix", action="append", help="matrix file (repeatable)")
    _option(e, "--planted", cast=_planted_recipe,
            help="block-plant matrices instead of reading them: m,rank,noise")
    _option(e, "--ranks", cast=_int_list, required=True)
    _option(e, "--seeds", cast=_int_list, default=())
    e.add_argument("-o", "--output", required=True)
    _add_factorize_flags(e)
    e.set_defaults(func=_cmd_experiment_error_curve)

    e = esub.add_parser("kld-curve", help="KLD vs iteration for rank approximations")
    e.add_argument("--model", required=True)
    e.add_argument("--matrix", required=True, help="binary evidence matrix file")
    e.add_argument("--predicate", required=True, help="evidence predicate name")
    e.add_argument("--query-pred", required=True)
    _option(e, "--ranks", cast=_int_list, required=True)
    _option(e, "--seeds", cast=_int_list, required=True)
    _option(e, "--snapshot-every", cast=integer, default=1000)
    _option(e, "--reference", choices=("exact", "self"), default="exact")
    _add_chain_flags(e)
    e.add_argument("-o", "--output", required=True)
    e.set_defaults(func=_cmd_experiment_kld_curve)

    e = esub.add_parser("equivalence-check", help="reduction preserves conditionals")
    _option(e, "--instances", cast=integer, default=200)
    _option(e, "--seed", env="SEED", default=0, cast=integer)
    e.add_argument("-o", "--output", required=True)
    e.set_defaults(func=_cmd_experiment_equivalence)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        args.argv = argv
        return args.func(args)
    except SystemExit as exc:  # argparse usage errors and --help
        return int(exc.code or 0)
    except CapacityError as exc:
        print(f"liftbmf: refused: {exc}", file=sys.stderr)
        return 2
    except InconsistencyError as exc:
        print(f"liftbmf: inconsistent: {exc}", file=sys.stderr)
        return 3
    except (LiftBmfError, OSError) as exc:
        print(f"liftbmf: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
