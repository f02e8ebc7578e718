"""Command-line surface tying the studies together.

Subcommands: simulate, fit, replicate, sensitivity, resample.
Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

import argparse
import functools
import sys

from .em import EMConfig, fit
from .errors import FactorEMError
from .evaluate import kfold_resample, replicate_study, sensitivity_sweep
from .io import (
    load_dataset,
    write_dataset,
    write_fit,
    write_resample,
    write_study,
)
from .model import Dimensions
from .simulate import SimConfig, simulate_dataset


def _square_dimensions(args) -> Dimensions:
    return Dimensions(
        n=args.n, p=args.p, q_y=args.q, q_m=(args.q,) * args.p,
        r_t=args.r, r_m=(args.r,) * args.p,
    )


def _em_config(args) -> EMConfig:
    return EMConfig(epsilon=args.epsilon, max_iter=args.max_iter)


def _sim_config(args) -> SimConfig:
    return SimConfig(dims=_square_dimensions(args), seed=args.seed,
                     intercept=args.intercept)


def _some_fit_succeeded(failures: list[str], fits: int) -> None:
    """Raise FactorEMError, naming the first failure, if all ``fits`` failed."""
    if len(failures) == fits:
        raise FactorEMError(f"all {fits} fits failed; the first: {failures[0]}")


def _cmd_simulate(args) -> int:
    data, latents, theta = simulate_dataset(_sim_config(args))
    write_dataset(data, args.out, latents=latents, theta=theta)
    print(f"wrote {data.n}x{data.dimensions().q_total} dataset to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    data, columns = load_dataset(args.data)
    result = fit(data, data.dimensions(), _em_config(args))
    write_fit(result, args.out, columns=columns)
    status = "converged" if result.converged else "did not converge"
    print(f"{status} after {result.iterations} iterations; wrote {args.out}")
    return 0


def _cmd_replicate(args) -> int:
    summary = replicate_study(_sim_config(args), _em_config(args), args.replicates)
    summary.cell = f"n={args.n},q={args.q}"
    write_study([summary], args.out)
    _some_fit_succeeded(summary.failures, summary.replicates)
    q1, med, q3 = summary.deviation_quartiles()
    print(f"avg |rel deviation| quartiles: {q1:.4f} {med:.4f} {q3:.4f}")
    q1, med, q3 = summary.sq_corr_quartiles()
    print(f"squared factor correlation quartiles: {q1:.4f} {med:.4f} {q3:.4f}")
    return 0


def _cmd_sensitivity(args) -> int:
    summaries = sensitivity_sweep(
        args.n_values, args.q_values, _sim_config(args), _em_config(args),
        args.replicates,
    )
    write_study(summaries, args.out)
    _some_fit_succeeded([f for s in summaries for f in s.failures],
                        sum(s.replicates for s in summaries))
    for summary in summaries:
        _, med, _ = summary.sq_corr_quartiles()
        print(f"{summary.cell}: median squared factor correlation {med:.4f}")
    return 0


def _cmd_resample(args) -> int:
    data, _ = load_dataset(args.data)
    sample_size = data.n // 2 if args.sample_size is None else args.sample_size
    summary = kfold_resample(
        data, _em_config(args), k=args.k, sample_size=sample_size, seed=args.seed,
    )
    write_resample(summary, args.out)
    _some_fit_succeeded(summary.failures, summary.k)
    print(f"parameter estimate correlation median: {summary.medians()['param_corr']:.4f}")
    return 0


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )


def _add_em_flags(parser):
    parser.add_argument("--epsilon", type=float, default=EMConfig.epsilon,
                        help="stopping threshold (default %(default)s)")
    parser.add_argument("--max-iter", type=int, default=EMConfig.max_iter)


def _add_design_flags(parser):
    parser.add_argument("--n", type=int, default=400, help="number of units")
    parser.add_argument("--q", type=int, default=40, help="width of every block")
    parser.add_argument("--p", type=int, default=2, help="number of explanatory blocks")
    parser.add_argument("--r", type=int, default=2, help="covariate width of every block")
    parser.add_argument("--intercept", action="store_true",
                        help="first covariate column is the constant 1")


@functools.cache  # built once per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorem",
        description="EM estimation of a latent-factor structural equation model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    _add_design_flags(p_sim)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit the model to a dataset")
    p_fit.add_argument("--data", required=True,
                       help="dataset directory or manifest file")
    p_fit.add_argument("--out", required=True)
    _add_em_flags(p_fit)
    p_fit.set_defaults(handler=_cmd_fit)

    p_rep = sub.add_parser("replicate", help="replication study against known truth")
    _add_design_flags(p_rep)
    p_rep.add_argument("--replicates", type=int, default=20)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--out", required=True)
    _add_em_flags(p_rep)
    p_rep.set_defaults(handler=_cmd_replicate)

    p_sens = sub.add_parser("sensitivity", help="sweep unit count and block width")
    _add_design_flags(p_sens)
    p_sens.add_argument("--n-values", type=_int_list, default="50,100,200,400",
                        help="comma-separated unit counts (block width fixed at --q)")
    p_sens.add_argument("--q-values", type=_int_list, default="5,10,20,40",
                        help="comma-separated block widths (unit count fixed at --n)")
    p_sens.add_argument("--replicates", type=int, default=20)
    p_sens.add_argument("--seed", type=int, default=0)
    p_sens.add_argument("--out", required=True)
    _add_em_flags(p_sens)
    p_sens.set_defaults(handler=_cmd_sensitivity)

    p_res = sub.add_parser("resample", help="subsample stability versus the full fit")
    p_res.add_argument("--data", required=True,
                       help="dataset directory or manifest file")
    p_res.add_argument("--k", type=int, default=5, help="number of subsamples")
    p_res.add_argument("--sample-size", type=int, default=None,
                       help="units per subsample (default n/2)")
    p_res.add_argument("--seed", type=int, default=0)
    p_res.add_argument("--out", required=True)
    _add_em_flags(p_res)
    p_res.set_defaults(handler=_cmd_resample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return 0 if exc.code == 0 else 1
    try:
        return args.handler(args)
    except (FactorEMError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
