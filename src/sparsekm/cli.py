"""Command-line interface.

Subcommands: cluster (feature matrices), fcluster (curves), tune
(sparsity selection), simulate (seeded benchmark reproductions). Exit
codes: 0 on success, 1 when a computation degenerates numerically, 2 for
input or validation problems.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import dataio
from .engine import (
    KMeansConfig,
    soft_sparse_kmeans_mv,
    sparse_kmeans_fd,
    sparse_kmeans_mv,
)
from .errors import NumericalError, ValidationError
from .experiments import (
    default_gaussian_m,
    GAUSSIAN_DEFAULT_S,
    CURVE_DEFAULT_M,
    run_curve_benchmark,
    run_gaussian_benchmark,
)
from .metrics import cer
from .solvers import whole_m
from .tuning import tune_m_fd, tune_m_mv


def _add_engine_args(sub):
    sub.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sub.add_argument("--n-init", type=int, default=10, help="restarts per K-means run")
    sub.add_argument("--max-iter-outer", type=int, default=20)
    sub.add_argument("--max-iter-lloyd", type=int, default=100)


def _cfg_from(args, k: int) -> KMeansConfig:
    return KMeansConfig(
        k=k,
        n_init=args.n_init,
        max_iter_lloyd=args.max_iter_lloyd,
        max_iter_outer=args.max_iter_outer,
        seed=args.seed,
    )


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _wrote(path: Path) -> None:
    print(f"wrote {path}")


def _write_fit(args, result, truth, weights_name, write_weights, summary) -> int:
    """Write labels.csv, the weights file and summary.json, adding the run keys to ``summary``."""
    out = _outdir(args)
    dataio.write_labels(out / "labels.csv", result.partition)
    write_weights(out / weights_name, result.weights)
    summary.update(input=str(args.input), k=args.k, m=args.m, seed=args.seed,
                   iterations=result.iterations, converged=result.converged,
                   objective_trace=list(result.objective_trace))
    if truth is not None:
        summary["cer_vs_truth"] = cer(truth, result.partition)
    dataio.write_summary(out / "summary.json", summary)
    for name in ("labels.csv", weights_name, "summary.json"):
        _wrote(out / name)
    return 0


def cmd_cluster(args) -> int:
    data, truth = dataio.read_mv_csv(args.input, args.truth_col)
    cfg = _cfg_from(args, args.k)
    if args.method == "hard":
        if args.m is None:
            raise ValidationError("--method hard requires --m")
        result = sparse_kmeans_mv(data, args.k, args.m, cfg)
    else:
        if args.s is None:
            raise ValidationError("--method soft requires --s")
        result = soft_sparse_kmeans_mv(data, args.k, args.s, cfg)
    return _write_fit(args, result, truth, "weights.csv", dataio.write_weight_vector, {
        "command": "cluster",
        "method": args.method,
        "s": args.s,
        "n_zero_weights": result.weights.m,
        "support_shrunk": result.weights.support_shrunk,
        "weight_l1_norm": result.weights.l1(),
    })


def cmd_fcluster(args) -> int:
    data = dataio.read_fd_csv(args.input)
    truth = dataio.read_labels(args.truth) if args.truth else None
    result = sparse_kmeans_fd(data, args.k, args.m, _cfg_from(args, args.k))
    return _write_fit(args, result, truth, "weight_function.csv", dataio.write_weight_function, {
        "command": "fcluster",
        "domain_measure": data.domain_measure,
        "support_measure": result.weights.support_measure(),
        "support_intervals": dataio.support_intervals(result.weights),
    })


def _parse_grid(text: str, cast) -> list:
    try:
        return [cast(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"cannot parse --m-grid value {text!r}") from None


def cmd_tune(args) -> int:
    cfg = _cfg_from(args, args.k)
    if args.functional:
        data = dataio.read_fd_csv(args.input)
        mu = data.domain_measure
        grid = (
            _parse_grid(args.m_grid, float)
            if args.m_grid
            else [mu * i / 10.0 for i in range(1, 10)]
        )
        m_star, curve = tune_m_fd(
            data,
            args.k,
            grid,
            b_perms=args.b_perms,
            n_subdomains=args.n_subdomains,
            cfg=cfg,
            one_sd_rule=args.one_sd_rule,
        )
    else:
        data, _ = dataio.read_mv_csv(args.input)
        p = data.n_features
        grid = (
            _parse_grid(args.m_grid, int)
            if args.m_grid
            else sorted({int(round(v)) for v in np.linspace(0, p - 1, 10)})
        )
        m_star, curve = tune_m_mv(
            data,
            args.k,
            grid,
            b_perms=args.b_perms,
            cfg=cfg,
            one_sd_rule=args.one_sd_rule,
        )
    out = _outdir(args)
    dataio.write_gap_curve(out / "gap_curve.csv", curve)
    dataio.write_summary(
        out / "summary.json",
        {
            "command": "tune",
            "input": str(args.input),
            "functional": bool(args.functional),
            "k": args.k,
            "chosen_m": m_star,
            "b_perms": args.b_perms,
            "one_sd_rule": bool(args.one_sd_rule),
            "seed": args.seed,
            "m_grid": list(curve.m_grid),
            "excluded": list(curve.excluded),
        },
    )
    for name in ("gap_curve.csv", "summary.json"):
        _wrote(out / name)
    return 0


def _write_benchmark_outputs(out: Path, records, summaries, sd_zero: bool) -> None:
    with open(out / "runs.csv", "w", newline="") as fh:
        fh.write("run,method,cer\n")
        for rec in records:
            fh.write(f"{rec.run},{rec.method},{rec.cer:.17g}\n")
    with open(out / "report.csv", "w", newline="") as fh:
        fh.write("method,mean_cer,sd_cer\n")
        for s in summaries:
            if math.isnan(s.sd_cer):
                sd = "0" if sd_zero else "NA"
            else:
                sd = f"{s.sd_cer:.17g}"
            fh.write(f"{s.method},{s.mean_cer:.17g},{sd}\n")


def cmd_simulate(args) -> int:
    out = _outdir(args)
    if args.which == "gaussian":
        runs = args.runs if args.runs is not None else 20
        m_used = default_gaussian_m(args.p) if args.m is None else whole_m(args.m)
        s_used = GAUSSIAN_DEFAULT_S if args.s is None else float(args.s)
        records, summaries, details = run_gaussian_benchmark(
            args.p,
            runs=runs,
            seed=args.seed,
            m=m_used,
            s=s_used,
            keep_details=args.dump_data,
        )
        meta = {"p": args.p, "m": m_used, "s": s_used}
        if args.dump_data:
            for det in details:
                dataio.write_mv_csv(out / f"data_run{det.run:02d}.csv", det.data, det.truth)
    else:
        runs = args.runs if args.runs is not None else 10
        m_used = CURVE_DEFAULT_M if args.m is None else float(args.m)
        records, summaries, details = run_curve_benchmark(
            runs=runs, seed=args.seed, m=m_used, keep_details=args.dump_data
        )
        meta = {"m": m_used}
        if args.dump_data:
            for det in details:
                dataio.write_fd_csv(out / f"curves_run{det.run:02d}.csv", det.data)
                dataio.write_labels(out / f"truth_run{det.run:02d}.csv", det.truth)
    _write_benchmark_outputs(out, records, summaries, args.sd_zero)
    dataio.write_summary(
        out / "summary.json",
        {
            "command": "simulate",
            "which": args.which,
            "runs": runs,
            "seed": args.seed,
            **meta,
            "report": [
                {
                    "method": s.method,
                    "mean_cer": s.mean_cer,
                    "sd_cer": s.sd_cer,
                    "n_runs": s.n_runs,
                }
                for s in summaries
            ],
        },
    )
    for name in ("report.csv", "runs.csv", "summary.json"):
        _wrote(out / name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsekm",
        description="Sparse K-means with hard feature thresholding, "
        "for vectors and grid-sampled curves.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    cluster = subs.add_parser("cluster", help="cluster a feature matrix CSV")
    cluster.add_argument("--input", required=True)
    cluster.add_argument("--k", type=int, required=True, help="number of clusters")
    cluster.add_argument("--method", choices=["hard", "soft"], default="hard")
    cluster.add_argument("--m", type=int, default=None, help="features to zero out (hard)")
    cluster.add_argument("--s", type=float, default=None, help="L1 budget (soft)")
    cluster.add_argument("--truth-col", default=None, help="label column (name or 0-based index)")
    cluster.add_argument("--out", default=".", help="output directory (default .)")
    _add_engine_args(cluster)
    cluster.set_defaults(func=cmd_cluster)

    fcluster = subs.add_parser("fcluster", help="cluster a curves CSV")
    fcluster.add_argument("--input", required=True)
    fcluster.add_argument("--k", type=int, required=True)
    fcluster.add_argument("--m", type=float, required=True, help="domain measure to zero out")
    fcluster.add_argument("--truth", default=None, help="optional labels file for CER")
    fcluster.add_argument("--out", default=".")
    _add_engine_args(fcluster)
    fcluster.set_defaults(func=cmd_fcluster)

    tune = subs.add_parser("tune", help="pick the sparsity level by permutation gap")
    tune.add_argument("--input", required=True)
    tune.add_argument("--functional", action="store_true", help="input is a curves CSV")
    tune.add_argument("--k", type=int, required=True)
    tune.add_argument("--m-grid", default=None, help="comma-separated candidate levels")
    tune.add_argument("--b-perms", type=int, default=20)
    tune.add_argument("--n-subdomains", type=int, default=20)
    tune.add_argument("--one-sd-rule", action="store_true")
    tune.add_argument("--out", default=".")
    _add_engine_args(tune)
    tune.set_defaults(func=cmd_tune)

    simulate = subs.add_parser("simulate", help="run a seeded benchmark reproduction")
    simulate.add_argument("which", choices=["gaussian", "curves"])
    simulate.add_argument("--p", type=int, default=50, help="dimension (gaussian only)")
    simulate.add_argument("--runs", type=int, default=None)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--m", type=float, default=None, help="override the sparsity level")
    simulate.add_argument("--s", type=float, default=None, help="override the soft L1 budget")
    simulate.add_argument("--dump-data", action="store_true", help="write per-run datasets")
    simulate.add_argument("--sd-zero", action="store_true", help="report sd 0 instead of NA for single runs")
    simulate.add_argument("--out", default=".")
    simulate.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
