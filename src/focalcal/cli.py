"""Command-line front-end.

Exit codes: 0 success, 1 validation error, 2 numerical non-convergence.
Reports are written atomically (temp file in the target directory, then
rename). Floats in CSV output use 17 significant digits so runs are
byte-reproducible.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import os
import sys
import tempfile

import numpy as np

from ._common import ConvergenceError
from .calibrate import apply_temperature, pgap, temperature_scan
from .data import (DataFormatError, PredictionSet, SyntheticConfig, generate,
                   load_points, load_predictions, save_points)
from .losses import FAMILIES, LossSpec
from .metrics import (DEFAULT_BINS, BinningConfig, auroc, compute_report, ece,
                      reliability_table, smce)
from .theory import SigmaSpec, minimize_risk, optimal_curve, sigma_root
from .train import MLPConfig, ModelState, decision_grid, lambda_sweep, split_points, train


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-focalcal-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _csv(header: list[str], rows: list[list]) -> str:
    """One ``%`` format: ``%.17g`` where the first row holds a float, else ``%d``."""
    line = ",".join("%.17g" if isinstance(v, float) else "%d" for v in rows[0]) + "\n"
    cells = tuple(itertools.chain.from_iterable(rows))
    return ",".join(header) + "\n" + (line * len(rows)) % cells


def _payload(obj):
    """The JSON value of a result.

    A dataclass becomes a dict of its fields, less those marked
    ``metadata={"payload": False}``; an ndarray becomes its ``tolist()``; a
    list or tuple becomes a list. Anything else is returned as it is.
    """
    if dataclasses.is_dataclass(obj):
        return {f.name: _payload(getattr(obj, f.name)) for f in dataclasses.fields(obj)
                if f.metadata.get("payload", True)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_payload(v) for v in obj]
    return obj


def _json_text(obj) -> str:
    return json.dumps(_payload(obj), indent=2, sort_keys=True) + "\n"


def _print_config(args: argparse.Namespace) -> None:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"config: {json.dumps(cfg, sort_keys=True)}")


def _loss_spec(args) -> LossSpec:
    return LossSpec(family=args.loss, gamma=args.gamma, lam=args.lam,
                    alpha=getattr(args, "alpha", 0.0))


def _load(args) -> PredictionSet:
    return load_predictions(args.input, format=args.format, input_kind=args.input_kind)


def _add_input_flags(p):
    p.add_argument("--input", required=True, help="prediction log path")
    p.add_argument("--format", default="rows-json", choices=["rows-json", "rows-csv"])
    p.add_argument("--input-kind", dest="input_kind", default="probs",
                   choices=["probs", "logits"])


def _add_loss_flags(p, default_family="fcl"):
    p.add_argument("--loss", default=default_family, choices=FAMILIES)
    # defaults follow the reported hyperparameter table (gamma 3, lambda 0.5)
    p.add_argument("--gamma", type=float, default=3.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=0.05)


def cmd_metrics(args):
    pset = _load(args)
    cfg = BinningConfig(bins=args.bins, scheme=args.scheme)
    report = compute_report(pset, cfg, cwece_norm=args.cwece_norm)
    _emit(_json_text(report), args.out)
    return 0


def cmd_reliability(args):
    pset = _load(args)
    bins = reliability_table(pset, BinningConfig(bins=args.bins))
    rows = [[b.lo, b.hi, b.count, b.accuracy, b.confidence,
             b.accuracy - b.confidence] for b in bins]
    _emit(_csv(["lo", "hi", "count", "accuracy", "confidence", "gap"], rows), args.out)
    return 0


def cmd_smce(args):
    _emit(_json_text(smce(_load(args))), args.out)
    return 0


def cmd_temp_scale(args):
    val = load_predictions(args.val, format=args.format, input_kind="logits")
    cfg = BinningConfig(bins=args.bins)
    scan = temperature_scan(val, cfg, t_min=args.t_min, t_max=args.t_max,
                            t_step=args.t_step)
    result = _payload(scan)
    if args.test:
        test = load_predictions(args.test, format=args.format, input_kind="logits")
        # loading already took the softmax of the logits as given (T = 1)
        result["test_pre_ece"] = ece(test, cfg)
        result["test_post_ece"] = ece(apply_temperature(test, scan.best_t), cfg)
    _emit(_json_text(result), args.out)
    if args.grid_out:
        _atomic_write(args.grid_out, _csv(["t", "ece"], [[r["t"], r["ece"]] for r in scan.grid]))
    return 0


def cmd_pgap(args):
    _emit(_json_text(pgap(_load(args), _loss_spec(args))), args.out)
    return 0


def cmd_minimize(args):
    eta = np.array([float(v) for v in args.eta.split(",")])
    res = minimize_risk(_loss_spec(args), eta)
    _emit(_json_text(res), args.out)
    return 0 if res.converged else 2


def cmd_curve(args):
    if not args.step > 0.0:
        raise ValueError("--step must be > 0")
    grid = np.round(np.arange(0.0, 1.0 + args.step / 2, args.step), 12)
    curve = optimal_curve(_loss_spec(args), grid)
    _emit(_csv(["q", "p_hat_star"], [[q, p] for q, p in curve]), args.out)
    return 0


def cmd_sigma_root(args):
    root = sigma_root(SigmaSpec(gamma=args.gamma, lam=args.lam))
    print(_fmt(root))
    return 0


def cmd_synth(args):
    cfg = SyntheticConfig(kind=args.kind, n=args.n, noise=args.noise,
                          seed=args.seed, class_sep=args.class_sep)
    save_points(generate(cfg), args.out)
    return 0


def cmd_train(args):
    points = load_points(args.data)
    tr, va, te = split_points(points, args.seed)
    cfg = MLPConfig(seed=args.seed, epochs=args.epochs, lr=args.lr)
    model, history = train(cfg, _loss_spec(args), tr, te)
    if args.out_model:
        _atomic_write(args.out_model, _json_text(model))
    if args.out_history:
        rows = [[r["epoch"], r["train_loss"], r["test_loss"], r["test_ece"],
                 r["test_nll"], r["test_error"]] for r in history.epochs]
        _atomic_write(args.out_history, _csv(
            ["epoch", "train_loss", "test_loss", "test_ece", "test_nll", "test_error"], rows))
    final = history.epochs[-1]
    print(f"final: train_loss={_fmt(final['train_loss'])} "
          f"test_ece={_fmt(final['test_ece'])} test_error={_fmt(final['test_error'])}")
    return 0


def cmd_boundary(args):
    model = ModelState.load(args.model)
    bounds = tuple(float(v) for v in args.bounds.split(","))
    if len(bounds) != 4:
        raise ValueError("--bounds must be x0_min,x0_max,x1_min,x1_max")
    points, probs = decision_grid(model, bounds, args.resolution)
    header = ["x0", "x1"] + [f"p_{i}" for i in range(probs.shape[1])]
    _emit(_csv(header, np.column_stack([points, probs]).tolist()), args.out)
    return 0


def cmd_sweep(args):
    points = load_points(args.data)
    gammas = [float(v) for v in args.gammas.split(",")]
    lambdas = [float(v) for v in args.lambdas.split(",")]
    cfg = MLPConfig(seed=args.seed, epochs=args.epochs, lr=args.lr)
    rows = lambda_sweep(cfg, gammas, lambdas, points)
    header = ["gamma", "lambda", "best_t", "pre_ece", "post_ece",
              "adaece", "cwece", "nll", "error"]
    _emit(_csv(header, [[r[h] for h in header] for r in rows]), args.out)
    return 0


def cmd_auroc(args):
    pos = np.loadtxt(args.pos, ndmin=1)
    neg = np.loadtxt(args.neg, ndmin=1)
    print(_fmt(auroc(pos, neg)))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and kept for the process."""
    ap = argparse.ArgumentParser(prog="focalcal",
                                 description="calibration toolkit CLI")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("metrics", help="full metric report as JSON")
    _add_input_flags(p)
    p.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p.add_argument("--scheme", default="equal_width", choices=["equal_width", "equal_mass"])
    p.add_argument("--cwece-norm", dest="cwece_norm", default="global",
                   choices=["global", "per-class"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("reliability", help="reliability-diagram table as CSV")
    _add_input_flags(p)
    p.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p.add_argument("--out")
    p.set_defaults(func=cmd_reliability)

    p = sub.add_parser("smce", help="smooth calibration error with witness")
    _add_input_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_smce)

    p = sub.add_parser("temp-scale", help="temperature grid search on validation logits")
    p.add_argument("--val", required=True)
    p.add_argument("--test")
    p.add_argument("--format", default="rows-json", choices=["rows-json", "rows-csv"])
    p.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p.add_argument("--t-min", dest="t_min", type=float, default=0.1)
    p.add_argument("--t-max", dest="t_max", type=float, default=10.0)
    p.add_argument("--t-step", dest="t_step", type=float, default=0.1)
    p.add_argument("--out")
    p.add_argument("--grid-out", dest="grid_out")
    p.set_defaults(func=cmd_temp_scale)

    p = sub.add_parser("pgap", help="post-processing gap of a binary prediction set")
    _add_input_flags(p)
    _add_loss_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pgap)

    p = sub.add_parser("minimize", help="simplex risk minimizer for a posterior")
    p.add_argument("--eta", required=True, help="comma-separated posterior")
    _add_loss_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("curve", help="binary optimal-prediction curve as CSV")
    _add_loss_flags(p)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--out")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("sigma-root", help="unique interior zero of sigma")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.set_defaults(func=cmd_sigma_root)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--kind", required=True, choices=["moons", "gauss2"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--class-sep", dest="class_sep", type=float, default=2.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the toy MLP on a point file")
    p.add_argument("--data", required=True)
    _add_loss_flags(p)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--out-model", dest="out_model")
    p.add_argument("--out-history", dest="out_history")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("boundary", help="decision grid of a saved model as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--resolution", type=int, default=100)
    p.add_argument("--bounds", default="-1.5,2.5,-1.0,1.5")
    p.add_argument("--out")
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("sweep", help="gamma/lambda training sweep as CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--gammas", default="3.0")
    p.add_argument("--lambdas", default="0.0,0.5,1.0,1.5")
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("auroc", help="Mann-Whitney AUROC of two score files")
    p.add_argument("--pos", required=True)
    p.add_argument("--neg", required=True)
    p.set_defaults(func=cmd_auroc)

    return ap


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _print_config(args)
    try:
        return args.func(args)
    except (DataFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
