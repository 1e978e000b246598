"""Command line: fit declarative model configs, predict, calibrate, diagnose.

Four subcommands share one executable:

* ``iterlace fit -m model.json -o out/`` fits a config and writes
  ``fit.json`` (self-contained: it embeds the config, data tables and
  graphs it was built from), ``convergence.csv`` and ``log.txt``.
* ``iterlace predict -f out/fit.json -e "~ exp(beta + w)"`` samples an
  expression from the posterior and writes a CSV of summaries.
* ``iterlace sbc -m model.json -K 200 -J 1000 -o sbc/`` runs
  simulation-based calibration.
* ``iterlace diagnose -f out/fit.json -o diag.json`` reports the
  linearisation error measures.

Exit codes: 0 on success, 1 for usage errors, 2 for anything that
fails after argument parsing; failures print an error JSON object.
"""

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np
from numpy.random import default_rng

from .calibration import sbc_run
from .config import (
    ConfigError,
    ModelSpec,
    bind_new_inputs,
    build_model,
    canonical_json,
    graph_from_dict,
    graph_to_dict,
    load_model,
    read_table,
    table_from_lists,
    table_to_lists,
)
from .diagnostics import kl_divergences, linearisation_deviation
from .engine import fit, generate, predict_summary
from .exprs import parse_expr

__all__ = ["main", "cmd_fit", "cmd_predict", "cmd_sbc", "cmd_diagnose"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _u64(text):
    value = int(text)
    if not 0 <= value < 2**64:
        raise ValueError("seed must fit an unsigned 64-bit integer")
    return value


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise ValueError("must be positive")
    return value


def _quantile_list(text):
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise ValueError("needs at least one quantile")
    pairs = []
    for tok in tokens:
        p = float(tok)
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile {tok} not strictly between 0 and 1")
        pairs.append((tok, p))
    return pairs


def _build_cli():
    top = _Parser(
        prog="iterlace",
        description="latent Gaussian models with non-linear predictors",
    )
    top.add_argument("--seed", type=_u64, default=None,
                     help="override the config's seed")
    sub = top.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("fit", help="fit a model config")
    p.add_argument("-m", "--model", required=True, help="model config JSON")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="posterior summaries of an expression")
    p.add_argument("-f", "--fit", required=True, help="fit.json from a fit run")
    p.add_argument("-e", "--expr", required=True, help='expression, e.g. "~ exp(beta + w)"')
    p.add_argument("-d", "--data", default=None, help="CSV of new prediction rows")
    p.add_argument("-n", "--n-samples", type=_positive_int, default=1000,
                   help="posterior draws (default 1000)")
    p.add_argument("-q", "--quantiles", type=_quantile_list,
                   default=_quantile_list("0.025,0.5,0.975"),
                   help="comma-separated quantile levels (default 0.025,0.5,0.975)")
    p.add_argument("-o", "--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sbc", help="simulation-based calibration")
    p.add_argument("-m", "--model", required=True, help="model config JSON")
    p.add_argument("-K", "--replicates", type=_positive_int, default=100,
                   help="prior-predictive replicates (default 100)")
    p.add_argument("-J", "--samples", type=_positive_int, default=100,
                   help="posterior draws per replicate (default 100)")
    p.add_argument("--functional", default=None,
                   help="expression whose posterior is calibrated "
                        "(default: the first component)")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sbc)

    p = sub.add_parser("diagnose", help="linearisation error measures")
    p.add_argument("-f", "--fit", required=True, help="fit.json from a fit run")
    p.add_argument("-o", "--out", required=True, help="output JSON file")
    p.set_defaults(func=cmd_diagnose)

    return top


def _emit_error(kind, message, where=None):
    err = {"type": kind, "message": str(message)}
    if where:
        err["where"] = where
    sys.stdout.write(canonical_json({"error": err}))


def main(argv=None):
    try:
        args = _build_cli().parse_args(argv)
    except _UsageError as err:
        _emit_error("usage", err)
        return 1
    try:
        return args.func(args)
    except ConfigError as err:
        _emit_error("config", err.message, where=err.where)
        return 2
    except Exception as err:  # noqa: BLE001 -- every failure becomes error JSON
        _emit_error("runtime", err)
        return 2


# --- fit -------------------------------------------------------------------

def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def fit_document(built, result, seed):
    """The fit as one self-contained JSON document.

    ``inputs`` embeds the validated config, the data tables and the
    graphs, so predict/diagnose can rebuild the model and replay the
    (deterministic) fit without the original files.
    """
    model = built.model
    components = {}
    for name, (start, end) in model.offsets.items():
        components[name] = {
            "mean": result.latent_mean[start:end],
            "sd": result.latent_sd[start:end],
        }
    return {
        "converged": result.converged,
        "convergence": [dataclasses.asdict(r) for r in result.records],
        "components": components,
        "hyperparameters": result.hyper_summary,
        "theta_grid": {
            "names": result.theta_names,
            "points": [p.theta for p in result.grid],
            "weights": [p.weight for p in result.grid],
            "log_post": [p.log_post for p in result.grid],
        },
        "log": result.log_lines,
        "inputs": {
            "config": built.spec.to_dict(),
            "tables": {path: table_to_lists(t) for path, t in built.tables.items()},
            "graphs": {path: graph_to_dict(g) for path, g in built.graphs.items()},
            "seed": seed,
        },
    }


def _write_convergence_csv(path, result):
    names = result.theta_names
    header = ["iter", "alpha", "step_rescaling_pct",
              "max_dev_over_sd", "mean_dev_over_sd"] + names
    rows = [
        [r.iter, r.alpha, 100.0 * r.alpha, r.max_dev_over_sd, r.mean_dev_over_sd]
        + [r.theta[name] for name in names]
        for r in result.records
    ]
    _write_csv(path, header, rows)


def cmd_fit(args):
    built = build_model(load_model(args.model))
    result = fit(built.model)
    seed = built.seed if args.seed is None else args.seed
    os.makedirs(args.out, exist_ok=True)
    fit_path = os.path.join(args.out, "fit.json")
    _write_text(fit_path, canonical_json(fit_document(built, result, seed)))
    _write_convergence_csv(os.path.join(args.out, "convergence.csv"), result)
    _write_text(os.path.join(args.out, "log.txt"),
                "".join(line + "\n" for line in result.log_lines))
    print(fit_path)
    return 0


# --- predict / diagnose ----------------------------------------------------

def _refit_from(path):
    """Rebuild the model a fit file embeds and replay its fit."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "inputs" not in doc:
        raise ConfigError(f"{path} is not a fit file (no 'inputs' section)")
    inputs = doc["inputs"]
    built = build_model(
        ModelSpec.from_config(inputs["config"], path),
        tables={p: table_from_lists(t) for p, t in inputs["tables"].items()},
        graphs={p: graph_from_dict(g) for p, g in inputs["graphs"].items()},
    )
    return built, fit(built.model), int(inputs.get("seed", 0))


def cmd_predict(args):
    built, result, seed = _refit_from(args.fit)
    if args.seed is not None:
        seed = args.seed
    quantiles = args.quantiles
    expr = parse_expr(args.expr)
    inputs = None
    if args.data is not None:
        inputs = bind_new_inputs(built.spec, read_table(args.data))
    draws = generate(result, expr, args.n_samples, default_rng(seed), inputs=inputs)
    levels = [p for _, p in quantiles]
    summary = predict_summary(draws, levels)
    header = ["mean", "sd"] + [f"q{tok}" for tok, _ in quantiles]
    columns = [summary["mean"], summary["sd"]] + [summary[f"q{p!r}"] for p in levels]
    _write_csv(args.out, header, np.column_stack(columns))
    print(args.out)
    return 0


def cmd_diagnose(args):
    _, result, seed = _refit_from(args.fit)
    if args.seed is not None:
        seed = args.seed
    deviation = linearisation_deviation(result, seed=seed)
    report = kl_divergences(result)
    doc = {
        "linearisation_deviation": deviation,
        "kl_lin_to_nonlin": report.kl_lin_to_nonlin,
        "kl_nonlin_to_lin": report.kl_nonlin_to_lin,
    }
    _write_text(args.out, canonical_json(doc))
    print(args.out)
    return 0


# --- calibration -----------------------------------------------------------

def cmd_sbc(args):
    built = build_model(load_model(args.model))
    seed = built.seed if args.seed is None else args.seed
    result = sbc_run(built.model, h=args.functional,
                     K=args.replicates, J=args.samples, seed=seed)
    os.makedirs(args.out, exist_ok=True)
    doc = {
        "K": result.K,
        "J": result.J,
        "failures": result.failures,
        "ks_statistic": result.ks_statistic,
        "ks_pvalue": result.ks_pvalue,
    }
    sbc_path = os.path.join(args.out, "sbc.json")
    _write_text(sbc_path, canonical_json(doc))
    _write_csv(os.path.join(args.out, "w_values.csv"), ["w"],
               [[w] for w in result.w_values])
    counts, edges = np.histogram(result.w_values, bins=20, range=(0.0, 1.0))
    _write_csv(os.path.join(args.out, "histogram.csv"),
               ["bin_low", "bin_high", "count"],
               [[edges[i], edges[i + 1], int(counts[i])] for i in range(20)])
    print(sbc_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
