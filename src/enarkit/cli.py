"""Command-line interface: simulate / fit / predict / select-k / mc.

Configs and fit outputs are JSON, bulk data is CSV, and every write goes
through a temp-file rename so a killed process never leaves a partial file.
Exit codes: 0 success, 2 usage, 3 data error, 4 numerical failure; errors
are reported as one JSON object on stderr. The environment variable
ENARKIT_SEED provides the base seed when none is given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import bench, blas, estimate, lsm, network, process
from .atomic import atomic_write
from .csvio import write_table
from .errors import (
    DataError,
    DimensionMismatch,
    EigConvergenceFailure,
    EmptyGroup,
    EnarkitError,
    InvalidProbability,
    NotStationary,
    RankDeficient,
    ShapeMismatch,
    ZeroDenominator,
    check_type,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

_NUMERICAL_ERRORS = (
    NotStationary, RankDeficient, EigConvergenceFailure, InvalidProbability,
    ZeroDenominator,
)
_DATA_ERRORS = (DataError, DimensionMismatch, ShapeMismatch, EmptyGroup)


class UsageError(EnarkitError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as machine-readable JSON."""

    def error(self, message):
        _emit_error("usage", message)
        raise SystemExit(EXIT_USAGE)


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def _env_seed() -> int:
    raw = os.environ.get("ENARKIT_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise DataError(f"ENARKIT_SEED={raw!r} is not an integer") from exc


def _seed(*given) -> int:
    """The first of ``given`` that is not None, else ENARKIT_SEED, else 0."""
    seed = next((s for s in given if s is not None), None)
    seed = _env_seed() if seed is None else seed
    if seed < 0:  # numpy generators take none
        raise DataError(f"seed {seed} is negative")
    return seed


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


# The only config keys that may be null: a null keeps the ExperimentConfig
# default, which for beta and rho is None, their size-dependent rules.
_NULLABLE = {"beta", "rho", "lsm_max_iters"}


def _validate_keys(doc: dict, allowed: dict, where: str) -> None:
    """Reject unknown keys, nulls outside _NULLABLE and wrong types. A schema
    entry is a tuple of types, or ``[types]`` for a list of such elements."""
    unknown = set(doc) - set(allowed)
    if unknown:
        raise DataError(f"{where}: unknown keys {sorted(unknown)}")
    for key, types in allowed.items():
        if key not in doc or (doc[key] is None and key in _NULLABLE):
            continue
        if doc[key] is None:
            raise DataError(f"{where}: key {key!r} may not be null")
        if isinstance(types, list):
            check_type(doc[key], (list,), f"{where}: key {key!r}")
            for i, value in enumerate(doc[key]):
                check_type(value, types[0], f"{where}: key {key!r} element {i}")
        else:
            check_type(doc[key], types, f"{where}: key {key!r}")


# Model parameters shared by simulate and mc; absent keys keep the
# ExperimentConfig defaults.
_PARAM_SCHEMA = {
    "alpha": (int, float), "theta": (int, float), "beta": [(int, float)],
    "beta2": (int, float), "s": (int, float), "gamma": [(int, float)],
    "sigma": (int, float), "cov_variances": [(int, float)],
    "q_block": (int, float), "rho": (int, float),
}

_SIM_SCHEMA = {
    **_PARAM_SCHEMA,
    "model": (str,), "generator": (str,), "n": (int,), "t": (int,), "k": (int,),
    "seed": (int,), "out_edges": (str,), "out_panel": (str,), "out_truth": (str,),
}

_MC_SCHEMA = {
    **_PARAM_SCHEMA,
    "n_values": [(int,)], "t_values": [(int,)], "k_values": [(int,)],
    "generators": [(str,)], "truth_models": [(str,)], "fit_models": [(str,)],
    "reps": (int,), "base_seed": (int,),
    "oracle_latents": (bool,), "lsm_max_iters": (int,),
}


def _experiment_config(doc: dict, keys, **fields) -> bench.ExperimentConfig:
    """ExperimentConfig from ``fields`` plus each of ``keys`` that ``doc``
    sets to a value other than null, so every other default lives only in
    ExperimentConfig."""
    return bench.ExperimentConfig(
        **{key: doc[key] for key in keys if doc.get(key) is not None}, **fields
    )


def cmd_simulate(args) -> int:
    doc = _load_json(args.config)
    _validate_keys(doc, _SIM_SCHEMA, args.config)
    for req in ("n", "t", "k", "out_edges", "out_panel", "out_truth"):
        if req not in doc:
            raise DataError(f"{args.config}: missing required key {req!r}")

    model = doc.get("model", "enar")
    if model not in bench.TRUTH_MODELS:
        raise DataError(f"{args.config}: model must be one of {bench.TRUTH_MODELS}")
    generator = doc.get("generator", "dcmmsbm")
    if generator not in bench.GENERATORS:
        raise DataError(f"{args.config}: generator must be one of {bench.GENERATORS}")
    seed = _seed(args.seed, doc.get("seed"))
    n, t, k = doc["n"], doc["t"], doc["k"]

    config = _experiment_config(
        doc, _PARAM_SCHEMA,
        n_values=[n], t_values=[t], k_values=[k],
        generators=[generator], truth_models=[model], fit_models=["nar"],
        reps=1, base_seed=seed,
    )
    cell = bench.Cell(generator, model, "nar", n, t, k)
    data = bench.simulate_cell_data(cell, config, seed)

    network.write_edge_csv(data.graph, doc["out_edges"])
    process.write_panel_csv(data.panel, doc["out_panel"])

    params = data.params
    latent = data.latent_true
    phi_round = np.round(data.panel.phi, 9)
    truth = {
        "model": model, "generator": generator,
        "n": n, "t": t, "k": k, "seed": seed,
        "rho": config.rho_for(n),
        "alpha": params.alpha, "theta": params.theta,
        "beta": (params.beta1 if model == "amnar" else params.beta).tolist(),
        "gamma": params.gamma.tolist(),
        "sigma": params.sigma, "sigma2": params.sigma**2,
        "cov_variances": config.cov_variances.tolist(),
        "mu_true": data.mu_true.tolist(),
        "latent": latent.tolist() if latent is not None else [],
        "phi_head": phi_round[: min(5, n)].tolist(),
        "phi_sha256": hashlib.sha256(np.ascontiguousarray(phi_round).tobytes()).hexdigest(),
    }
    if model == "amnar":
        truth["beta2"] = params.beta2
        truth["s"] = params.s
        truth["r"] = data.r_true
    with atomic_write(doc["out_truth"]) as fh:
        json.dump(truth, fh, indent=2)
        fh.write("\n")
    print(json.dumps({
        "edges": doc["out_edges"], "panel": doc["out_panel"], "truth": doc["out_truth"],
        "n": n, "t": t, "k": k, "seed": seed,
    }))
    return EXIT_OK


def _window(panel: process.Panel, start, length, min_len: int) -> tuple[int, int]:
    """Bounds [start, stop) of the time points that ``--window-start`` and
    ``--window-len`` select: by default from 0 and up to the panel's end.
    The window must lie inside the panel's T+1 time points and hold at
    least ``min_len`` of them."""
    start = 0 if start is None else start
    if length is None:
        length = panel.t + 1 - start
    if start < 0 or length < min_len or start + length > panel.t + 1:
        raise DataError(
            f"window [{start}, {start + length}) does not fit a panel with "
            f"{panel.t + 1} time points (need length >= {min_len})"
        )
    return start, start + length


def _window_panel(panel: process.Panel, start, length) -> process.Panel:
    """The training window: at least two time points, one transition."""
    if start is None and length is None:
        return panel
    start, stop = _window(panel, start, length, 2)
    return process.Panel(
        y=panel.y[:, start:stop].copy(), z=panel.z[:, start : stop - 1, :].copy()
    )


def cmd_fit(args) -> int:
    model = args.model
    if model == "nar" and args.k is not None:
        raise UsageError("--k is not meaningful for the nar model")
    if model != "nar" and args.k is None:
        raise UsageError(f"--k is required for the {model} model")
    panel_full = process.read_panel_csv(args.panel)
    graph = network.read_edge_csv(args.edges, n_nodes=panel_full.n)
    panel = _window_panel(panel_full, args.window_start, args.window_len)
    seed = _seed(args.seed)

    if model in ("nar", "enar"):
        fit, _, diag = estimate.fit_enar(panel, graph, args.k or 0)
    elif model == "amnar":
        fit, state, diag = estimate.fit_amnar(
            panel, graph, args.k, args.s, np.random.default_rng(seed)
        )
        if args.latent_out:
            lsm.write_latent_csv(state, args.latent_out)
    else:  # enr
        spec = estimate.DesignSpec("enr", args.k, grand_mean=not args.omit_grand_mean)
        fit, _, diag = estimate._fit_embedded(panel, graph, spec)

    estimate.write_fit_json(fit, args.out, diag)
    print(json.dumps({"fit": args.out, "model": model, "n_obs": fit.n_obs,
                      "sigma2_hat": fit.sigma2_hat, "aic": fit.aic, "bic": fit.bic}))
    return EXIT_OK


def cmd_predict(args) -> int:
    fit = estimate.read_fit_json(args.fit)
    panel = process.read_panel_csv(args.panel)
    graph = network.read_edge_csv(args.edges, n_nodes=panel.n)
    seed = _seed(args.seed)

    # the forecast conditions on the window's last point, so one point will do
    t_cond = _window(panel, args.window_start, args.window_len, 1)[1] - 1

    y_t = panel.y[:, t_cond]
    if t_cond < panel.t:
        z_t = panel.z[:, t_cond, :]
    else:
        # forecasting past the panel: the mean-zero covariates at the
        # forecast origin are unobserved, so their contribution is zero
        z_t = np.zeros((panel.n, panel.p))

    spec = fit.spec
    if spec.model in ("enar", "enr"):
        latent = network.spectral_embed(graph, spec.k).vectors
    elif spec.model == "amnar":
        latent = lsm.fit_lsm(graph, spec.k, np.random.default_rng(seed)).state.x()
    else:
        latent = None

    y_hat = estimate.predict_one_step(fit, graph, y_t, z_t, latent)
    actual = panel.y[:, t_cond + 1] if t_cond + 1 <= panel.t else None

    header, columns = ["node", "y_hat"], [y_hat]
    if actual is not None:
        header.append("y_actual")
        columns.append(actual)
    write_table(args.out, header, zip(range(panel.n), *(c.tolist() for c in columns)))

    summary = {"forecast": args.out, "target_t": t_cond + 1, "n": panel.n}
    if actual is not None:
        summary["mspe"] = float(np.mean((y_hat - actual) ** 2))
    print(json.dumps(summary))
    return EXIT_OK


def cmd_select_k(args) -> int:
    graph = network.read_edge_csv(args.edges, n_nodes=args.n)
    k = network.select_k(
        graph, args.k_max, folds=args.folds, holdout_fraction=args.holdout,
        rng=np.random.default_rng(_seed(args.seed)),
    )
    print(json.dumps({"k": k}))
    return EXIT_OK


def cmd_mc(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    doc = _load_json(args.config)
    _validate_keys(doc, _MC_SCHEMA, args.config)
    for req in ("n_values", "t_values", "k_values"):
        if req not in doc:
            raise DataError(f"{args.config}: missing required key {req!r}")
    if args.reps is not None:
        doc["reps"] = args.reps
    config = _experiment_config(
        doc, [key for key in _MC_SCHEMA if key != "base_seed"],
        base_seed=doc.get("base_seed", _env_seed()),
    )
    results = bench.run_grid(config, parallelism=args.jobs)
    bench.results_to_csv(results, args.out, timing=not args.no_timing)
    group_by = [g.strip() for g in args.group_by.split(",") if g.strip()]
    summary = bench.summarize(results, group_by)
    bench.summary_to_csv(summary, group_by, args.summary_out)
    n_fail = sum(1 for r in results if r.status != "ok")
    print(json.dumps({
        "results": args.out, "summary": args.summary_out,
        "rows": len(results), "failures": n_fail, "blas_threads": blas.pinned_threads(),
    }))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="enarkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a graph, panel, and truth record")
    p.add_argument("--config", required=True, help="simulation config JSON")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a model to an edge list and panel")
    p.add_argument("--edges", required=True)
    p.add_argument("--panel", required=True)
    p.add_argument("--model", required=True, choices=["nar", "enar", "amnar", "enr"])
    p.add_argument("--k", type=int, help="latent dimension (embedding models)")
    p.add_argument("--s", type=float, default=bench.ExperimentConfig.s,
                   help="amnar rate exponent")
    p.add_argument("--seed", type=int, help="seed for the latent-MLE start")
    p.add_argument("--omit-grand-mean", action="store_true",
                   help="drop the grand-mean column from the enr design")
    p.add_argument("--window-start", type=int, help="first time index of the training window")
    p.add_argument("--window-len", type=int, help="number of time points in the window")
    p.add_argument("--latent-out", help="write the amnar latent estimate CSV here")
    p.add_argument("--out", required=True, help="fit JSON path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="one-step-ahead point forecast")
    p.add_argument("--fit", required=True, help="fit JSON from the fit command")
    p.add_argument("--edges", required=True)
    p.add_argument("--panel", required=True)
    p.add_argument("--window-start", type=int)
    p.add_argument("--window-len", type=int,
                   help="condition on the last time point of this window")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="forecast CSV path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("select-k", help="embedding dimension by edge cross-validation")
    p.add_argument("--edges", required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--holdout", type=float, default=0.1)
    p.add_argument("--n", type=int, help="node count when the edge list omits trailing nodes")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_select_k)

    p = sub.add_parser("mc", help="run a Monte Carlo grid")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="results CSV path")
    p.add_argument("--summary-out", required=True, help="summary CSV path")
    p.add_argument("--group-by", default="gen,truth,fit,N,T,K")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--reps", type=int, help="override the config replication count")
    p.add_argument("--no-timing", action="store_true",
                   help="zero the wall-clock column for byte-stable output")
    p.set_defaults(func=cmd_mc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        _emit_error("usage", str(exc))
        return EXIT_USAGE
    except _NUMERICAL_ERRORS as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_NUMERICAL
    except _DATA_ERRORS as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_DATA
    except OSError as exc:
        _emit_error("io", str(exc))
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
