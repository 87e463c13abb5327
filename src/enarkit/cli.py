"""Command-line interface: simulate / fit / predict / select-k / mc.

Configs and fit outputs are JSON, read by ``errors.load_json`` and written
by ``errors.write_json``; bulk data is CSV. Every output's directory is
checked before any work, as is that no two of a command's paths name the
same file, and every write goes through a temp-file rename so a killed
process never leaves a partial file.
Exit codes: 0 success, 2 usage, 3 data error, 4 numerical failure; each
error type carries its code (``exit_code``), and errors are reported as
one JSON object on stderr. Config keys and their types are those of
``bench.ExperimentConfig``; ``simulate`` adds its own keys. The environment
variable ENARKIT_SEED provides the base seed when none is given.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from . import bench, blas, estimate, network, process
from .csvio import write_table
from .errors import (
    DataError, EnarkitError, NumericalError, check_type, json_value, load_json, write_json,
)

EXIT_OK = 0
EXIT_USAGE = 2


class UsageError(EnarkitError):
    exit_code = EXIT_USAGE


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


def _check_outputs(outputs: dict[str, str], inputs: dict[str, str] | None = None,
                   clash=lambda a, b: UsageError(f"{a} and {b} name the same file")) -> None:
    """Raise, before any work, the error that writing ``outputs`` would end
    in. ``outputs`` and ``inputs`` map each flag or key to its path; two of
    them that resolve to the same file raise ``clash(first, second)``, since
    a write would lose the other output or overwrite an input. Then the
    OSError of an output whose directory is missing or not writable, or
    that is a directory."""
    named: dict[str, str] = {}
    for name, path in {**(inputs or {}), **outputs}.items():
        real = os.path.realpath(path)
        if real in named:
            raise clash(named[real], name)
        named[real] = name
    for path in outputs.values():
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise FileNotFoundError(f"no such directory: {folder!r}")
        if not os.access(folder, os.W_OK):
            raise PermissionError(f"directory not writable: {folder!r}")
        if os.path.isdir(path):
            raise IsADirectoryError(f"output is a directory: {path!r}")


# A config key is an ExperimentConfig field, whose type ExperimentConfig
# checks. A null keeps the default, so only a field whose default is None
# may be null; mc requires the fields without a default.
_CONFIG_FIELDS = dataclasses.fields(bench.ExperimentConfig)
_NULL_DEFAULTS = {f.name for f in _CONFIG_FIELDS if f.default is None}
_MC_REQUIRED = [f.name for f in _CONFIG_FIELDS
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]

# simulate's own keys and their JSON types, next to bench.PARAM_TYPES
_SIM_TYPES = {
    "model": (str,), "generator": (str,), "n": (int,), "t": (int,), "k": (int,),
    "seed": (int,), "out_edges": (str,), "out_panel": (str,), "out_truth": (str,),
}


def _validate_keys(doc: dict, where: str, own_types: dict, config_keys, required) -> None:
    """Reject keys that are neither ``own_types`` nor ``config_keys``, nulls
    where the ExperimentConfig default is not None, a wrong type among
    ``own_types`` and a missing ``required`` key."""
    unknown = set(doc) - set(config_keys) - set(own_types)
    if unknown:
        raise DataError(f"{where}: unknown keys {sorted(unknown)}")
    for key, value in doc.items():
        if value is None and key not in _NULL_DEFAULTS:
            raise DataError(f"{where}: key {key!r} may not be null")
        if value is not None and key in own_types:
            check_type(value, own_types[key], f"{where}: key {key!r}")
    for key in required:
        if key not in doc:
            raise DataError(f"{where}: missing required key {key!r}")


def _experiment_config(doc: dict, where: str, keys, **fields) -> bench.ExperimentConfig:
    """ExperimentConfig from ``fields``, overridden by each of ``keys`` that
    ``doc`` sets to a value other than null, so every other default lives
    only in ExperimentConfig; an error it raises names the file ``where``."""
    try:
        return bench.ExperimentConfig(
            **{**fields, **{key: doc[key] for key in keys if doc.get(key) is not None}}
        )
    except EnarkitError as exc:
        exc.args = (f"{where}: {exc}",)
        raise


def cmd_simulate(args) -> int:
    doc = load_json(args.config)
    _validate_keys(doc, args.config, _SIM_TYPES, bench.PARAM_TYPES,
                   ("n", "t", "k", "out_edges", "out_panel", "out_truth"))

    model = doc.get("model", "enar")
    generator = doc.get("generator", "dcmmsbm")
    seed = _seed(args.seed, doc.get("seed"))
    n, t, k = doc["n"], doc["t"], doc["k"]

    config = _experiment_config(
        doc, args.config, bench.PARAM_TYPES,
        n_values=[n], t_values=[t], k_values=[k],
        generators=[generator], truth_models=[model], fit_models=["nar"],
        reps=1, base_seed=seed,
    )
    _check_outputs({key: doc[key] for key in ("out_edges", "out_panel", "out_truth")},
                   {"--config": args.config}, clash=lambda a, b: DataError(
                       f"{args.config}: key {b!r} names the config file itself" if a == "--config"
                       else f"{args.config}: keys {a!r} and {b!r} name the same file"))
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
    write_json(doc["out_truth"], truth)
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
    for flag, value, owner in (("--s", args.s, "amnar"),
                               ("--omit-grand-mean", args.omit_grand_mean or None, "enr")):
        if value is not None and model != owner:
            raise UsageError(f"{flag} is not meaningful for the {model} model")
    s = bench.ExperimentConfig.s if model == "amnar" and args.s is None else args.s
    spec = estimate.DesignSpec(model, args.k or 0, s=s, grand_mean=not args.omit_grand_mean)
    _check_outputs({"--out": args.out}, {"--edges": args.edges, "--panel": args.panel})
    panel_full = process.read_panel_csv(args.panel)
    graph = network.read_edge_csv(args.edges, n_nodes=panel_full.n)
    panel = _window_panel(panel_full, args.window_start, args.window_len)
    fit = estimate.fit_model(panel, graph, spec)
    doc = estimate.fit_to_json_dict(fit)
    write_json(args.out, doc)
    print(json.dumps({"fit": args.out, **{key: doc[key] for key in
                                          ("model", "n_obs", "sigma2_hat", "aic", "bic")}}))
    return EXIT_OK


def _check_cells(where: str, name: str, values: np.ndarray, t: int) -> None:
    """A DataError naming the file ``where`` and the first node whose
    ``name`` at time ``t`` is a NaN or an infinity."""
    bad = np.flatnonzero(~np.isfinite(values.reshape(len(values), -1)).all(axis=1))
    if bad.size:
        raise DataError(f"{where}: {name} of node {bad[0]} at t = {t} is not finite")


def cmd_predict(args) -> int:
    _check_outputs({"--out": args.out},
                   {"--fit": args.fit, "--edges": args.edges, "--panel": args.panel})
    fit = estimate.read_fit_json(args.fit)
    panel = process.read_panel_csv(args.panel)
    graph = network.read_edge_csv(args.edges, n_nodes=panel.n)

    # the forecast conditions on the window's last point, so one point will do
    t_cond = _window(panel, args.window_start, args.window_len, 1)[1] - 1

    y_t = panel.y[:, t_cond]
    if t_cond < panel.t:
        z_t = panel.z[:, t_cond, :]
    else:
        # forecasting past the panel: the mean-zero covariates at the
        # forecast origin are unobserved, so their contribution is zero
        z_t = np.zeros((panel.n, panel.p))

    actual = panel.y[:, t_cond + 1] if t_cond + 1 <= panel.t else None
    # the cells the forecast reads: y and z at the origin, y at an observed target
    _check_cells(args.panel, "y", y_t, t_cond)
    _check_cells(args.panel, "z", z_t, t_cond)
    if actual is not None:
        _check_cells(args.panel, "y", actual, t_cond + 1)
    y_hat = estimate.predict_one_step(fit, graph, y_t, z_t)
    # finite cells and a finite fit can still overflow the forecast product
    bad = np.flatnonzero(~np.isfinite(y_hat))
    if bad.size:
        raise NumericalError(f"forecast y_hat of node {bad[0]} at t = {t_cond + 1} is not finite")

    header, columns = ["node", "y_hat"], [y_hat]
    if actual is not None:
        header.append("y_actual")
        columns.append(actual)
    write_table(args.out, header, zip(range(panel.n), *(c.tolist() for c in columns)))

    summary = {"forecast": args.out, "target_t": t_cond + 1, "n": panel.n}
    if actual is not None:
        with np.errstate(over="ignore"):  # an MSPE beyond the double range prints as null
            summary["mspe"] = json_value(np.mean((y_hat - actual) ** 2))
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
    doc = load_json(args.config)
    _validate_keys(doc, args.config, {}, bench.CONFIG_TYPES, _MC_REQUIRED)
    if args.reps is not None:
        doc["reps"] = args.reps
    config = _experiment_config(doc, args.config, bench.CONFIG_TYPES, base_seed=_env_seed())
    group_by = [g.strip() for g in args.group_by.split(",") if g.strip()]
    bench.group_fields(group_by)
    _check_outputs({"--out": args.out, "--summary-out": args.summary_out},
                   {"--config": args.config})
    results = bench.run_grid(config, parallelism=args.jobs)
    bench.results_to_csv(results, args.out, timing=not args.no_timing)
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
    p.add_argument("--model", required=True, choices=estimate.MODELS)
    p.add_argument("--k", type=int, help="latent dimension (embedding models)")
    p.add_argument("--s", type=float,
                   help=f"amnar rate exponent (default {bench.ExperimentConfig.s})")
    p.add_argument("--omit-grand-mean", action="store_true",
                   help="drop the grand-mean column from the enr design")
    p.add_argument("--window-start", type=int, help="first time index of the training window")
    p.add_argument("--window-len", type=int, help="number of time points in the window")
    p.add_argument("--out", required=True, help="fit JSON path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="one-step-ahead point forecast")
    p.add_argument("--fit", required=True, help="fit JSON from the fit command")
    p.add_argument("--edges", required=True)
    p.add_argument("--panel", required=True)
    p.add_argument("--window-start", type=int)
    p.add_argument("--window-len", type=int,
                   help="condition on the last time point of this window")
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
    except EnarkitError as exc:
        _emit_error("usage" if isinstance(exc, UsageError) else type(exc).__name__, str(exc))
        return exc.exit_code
    except OSError as exc:
        _emit_error("io", str(exc))
        return DataError.exit_code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
