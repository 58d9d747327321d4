"""Experiment runner: configuration in, result tables and a metadata sidecar out.

Exit codes partition failures: 0 all checks pass, 1 configuration or
validation error (a usage error too), 2 tolerance failure (per-check
report in metadata), 3 I/O failure, 4 numerical failure (a singular
linear solve or a rejected kinetic step; metadata records a failing
``numerical_failure`` check that names the error, and no tables are
written).  CSV bodies are byte-identical across reruns with the same
config and seed; wall-clock timestamps live only in the JSON sidecar.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .combinatorics import check_label_count, verify_cluster_expansion
from .hierarchy import (
    additive_observable,
    additive_reduced_initial,
    evolve_full,
    mean_value_full,
    mean_value_reduced,
    reduce_observable,
)
from .kinetic import StepRejected, engine_for
from .model import (
    ConfigError,
    ExperimentConfig,
    ValidationError,
    build_initial_state,
    load_model_file,
)
from .montecarlo import estimate_means
from .operators import TRACER, evolve
from .sectors import SectorFunction, SequenceState

EPS_SWEEP = (0.2, 0.1, 0.05)
# duality residuals at or below this are round-off; the truncation
# residuals the eps sweep measures at K = 1 are 3e-7 and larger
ROUNDOFF_FLOOR = 1e-13


def _loglog_slope(eps, residuals) -> float:
    """Fitted slope of log residual against log eps.

    A residual at machine zero means the duality holds exactly and the
    contraction is immediate, so the slope is inf.
    """
    if min(residuals, default=0.0) <= ROUNDOFF_FLOOR:
        return math.inf
    return float(np.polyfit(np.log(eps), np.log(residuals), 1)[0])


def _write_atomic(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _observable_set(config: ExperimentConfig):
    """Named additive observables used by the comparison experiments."""
    n = config.model.n_states
    indicator = np.zeros(n)
    indicator[0] = 1.0
    parity = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n)])
    return [
        ("tracer_indicator", indicator, np.zeros(n)),
        ("env_parity", np.zeros(n), parity),
        ("additive_mixed", indicator, parity),
    ]


def run_cluster_verify(config: ExperimentConfig):
    model = config.model
    tol = 1e-9
    rows = []
    checks = []
    worst = 0.0
    pairs = [(s, n) for s in range(0, 3) for n in range(0, s + 1)]
    for t in (0.1, 0.5, 1.0):
        for s, n in pairs:
            res = verify_cluster_expansion(model, t, s, n)
            worst = max(worst, res)
            rows.append((t, s, n, _fmt(res), _fmt(tol), res <= tol))
    checks.append({"name": "cluster_expansion_max_residual", "value": worst,
                   "tolerance": tol, "pass": worst <= tol})
    tables = {"cluster_verify.csv": _csv_text(
        ("t", "s", "n", "residual", "tolerance", "pass"), rows)}
    return tables, checks


def run_duality_sweep(config: ExperimentConfig):
    model = config.model
    profile = config.profile
    eng = engine_for(model, profile)
    order = config.series_order
    tol = 1e-6
    t_grid = [config.t_max * k / 4 for k in range(1, 5)]
    rows = []
    mean_rows = []
    worst = 0.0
    ensemble, reduced_state = build_initial_state(profile, model, config.activity)
    for t in t_grid:
        for name, o_t, o_e in _observable_set(config):
            b0 = additive_reduced_initial(o_t, o_e, model.n_max)
            rep = eng.duality_check(b0, t, order)
            worst = max(worst, rep.abs_residual)
            rows.append((t, name, _fmt(rep.lhs), _fmt(rep.rhs),
                         _fmt(rep.abs_residual), _fmt(rep.rel_residual),
                         order, _fmt(model.eps)))
            obs = additive_observable(o_t, o_e, model.n_max)
            obs_t = evolve_full(model, obs, t, "forward")
            mean_full = mean_value_full(obs_t, ensemble, model)
            reduced_obs = SequenceState(
                tuple(reduce_observable(obs_t, s) for s in range(model.n_max + 1)),
                kind="observable")
            mean_red = mean_value_reduced(reduced_obs, reduced_state, model)
            mean_rows.append((t, name, _fmt(mean_full), _fmt(mean_red),
                              _fmt(abs(mean_full - mean_red))))
    checks = [{"name": "duality_max_abs_residual", "value": worst,
               "tolerance": tol, "pass": worst <= tol}]
    mean_worst = max(float(r[4]) for r in mean_rows)
    checks.append({"name": "mean_value_equivalence", "value": mean_worst,
                   "tolerance": 1e-10, "pass": mean_worst <= 1e-10})
    tables = {
        "duality.csv": _csv_text(
            ("t", "observable_id", "lhs", "rhs", "abs_residual", "rel_residual", "K", "eps"), rows),
        "mean_values.csv": _csv_text(
            ("t", "observable_id", "mean_full", "mean_reduced", "abs_residual"), mean_rows),
    }
    return tables, checks


def run_eps_convergence(config: ExperimentConfig):
    profile = config.profile
    order = config.series_order
    t = min(config.t_max, 0.25)
    rows = []
    residuals = []
    for eps in EPS_SWEEP:
        model = config.model.with_eps(eps)
        eng = engine_for(model, profile)
        name, o_t, o_e = _observable_set(config)[2]
        b0 = additive_reduced_initial(o_t, o_e, model.n_max)
        rep = eng.duality_check(b0, t, order)
        residuals.append(rep.abs_residual)
        rows.append((_fmt(eps), order, _fmt(t), name, _fmt(rep.abs_residual)))
    slope = _loglog_slope(EPS_SWEEP, residuals)
    want = order + 1.5
    checks = [
        {"name": "eps_sweep_smallest_residual", "value": residuals[-1],
         "tolerance": 1e-6, "pass": residuals[-1] <= 1e-6},
        {"name": "eps_sweep_loglog_slope", "value": slope,
         "tolerance": want, "pass": slope >= want},
    ]
    tables = {"eps_convergence.csv": _csv_text(
        ("eps", "K", "t", "observable_id", "abs_residual"), rows)}
    return tables, checks


def run_fp_trajectory(config: ExperimentConfig):
    model = config.model
    profile = config.profile
    eng = engine_for(model, profile)
    order = config.series_order
    traj = eng.integrate_fp(profile.tracer0, config.t_max, config.dt, order)
    n_u = len(model.grid)
    rows = []
    stride = max(1, len(traj) // 200)
    kept = traj[::stride]
    if kept[-1].t != traj[-1].t:
        kept.append(traj[-1])
    for td in kept:
        for e, val in enumerate(td.values):
            rows.append((_fmt(td.t), e // n_u + 1, e % n_u, _fmt(float(val)),
                         _fmt(td.mass_drift)))
    drift = max(abs(td.mass_drift) for td in traj)
    endpoint = traj[-1].values
    # at the trajectory's last time, a lattice time, which may round off t_max
    series = eng.reduced_distribution(traj[-1].t, order).values
    end_err = float(np.max(np.abs(endpoint - series)))
    checks = [
        {"name": "fp_mass_drift", "value": drift, "tolerance": 1e-9, "pass": drift <= 1e-9},
        {"name": "fp_endpoint_vs_series", "value": end_err, "tolerance": 1e-5,
         "pass": end_err <= 1e-5},
    ]
    if model.eps == 0.0:
        # the dense oracle, independent of the workspace the engine evolved with
        free = eng.ws.generator(0, frozenset({TRACER}), "dual")
        f0 = SectorFunction(0, profile.tracer0)
        ws_err = 0.0
        for td in kept:
            analytic = evolve(free, td.t, f0).data
            ws_err = max(ws_err, float(np.max(np.abs(td.values - analytic))))
        checks.append({"name": "fp_free_relaxation", "value": ws_err,
                       "tolerance": 1e-8, "pass": ws_err <= 1e-8})
    tables = {"fp_trajectory.csv": _csv_text(
        ("t", "species", "micro_state", "F_value", "mass_drift"), rows)}
    return tables, checks


def run_mc_vs_exact(config: ExperimentConfig):
    model = config.model
    profile = config.profile
    n_traj = config.mc_trajectories or 20000
    t = min(config.t_max, 1.0)
    obs_set = _observable_set(config)
    observables = [additive_observable(o_t, o_e, model.n_max) for _, o_t, o_e in obs_set]
    ests = estimate_means(observables, profile, model, t, n_traj, config.seed,
                          z=config.activity)
    ensemble, _ = build_initial_state(profile, model, config.activity)
    rows = []
    worst_z = 0.0
    for (name, o_t, o_e), obs, est in zip(obs_set, observables, ests):
        obs_t = evolve_full(model, obs, t, "forward")
        exact = mean_value_full(obs_t, ensemble, model)
        zscore = (est.mean - exact) / est.stderr if est.stderr > 0 else 0.0
        worst_z = max(worst_z, abs(zscore))
        rows.append((name, _fmt(t), _fmt(est.mean), _fmt(est.stderr),
                     _fmt(exact), _fmt(zscore), est.n_samples))
    checks = [{"name": "mc_worst_abs_zscore", "value": worst_z,
               "tolerance": 3.0, "pass": worst_z <= 3.0}]
    tables = {"mc_vs_exact.csv": _csv_text(
        ("observable_id", "t", "mc_mean", "mc_stderr", "exact", "zscore", "n_trajectories"),
        rows)}
    return tables, checks


RUNNERS = {
    "cluster-verify": run_cluster_verify,
    "duality-sweep": run_duality_sweep,
    "eps-convergence": run_eps_convergence,
    "fp-trajectory": run_fp_trajectory,
    "mc-vs-exact": run_mc_vs_exact,
}

# the most cluster labels each kind partitions, checked before it runs: the
# duality checks expand the dual hierarchy and the tracer series up to sector
# n_max, the kinetic equation the series up to its order; cluster-verify
# stops at s = n = 2, and mc-vs-exact partitions nothing
PARTITION_LABELS = {
    "cluster-verify": lambda config: 3,
    "duality-sweep": lambda config: config.model.n_max + 1,
    "eps-convergence": lambda config: config.model.n_max + 1,
    "fp-trajectory": lambda config: config.series_order + 1,
    "mc-vs-exact": lambda config: 0,
}


# the run flags that override a config key, as flag -> key; load_model reads
# their text the way it reads the file's
OVERRIDE_FLAGS = {"--out": "dir", "--seed": "seed", "--eps": "eps", "--order": "series_order",
                  "--t-max": "t_max", "--dt": "dt", "--format": "format"}


def run(config_path: str, kind: str, overrides: dict) -> int:
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    try:
        config = load_model_file(config_path, overrides)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3
    numerical_error = None
    try:
        check_label_count(config.model, PARTITION_LABELS[kind](config))
        tables, checks = RUNNERS[kind](config)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (np.linalg.LinAlgError, StepRejected) as exc:
        numerical_error = f"{type(exc).__name__}: {exc}"
        print(f"error: numerical failure: {numerical_error}", file=sys.stderr)
        tables = {}
        checks = [{"name": "numerical_failure", "value": 1, "tolerance": 0,
                   "pass": False, "error": numerical_error}]
    finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
    meta = {
        "kind": kind,
        "config_hash": config.key,
        "seed": config.seed,
        "version": __version__,
        "started_at": started,
        "finished_at": finished,
        "checks": checks,
        "tables": [],
    }
    try:
        os.makedirs(config.out_dir, exist_ok=True)
        for name, text in tables.items():
            if config.out_format == "json":
                name, text = name.replace(".csv", ".json"), _csv_to_json(text)
            _write_atomic(os.path.join(config.out_dir, name), text)
            meta["tables"].append(name)
        _write_atomic(os.path.join(config.out_dir, "metadata.json"),
                      json.dumps(meta, indent=2) + "\n")
    except OSError as exc:
        print(f"error: cannot write results: {exc}", file=sys.stderr)
        return 3
    for check in checks:
        status = "pass" if check["pass"] else "FAIL"
        print(f"[{status}] {check['name']}: value {check['value']:.6g} "
              f"vs tolerance {check['tolerance']:.6g}")
    if numerical_error is not None:
        return 4
    if not all(c["pass"] for c in checks):
        return 2
    return 0


def _csv_to_json(text: str) -> str:
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    header, body = rows[0], rows[1:]
    return json.dumps([dict(zip(header, row)) for row in body], indent=2) + "\n"


def _read_records(path: str) -> list:
    """The rows of a table that `run` wrote, as CSV or as JSON, each a dict by column."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh) if path.endswith(".json") else list(csv.DictReader(fh))


def report(result_dir: str) -> int:
    meta_path = os.path.join(result_dir, "metadata.json")
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read results: {exc}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as exc:
        print(f"error: corrupt metadata: {exc}", file=sys.stderr)
        return 3
    print(f"experiment: {meta.get('kind')}  config {meta.get('config_hash')} "
          f"seed {meta.get('seed')} version {meta.get('version')}")
    all_pass = True
    for check in meta.get("checks", []):
        status = "pass" if check["pass"] else "FAIL"
        all_pass = all_pass and check["pass"]
        print(f"  [{status}] {check['name']}: {check['value']:.6g} "
              f"(tolerance {check['tolerance']:.6g})")
        if "error" in check:
            print(f"    error: {check['error']}")
    # the tables of this run only, whatever else the directory holds
    tables = {}
    for name in meta.get("tables", []):
        try:
            tables[os.path.splitext(name)[0]] = _read_records(os.path.join(result_dir, name))
        except OSError as exc:
            print(f"error: cannot read results: {exc}", file=sys.stderr)
            return 3
    tidy_rows = []
    for stem, records in tables.items():
        for rec in records:
            first_key = next(iter(rec.values()))
            for col, val in rec.items():
                try:
                    fval = float(val)
                except ValueError:
                    continue
                tidy_rows.append((stem, col, first_key, _fmt(fval)))
    _write_atomic(os.path.join(result_dir, "plot_data.csv"),
                  _csv_text(("table", "column", "first_key", "value"), tidy_rows))
    if meta.get("kind") == "eps-convergence" and "eps_convergence" in tables:
        pts = [(float(r["eps"]), float(r["abs_residual"]), r["K"])
               for r in tables["eps_convergence"]]
        slope = _loglog_slope([p[0] for p in pts], [p[1] for p in pts])
        print("  eps        K  residual      fitted_slope")
        for eps, res, k in pts:
            print(f"  {eps:<9g} {k:>2} {res:<13.6g} {slope:.3f}")
    print("result:", "all checks pass" if all_pass else "tolerance failures present")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="kinlab",
                                     description="open-system kinetic-theory laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute an experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--kind", required=True, choices=RUNNERS)
    for flag, key in OVERRIDE_FLAGS.items():
        p_run.add_argument(flag, dest=key, default=argparse.SUPPRESS,
                           help=f"replaces the config value of {key}")
    p_rep = sub.add_parser("report", help="summarize a result directory")
    p_rep.add_argument("result_dir")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # --help exits 0; a usage error is a configuration error, exit 1
        return 0 if exc.code == 0 else 1
    if args.command == "run":
        overrides = {key: getattr(args, key) for key in OVERRIDE_FLAGS.values()
                     if hasattr(args, key)}
        return run(args.config, args.kind, overrides)
    return report(args.result_dir)


if __name__ == "__main__":
    sys.exit(main())
