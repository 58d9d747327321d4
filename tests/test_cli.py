import json
import os
import re
import subprocess
import sys

import pytest

import kinlab.operators
from kinlab.cli import main
from kinlab.kinetic import KineticEngine

CONFIG = """
[model]
m = 1
grid_points = 2
eps = 0.05
n_max = 2
rate_tracer = 1.0
rate_env1 = 1.0
rate_env2 = 0.0
rate_int = 1.0
kernel_tracer = uniform
kernel_env1 = uniform
kernel_env2 = uniform
kernel_int = copy

[initial]
tracer0 = 0.7 0.3
env1 = 0.65 0.35
g = sigma:0.2
activity = 1.0

[run]
t_max = 0.5
dt = 1e-3
series_order = 1
mc_trajectories = 2000
seed = 42

[output]
format = csv
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "model.ini"
    path.write_text(CONFIG)
    return str(path)


def run_cli(*args):
    return main(list(args))


def read(path, mode="r"):
    with open(path, mode) as fh:
        return fh.read()


def read_json(path):
    return json.loads(read(path))


def test_cluster_verify_passes_and_writes_tables(config_path, tmp_path):
    out = str(tmp_path / "out")
    code = run_cli("run", "--config", config_path, "--kind", "cluster-verify",
                   "--out", out)
    assert code == 0
    assert os.path.exists(os.path.join(out, "cluster_verify.csv"))
    meta = read_json(os.path.join(out, "metadata.json"))
    assert all(check["pass"] for check in meta["checks"])
    assert meta["kind"] == "cluster-verify"
    assert "config_hash" in meta


def test_duality_sweep_passes(config_path, tmp_path):
    out = str(tmp_path / "out")
    code = run_cli("run", "--config", config_path, "--kind", "duality-sweep",
                   "--out", out)
    assert code == 0
    body = read(os.path.join(out, "duality.csv"))
    assert body.splitlines()[0] == "t,observable_id,lhs,rhs,abs_residual,rel_residual,K,eps"
    assert os.path.exists(os.path.join(out, "mean_values.csv"))


def test_missing_config_exits_3(tmp_path):
    code = run_cli("run", "--config", str(tmp_path / "nope.ini"),
                   "--kind", "cluster-verify", "--out", str(tmp_path / "o"))
    assert code == 3


def test_invalid_config_exits_1(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text(CONFIG.replace("rate_tracer = 1.0", "rate_tracer = -2.0 1.0"))
    code = run_cli("run", "--config", str(bad), "--kind", "cluster-verify",
                   "--out", str(tmp_path / "o"))
    assert code == 1


def test_tolerance_failure_exits_2(config_path, tmp_path):
    # eps-convergence at K = 1 includes the slope check, which fails honestly
    out = str(tmp_path / "out")
    code = run_cli("run", "--config", config_path, "--kind", "eps-convergence",
                   "--out", out)
    assert code == 2
    meta = read_json(os.path.join(out, "metadata.json"))
    names = {c["name"]: c["pass"] for c in meta["checks"]}
    assert names["eps_sweep_smallest_residual"] is True
    assert names["eps_sweep_loglog_slope"] is False


def test_eps_convergence_at_machine_zero_exits_0(tmp_path):
    # tiny.ini has chaos data, so duality holds exactly and every residual
    # is round-off; the slope check takes its machine-zero branch
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "tiny.ini")
    out = str(tmp_path / "out")
    code = run_cli("run", "--config", config, "--kind", "eps-convergence", "--out", out)
    assert code == 0
    checks = {c["name"]: c for c in read_json(os.path.join(out, "metadata.json"))["checks"]}
    assert checks["eps_sweep_smallest_residual"]["value"] <= 1e-13
    assert checks["eps_sweep_loglog_slope"]["value"] == float("inf")
    assert checks["eps_sweep_loglog_slope"]["pass"] is True


def test_rerun_reproduces_csv_bodies(config_path, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run_cli("run", "--config", config_path, "--kind", "mc-vs-exact",
                   "--out", out1) == 0
    assert run_cli("run", "--config", config_path, "--kind", "mc-vs-exact",
                   "--out", out2) == 0
    body1 = read(os.path.join(out1, "mc_vs_exact.csv"), "rb")
    body2 = read(os.path.join(out2, "mc_vs_exact.csv"), "rb")
    assert body1 == body2


def test_seed_override_changes_mc_results(config_path, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    run_cli("run", "--config", config_path, "--kind", "mc-vs-exact", "--out", out1)
    run_cli("run", "--config", config_path, "--kind", "mc-vs-exact", "--out", out2,
            "--seed", "7")
    body1 = read(os.path.join(out1, "mc_vs_exact.csv"))
    body2 = read(os.path.join(out2, "mc_vs_exact.csv"))
    assert body1 != body2


def test_fp_trajectory_and_report(config_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    code = run_cli("run", "--config", config_path, "--kind", "fp-trajectory",
                   "--out", out, "--t-max", "1.0")
    assert code == 0
    header = read(os.path.join(out, "fp_trajectory.csv")).splitlines()[0]
    assert header == "t,species,micro_state,F_value,mass_drift"
    code = run_cli("report", out)
    assert code == 0
    text = capsys.readouterr().out
    assert "fp_mass_drift" in text
    assert os.path.exists(os.path.join(out, "plot_data.csv"))


def test_run_records_the_blas_threads_and_report_prints_them(config_path, tmp_path,
                                                             monkeypatch, capsys):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = str(tmp_path / "out")
    assert run_cli("run", "--config", config_path, "--kind", "cluster-verify", "--out", out) == 0
    meta = read_json(os.path.join(out, "metadata.json"))
    assert meta["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2",
                                    "MKL_NUM_THREADS": None}
    body = read(os.path.join(out, "cluster_verify.csv"))
    capsys.readouterr()
    assert run_cli("report", out) == 0
    assert ("blas threads: OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=2 MKL_NUM_THREADS=unset"
            in capsys.readouterr().out.splitlines())
    # the CSV body does not depend on them
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    out2 = str(tmp_path / "out2")
    assert run_cli("run", "--config", config_path, "--kind", "cluster-verify", "--out", out2) == 0
    assert read(os.path.join(out2, "cluster_verify.csv")) == body
    assert read_json(os.path.join(out2, "metadata.json"))["blas_threads"][
        "OPENBLAS_NUM_THREADS"] == "4"


def test_report_missing_directory_exits_3(tmp_path):
    assert run_cli("report", str(tmp_path / "missing")) == 3


def test_json_output_format(config_path, tmp_path):
    out = str(tmp_path / "out")
    code = run_cli("run", "--config", config_path, "--kind", "cluster-verify",
                   "--out", out, "--format", "json")
    assert code == 0
    rows = read_json(os.path.join(out, "cluster_verify.json"))
    assert rows and "residual" in rows[0]


def test_eps_override(config_path, tmp_path):
    out = str(tmp_path / "out")
    code = run_cli("run", "--config", config_path, "--kind", "duality-sweep",
                   "--out", out, "--eps", "0.0")
    assert code == 0
    body = read(os.path.join(out, "duality.csv"))
    assert ",0.0" in body.splitlines()[1]


def _break_mass(self, F1, t, order, route="resolvent"):
    return F1  # d/dt of the mass is 1: the first step is rejected


@pytest.mark.parametrize("args, patch, error", [
    (("--eps", "5", "--dt", "0.5", "--t-max", "50"), None, "LinAlgError: Singular matrix"),
    (("--dt", "0.1"), _break_mass, "StepRejected: kinetic step rejected at t=0.100000"),
])
def test_numerical_failure_exits_4_with_metadata(config_path, tmp_path, monkeypatch, capsys,
                                                 args, patch, error):
    if patch is not None:
        monkeypatch.setattr(KineticEngine, "fp_rhs", patch)
    out = str(tmp_path / "out")
    code = run_cli("run", "--config", config_path, "--kind", "fp-trajectory",
                   "--out", out, *args)
    assert code == 4
    meta = read_json(os.path.join(out, "metadata.json"))
    (check,) = meta["checks"]
    assert check["name"] == "numerical_failure"
    assert check["pass"] is False
    assert check["error"].startswith(error)
    assert os.listdir(out) == ["metadata.json"]
    capsys.readouterr()
    assert run_cli("report", out) == 0
    assert f"error: {check['error']}" in capsys.readouterr().out


def test_signed_initial_ensemble_exits_1_without_traceback(tmp_path, capsys):
    # g = sigma:-1.5 makes D(0) negative in sector 1; the exact runs accept it, the oracle cannot
    signed = tmp_path / "signed.ini"
    signed.write_text(CONFIG.replace("g = sigma:0.2", "g = sigma:-1.5"))
    code = run_cli("run", "--config", str(signed), "--kind", "mc-vs-exact",
                   "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: initial: D(0) sector 1 has negative mass")
    assert "Traceback" not in err


def test_negative_seed_exits_1_without_traceback(config_path, tmp_path, capsys):
    code = run_cli("run", "--config", config_path, "--kind", "mc-vs-exact",
                   "--seed", "-1", "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed")
    assert "Traceback" not in err


def test_fp_step_that_does_not_divide_t_max_exits_1(config_path, tmp_path, capsys):
    # t_max 0.5: a 0.3 step would end the trajectory at t = 0.6
    code = run_cli("run", "--config", config_path, "--kind", "fp-trajectory",
                   "--dt", "0.3", "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dt")
    assert "Traceback" not in err


def test_fp_endpoint_check_reads_the_lattice(config_path, tmp_path, monkeypatch):
    # t_max 0.7 with dt 0.01 ends at 70 * 0.01 = 0.7000000000000001: the
    # endpoint check evaluates the series there, on the column lattice, and
    # builds no exponential after the trajectory
    expm = kinlab.operators.expm
    calls = []

    def counted_expm(a, *orbit):
        calls.append(len(a))
        return expm(a, *orbit)

    monkeypatch.setattr(kinlab.operators, "expm", counted_expm)
    integrate_fp = KineticEngine.integrate_fp
    during_run = []

    def stamped(*args, **kwargs):
        traj = integrate_fp(*args, **kwargs)
        during_run.append(len(calls))
        return traj

    monkeypatch.setattr(KineticEngine, "integrate_fp", stamped)
    out = str(tmp_path / "out")
    code = run_cli("run", "--config", config_path, "--kind", "fp-trajectory",
                   "--out", out, "--t-max", "0.7", "--dt", "0.01")
    assert code == 0
    assert during_run == [len(calls)]
    (endpoint,) = [c for c in read_json(os.path.join(out, "metadata.json"))["checks"]
                   if c["name"] == "fp_endpoint_vs_series"]
    assert endpoint["pass"]


def test_import_loads_no_scipy_and_numpy_random():
    code = ("import sys, kinlab; random = 'numpy.random' in sys.modules; "
            "import kinlab.cli; "
            "print(random, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["True", "[]"]


TINY_CORRELATED = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                               "tiny_correlated.ini")


def test_report_reads_json_tables_like_csv(tmp_path, capsys):
    printed, plots = [], []
    for fmt in ("csv", "json"):
        out = str(tmp_path / fmt)
        code = run_cli("run", "--config", TINY_CORRELATED, "--kind", "eps-convergence",
                       "--out", out, "--format", fmt)
        assert code == 2
        assert os.path.exists(os.path.join(out, f"eps_convergence.{fmt}"))
        capsys.readouterr()
        assert run_cli("report", out) == 0
        printed.append(capsys.readouterr().out)
        plots.append(read(os.path.join(out, "plot_data.csv")))
    assert "fitted_slope" in printed[1]
    assert printed[0] == printed[1]
    assert len(plots[1].splitlines()) > 1
    assert plots[0] == plots[1]


def test_report_reads_only_the_tables_of_its_run(tmp_path, capsys):
    # a cluster-verify run and then a JSON eps-convergence run into one
    # directory: the report and plot_data.csv are those of the second run alone
    shared, alone = str(tmp_path / "shared"), str(tmp_path / "alone")
    assert run_cli("run", "--config", TINY_CORRELATED, "--kind", "cluster-verify",
                   "--out", shared) == 0
    for out in (shared, alone):
        assert run_cli("run", "--config", TINY_CORRELATED, "--kind", "eps-convergence",
                       "--out", out, "--format", "json") == 2
    assert read_json(os.path.join(shared, "metadata.json"))["tables"] == ["eps_convergence.json"]
    assert os.path.exists(os.path.join(shared, "cluster_verify.csv"))
    printed, plots = [], []
    for out in (shared, alone):
        capsys.readouterr()
        assert run_cli("report", out) == 0
        printed.append(capsys.readouterr().out)
        plots.append(read(os.path.join(out, "plot_data.csv")))
    assert printed[0] == printed[1]
    assert plots[0] == plots[1]
    assert "cluster_verify" not in plots[0]
    assert len(plots[0].splitlines()) > 1


def test_report_of_a_missing_table_exits_3(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run_cli("run", "--config", TINY_CORRELATED, "--kind", "cluster-verify",
                   "--out", out) == 0
    os.remove(os.path.join(out, "cluster_verify.csv"))
    capsys.readouterr()
    assert run_cli("report", out) == 3
    assert capsys.readouterr().err.startswith("error: cannot read results")


NON_FINITE_CASES = [
    ("duality-sweep", None, ("--t-max", "inf"), "t_max"),
    ("fp-trajectory", None, ("--t-max", "inf"), "t_max"),
    ("fp-trajectory", None, ("--dt", "inf"), "dt"),
    ("duality-sweep", None, ("--eps", "inf"), "eps"),
    ("duality-sweep", ("eps = 0.05", "eps = inf"), (), "eps"),
    ("duality-sweep", ("activity = 1.0", "activity = inf"), (), "activity"),
    ("duality-sweep", ("activity = 1.0", "activity = 1e200"), (), "activity"),
    ("mc-vs-exact", ("activity = 1.0", "activity = 1e200"), (), "activity"),
    ("fp-trajectory", ("tracer0 = 0.7 0.3", "tracer0 = nan 0.3"), (), "tracer0"),
]


@pytest.mark.parametrize("kind, edit, args, key", NON_FINITE_CASES, ids=[
    f"{kind}:{' '.join(args) if edit is None else edit[1]}"
    for kind, edit, args, _ in NON_FINITE_CASES])
def test_non_finite_input_exits_1_naming_the_key(tmp_path, capsys, kind, edit, args, key):
    text = read(TINY_CORRELATED)
    if edit is not None:
        assert edit[0] in text
        text = text.replace(edit[0], edit[1])
    path = tmp_path / "model.ini"
    path.write_text(text)
    code = run_cli("run", "--config", str(path), "--kind", kind,
                   "--out", str(tmp_path / "o"), *args)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}:")
    assert "Traceback" not in err


def _edited(tmp_path, key, value):
    """A copy of tiny_correlated.ini whose `key` line reads `key = value`."""
    text, n = re.subn(rf"(?m)^{key} = .*$", lambda _: f"{key} = {value}", read(TINY_CORRELATED))
    assert n == 1
    path = tmp_path / "model.ini"
    path.write_text(text)
    return str(path)


MALFORMED = [
    ("m", "1.5", None),
    ("grid_points", "two", None),
    ("grid_weights", "1.0 x", None),
    ("eps", "abc", "--eps"),
    ("n_max", "2.5", None),
    ("rate_tracer", "constant:abc", None),
    ("rate_int", "1 2 3", None),
    ("kernel_tracer", "constant:x", None),
    ("kernel_int", "0.5", None),  # a kernel is never one bare number
    ("tracer0", "0.7 abc", None),
    ("tracer0", "0.5 0.3 0.2", None),
    ("env1", "1.0", None),
    ("g", "sigma:x", None),
    ("activity", "x", None),
    ("t_max", "abc", "--t-max"),
    ("t_max", "0.5%", "--t-max"),
    ("dt", "abc", "--dt"),
    ("series_order", "x", "--order"),
    ("mc_trajectories", "many", None),
    ("seed", "x", "--seed"),
]
MALFORMED_CASES = [(key, value, None) for key, value, _ in MALFORMED] + [
    (key, value, flag) for key, value, flag in MALFORMED if flag is not None]


@pytest.mark.parametrize("key, value, flag", MALFORMED_CASES, ids=[
    f"{key} = {value}" if flag is None else f"{flag} {value}"
    for key, value, flag in MALFORMED_CASES])
def test_malformed_value_exits_1_naming_the_key(tmp_path, capsys, key, value, flag):
    # a value that does not parse fails alike from the file and from its flag
    if flag is None:
        args = ("--config", _edited(tmp_path, key, value))
    else:
        args = ("--config", TINY_CORRELATED, flag, value)
    code = run_cli("run", *args, "--kind", "cluster-verify", "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}:")
    assert "Traceback" not in err


def test_percent_is_a_literal_character(tmp_path):
    out = str(tmp_path / "out%")
    path = _edited(tmp_path, "dir", out)
    assert run_cli("run", "--config", path, "--kind", "cluster-verify") == 0
    assert os.path.exists(os.path.join(out, "metadata.json"))
    override = str(tmp_path / "o")
    assert run_cli("run", "--config", path, "--kind", "cluster-verify", "--out", override) == 0
    assert os.path.exists(os.path.join(override, "metadata.json"))


@pytest.mark.parametrize("m", ["0", "-1"])
def test_species_count_below_1_exits_1(tmp_path, capsys, m):
    code = run_cli("run", "--config", _edited(tmp_path, "m", m), "--kind", "cluster-verify",
                   "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: m: species count must be >= 1")
    assert "Traceback" not in err


@pytest.mark.parametrize("args, code", [
    (("--kind", "duality-sweep", "--order", "8"), 1),
    (("--kind", "fp-trajectory", "--order", "8", "--t-max", "0.01"), 0),
    (("--kind", "cluster-verify"), 0),
])
def test_sector_beyond_the_partition_cap_exits_1(tmp_path, capsys, args, code):
    # a duality kind at order 8 partitions 9 labels on the scattering route;
    # the kinetic equation partitions none, at any order
    assert run_cli("run", "--config", _edited(tmp_path, "n_max", "8"), *args,
                   "--out", str(tmp_path / "o")) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: series_order: 8 needs a partition of 9 cluster labels")
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [
    ("--kind", "duality-sweep", "--order", "8"),
    ("--kind", "eps-convergence", "--order", "8"),
    ("--kind", "duality-sweep", "--order", "8", "--format", "json"),
])
def test_partition_cap_is_checked_before_any_work(tmp_path, capsys, monkeypatch, args):
    def unreachable(*_):
        raise AssertionError("expm reached before the partition cap was checked")

    monkeypatch.setattr(kinlab.operators, "expm", unreachable)
    out = tmp_path / "o"
    assert run_cli("run", "--config", _edited(tmp_path, "n_max", "8"), *args,
                   "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == "error: series_order: 8 needs a partition of 9 cluster labels, above the cap of 8\n"
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ("run", "--kind", "cluster-verify"),
    ("run", "--config", TINY_CORRELATED, "--kind", "nope"),
    ("run", "--config", TINY_CORRELATED, "--kind", "cluster-verify", "--bogus", "1"),
    ("run", "--config", TINY_CORRELATED, "--kind", "cluster-verify", "--format", "xml"),
], ids=["missing-config", "unknown-kind", "unknown-flag", "format-xml"])
def test_usage_error_exits_1(tmp_path, capsys, args):
    # exit 2 is reserved for tolerance failures
    assert run_cli(*args, "--out", str(tmp_path / "o")) == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("args", [("--help",), ("run", "--help")])
def test_help_exits_0(capsys, args):
    assert run_cli(*args) == 0
    assert "usage: kinlab" in capsys.readouterr().out
