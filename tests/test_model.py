import dataclasses
import math
import os
import re

import numpy as np
import pytest

import kinlab.model
from kinlab.model import (
    KERNEL_TOL,
    ConfigError,
    CorrelationProfile,
    MicroGrid,
    ValidationError,
    build_initial_state,
    builtin_kernel,
    load_model,
    load_model_file,
    tiny_model,
    validate_kernel,
)

TINY_TEXT = """
[model]
m = 1
grid_points = 2
grid_weights = 1.0 1.0
eps = 0.0
n_max = 2
rate_tracer = 1.0
rate_env1 = 1.0
rate_env2 = 1.0
rate_int = 1.0
kernel_tracer = uniform
kernel_env1 = uniform
kernel_env2 = uniform
kernel_int = uniform

[initial]
tracer0 = uniform
env1 = uniform
g = chaos

[run]
t_max = 1.0
dt = 1e-3
series_order = 1
"""


def test_load_tiny_config():
    config = load_model(TINY_TEXT)
    assert config.model.m == 1
    assert config.model.n_states == 2
    assert config.model.eps == 0.0
    assert config.model.n_max == 2
    np.testing.assert_allclose(config.profile.tracer0, [0.5, 0.5])


def test_model_weights_built_once_and_read_only():
    model = tiny_model()
    w = model.weights
    assert model.weights is w
    np.testing.assert_array_equal(w, [1.0, 1.0])
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 2.0
    # a copy with new fields builds its own weights
    assert model.with_eps(0.5).weights is not w


def test_load_rejects_bad_kernel_normalization():
    bad = TINY_TEXT.replace("kernel_tracer = uniform",
                            "kernel_tracer = 0.45 0.45 0.5 0.5")
    with pytest.raises(ValidationError) as err:
        load_model(bad)
    assert str(err.value) == "kernel_tracer: kernel normalization (max deviation 1.000e-01)"


def test_load_rejects_negative_rate():
    bad = TINY_TEXT.replace("rate_tracer = 1.0", "rate_tracer = -1.0 1.0")
    with pytest.raises(ValidationError, match="rate positivity"):
        load_model(bad)


def test_load_rejects_malformed_document():
    with pytest.raises(ConfigError):
        load_model("not a config at all [[[")
    with pytest.raises(ConfigError):
        load_model("[model]\ngrid_points = 2\n")  # missing sections


@pytest.mark.parametrize("section, line", [
    ("[model]", "rate_env_2 = 0.0"),  # typo: rate_env2 would silently stay 1.0
    ("[model]", "species_count = 1"),  # the dropped alias of m
    ("[initial]", "gamma = 0.2"),
    ("[run]", "t-max = 2.0"),
    ("[output]", "fmt = csv"),
])
def test_load_rejects_unknown_key(section, line):
    text = (TINY_TEXT + "\n[output]\ndir = out\n").replace(section, f"{section}\n{line}")
    key = line.split(" =")[0]
    with pytest.raises(ConfigError, match=re.escape(f"unknown key(s) in {section}: {key}")):
        load_model(text)


def test_load_accepts_every_documented_key():
    extra = {"[initial]": "activity = 1.0", "[run]": "mc_trajectories = 10\nseed = 3"}
    text = TINY_TEXT
    for section, lines in extra.items():
        text = text.replace(section, f"{section}\n{lines}")
    config = load_model(text + "\n[output]\ndir = out\nformat = json\n")
    assert (config.seed, config.out_dir, config.out_format) == (3, "out", "json")


def test_override_reads_like_the_same_edit_in_the_file():
    # an override replaces the document's text before anything is read
    edits = {"eps": "0.1", "series_order": "0", "t_max": "0.3", "dt": "0.01", "seed": "7",
             "dir": "out%", "format": "json"}
    base = TINY_TEXT.replace("[run]", "[run]\nseed = 0") + "\n[output]\ndir = d\nformat = csv\n"
    edited = base
    for key, value in edits.items():
        edited, n = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", edited)
        assert n == 1
    overridden = load_model(base, overrides=edits)
    from_file = load_model(edited)
    assert overridden.key == from_file.key != load_model(base).key
    assert (overridden.out_dir, overridden.out_format) == (from_file.out_dir, "json")
    with pytest.raises(ConfigError, match=re.escape("unknown override key(s): order")):
        load_model(base, overrides={"order": "0"})


@pytest.mark.parametrize("n_points, n_max, what", [
    (2, 70, "profile top sector"),
    (2, 10, "sector generator"),
    (3, 6, "sector generator"),
    (200, 0, "profile top sector"),
])
def test_array_budget_refuses_a_model_before_building_it(monkeypatch, n_points, n_max, what):
    # by arithmetic only: the refusal comes before a kernel or the profile is built
    def unreachable(*_, **__):
        raise AssertionError("a model array was built before the budget was checked")

    edits = {"grid_points": str(n_points), "grid_weights": "", "n_max": str(n_max)}
    largest = {2: 9, 3: 5, 200: None}[n_points]
    if largest is not None:  # the largest n_max within the budget loads
        assert load_model(TINY_TEXT, {**edits, "n_max": str(largest)}).model.n_max == largest
    monkeypatch.setattr(kinlab.model, "builtin_kernel", unreachable)
    monkeypatch.setattr(CorrelationProfile, "factorized", unreachable)
    with pytest.raises(ValidationError, match=re.escape(
            f"n_max: {n_max} on {n_points} states needs a {what} of ")):
        load_model(TINY_TEXT, edits)


def test_inline_kernel_table_human_layout():
    # rows per source state, columns over targets; uniform written by hand
    text = TINY_TEXT.replace("kernel_tracer = uniform",
                             "kernel_tracer = 0.5 0.5 0.5 0.5")
    config = load_model(text)
    np.testing.assert_allclose(config.model.kernel_tracer,
                               builtin_kernel("uniform", 1, 2, np.ones(2)))


def test_validate_kernel_uniform_passes():
    grid = MicroGrid(points=(0, 1), weights=np.ones(2))
    assert validate_kernel(builtin_kernel("uniform", 1, 2, np.ones(2)), grid) == 0.0


def test_validate_kernel_copy_passes():
    grid = MicroGrid(points=(0, 1), weights=np.ones(2))
    assert validate_kernel(builtin_kernel("copy", 2, 2, np.ones(2)), grid) <= KERNEL_TOL


def test_validate_kernel_scaled_row_fails():
    grid = MicroGrid(points=(0, 1), weights=np.ones(2))
    kernel = builtin_kernel("uniform", 1, 2, np.ones(2)).copy()
    kernel[:, 0] *= 1.1
    assert validate_kernel(kernel, grid) == pytest.approx(0.1, abs=1e-12)


def test_grid_rejects_nonpositive_weights():
    with pytest.raises(ValidationError):
        MicroGrid(points=(0, 1), weights=np.array([1.0, 0.0]))


def test_profile_requires_unit_g0():
    model = tiny_model()
    with pytest.raises(ValidationError, match="g_"):
        CorrelationProfile(tracer0=np.array([0.5, 0.5]),
                           env_reduced=(np.asarray(1.0),),
                           g=(np.array([1.0, 2.0]),))


def test_build_initial_state_chaos_nmax0():
    model = tiny_model(n_max=0)
    profile = CorrelationProfile.factorized(model, np.array([0.6, 0.4]),
                                            np.array([0.5, 0.5]), n_max=0)
    full, reduced = build_initial_state(profile, model, z=1.0)
    assert full.n_max == 0
    np.testing.assert_allclose(reduced[0].data, [0.6, 0.4], atol=1e-14)
    assert reduced[0].data @ model.weights == pytest.approx(1.0, abs=1e-12)


def test_build_initial_state_product_reduces_to_tracer0():
    # product states reduce cleanly at any activity
    model = tiny_model(n_max=2)
    tracer0 = np.array([0.7, 0.3])
    profile = CorrelationProfile.factorized(model, tracer0, np.array([0.5, 0.5]))
    _, reduced = build_initial_state(profile, model, z=0.5)
    np.testing.assert_allclose(reduced[0].data, tracer0, atol=1e-14)


def brute_force_reduction(full_sectors, weights, s):
    """Loop-based oracle for the truncated reduction sums."""
    n_states = len(weights)
    norm = 0.0
    for n, sec in enumerate(full_sectors):
        total = 0.0
        for idx in np.ndindex(*sec.shape):
            wprod = np.prod([weights[i] for i in idx])
            total += wprod * sec[idx]
        norm += total / math.factorial(n)
    out = np.zeros((n_states,) * (s + 1))
    for n in range(len(full_sectors) - s):
        sec = full_sectors[s + n]
        for idx in np.ndindex(*sec.shape):
            head, tail = idx[:s + 1], idx[s + 1:]
            wprod = np.prod([weights[i] for i in tail]) if tail else 1.0
            out[head] += wprod * sec[idx] / math.factorial(n)
    return out / norm


def test_correlated_profile_reduction_differs_from_product():
    model = tiny_model(n_max=2)
    sigma = np.array([1.0, -1.0])
    g_pair = 1.0 + 0.2 * np.multiply.outer(sigma, sigma)
    profile = CorrelationProfile.factorized(model, np.array([0.7, 0.3]),
                                            np.array([0.5, 0.5]), g_pair=g_pair,
                                            n_max=2)
    full, reduced = build_initial_state(profile, model, z=1.0)
    oracle = brute_force_reduction([sec.data for sec in full.sectors], model.weights, 1)
    np.testing.assert_allclose(reduced[1].data, oracle, atol=1e-13)
    product = np.multiply.outer(reduced[0].data, np.array([0.5, 0.5]))
    assert np.max(np.abs(reduced[1].data - product)) > 1e-3


def test_build_initial_state_rejects_bad_activity():
    model = tiny_model()
    profile = CorrelationProfile.factorized(model, np.array([0.5, 0.5]),
                                            np.array([0.5, 0.5]))
    with pytest.raises(ValidationError, match="activity"):
        build_initial_state(profile, model, z=0.0)


def test_copy_kernel_moves_mass_to_catalyst():
    kern = builtin_kernel("copy", 2, 3, np.array([1.0, 2.0, 1.0]))
    # one unit of (weighted) mass per argument pair, all on the catalyst state
    for u in range(3):
        for cat in range(3):
            col = kern[:, u, cat]
            assert col[cat] > 0
            assert np.count_nonzero(col) == 1


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


@pytest.mark.parametrize("name, key", [("tiny.ini", "9b8ed9915a5bbe10"),
                                       ("tiny_correlated.ini", "81bb6ad0462464c2")])
def test_shipped_config_hash_is_pinned(name, key):
    # the hash reads the laws in a fixed order; metadata.json records it
    assert load_model_file(os.path.join(CONFIGS, name)).key == key


def _wrong_shape(arr):
    return np.ones((3,) * arr.ndim)


def _set_first(value):
    def edit(arr):
        out = arr.copy()
        out.flat[0] = value
        return out
    return edit


LAW_KEYS = ("rate_tracer", "rate_env1", "rate_env2", "rate_int",
            "kernel_tracer", "kernel_env1", "kernel_env2", "kernel_int")
LAW_FAULTS = [("shape", _wrong_shape, "expected"),
              ("negative", _set_first(-1.0), "positivity"),
              ("nan", _set_first(math.nan), "positivity"),
              ("inf", _set_first(math.inf), "positivity"),
              ("unnormalized", lambda arr: 1.5 * arr, "kernel normalization")]
# a rate carries no normalization, so scaling it stays valid
LAW_CASES = [(key, *fault) for key in LAW_KEYS for fault in LAW_FAULTS
             if key.startswith("kernel_") or fault[0] != "unnormalized"]


@pytest.mark.parametrize("key, fault, edit, what", LAW_CASES,
                         ids=[f"{case[0]}-{case[1]}" for case in LAW_CASES])
def test_law_fault_names_its_key(key, fault, edit, what):
    model = tiny_model(kernel_int="copy")
    with pytest.raises(ValidationError) as err:
        dataclasses.replace(model, **{key: edit(getattr(model, key))})
    assert str(err.value).startswith(f"{key}: ")
    assert what in str(err.value)
