import gc
import math
import tracemalloc
import weakref

from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kinlab.operators
from kinlab.model import tiny_model
from kinlab.operators import (
    ORBIT_MIN_DIM,
    TRACER,
    build_dual_generator,
    build_forward_generator,
    evolve,
    expm,
    full_selector,
    workspace_for,
)
from kinlab.operators import _orbit_map
from kinlab.sectors import SectorFunction, sector_inner

from conftest import fp_stage_times, random_model


def test_tiny_tracer_generator_matrix(tiny):
    gen = build_forward_generator(tiny, 0, {TRACER})
    np.testing.assert_allclose(gen, [[-0.5, 0.5], [0.5, -0.5]], atol=1e-15)


def test_interaction_block_vanishes_without_coupling(tiny):
    # eps = 0: selected pair block is the tensor sum of one-slot operators
    gen = build_forward_generator(tiny, 1, {TRACER, 1})
    lone_t = build_forward_generator(tiny, 0, {TRACER})
    expected = np.kron(lone_t, np.eye(2)) + np.kron(np.eye(2), lone_t)
    np.testing.assert_allclose(gen, expected, atol=1e-14)


def test_zero_rates_give_zero_generator():
    model = tiny_model()
    zeroed = type(model)(
        m=model.m, grid=model.grid, eps=model.eps, n_max=model.n_max,
        rate_tracer=np.zeros(2), rate_env1=np.zeros(2),
        rate_env2=np.zeros((2, 2)), rate_int=np.zeros((2, 2)),
        kernel_tracer=model.kernel_tracer, kernel_env1=model.kernel_env1,
        kernel_env2=model.kernel_env2, kernel_int=model.kernel_int,
    )
    gen = build_forward_generator(zeroed, 2, full_selector(2))
    assert np.max(np.abs(gen)) == 0.0


def test_selector_out_of_range(tiny):
    with pytest.raises(ValueError):
        build_forward_generator(tiny, 1, {TRACER, 2})


def test_dual_tiny_matches_forward_symmetric_case(tiny):
    fw = build_forward_generator(tiny, 0, {TRACER})
    du = build_dual_generator(tiny, 0, {TRACER})
    np.testing.assert_allclose(fw, du, atol=1e-15)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_adjointness_random_models(seed, s):
    model = random_model(seed)
    rng = np.random.default_rng(seed + 100)
    fw = build_forward_generator(model, s, full_selector(s))
    du = build_dual_generator(model, s, full_selector(s))
    w = model.weights
    worst = 0.0
    for _ in range(100):
        b = rng.standard_normal((model.n_states,) * (s + 1))
        f = rng.standard_normal((model.n_states,) * (s + 1))
        lhs = sector_inner((fw @ b.reshape(-1)).reshape(b.shape), f, w)
        rhs = sector_inner(b, (du @ f.reshape(-1)).reshape(f.shape), w)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12


@pytest.mark.parametrize("s", [0, 1, 2])
def test_dual_annihilates_mass_forward_annihilates_constants(s):
    model = random_model(3)
    rng = np.random.default_rng(5)
    fw = build_forward_generator(model, s, full_selector(s))
    du = build_dual_generator(model, s, full_selector(s))
    ones = np.ones((model.n_states,) * (s + 1)).reshape(-1)
    assert np.max(np.abs(fw @ ones)) <= 1e-12
    w = model.weights
    for _ in range(100):
        f = rng.uniform(0, 1, (model.n_states,) * (s + 1))
        out = (du @ f.reshape(-1)).reshape(f.shape)
        total = out
        for _ in range(s + 1):
            total = np.tensordot(total, w, axes=([total.ndim - 1], [0]))
        assert abs(float(total)) <= 1e-12


def test_evolve_identity_at_zero_time(tiny):
    gen = build_dual_generator(tiny, 0, {TRACER})
    f = SectorFunction(0, np.array([0.3, 0.7]))
    np.testing.assert_allclose(evolve(gen, 0.0, f).data, f.data, atol=1e-15)


def test_evolve_tiny_dual_frozen_value(tiny):
    gen = build_dual_generator(tiny, 0, {TRACER})
    out = evolve(gen, 1.0, SectorFunction(0, np.array([1.0, 0.0])))
    # 2x2 eigen-decomposition: eigenvalues 0 and -1
    expected = np.array([(1 + np.exp(-1)) / 2, (1 - np.exp(-1)) / 2])
    np.testing.assert_allclose(out.data, expected, atol=1e-13)
    np.testing.assert_allclose(out.data, [0.68394, 0.31606], atol=5e-6)


def test_evolve_negative_time_inverts(tiny_coupled):
    gen = build_dual_generator(tiny_coupled, 1, full_selector(1))
    rng = np.random.default_rng(2)
    f = SectorFunction(1, rng.uniform(0, 1, (2, 2)))
    back = evolve(gen, -0.8, evolve(gen, 0.8, f))
    np.testing.assert_allclose(back.data, f.data, atol=1e-10)


def test_evolve_rejects_arity_mismatch(tiny):
    gen = build_dual_generator(tiny, 1, full_selector(1))
    with pytest.raises(ValueError, match="arity"):
        evolve(gen, 1.0, SectorFunction(0, np.array([1.0, 0.0])))


@settings(max_examples=20, deadline=None)
@given(t1=st.floats(0.0, 2.0), t2=st.floats(0.0, 2.0))
def test_semigroup_property(t1, t2):
    model = random_model(11, n_points=2)
    gen = build_forward_generator(model, 1, full_selector(1))
    f = SectorFunction(1, np.arange(4.0).reshape(2, 2) / 4.0)
    once = evolve(gen, t1 + t2, f)
    twice = evolve(gen, t2, evolve(gen, t1, f))
    np.testing.assert_allclose(once.data, twice.data, atol=1e-10)


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 2.0, 5.0])
def test_forward_semigroup_row_sums_bounded(t):
    # stochastic-kernel models: max row sum after exponentiation stays at 1
    model = random_model(7, n_points=3)
    ws = workspace_for(model)
    mat = ws.semigroup(1, full_selector(1), t, "forward")
    assert np.max(np.sum(np.abs(mat), axis=1)) <= 1.0 + 1e-10


@pytest.mark.parametrize("t", [0.1, 1.0, 3.0])
def test_dual_positivity(t):
    model = random_model(13)
    ws = workspace_for(model)
    rng = np.random.default_rng(17)
    mat = ws.semigroup(1, full_selector(1), t, "dual")
    for _ in range(50):
        f = rng.uniform(0, 1, mat.shape[1])
        assert np.min(mat @ f) >= -1e-12


def test_compose_partition_disjoint_blocks_commute():
    model = random_model(19, n_points=2, n_max=4)
    ws = workspace_for(model)
    rng = np.random.default_rng(23)
    f = SectorFunction(4, rng.uniform(0, 1, (2,) * 5)).flat
    left, right = ws.semigroup(4, {1, 2}, 0.6, "dual"), ws.semigroup(4, {3, 4}, 0.6, "dual")
    np.testing.assert_allclose(right @ (left @ f), left @ (right @ f), atol=1e-13)


@pytest.mark.parametrize("s", [0, 1])
def test_adjointness_two_species(s):
    model = random_model(5, n_points=2, m=2, eps=0.2)
    rng = np.random.default_rng(31)
    w = model.weights
    fw = build_forward_generator(model, s, full_selector(s))
    du = build_dual_generator(model, s, full_selector(s))
    shape = (model.n_states,) * (s + 1)
    for _ in range(50):
        b = rng.standard_normal(shape)
        f = rng.standard_normal(shape)
        lhs = sector_inner((fw @ b.reshape(-1)).reshape(shape), f, w)
        rhs = sector_inner(b, (du @ f.reshape(-1)).reshape(shape), w)
        assert abs(lhs - rhs) <= 1e-12


def test_semigroup_frees_gathered_and_superseded_values(tiny):
    # the memo keeps every semigroup at the latest |t| and nothing older
    ws = workspace_for(tiny)
    sel = full_selector(1)
    at_t = ws.semigroup(1, sel, 0.3, "dual")
    ref = weakref.ref(at_t)
    ws.semigroup(1, sel, -0.3, "dual")
    assert ws.semigroup(1, sel, 0.3, "dual") is at_t
    del at_t
    ws.semigroup(1, sel, 0.7, "dual")
    gc.collect()
    assert ref() is None
    # a gathered semigroup and the canonical one it was gathered from, after
    # the stage times 0, 0.35 of an RK4 run: both go at the next |t|
    for t in (0.0, 0.35):
        ws.semigroup(2, frozenset({TRACER}), t, "dual")
    gathered = ws.semigroup(2, frozenset({TRACER}), 0.7, "dual")
    source = ws.semigroup(0, frozenset({TRACER}), 0.7, "dual")
    assert not np.shares_memory(gathered, source)
    refs = [weakref.ref(gathered), weakref.ref(source)]
    del gathered, source
    ws.semigroup(1, sel, 1.05, "dual")
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_semigroup_memory_flat_over_a_time_sweep():
    model = random_model(12, n_points=3, eps=0.2)
    ws = workspace_for(model)
    s = 2
    selectors = _selectors(s)
    # per direction: every value at one |t|, that is each selector's and each
    # canonical key's it gathers from, none larger than the sector
    n_canonical = 2 * (s + 1) - 1
    bound = 2 * (len(selectors) + n_canonical) * 8 * 3 ** (2 * s + 2)

    def sweep(times):
        for t in times:
            for sel in selectors:
                for direction in ("forward", "dual"):
                    ws.semigroup(s, sel, t, direction)

    grid = list(fp_stage_times(0.01, 200))
    sweep(grid[:8])
    tracemalloc.start()
    try:
        sweep(grid[8:80] + [-0.3, 0.123, 0.3] + grid[80:200])
        early = tracemalloc.get_traced_memory()[0]
        sweep(grid[200:])
        late = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert late <= bound
    assert late - early <= 8 * 3 ** (2 * s + 2)


def _selectors(s):
    slots = range(s + 1)
    return [frozenset(c) for k in range(1, s + 2) for c in combinations(slots, k)]


@pytest.mark.parametrize("model, top", [
    (random_model(2, n_points=3), 3),
    (random_model(6, n_points=2), 4),
    (tiny_model(eps=0.1, rate_env2=1.0, kernel_int="copy"), 4),
], ids=["random-3-state", "random-2-state", "tiny-copy-kernel"])
def test_semigroup_provider_matches_dense_expm(model, top):
    # every selector, both directions, t and -t, against kinlab's dense expm
    # of the generator on the whole sector (what `evolve` computes)
    assert np.min(model.rate_env2) > 0
    ws = workspace_for(model)
    build = {"forward": build_forward_generator, "dual": build_dual_generator}
    for s in range(top + 1):
        for sel in _selectors(s):
            for direction in ("forward", "dual"):
                gen = build[direction](model, s, sel)
                for t in (0.6, -0.6):
                    np.testing.assert_allclose(ws.semigroup(s, sel, t, direction),
                                               expm(t * gen), rtol=0, atol=1e-13)


def _longdouble_expm(a):
    """e^a by scaling to norm 1/4, Taylor to convergence and squaring, in long double."""
    a = a.astype(np.longdouble)
    norm = float(np.abs(a).sum(axis=0).max())
    s = max(0, int(np.ceil(np.log2(norm / 0.25)))) if norm > 0 else 0
    a = a / np.longdouble(2) ** s
    term = np.eye(len(a), dtype=np.longdouble)
    out = term.copy()
    for k in range(1, 40):
        term = term @ a / k
        out += term
        if np.abs(term).max() <= 1e-22 * np.abs(out).max():
            break
    for _ in range(s):
        out = out @ out
    return out


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="np.longdouble has no more precision than float64 here")
def test_expm_matches_a_long_double_reference():
    # generators of whole sectors up to dim 81, both directions, forward and
    # backward in time; the bound was fixed before measuring
    cases = [(random_model(2, n_points=3), 3),
             (tiny_model(eps=0.1, rate_env2=1.0, kernel_int="copy"), 4)]
    build = (build_forward_generator, build_dual_generator)
    for model, top in cases:
        for s in range(top + 1):
            for b in build:
                gen = b(model, s, full_selector(s))
                for t in (0.6, -0.6, -2.0):
                    ref = _longdouble_expm(t * gen)
                    err = np.max(np.abs(expm(t * gen) - ref))
                    assert err <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_expm_edges():
    gen = build_dual_generator(random_model(2, n_points=3), 2, full_selector(2))
    np.testing.assert_array_equal(expm(0.0 * gen), np.eye(27))
    np.testing.assert_array_equal(expm(np.array([[0.7]])), [[np.exp(0.7)]])
    for bad in (np.nan, np.inf):
        a = gen.copy()
        a[3, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            expm(a)
    with pytest.raises(ValueError, match="square"):
        expm(np.zeros((2, 3)))
    # overflow of the powers (alpha = inf) or of e^a is a LinAlgError, which
    # the CLI reports as a numerical failure
    with pytest.raises(np.linalg.LinAlgError, match="overflow"):
        expm(1e200 * gen)
    with pytest.raises(np.linalg.LinAlgError, match="overflow"):
        expm(1000.0 * np.eye(3))


def test_expm_stays_bounded_at_long_forward_times(tiny):
    # e^(t L) of a forward generator tends to a stochastic projector; the
    # trace-shifted e^A alone would overflow at t = 2000
    gen = build_forward_generator(tiny, 0, full_selector(0))
    np.testing.assert_allclose(expm(2000.0 * gen), np.full((2, 2), 0.5), rtol=0, atol=1e-13)
    gen = build_forward_generator(random_model(2, n_points=3), 2, full_selector(2))
    e = expm(2000.0 * gen)
    assert np.isfinite(e).all() and e.min() > -1e-12
    np.testing.assert_allclose(e.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_semigroup_rejects_bad_selector(tiny):
    ws = workspace_for(tiny)
    for sel in (frozenset(), frozenset({TRACER, 3}), frozenset({-1})):
        with pytest.raises(ValueError):
            ws.semigroup(2, sel, 0.5, "dual")
    with pytest.raises(ValueError, match="direction"):
        ws.semigroup(2, frozenset({1}), 0.5, "sideways")


def test_workspace_released_with_its_model():
    model = tiny_model()
    ws = workspace_for(model)
    assert workspace_for(model) is ws
    ref = weakref.ref(ws)
    del model, ws
    gc.collect()
    assert ref() is None


def _canonical_selectors(k):
    return (frozenset(range(k + 1)), frozenset(range(1, k + 1)))


def _permuted_slots(mat, n, k, perm):
    """mat with environment slots 1..k relabelled by perm, on rows and columns alike."""
    axes = (0,) + tuple(1 + p for p in perm)
    axes = axes + tuple(k + 1 + a for a in axes)
    return mat.reshape((n,) * (2 * k + 2)).transpose(axes).reshape(mat.shape)


@pytest.mark.parametrize("seed", [0, 4])
def test_canonical_generators_commute_with_environment_slot_permutations(seed):
    # the symmetry the orbit path rests on; the bound was fixed before measuring
    model = random_model(seed, n_points=3)
    assert np.min(model.rate_env2) > 0
    ws = workspace_for(model)
    n = model.n_states
    for k in (2, 3, 4):
        for sel in _canonical_selectors(k):
            for direction in ("forward", "dual"):
                gen = ws.generator(k, sel, direction)
                for perm in permutations(range(k)):
                    diff = np.max(np.abs(_permuted_slots(gen, n, k, perm) - gen))
                    assert diff <= 1e-14


@pytest.mark.parametrize("n, k", [(2, 1), (3, 2), (2, 4), (3, 4)])
def test_orbit_map_gathers_a_slot_symmetric_matrix(n, k):
    # an integer matrix symmetrized over the environment slots is exactly
    # invariant, so the gather from its representative columns is exact
    om = _orbit_map(n, k)
    dim = n ** (k + 1)
    assert len(om.cols) == n * math.comb(n + k - 1, k)
    digits = np.indices((n,) * (k + 1)).reshape(k + 1, dim)
    assert np.all(np.diff(digits[1:, om.cols], axis=0) >= 0)
    raw = np.random.default_rng(k).integers(-9, 10, (dim, dim)).astype(float)
    sym = sum(_permuted_slots(raw, n, k, perm) for perm in permutations(range(k)))
    thin = np.ascontiguousarray(sym[:, om.cols])
    np.testing.assert_array_equal(om.gather(thin), sym)
    np.testing.assert_array_equal(thin.reshape(-1)[om.rows], sym[om.cols])


def test_sector_4_semigroup_on_orbit_columns_matches_dense_expm(monkeypatch):
    # dim 243: the workspace passes the orbit map; the bound was fixed before measuring
    model = random_model(5, n_points=3)
    ws = workspace_for(model)
    passed = []

    def recording(a, *orbit):
        passed.append((len(a), bool(orbit)))
        return expm(a, *orbit)

    monkeypatch.setattr(kinlab.operators, "expm", recording)
    for sel in _canonical_selectors(4):
        for direction in ("forward", "dual"):
            gen = ws.generator(4, sel, direction)
            for t in (0.6, -0.6, 2.0, -2.0):
                ref = expm(t * gen)
                got = ws.semigroup(4, sel, t, direction)
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert passed == [(243, True)] * 16


def test_sector_6_two_state_semigroup_on_orbit_columns_matches_dense_expm(monkeypatch):
    # dim 128, the threshold itself: the tracer semigroup, forward and dual,
    # goes through the map, within the bound of the dim-243 case
    model = random_model(6, n_points=2, n_max=6)
    ws = workspace_for(model)
    passed = []

    def recording(a, *orbit):
        passed.append((len(a), bool(orbit)))
        return expm(a, *orbit)

    monkeypatch.setattr(kinlab.operators, "expm", recording)
    for direction in ("forward", "dual"):
        gen = ws.generator(6, full_selector(6), direction)
        for t in (0.6, -0.6, 2.0):
            ref = expm(t * gen)
            got = ws.semigroup(6, full_selector(6), t, direction)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert passed == [(128, True)] * 6


def test_orbit_map_is_passed_from_its_threshold_dimension_up(monkeypatch):
    # below ORBIT_MIN_DIM the dense path runs unchanged, and no map is passed
    passed = {}

    def recording(a, *orbit):
        passed[len(a)] = bool(orbit)
        return expm(a, *orbit)

    monkeypatch.setattr(kinlab.operators, "expm", recording)
    for model, top in ((random_model(1, n_points=3), 4), (random_model(1, n_points=2), 7)):
        ws = workspace_for(model)
        for k in range(top + 1):
            for sel in _canonical_selectors(k):
                if sel:
                    ws.semigroup(k, sel, 0.3, "dual")
    assert ORBIT_MIN_DIM == 128
    assert passed == {dim: dim >= ORBIT_MIN_DIM
                      for dim in (2, 4, 8, 16, 32, 64, 128, 256, 3, 9, 27, 81, 243)}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_expm_on_orbit_columns_keeps_every_check():
    model = random_model(2, n_points=3)
    gen = build_dual_generator(model, 4, full_selector(4))
    om = workspace_for(model).orbit_map(4)
    np.testing.assert_array_equal(expm(0.0 * gen, om), np.eye(243))
    bad = gen.copy()
    bad[3, 5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        expm(bad, om)
    with pytest.raises(np.linalg.LinAlgError, match="the powers of the input overflow"):
        expm(1e200 * gen, om)
    shifted = gen + 1000.0 * np.eye(243)
    with pytest.raises(np.linalg.LinAlgError, match="the result overflows"):
        expm(shifted, om)
