import dataclasses
import functools
import gc
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kinlab.kinetic
import kinlab.operators
from kinlab.combinatorics import (cumulant_matrix, enumerate_dissections, partition_plan,
                                  partition_products)
from kinlab.hierarchy import additive_reduced_initial
from kinlab.kinetic import KineticEngine, engine_for
from kinlab.model import CorrelationProfile, ValidationError, build_initial_state, tiny_model
from kinlab.operators import TRACER, full_selector, workspace_for
from kinlab.sectors import (SectorFunction, SequenceState, embed_with_slots, integrate_env_slots,
                            sector_inner)

from conftest import correlated_profile, fp_stage_times, random_model


@pytest.fixture
def free_engine():
    model = tiny_model(eps=0.0, rate_env2=0.0, n_max=2)
    profile = CorrelationProfile.factorized(model, np.array([0.7, 0.3]),
                                            np.array([0.6, 0.4]), n_max=3)
    return KineticEngine(model, profile)


@pytest.fixture
def coupled_engine():
    model = tiny_model(eps=0.1, rate_env2=0.0, kernel_int="copy", n_max=2)
    return KineticEngine(model, correlated_profile(model))


def test_scattering_cumulant_identity_under_factorization(free_engine):
    # g = 1, eps = 0, pair rates 0: the full semigroup cancels its inverses
    for s in (0, 1, 2):
        op = free_engine.scattering_op(0.8, tuple(range(s + 1)), (), s, np.eye(2 ** (s + 1)))
        np.testing.assert_allclose(op, np.eye(2 ** (s + 1)), atol=1e-13)


def test_scattering_cumulant_at_zero_time_is_g_multiplication(coupled_engine):
    g_pair = coupled_engine.profile.g[1]
    op = coupled_engine.scattering_op(0.0, (0, 1), (), 1, np.eye(4))
    np.testing.assert_allclose(op, np.diag(g_pair.reshape(-1)), atol=1e-14)


def test_scattering_cumulant_matches_hand_product(coupled_engine):
    model = coupled_engine.model
    ws = workspace_for(model)
    t = 0.5
    main = cumulant_matrix(model, t, [frozenset({0}), frozenset({1})], 1, "dual")
    g_emb = embed_with_slots(coupled_engine.profile.g[1], 1, (1,))
    hand = main @ np.diag(g_emb.reshape(-1)) \
        @ ws.semigroup(1, frozenset({0}), -t, "dual") \
        @ ws.semigroup(1, frozenset({1}), -t, "dual")
    got = coupled_engine.scattering_op(t, (0,), (1,), 1, np.eye(4))
    np.testing.assert_allclose(got, hand, atol=1e-12)


def test_generating_v_first_order_is_scattering_cumulant(coupled_engine):
    got = coupled_engine.generating_op(0.6, 1, 0, np.eye(4))
    want = coupled_engine.scattering_op(0.6, (0, 1), (), 1, np.eye(4))
    np.testing.assert_allclose(got, want, atol=1e-13)


def test_generating_v_second_order_vanishes_under_factorization(free_engine):
    got = free_engine.generating_op(0.6, 1, 1, np.eye(8))
    assert np.max(np.abs(got)) <= 1e-12


def test_generating_v_general_matches_displayed_formula(coupled_engine):
    """The dissection sum at n = 1 must reproduce the explicit two-term form."""
    eng = coupled_engine
    t = 0.6
    eye = np.eye(8)
    general = eng.generating_op(t, 1, 1, eye)
    main = eng.scattering_op(t, (0, 1), (2,), 2, eye)
    lead = eng.scattering_op(t, (0, 1), (), 2, eye)
    # the peeled slot 2 is anchored at the tracer or at environment slot 1
    sub = sum(eng.scattering_op(t, (h,), (2,), 2, eye) for h in (TRACER, 1))
    np.testing.assert_allclose(general, main - lead @ sub, atol=1e-11)


def test_generating_v_higher_orders_vanish_under_factorization(free_engine):
    for n in (2, 3):
        got = free_engine.generating_op(0.5, 0, n, np.eye(2 ** (n + 1)))
        assert np.max(np.abs(got)) <= 1e-11


def _scattering_matrix(eng, t, cluster, singles, sector):
    """A scattering cumulant as a product of dim x dim matrices, as a reference.

    cumulant_matrix . diag(g on the cluster's and singles' environment slots,
    tracer-anchored clusters only) . the inverse one-slot semigroups.
    """
    labels = [frozenset(cluster)] + [frozenset({j}) for j in singles]
    op = cumulant_matrix(eng.model, t, labels, sector, "dual")
    if TRACER in cluster:
        env = tuple(sorted(set(cluster) - {TRACER})) + tuple(singles)
        op = op @ np.diag(embed_with_slots(eng.profile.g[len(env)], sector, env).reshape(-1))
    for slot in sorted(set(cluster) | set(singles)):
        op = op @ eng.ws.semigroup(sector, frozenset({slot}), -t, "dual")
    return op


def _generating_matrix(eng, t, s, n):
    """The generating operator of order 1+n as a matrix, from `_scattering_matrix`.

    n! sum over k and compositions (n_1..n_k), sum <= n, of (-1)^k / rem! times
    the leading cumulant with rem = n - sum singles, times one dissection sum
    per stage j: the slots r_j+1..r_j+n_j, r_j = s + n - (n_1 + ... + n_j),
    cut into blocks, each on a distinct host among the tracer and 1..r_j.
    """
    sector = s + n
    dim = eng.model.n_states ** (sector + 1)
    total = np.zeros((dim, dim))
    for k in range(n + 1):
        for comps in itertools.product(range(1, n + 1), repeat=k):
            rem = n - sum(comps)
            if rem < 0:
                continue
            term = _scattering_matrix(eng, t, range(s + 1), range(s + 1, s + rem + 1), sector)
            r = s + n
            for nj in comps:
                r -= nj
                stage = np.zeros((dim, dim))
                for blocks in enumerate_dissections(range(r + 1, r + nj + 1), max_parts=r):
                    coeff = 1.0 / math.factorial(len(blocks)) / math.prod(
                        math.factorial(len(b)) for b in blocks)
                    for hosts in itertools.permutations([TRACER, *range(1, r + 1)], len(blocks)):
                        stage += coeff * functools.reduce(np.matmul, (
                            _scattering_matrix(eng, t, (h,), tuple(b), sector)
                            for h, b in zip(hosts, blocks)))
                term = term @ stage
            total += (-1.0) ** k / math.factorial(rem) * term
    return math.factorial(n) * total


def test_generating_op_on_columns_matches_the_matrix_products():
    model = random_model(11, n_points=3, eps=0.2, n_max=2)
    rng = np.random.default_rng(11)
    tracer0, env1 = rng.uniform(0.2, 1.0, (2, 3))
    tracer0 /= tracer0 @ model.weights
    env1 /= env1 @ model.weights
    eng = engine_for(model, correlated_profile(model, tracer0=tracer0, env1=env1))
    top = eng.profile.n_max
    assert top == 3
    cases = [(s, n) for s in range(1, top + 1) for n in range(3) if s + n <= top]
    for t in (0.37, -0.37):
        for s, n in cases:
            x = rng.uniform(-1.0, 1.0, (3 ** (s + n + 1), 3))
            ref = _generating_matrix(eng, t, s, n) @ x
            got = eng.generating_op(t, s, n, x)
            assert got.shape == x.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_reduced_distribution_free_relaxation(free_engine):
    # K = 0: pure tracer semigroup; two-state model relaxes like e^{-t}
    for t in (0.5, 1.0, 2.0):
        got = free_engine.reduced_distribution(t, 0).values
        want = 0.5 + (np.array([0.7, 0.3]) - 0.5) * np.exp(-t)
        np.testing.assert_allclose(got, want, atol=1e-13)


def test_reduced_distribution_initial_instant(coupled_engine):
    got = coupled_engine.reduced_distribution(0.0, 2)
    np.testing.assert_allclose(got.values, [0.7, 0.3], atol=1e-14)
    assert got.mass_drift == pytest.approx(0.0, abs=1e-14)


def test_reduced_distribution_order_independent_without_coupling(free_engine):
    base = free_engine.reduced_distribution(0.9, 0).values
    for order in (1, 2):
        got = free_engine.reduced_distribution(0.9, order).values
        np.testing.assert_allclose(got, base, atol=1e-12)


def test_reduced_distribution_series_conserves_mass(coupled_engine):
    for t in (0.3, 0.9, 1.7):
        for order in (0, 1, 2):
            dist = coupled_engine.reduced_distribution(t, order)
            assert abs(dist.mass_drift) <= 1e-12


def test_state_functional_chaos_factorizes(free_engine):
    # the free-evolved environment factors reproduce tracer (x) environment exactly
    t = 0.9
    f1 = free_engine.reduced_distribution(t, 0).values
    f_env = free_engine.free_env_marginal(t)
    for order in (0, 1, 2):
        got = free_engine.state_functional(t, f1, 1, order, route="scattering")
        np.testing.assert_allclose(got.data, np.multiply.outer(f1, f_env), atol=1e-13)


def test_state_functional_initial_instant_chaos(free_engine):
    got = free_engine.state_functional(0.0, np.array([0.7, 0.3]), 1, 1)
    want = np.multiply.outer(np.array([0.7, 0.3]), np.array([0.6, 0.4]))
    np.testing.assert_allclose(got.data, want, atol=1e-14)


def test_state_functional_resolvent_matches_scattering_at_chaos(free_engine):
    t = 0.7
    f1 = free_engine.reduced_distribution(t, 2).values
    a = free_engine.state_functional(t, f1, 1, 2, route="scattering")
    b = free_engine.state_functional(t, f1, 1, 2, route="resolvent")
    np.testing.assert_allclose(a.data, b.data, atol=1e-12)


def test_state_functional_cap(coupled_engine):
    with pytest.raises(ValueError, match="cap"):
        coupled_engine.state_functional(0.5, np.array([0.7, 0.3]), 2, 3)


def test_series_term_cap(coupled_engine):
    with pytest.raises(ValueError, match="cap exceeded"):
        coupled_engine.series_term_matrix(0.5, coupled_engine.profile.n_max + 1)


def test_duality_exact_under_factorization():
    model = tiny_model(eps=0.0, rate_env2=0.0, n_max=2)
    profile = CorrelationProfile.factorized(model, np.array([0.7, 0.3]),
                                            np.array([0.6, 0.4]), n_max=3)
    b0 = additive_reduced_initial(np.array([1.0, 0.0]), np.array([1.0, -1.0]), 2)
    rep = engine_for(model, profile).duality_check(b0, 0.8, 0)
    assert rep.abs_residual <= 1e-10


def test_duality_exact_for_chaos_with_coupling():
    # chaos initial data: the K = 1 functional representation is exact here
    model = tiny_model(eps=0.1, rate_env2=0.0, kernel_int="copy", n_max=2)
    profile = CorrelationProfile.factorized(model, np.array([0.7, 0.3]),
                                            np.array([0.6, 0.4]), n_max=3)
    b0 = additive_reduced_initial(np.array([1.0, 0.0]), np.array([1.0, -1.0]), 2)
    rep = engine_for(model, profile).duality_check(b0, 0.5, 1)
    assert rep.abs_residual <= 1e-12


def test_duality_small_residual_with_correlations():
    model = tiny_model(eps=0.05, rate_env2=0.0, kernel_int="copy", n_max=2)
    profile = correlated_profile(model)
    b0 = additive_reduced_initial(np.array([1.0, 0.0]), np.array([1.0, -1.0]), 2)
    rep = engine_for(model, profile).duality_check(b0, 0.25, 1)
    assert rep.abs_residual <= 1e-6


def test_duality_two_ary_environment_observable():
    # the s >= 2-ary case pairs against the (1+2)-sector functional
    model = tiny_model(eps=0.05, rate_env2=0.0, kernel_int="copy", n_max=2)
    profile = correlated_profile(model, depth=4)
    sigma = np.array([1.0, -1.0])
    pair_obs = np.multiply.outer(sigma, sigma)
    b0 = SequenceState((
        SectorFunction(0, np.zeros(2)),
        SectorFunction(1, np.zeros((2, 2))),
        SectorFunction(2, np.broadcast_to(pair_obs[np.newaxis, :, :], (2, 2, 2)).copy()),
    ), kind="observable")
    rep = engine_for(model, profile).duality_check(b0, 0.25, 1)
    assert rep.abs_residual <= 1e-4
    assert abs(rep.lhs) > 1e-3  # non-trivial comparison


def test_duality_rhs_pairs_functionals_of_nonzero_sectors_only(monkeypatch):
    model = tiny_model(eps=0.05, rate_env2=0.0, kernel_int="copy", n_max=3)
    eng = engine_for(model, correlated_profile(model, depth=4))
    b0 = additive_reduced_initial(np.array([1.0, 0.0]), np.array([1.0, -1.0]), 3)
    built = []
    functional = KineticEngine.state_functional

    def counted(self, t, F1, s, *args, **kwargs):
        built.append(s)
        return functional(self, t, F1, s, *args, **kwargs)

    monkeypatch.setattr(KineticEngine, "state_functional", counted)
    rep = eng.duality_check(b0, 0.25, 1)
    # the additive observable's sectors 2 and 3 are zero
    assert built == [1]
    f1 = eng.reduced_distribution(0.25, 3).values
    f2 = functional(eng, 0.25, f1, 1, 1, recon_order=3).data
    w = model.weights
    assert rep.rhs == sector_inner(b0[0].data, f1, w) + sector_inner(b0[1].data, f2, w)


@pytest.mark.parametrize("route", ["resolvent", "scattering"])
@pytest.mark.parametrize("s", [1, 2])
def test_state_functional_columns_match_single_columns(route, s):
    # environment pairs on, three tracer columns, s + K at the profile's cap
    model = random_model(37, n_points=3, eps=0.2, n_max=2)
    rng = np.random.default_rng(37)
    tracer0, env1 = rng.uniform(0.2, 1.0, (2, 3))
    tracer0 /= tracer0 @ model.weights
    env1 /= env1 @ model.weights
    profile = correlated_profile(model, tracer0=tracer0, env1=env1)
    eng = engine_for(model, profile)
    F = rng.uniform(0.1, 1.0, (3, 3))
    t, order = 0.45, 3 - s
    cols = eng._state_functionals(t, F, s, order, route)
    assert cols.shape == (3,) * (s + 1) + (3,)
    for j in range(3):
        single = eng.state_functional(t, F[:, j], s, order, route=route)
        np.testing.assert_allclose(cols[..., j], single.data, rtol=0, atol=1e-15)


def test_rhs_matrix_solves_once_per_build(coupled_engine, monkeypatch):
    solve = np.linalg.solve
    rhs_shapes = []

    def counted(a, b):
        rhs_shapes.append(np.shape(b))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    coupled_engine.rhs_matrix(0.3, 2)
    coupled_engine.rhs_matrix(0.3, 2)
    assert rhs_shapes == [(2, 2)]


def test_fp_rhs_free_part_only_without_coupling(free_engine):
    f = np.array([0.7, 0.3])
    got = free_engine.fp_rhs(f, 0.4, 2)
    gen = free_engine.ws.generator(0, {TRACER}, "dual")
    np.testing.assert_allclose(got, gen @ f, atol=1e-13)
    uniform = np.array([0.5, 0.5])
    np.testing.assert_allclose(free_engine.fp_rhs(uniform, 0.4, 2), 0.0, atol=1e-13)


def test_fp_rhs_collision_mass_balance(coupled_engine):
    rng = np.random.default_rng(0)
    w = coupled_engine.model.weights
    for t in (0.2, 0.7):
        f = rng.uniform(0.1, 1.0, 2)
        f /= f @ w
        out = coupled_engine.fp_rhs(f, t, 1)
        assert abs(out @ w) <= 1e-11


@pytest.mark.parametrize("order", [1, 2])
def test_kinetic_equation_identity(order):
    """d/dt of the distribution series equals the kinetic right-hand side."""
    model = tiny_model(eps=0.1, rate_env2=1.0, kernel_int="copy", n_max=2)
    profile = correlated_profile(model)
    eng = engine_for(model, profile)
    dt = 1e-4
    for t in (0.1, 0.5, 1.0):
        plus = eng.reduced_distribution(t + dt, order).values
        minus = eng.reduced_distribution(t - dt, order).values
        fd = (plus - minus) / (2 * dt)
        rhs = eng.fp_rhs(eng.reduced_distribution(t, order).values, t, order)
        assert np.max(np.abs(fd - rhs)) <= 1e-5


def test_integrate_fp_free_matches_analytic():
    model = tiny_model(eps=0.0, n_max=2)
    profile = CorrelationProfile.factorized(model, np.array([0.75, 0.25]),
                                            np.array([0.5, 0.5]))
    traj = engine_for(model, profile).integrate_fp(np.array([0.75, 0.25]), 2.0, 1e-3, 0)
    for td in traj[::250]:
        analytic = 0.5 + (np.array([0.75, 0.25]) - 0.5) * np.exp(-td.t)
        assert np.max(np.abs(td.values - analytic)) <= 1e-9


def test_integrate_fp_mass_conserved_and_positive():
    model = tiny_model(eps=0.05, rate_env2=0.0, kernel_int="copy", n_max=2)
    profile = CorrelationProfile.factorized(model, np.array([0.7, 0.3]),
                                            np.array([0.6, 0.4]), n_max=3)
    traj = engine_for(model, profile).integrate_fp(np.array([0.7, 0.3]), 2.0, 1e-3, 1)
    assert max(abs(td.mass_drift) for td in traj) <= 1e-9
    assert min(td.values.min() for td in traj) >= -1e-9


def test_integrate_fp_endpoint_matches_series():
    model = tiny_model(eps=0.05, rate_env2=0.0, kernel_int="copy", n_max=2)
    profile = correlated_profile(model)
    eng = engine_for(model, profile)
    traj = eng.integrate_fp(np.array([0.7, 0.3]), 2.0, 1e-3, 1)
    series = eng.reduced_distribution(2.0, 1).values
    assert np.max(np.abs(traj[-1].values - series)) <= 1e-5


def test_integrate_fp_rejects_bad_step():
    model = tiny_model(eps=0.0, n_max=2)
    profile = CorrelationProfile.factorized(model, np.array([0.75, 0.25]),
                                            np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        engine_for(model, profile).integrate_fp(np.array([0.75, 0.25]), 1.0, -0.1, 0)


def test_integrate_fp_rejects_step_that_does_not_divide_t_max():
    model = tiny_model(eps=0.0, n_max=2)
    profile = CorrelationProfile.factorized(model, np.array([0.75, 0.25]),
                                            np.array([0.5, 0.5]))
    eng = engine_for(model, profile)
    # 0.5 / 0.3 rounds to 2 steps, which would end the trajectory at t = 0.6
    with pytest.raises(ValidationError, match="dt"):
        eng.integrate_fp(np.array([0.75, 0.25]), 0.5, 0.3, 0)
    assert eng.integrate_fp(np.array([0.75, 0.25]), 0.5, 0.1, 0)[-1].t == pytest.approx(0.5)


# dt = inf made zero steps, whose end 0 * inf = nan slipped past the divide check
@pytest.mark.parametrize("t_max,dt,key", [(-0.5, 0.1, "t_max"), (0.0, 0.1, "t_max"),
                                          (0.5, 0.0, "dt"), (0.5, -0.1, "dt"),
                                          (math.inf, 0.1, "t_max"), (0.5, math.inf, "dt")])
def test_integrate_fp_rejects_nonpositive_times(coupled_engine, t_max, dt, key):
    with pytest.raises(ValidationError, match=f"^{key}:"):
        coupled_engine.integrate_fp(np.array([0.75, 0.25]), t_max, dt, 0)


@pytest.mark.parametrize("route", ["resolvent", "scattering"])
def test_series_order_bound_is_the_model_n_max(coupled_engine, route):
    # the profile carries n_max 3, so only the model's n_max 2 bounds the order
    order = coupled_engine.model.n_max + 1
    calls = [
        lambda: coupled_engine.rhs_matrix(0.5, order, route=route),
        lambda: coupled_engine.integrate_fp(np.array([0.75, 0.25]), 0.1, 0.1, order, route=route),
        lambda: coupled_engine.series_matrix(0.5, order),
        lambda: coupled_engine.reduced_distribution(0.5, order),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="^order:"):
            call()
    coupled_engine.rhs_matrix(0.5, order - 1, route=route)


def test_collision_matrix_is_the_gain_loss_integral():
    model = random_model(7, n_points=3, n_max=2)
    n, w = model.n_states, model.weights
    uniform = np.ones(n) / w.sum()
    eng = engine_for(model, CorrelationProfile.factorized(model, uniform, uniform))
    a, A = model.rate_int, model.kernel_int
    # coll[u, (v, z)] = w_z (w_v a(v, z) A(u; v, z) - delta_uv a(u, z))
    reference = np.einsum("z,v,vz,uvz->uvz", w, w, a, A).reshape(n, n * n)
    for u in range(n):
        reference[u, u * n:(u + 1) * n] -= a[u] * w
    coll = eng.collision_matrix(np.eye(n * n))
    np.testing.assert_allclose(coll, reference, rtol=0, atol=1e-15)
    np.testing.assert_allclose(w @ coll, 0.0, atol=1e-15)


def test_kinetic_stack_on_weighted_grid():
    """Quadrature weights thread through the whole kinetic machinery."""
    model = random_model(77, n_points=3, eps=0.1, n_max=2)
    n = model.n_states
    w = model.weights
    rng = np.random.default_rng(3)
    tracer0 = rng.uniform(0.5, 1.5, n)
    tracer0 /= tracer0 @ w
    env1 = rng.uniform(0.5, 1.5, n)
    env1 /= env1 @ w
    free = type(model)(
        m=model.m, grid=model.grid, eps=model.eps, n_max=model.n_max,
        rate_tracer=model.rate_tracer, rate_env1=model.rate_env1,
        rate_env2=np.zeros((n, n)), rate_int=model.rate_int,
        kernel_tracer=model.kernel_tracer, kernel_env1=model.kernel_env1,
        kernel_env2=model.kernel_env2, kernel_int=model.kernel_int,
    )
    profile = CorrelationProfile.factorized(free, tracer0, env1, n_max=3)
    eng = KineticEngine(free, profile)
    o_t = rng.uniform(-1, 1, n)
    o_e = rng.uniform(-1, 1, n)
    b0 = additive_reduced_initial(o_t, o_e, 2)
    assert eng.duality_check(b0, 0.4, 1).abs_residual <= 1e-12
    # pair rates and correlations back on: kinetic identity and trajectory
    sigma = np.array([1.0, -1.0, 1.0])
    g_pair = 1.0 + 0.15 * np.multiply.outer(sigma, sigma)
    profile2 = CorrelationProfile.factorized(model, tracer0, env1, g_pair=g_pair,
                                             n_max=3)
    eng2 = KineticEngine(model, profile2)
    dt = 1e-4
    fd = (eng2.reduced_distribution(0.8 + dt, 1).values
          - eng2.reduced_distribution(0.8 - dt, 1).values) / (2 * dt)
    rhs = eng2.fp_rhs(eng2.reduced_distribution(0.8, 1).values, 0.8, 1)
    assert np.max(np.abs(fd - rhs)) <= 1e-5
    traj = eng2.integrate_fp(tracer0, 1.0, 1e-3, 1)
    assert max(abs(td.mass_drift) for td in traj) <= 1e-9
    endpoint_err = np.max(np.abs(traj[-1].values
                                 - eng2.reduced_distribution(1.0, 1).values))
    assert endpoint_err <= 1e-5


def _fp_kinetic_case():
    """A model and correlated profile of the fp-kinetic shape (3 states, n_max 3)."""
    model = random_model(43, n_points=3, eps=0.1, n_max=3)
    w = model.weights
    rng = np.random.default_rng(43)
    tracer0 = rng.uniform(0.2, 1.0, 3)
    tracer0 /= tracer0 @ w
    env1 = rng.uniform(0.2, 1.0, 3)
    env1 /= env1 @ w
    sigma = np.array([1.0, -1.0, 1.0])
    profile = CorrelationProfile.factorized(
        model, tracer0, env1, g_pair=1.0 + 0.2 * np.multiply.outer(sigma, sigma), n_max=3)
    return model, profile


def _fp_kinetic_expm_dims(t_max):
    """expm sizes of an RK4 run of the fp-kinetic shape at K 3."""
    model, profile = _fp_kinetic_case()
    expm = kinlab.operators.expm
    dims = []

    def counted(a, *orbit):
        dims.append(a.shape[0])
        return expm(a, *orbit)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kinlab.operators, "expm", counted)
        traj = engine_for(model, profile).integrate_fp(profile.tracer0, t_max, 0.01, 3)
    assert len(traj) == int(round(t_max / 0.01)) + 1
    return dims


def test_rk4_calls_expm_at_most_twice_per_sector_per_new_time():
    # only canonical selectors (tracer plus 0..n_max environment slots, or
    # 1..n_max without the tracer) reach expm, at most once per new |t|:
    # |t| = 0, 0.005, 0.01, 0.015, 0.02
    dims = _fp_kinetic_expm_dims(0.02)
    assert 0 < len(dims) <= 5 * 2 * 4
    assert max(dims) == 3 ** 4


def test_rk4_expm_count_does_not_grow_with_steps():
    # on the half-step lattice every later stage time is a product
    assert _fp_kinetic_expm_dims(0.2) == _fp_kinetic_expm_dims(0.02)


def _tiny_copy_kernel_case():
    model = tiny_model(eps=0.3, rate_env2=1.0, kernel_int="copy", n_max=4)
    return model, correlated_profile(model)


LATTICE_CASES = {"random-3-state": _fp_kinetic_case, "tiny-copy-kernel": _tiny_copy_kernel_case}


def _lattice_values(eng, t):
    """The series matrix and the resolvent pair functional that rhs_matrix uses, at t."""
    k = eng.model.n_max
    n = eng.model.n_states
    return (eng.series_matrix(t, k),
            eng._state_functionals(t, np.eye(n), 1, k - 1, "resolvent", recon_order=k))


def _direct_values(model, profile, t):
    """The same values from a fresh engine, whose columns come from the workspace."""
    return _lattice_values(engine_for(model, profile), t)


@pytest.mark.parametrize("case", sorted(LATTICE_CASES))
def test_column_lattice_drift_over_1000_half_steps(case):
    model, profile = LATTICE_CASES[case]()
    eng = engine_for(model, profile)
    worst = 0.0
    for i, t in enumerate(fp_stage_times(0.01, 500)):
        got = _lattice_values(eng, t)
        if i % 20 == 19:
            for a, b in zip(got, _direct_values(model, profile, t)):
                worst = max(worst, np.max(np.abs(a - b)) / np.max(np.abs(b)))
    # the index lattice ends at t_max itself, after 1000 products per sector
    assert t == 5.0
    assert {j for j, *_ in eng._lattice.values()} == {1000}
    assert worst <= 1e-12


def _counting_semigroups(mp):
    calls = []
    semigroup = kinlab.operators.Workspace.semigroup

    def counted(self, *args):
        calls.append(args)
        return semigroup(self, *args)

    mp.setattr(kinlab.operators.Workspace, "semigroup", counted)
    return calls


def test_column_lattice_step_builds_no_semigroup(monkeypatch):
    model, profile = _fp_kinetic_case()
    eng = engine_for(model, profile)
    calls = _counting_semigroups(monkeypatch)
    times = list(fp_stage_times(0.01, 20))
    for t in times[:2]:
        eng.rhs_matrix(t, 3)
    # t = 0 is the basis itself; the step h builds E once
    assert {args[2] for args in calls} == {times[1]}
    del calls[:]
    for t in times[2:]:
        eng.rhs_matrix(t, 3)
    assert calls == []


def test_column_lattice_interleaved_with_negative_and_off_lattice_times(monkeypatch):
    model, profile = _fp_kinetic_case()
    eng = engine_for(model, profile)
    calls = _counting_semigroups(monkeypatch)
    grid = [t for i, t in enumerate(fp_stage_times(0.01, 40)) if i % 4 in (0, 1)]
    off = [-grid[9], 0.1234, -0.1234, grid[3], 0.5678]
    for t, on_lattice in ([(t, True) for t in grid[:10]] + [(t, False) for t in off[:4]]
                          + [(t, True) for t in grid[10:20]] + [(off[4], False)]
                          + [(t, True) for t in grid[20:]]):
        before = len(calls)
        got = _lattice_values(eng, t)
        # past t = 0 and h, a lattice time builds no semigroup and an off one does
        if t > grid[1]:
            assert (len(calls) == before) == on_lattice
        for a, b in zip(got, _direct_values(model, profile, t)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)
    # off-lattice times left the index where the lattice times put it
    assert {j for j, *_ in eng._lattice.values()} == {len(grid) - 1}


def test_column_lattice_memory_flat_in_the_step_count():
    model, profile = _fp_kinetic_case()
    eng = engine_for(model, profile)
    times = list(fp_stage_times(0.01, 200))
    for t in times[:8]:
        eng.rhs_matrix(t, 3)
    tracemalloc.start()
    try:
        for t in times[8:400]:
            eng.rhs_matrix(t, 3)
        early = tracemalloc.get_traced_memory()[0]
        for t in times[400:]:
            eng.rhs_matrix(t, 3)
        late = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # less than one column stack of the top sector: Bell(4) x 81 x 3 floats
    assert late - early <= 8 * 15 * 81 * 3
    # the lattice holds sum_k Bell(k+1) (dim_k^2 + dim_k n_states) floats
    held = sum(step.nbytes + cols.nbytes for _, cols, _, step in eng._lattice.values())
    assert held == 8 * sum(bell * (3 ** (2 * k + 2) + 3 ** (k + 2))
                           for k, bell in enumerate((1, 2, 5, 15)))
    # the readouts Bell(s+n+1) + n_states^n floats per (s, n): the series
    # terms (0, 0..3) and the pair functional's (1, 0..2); the collision
    # block n_states x n_states^2
    bell = (1, 1, 2, 5, 15)
    readouts = sum(a.nbytes + w_env.nbytes for a, w_env in eng._readouts.values())
    assert sorted(eng._readouts) == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2)]
    assert readouts == 8 * sum(bell[s + n + 1] + 3 ** n for s, n in eng._readouts)
    assert eng._collision.shape == (3, 9)


def _moebius_loop_term(model, profile, t, s, n):
    """The (s, n) correlated term summed partition by partition, as a reference.

    The dual cumulant of the cluster {tracer, 1..s} and the singles applied
    to the dressed tracer basis, its environment slots above s integrated
    out one by one, divided by n!.
    """
    k, n_states = s + n, model.n_states
    labels = [frozenset({j}) for j in range(k + 1)]
    dress = profile.g[k] * (profile.env_reduced[k][np.newaxis, ...] if k > 0 else 1.0)
    tracer_axis = np.arange(n_states).reshape((n_states,) + (1,) * k)
    basis = np.stack([dress * (tracer_axis == u) for u in range(n_states)], axis=-1)
    cluster = frozenset(range(s + 1))
    total = 0.0
    for (_, unions), (mu, term) in zip(
            partition_plan(model, labels),
            partition_products(model, t, labels, k, "dual", basis.reshape(-1, n_states))):
        if any(cluster <= union for union in unions):
            total = total + mu * term
    total = np.moveaxis(total.reshape(basis.shape), -1, 0)
    return np.moveaxis(integrate_env_slots(total, model.weights, s + 1), 0, -1) / math.factorial(n)


@pytest.mark.parametrize("case", sorted(LATTICE_CASES))
def test_correlated_term_matches_the_moebius_loop(case):
    model, profile = LATTICE_CASES[case]()
    eng = engine_for(model, profile)
    h = 0.005
    lattice = [j * h for j in range(4)]
    times = lattice + [-0.37, 0.123] + [4 * h, 5 * h]
    for t in times:
        for s in range(model.n_max + 1):
            # relative to the series the term belongs to: a higher-order term
            # is a cancellation of O(1) columns, exactly 0 at t = 0
            scale = np.max(np.abs(_moebius_loop_term(model, profile, t, s, 0)))
            for n in range(model.n_max + 1 - s):
                got = eng._correlated_term(t, s, n)
                ref = _moebius_loop_term(model, profile, t, s, n)
                assert got.shape == ref.shape == (model.n_states,) * (s + 2)
                assert np.max(np.abs(got - ref)) <= 1e-13 * scale
    # the lattice times were read off the lattice, the others left it alone
    assert {j for j, *_ in eng._lattice.values()} == {5}


def test_fp_endpoint_is_read_off_the_lattice(monkeypatch):
    model, profile = _fp_kinetic_case()
    eng = engine_for(model, profile)
    expm = kinlab.operators.expm
    fp_rhs = KineticEngine.fp_rhs
    expm_calls, at_rhs = [], []

    def counted_expm(a, *orbit):
        expm_calls.append(a.shape[0])
        return expm(a, *orbit)

    def stamped(*args, **kwargs):
        at_rhs.append(len(expm_calls))
        return fp_rhs(*args, **kwargs)

    monkeypatch.setattr(kinlab.operators, "expm", counted_expm)
    monkeypatch.setattr(KineticEngine, "fp_rhs", stamped)
    traj = eng.integrate_fp(profile.tracer0, 0.5, 0.01, 3)
    eng.reduced_distribution(0.5, 3)
    assert len(at_rhs) == 4 * 50
    # every expm call falls in the first step; the endpoint builds nothing
    assert len(expm_calls) == 7 and at_rhs[4] == 7
    assert [td.t for td in traj] == [i * 0.01 for i in range(51)]
    assert traj[-1].t == 0.5


def test_duality_lhs_built_once_per_observable_and_time(monkeypatch):
    model = tiny_model(eps=0.05, rate_env2=0.0, kernel_int="copy", n_max=3)
    eng = engine_for(model, correlated_profile(model, depth=4))
    b0 = additive_reduced_initial(np.array([1.0, 0.0]), np.array([1.0, -1.0]), 3)
    solution = kinlab.kinetic.dual_bbgky_solution
    solved = []

    def counted(*args):
        solved.append(args[3])
        return solution(*args)

    monkeypatch.setattr(kinlab.kinetic, "dual_bbgky_solution", counted)
    reports = [eng.duality_check(b0, 0.25, order, route=route)
               for order in (0, 1) for route in ("resolvent", "scattering")]
    assert solved == list(range(model.n_max + 1))
    assert len({rep.lhs for rep in reports}) == 1
    # a new time, or another observable, builds its own
    eng.duality_check(b0, -0.25, 1)
    b1 = additive_reduced_initial(np.array([0.0, 1.0]), np.array([1.0, -1.0]), 3)
    eng.duality_check(b1, -0.25, 1)
    assert len(solved) == 3 * (model.n_max + 1)


def test_series_terms_decay_geometrically_for_small_data():
    """Small environment density: successive series terms shrink (ratio < 1)."""
    model = tiny_model(eps=0.3, rate_env2=0.0, kernel_int="copy", n_max=3)
    sparse_env = 0.3 * np.array([0.6, 0.4])  # low-density environment marginal
    profile = CorrelationProfile.factorized(model, np.array([0.7, 0.3]),
                                            sparse_env, n_max=4)
    eng = KineticEngine(model, profile)
    t = 0.8
    norms = []
    for n in range(0, 4):
        term = eng.series_term_matrix(t, n) @ profile.tracer0
        norms.append(np.max(np.abs(term)))
    ratios = [norms[n + 1] / norms[n] for n in range(1, 3) if norms[n] > 0]
    assert norms[1] / norms[0] < 1
    assert all(r < 1 for r in ratios)


def test_scattering_route_memoizes_no_sector_operator():
    model = tiny_model(eps=0.05, rate_env2=0.0, kernel_int="copy", n_max=2)
    eng = engine_for(model, correlated_profile(model))
    rng = np.random.default_rng(5)
    b0 = SequenceState(tuple(SectorFunction(s, rng.uniform(-1, 1, (2,) * (s + 1)))
                             for s in range(3)), kind="observable")
    eng.duality_check(b0, 0.4, 1, route="scattering")
    held = [value for key, value in eng.ws.latest._values.items() if key[1] is eng]
    assert held
    # tracer-space matrices and column stacks only: no dim x dim operator of a sector
    assert not any(isinstance(v, np.ndarray) and v.ndim == 2 and v.shape[0] == v.shape[1] > 2
                   for v in held)


def _engine_values(eng, t):
    b0 = SequenceState(tuple(SectorFunction(s, np.full((2,) * (s + 1), 0.3 + s))
                             for s in range(3)), kind="observable")
    report = eng.duality_check(b0, t, 1)
    return [eng.series_matrix(t, 2), eng.rhs_matrix(t, 1),
            eng.state_functional(t, eng.profile.tracer0, 1, 1).data,
            np.array([report.lhs, report.rhs])]


def test_two_engines_share_one_store_and_no_entry():
    def build(profile):
        model = tiny_model(eps=0.1, rate_env2=0.0, kernel_int="copy", n_max=2)
        return KineticEngine(model, profile(model))

    chaos = functools.partial(correlated_profile, gamma=0.0)
    correlated = build(correlated_profile)
    factorized = KineticEngine(correlated.model, chaos(correlated.model))
    for t in (0.3, 0.7, 0.3):
        for eng, profile in ((correlated, correlated_profile), (factorized, chaos)):
            got = _engine_values(eng, t)
            want = _engine_values(build(profile), t)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
    store = correlated.ws.latest._values
    assert {abs(key[0]) for key in store} == {0.3}
    assert {correlated, factorized} <= {key[1] for key in store}


def test_integrate_fp_releases_first_step_semigroups(coupled_engine):
    dt = 0.01
    # a semigroup at a stage time is not kept past the run
    first = coupled_engine.ws.semigroup(1, full_selector(1), dt, "dual")
    ref = weakref.ref(first)
    del first
    traj = coupled_engine.integrate_fp(coupled_engine.profile.tracer0, 50 * dt, dt, 1)
    assert len(traj) == 51
    gc.collect()
    assert ref() is None


def test_integrate_fp_drops_the_semigroups_of_h_after_the_first_step(monkeypatch):
    model, profile = _fp_kinetic_case()
    eng = engine_for(model, profile)
    build = kinlab.operators.Workspace._semigroup
    fp_rhs = KineticEngine.fp_rhs
    built, alive = [], []

    def kept(self, *args):
        out = build(self, *args)
        built.append(weakref.ref(out))
        return out

    def stamped(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in built))
        return fp_rhs(*args, **kwargs)

    monkeypatch.setattr(kinlab.operators.Workspace, "_semigroup", kept)
    monkeypatch.setattr(KineticEngine, "fp_rhs", stamped)
    eng.integrate_fp(profile.tracer0, 0.5, 0.01, 3)
    # every semigroup is built at t = h, and none outlives the first step
    assert len(built) == 26
    assert alive[:5] == [0, 0, 26, 26, 0]
    assert not any(alive[4:])


def test_short_profile_is_one_validation_error():
    model = tiny_model(n_max=3)
    profile = CorrelationProfile.factorized(model, [0.7, 0.3], [0.6, 0.4], n_max=2)
    messages = []
    for build in (lambda: KineticEngine(model, profile),
                  lambda: build_initial_state(profile, model)):
        with pytest.raises(ValidationError) as err:
            build()
        messages.append(str(err.value))
    assert messages == ["profile: fewer correlation sectors than model n_max"] * 2


F1 = np.array([0.7, 0.3])

# calls outside the engine's domain; the profile carries n_max 3
DOMAIN_CASES = {
    "scattering s+n > n_max": lambda e: e.scattering_op(0.5, (0, 1, 2), (3, 4), 4, np.eye(32)),
    "generating s+n > n_max": lambda e: e.generating_op(0.5, 1, 3, np.eye(32)),
    "generating n > n_max": lambda e: e.generating_op(0.5, 0, 4, np.eye(32)),
    "functional s < 1": lambda e: e.state_functional(0.5, F1, 0, 1),
    "functional s+K > n_max": lambda e: e.state_functional(0.5, F1, 2, 2),
}


@pytest.mark.parametrize("case", sorted(DOMAIN_CASES))
def test_engine_domain(coupled_engine, case):
    assert coupled_engine.profile.n_max == 3
    with pytest.raises(ValueError) as err:
        DOMAIN_CASES[case](coupled_engine)
    if "n_max" in case:
        assert str(err.value).startswith("cap exceeded")
    else:
        assert str(err.value) == "state functionals start at the (1+1)-sector"


def _random_duality_case(model, seed, gamma):
    """An additive observable and pair-correlated and chaos profiles of depth n_max + 1."""
    n, n_max, w = model.n_states, model.n_max, model.weights
    rng = np.random.default_rng(seed)
    tracer0, env1 = rng.uniform(0.2, 1.0, (2, n))
    tracer0 /= tracer0 @ w
    env1 /= env1 @ w
    b0 = additive_reduced_initial(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n), n_max)
    sigma = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n)])
    g_pair = 1.0 + gamma * np.multiply.outer(sigma, sigma)
    correlated = CorrelationProfile.factorized(model, tracer0, env1, g_pair=g_pair,
                                               n_max=n_max + 1)
    chaos = CorrelationProfile.factorized(model, tracer0, env1, n_max=n_max + 1)
    return b0, correlated, chaos


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_points=st.integers(2, 3), n_max=st.integers(1, 3),
       eps=st.floats(0.0, 0.3), gamma=st.floats(-0.3, 0.3), t=st.floats(0.0, 1.5),
       data=st.data())
def test_duality_exact_on_random_models_without_env_pairs(seed, n_points, n_max, eps,
                                                          gamma, t, data):
    """rate_env2 = 0: the resolvent route is exact with pair correlations and
    the scattering route is exact for chaos data, at every K <= n_max."""
    model = random_model(seed, n_points=n_points, eps=eps, n_max=n_max)
    n = model.n_states
    model = dataclasses.replace(model, rate_env2=np.zeros((n, n)))
    order = data.draw(st.integers(0, n_max), label="K")
    b0, correlated, chaos = _random_duality_case(model, seed, gamma)
    rep = engine_for(model, correlated).duality_check(b0, t, order, route="resolvent")
    assert rep.abs_residual <= 1e-12
    rep = engine_for(model, chaos).duality_check(b0, t, order, route="scattering")
    assert rep.abs_residual <= 1e-12


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_points=st.integers(2, 3), n_max=st.integers(1, 3),
       eps=st.floats(0.0, 0.3), gamma=st.floats(-0.3, 0.3), t=st.floats(0.0, 1.5))
def test_duality_exact_on_random_models_with_env_pairs(seed, n_points, n_max, eps, gamma, t):
    """rate_env2 > 0: the resolvent route at K = n_max - 1, where the pair
    functional's s + K is the model n_max, is exact with pair correlations
    and for chaos data."""
    model = random_model(seed, n_points=n_points, eps=eps, n_max=n_max)
    assert np.all(model.rate_env2 > 0)
    b0, correlated, chaos = _random_duality_case(model, seed, gamma)
    for profile in (correlated, chaos):
        rep = engine_for(model, profile).duality_check(b0, t, n_max - 1, route="resolvent")
        assert rep.abs_residual <= 1e-12


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_points=st.integers(2, 3), n_max=st.integers(1, 3),
       eps=st.floats(0.0, 0.3), gamma=st.floats(-0.3, 0.3), data=st.data())
def test_kinetic_identity_on_random_models_with_env_pairs(seed, n_points, n_max, eps, gamma,
                                                          data):
    """rate_env2 > 0: the central difference of the distribution series at
    order K matches the resolvent-route kinetic right-hand side, K = 1..n_max."""
    model = random_model(seed, n_points=n_points, eps=eps, n_max=n_max)
    assert np.all(model.rate_env2 > 0)
    order = data.draw(st.integers(1, n_max), label="K")
    _, correlated, _ = _random_duality_case(model, seed, gamma)
    eng = engine_for(model, correlated)
    dt = 1e-4
    for t in (0.1, 0.6, 1.2):
        fd = (eng.reduced_distribution(t + dt, order).values
              - eng.reduced_distribution(t - dt, order).values) / (2 * dt)
        rhs = eng.fp_rhs(eng.reduced_distribution(t, order).values, t, order)
        assert np.max(np.abs(fd - rhs)) <= 1e-6
