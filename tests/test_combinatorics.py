import math
from itertools import combinations

import numpy as np
import pytest

from kinlab.combinatorics import (
    MAX_ELEMENTS,
    cumulant_matrix,
    enumerate_dissections,
    enumerate_partitions,
    verify_cluster_expansion,
)
from kinlab.model import tiny_model
from kinlab.operators import TRACER, full_selector, workspace_for

from conftest import random_model


def brute_force_partitions(items):
    """Independent recursive enumeration used as the counting oracle."""
    items = list(items)
    if not items:
        return [[]]
    head, rest = items[0], items[1:]
    out = []
    for part in brute_force_partitions(rest):
        for i in range(len(part)):
            out.append(part[:i] + [[head] + part[i]] + part[i + 1:])
        out.append([[head]] + part)
    return out


@pytest.mark.parametrize("n,bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
def test_partition_counts_match_bell(n, bell):
    assert sum(1 for _ in enumerate_partitions(range(n))) == bell
    assert len(brute_force_partitions(range(n))) == bell


def test_partitions_unique_and_complete():
    got = {frozenset(frozenset(b) for b in p) for p in enumerate_partitions(range(5))}
    want = {frozenset(frozenset(b) for b in p) for p in brute_force_partitions(range(5))}
    assert got == want
    assert len(got) == 52


def test_partition_cap():
    with pytest.raises(ValueError):
        list(enumerate_partitions(range(MAX_ELEMENTS + 1)))


def brute_force_dissections(items, max_parts):
    """All ways to cut the ordered list into <= max_parts consecutive runs."""
    n = len(items)
    out = []
    for k in range(1, min(max_parts, n) + 1):
        for cuts in combinations(range(1, n), k - 1):
            bounds = (0,) + cuts + (n,)
            out.append([items[bounds[i]:bounds[i + 1]] for i in range(k)])
    return out


@pytest.mark.parametrize("n,cap", [(1, 1), (3, 3), (3, 1), (4, 2), (5, 5)])
def test_dissection_counts_match_oracle(n, cap):
    items = list(range(n))
    got = list(enumerate_dissections(items, cap))
    want = brute_force_dissections(items, cap)
    assert len(got) == len(want)
    assert [tuple(map(tuple, d)) for d in got] == [tuple(map(tuple, d)) for d in want]
    for d in got:
        flat = [x for part in d for x in part]
        assert flat == items  # concatenation restores the set


def test_dissections_three_elements_cap_three_frozen_count():
    # consecutive-interval reading: compositions of 3 -> 4 dissections
    assert sum(1 for _ in enumerate_dissections([1, 2, 3], 3)) == 4


def test_dissections_cap_one():
    assert list(enumerate_dissections([1, 2, 3], 1)) == [[[1, 2, 3]]]


def mobius_partition_lattice(n):
    """Independent Moebius computation on the partition lattice via zeta inversion.

    Returns mu(0-hat, 1-hat) for the lattice of partitions of an n-set,
    computed by recursive inversion of sum_{pi <= sigma} mu(0, pi) = [sigma = 0].
    """
    parts = [frozenset(frozenset(b) for b in p) for p in brute_force_partitions(range(n))]

    def refines(a, b):
        return all(any(block <= other for other in b) for block in a)

    discrete = frozenset(frozenset({i}) for i in range(n))
    mu = {}

    def mu_of(sigma):
        if sigma in mu:
            return mu[sigma]
        if sigma == discrete:
            mu[sigma] = 1
            return 1
        total = sum(mu_of(pi) for pi in parts if pi != sigma and refines(pi, sigma))
        mu[sigma] = -total
        return mu[sigma]

    top = frozenset({frozenset(range(n))})
    return mu_of(top)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cumulant_coefficients_match_lattice_mobius(n):
    assert mobius_partition_lattice(n) == (-1) ** (n - 1) * math.factorial(n - 1)


def test_first_cumulant_is_semigroup(tiny_coupled):
    ws = workspace_for(tiny_coupled)
    t = 0.7
    got = cumulant_matrix(tiny_coupled, t, [{TRACER}], 0, "forward")
    np.testing.assert_allclose(got, ws.semigroup(0, frozenset({TRACER}), t, "forward"),
                               atol=1e-13)
    got2 = cumulant_matrix(tiny_coupled, t, [{TRACER, 1}], 1, "dual")
    np.testing.assert_allclose(got2, ws.semigroup(1, full_selector(1), t, "dual"),
                               atol=1e-13)


def test_second_cumulant_vanishes_without_coupling(tiny):
    got = cumulant_matrix(tiny, 0.7, [{TRACER}, {1}], 1, "forward")
    assert np.max(np.abs(got)) <= 1e-12


def test_second_cumulant_two_term_formula(tiny_coupled):
    ws = workspace_for(tiny_coupled)
    t = 0.7
    got = cumulant_matrix(tiny_coupled, t, [{TRACER}, {1}], 1, "forward")
    direct = ws.semigroup(1, full_selector(1), t, "forward") \
        - ws.semigroup(1, frozenset({TRACER}), t, "forward") \
        @ ws.semigroup(1, frozenset({1}), t, "forward")
    np.testing.assert_allclose(got, direct, atol=1e-12)
    assert np.max(np.abs(got)) > 1e-4  # nonzero with coupling on


def test_dual_second_cumulant_two_term_formula(tiny_coupled):
    ws = workspace_for(tiny_coupled)
    t = 0.7
    got = cumulant_matrix(tiny_coupled, t, [{TRACER}, {1}], 1, "dual")
    direct = ws.semigroup(1, full_selector(1), t, "dual") \
        - ws.semigroup(1, frozenset({TRACER}), t, "dual") \
        @ ws.semigroup(1, frozenset({1}), t, "dual")
    np.testing.assert_allclose(got, direct, atol=1e-12)


@pytest.mark.parametrize("order", [2, 3])
def test_cumulants_vanish_at_time_zero(tiny_full, order):
    singles = list(range(1, order))
    got = cumulant_matrix(tiny_full, 0.0, [{TRACER}] + [{j} for j in singles], order - 1,
                          "forward")
    assert np.max(np.abs(got)) <= 1e-12


def test_cumulant_rejects_overlapping_labels(tiny):
    with pytest.raises(ValueError, match="overlap"):
        cumulant_matrix(tiny, 0.5, [frozenset({0, 1}), frozenset({1})], 1, "forward")


@pytest.mark.parametrize("s,n", [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 1)])
def test_cluster_expansion_reconstruction_tiny(tiny_full, s, n):
    assert verify_cluster_expansion(tiny_full, 0.5, s, n) <= 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cluster_expansion_reconstruction_random(seed):
    model = random_model(seed, n_points=2, n_max=4)
    for s, n in [(2, 2), (3, 1)]:
        assert verify_cluster_expansion(model, 0.3, s, n) <= 1e-9


def test_cluster_expansion_two_species():
    model = random_model(5, n_points=2, m=2, eps=0.2)
    assert verify_cluster_expansion(model, 0.4, 2, 1) <= 1e-9


def test_mixed_cumulants_vanish_under_full_factorization():
    # eps = 0 and zero pair rates: any cumulant mixing tracer and environment dies
    model = tiny_model(eps=0.0, rate_env2=0.0, n_max=3)
    for singles in ([1], [1, 2], [1, 2, 3]):
        got = cumulant_matrix(model, 0.9, [{TRACER}] + [{j} for j in singles], len(singles),
                              "forward")
        assert np.max(np.abs(got)) <= 1e-12
