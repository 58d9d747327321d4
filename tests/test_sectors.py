import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinlab.sectors import (
    SectorFunction,
    SequenceState,
    embed_env_vector,
    embed_with_slots,
    integrate_env_slots,
    sector_inner,
    sector_mass,
    slot_weights,
    symmetrize_env,
)


def test_sector_function_symmetrizes_on_write():
    data = np.arange(8.0).reshape(2, 2, 2)
    sec = SectorFunction(2, data)
    np.testing.assert_allclose(sec.data, sec.data.transpose(0, 2, 1))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 6))
def test_permuting_env_slots_is_identity_after_storage(seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((2, 2, 2, 2))
    sec = SectorFunction(3, data)
    for perm in itertools.permutations(range(1, 4)):
        np.testing.assert_allclose(sec.data, sec.data.transpose((0,) + perm), atol=0)


def _permutation_average(data):
    perms = list(itertools.permutations(range(1, data.ndim)))
    acc = np.zeros_like(data, dtype=float)
    for perm in perms:
        acc += data.transpose((0,) + perm)
    return acc / len(perms)


@pytest.mark.parametrize("n, s", [(3, 2), (2, 3), (3, 3), (2, 4), (3, 4), (2, 5), (3, 5)])
def test_symmetrize_env_matches_the_permutation_loop(n, s):
    # the coset product against the sum over all s! permutations; the bound
    # was fixed before measuring
    data = np.random.default_rng(10 * n + s).standard_normal((n,) * (s + 1))
    before = data.copy()
    got = symmetrize_env(data)
    assert np.max(np.abs(got - _permutation_average(data))) <= 1e-14 * np.max(np.abs(data))
    np.testing.assert_array_equal(data, before)


def test_sector_function_rejects_nonfinite():
    with pytest.raises(ValueError):
        SectorFunction(0, np.array([1.0, np.nan]))


def test_embed_with_slots_places_axes():
    small = np.arange(4.0).reshape(2, 2)  # (tracer, env)
    big = embed_with_slots(small, 3, (2,))
    for i, j, k, l in np.ndindex(2, 2, 2, 2):
        assert big[i, j, k, l] == small[i, k]


def test_embed_env_vector():
    vec = np.array([3.0, 5.0])
    big = embed_env_vector(vec, 2, 2)
    for i, j, k in np.ndindex(2, 2, 2):
        assert big[i, j, k] == vec[k]


def test_integrate_env_slots_quadrature():
    w = np.array([1.0, 2.0])
    data = np.ones((2, 2, 2))
    out = integrate_env_slots(data, w, 1)
    np.testing.assert_allclose(out, 3.0 * np.ones((2, 2)))


def test_sector_inner_weighted():
    w = np.array([2.0, 1.0])
    a = np.array([1.0, 4.0])
    b = np.array([3.0, 0.5])
    assert sector_inner(a, b, w) == pytest.approx(2 * 3 + 1 * 2)


def _einsum_weights(data, weights, axes):
    """Brute force: sum data against the weights on each of the given axes."""
    letters = "abcde"[:data.ndim]
    kept = "".join(c for i, c in enumerate(letters) if i not in axes)
    spec = ",".join([letters] + [letters[i] for i in axes])
    return np.einsum(f"{spec}->{kept}", data, *[weights] * len(axes))


@pytest.mark.parametrize("n_states", [2, 3])
@pytest.mark.parametrize("s", [0, 1, 2, 3, 4])
def test_slot_quadrature_matches_brute_force_sums(n_states, s):
    # positive terms: every sum agrees to a relative 1e-14
    rng = np.random.default_rng(10 * n_states + s)
    w = rng.uniform(0.5, 1.5, n_states)
    a, b = rng.uniform(0.1, 1.0, (2,) + (n_states,) * (s + 1))
    every_slot = tuple(range(s + 1))
    letters = "abcde"[:s + 1]
    cells = np.einsum(f"{','.join(letters)}->{letters}", *[w] * (s + 1)).reshape(-1)
    np.testing.assert_allclose(slot_weights(w, s + 1), cells, rtol=1e-14, atol=0)
    np.testing.assert_array_equal(slot_weights(w, 0), [1.0])
    for n_out in range(s + 1):
        got = integrate_env_slots(a, w, n_out)
        assert got.shape == (n_states,) * (n_out + 1)
        ref = _einsum_weights(a, w, tuple(range(n_out + 1, s + 1)))
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)
    ref = _einsum_weights(a * b, w, every_slot)
    assert sector_inner(a, b, w) == pytest.approx(float(ref), rel=1e-14, abs=0)
    ref = _einsum_weights(a, w, every_slot)
    assert sector_mass(a, w) == pytest.approx(float(ref), rel=1e-14, abs=0)


def test_sequence_state_requires_contiguous_arity():
    s0 = SectorFunction(0, np.ones(2))
    s2 = SectorFunction(2, np.ones((2, 2, 2)))
    with pytest.raises(ValueError):
        SequenceState((s0, s2), kind="observable")


def test_partition_norm_matches_direct_sum():
    w = np.array([1.0, 1.0])
    s0 = SectorFunction(0, np.array([1.0, 1.0]))
    s1 = SectorFunction(1, np.full((2, 2), 0.5))
    seq = SequenceState((s0, s1), kind="distribution")
    assert seq.partition_norm(w) == pytest.approx(2.0 + 0.5 * 4 / 1.0)


def test_pair_sums_common_sectors_with_factorial_weights():
    w = np.array([2.0, 1.0])
    a = SequenceState((SectorFunction(0, np.array([1.0, 3.0])),
                       SectorFunction(1, np.full((2, 2), 2.0)),
                       SectorFunction(2, np.ones((2, 2, 2)))), kind="observable")
    b = SequenceState((SectorFunction(0, np.array([0.5, 1.0])),
                       SectorFunction(1, np.eye(2))), kind="distribution")
    # sector 2 of a has no partner; sector 1 carries 1/1!
    want = (2 * 0.5 + 1 * 3.0) + (2 * 2 * 2.0 + 1 * 1 * 2.0)
    assert a.pair(b, w) == pytest.approx(want)
    assert b.pair(a, w) == a.pair(b, w)
