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
