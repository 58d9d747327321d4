"""Sector tensors: functions on (species x micro-state)^(1+s).

A sector function lives on 1+s entity slots.  Slot 0 is the tracer, slots
1..s hold environment entities and are kept symmetric under permutation.
Observables, distributions and correlation functions all share this layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SectorFunction",
    "SequenceState",
    "symmetrize_env",
    "embed_with_slots",
    "embed_env_vector",
    "slot_weights",
    "integrate_env_slots",
    "sector_inner",
    "sector_mass",
]


def symmetrize_env(data: np.ndarray) -> np.ndarray:
    """Average a sector array over all permutations of the environment axes.

    The sum over the permutations of the slots 1..s factors into coset sums,
    prod_(k=2..s) (1 + sum_(j<k) (j k)), so the average is s(s-1)/2 axis
    swaps added in and one division by k per factor: after factor k the
    array is symmetric in the slots 1..k.
    """
    s = data.ndim - 1
    if s <= 1:
        return data
    out = np.asarray(data, dtype=float)
    for k in range(2, s + 1):
        acc = out.copy()
        for j in range(1, k):
            acc += np.swapaxes(out, j, k)
        out = acc / k
    return out


@dataclass(frozen=True)
class SectorFunction:
    """Real array over (J x U)^(1+s); slot 0 is the tracer.

    ``data`` is stored fully (no canonical deduplication) and symmetrized
    over the environment slots at construction time.
    """

    s: int
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != self.s + 1:
            raise ValueError(f"sector arity {self.s} needs {self.s + 1} axes, got {arr.ndim}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sector data contains non-finite entries")
        arr = symmetrize_env(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def flat(self) -> np.ndarray:
        return self.data.reshape(-1)


def embed_with_slots(small: np.ndarray, s_big: int, kept_env_slots) -> np.ndarray:
    """Broadcast a (1+r)-slot array onto 1+s_big slots.

    ``kept_env_slots`` lists (1-based) environment slots that carry the
    small array's environment axes, in order; the remaining environment
    slots become spectator axes the result does not vary along.
    """
    kept = tuple(kept_env_slots)
    r = small.ndim - 1
    if len(kept) != r:
        raise ValueError("kept slot count must match small array's environment arity")
    n = small.shape[0]
    shape = [n] * (s_big + 1)
    src_axes = (0,) + kept
    reshaped_shape = [1] * (s_big + 1)
    for ax in src_axes:
        reshaped_shape[ax] = n
    order = np.argsort(src_axes)
    expanded = np.transpose(small, order).reshape(reshaped_shape)
    return np.broadcast_to(expanded, shape).copy()


def embed_env_vector(vec: np.ndarray, s_big: int, slot: int) -> np.ndarray:
    """Broadcast a one-entity environment function onto slot `slot` of a sector."""
    n = vec.shape[0]
    shape = [1] * (s_big + 1)
    shape[slot] = n
    return np.broadcast_to(vec.reshape(shape), (n,) * (s_big + 1)).copy()


def slot_weights(weights: np.ndarray, k: int) -> np.ndarray:
    """Quadrature weight of every cell of k slots, w (x) ... (x) w flat in C order."""
    out = np.ones(1)
    for _ in range(k):
        out = (out[:, np.newaxis] * weights).reshape(-1)
    return out


def integrate_env_slots(data: np.ndarray, weights: np.ndarray, n_out: int) -> np.ndarray:
    """Quadrature-sum the trailing environment axes, keeping 1+n_out slots."""
    w = slot_weights(weights, data.ndim - 1 - n_out)
    return (data.reshape(-1, w.size) @ w).reshape(data.shape[:n_out + 1])


def sector_inner(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> float:
    """Weighted inner product over all slots: sum prod(w) * a * b."""
    if a.shape != b.shape:
        raise ValueError("sector shapes differ")
    return sector_mass(a * b, weights)


def sector_mass(data: np.ndarray, weights: np.ndarray) -> float:
    return float(slot_weights(weights, data.ndim) @ data.reshape(-1))


@dataclass(frozen=True)
class SequenceState:
    """Contiguous sectors s = 0..n_max of one kind.

    kind is one of 'observable', 'distribution', 'correlation'.
    """

    sectors: tuple
    kind: str

    def __post_init__(self):
        if self.kind not in ("observable", "distribution", "correlation"):
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        secs = tuple(self.sectors)
        for s, sec in enumerate(secs):
            if sec.s != s:
                raise ValueError("sectors must be contiguous in arity starting at 0")
        object.__setattr__(self, "sectors", secs)

    @property
    def n_max(self) -> int:
        return len(self.sectors) - 1

    def __getitem__(self, s: int) -> SectorFunction:
        return self.sectors[s]

    def pair(self, other: "SequenceState", weights: np.ndarray) -> float:
        """Grand-canonical pairing sum_s (1/s!) <A_(1+s), B_(1+s)> over the common sectors."""
        total = 0.0
        for s in range(min(self.n_max, other.n_max) + 1):
            total += sector_inner(self[s].data, other[s].data, weights) / math.factorial(s)
        return total

    def partition_norm(self, weights: np.ndarray) -> float:
        """(I, D) = sum_n (1/n!) * full weighted sum of sector n."""
        return sum(
            sector_mass(sec.data, weights) / math.factorial(n)
            for n, sec in enumerate(self.sectors)
        )
