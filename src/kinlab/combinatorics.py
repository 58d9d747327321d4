"""Set-partition machinery and operator-semigroup cumulants.

Cumulants are signed partition sums of semigroup products.  Elements of the
partitioned set are cluster labels: a label is a frozenset of slot axes,
either a singleton or the merged cluster that groups several slots into one
partition element.  The declustering map just takes the union of slots, so a
block's semigroup is the full generator restricted to those slots.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .model import ModelSpec
from .operators import TRACER, workspace_for

__all__ = [
    "MAX_ELEMENTS",
    "enumerate_partitions",
    "enumerate_dissections",
    "cumulant_matrix",
    "verify_cluster_expansion",
]

# Bell(8) = 4140; anything larger is a bug, not a use case.
MAX_ELEMENTS = 8


def enumerate_partitions(elements):
    """Yield every partition of `elements` exactly once (Bell(n) total).

    Partitions are produced from restricted-growth strings; each partition
    is a list of blocks, each block a list of elements in input order.
    """
    items = list(elements)
    n = len(items)
    if n > MAX_ELEMENTS:
        raise ValueError(f"partition enumeration capped at {MAX_ELEMENTS} elements")
    if n == 0:
        yield []
        return
    codes = [0] * n
    while True:
        blocks = [[] for _ in range(max(codes) + 1)]
        for item, c in zip(items, codes):
            blocks[c].append(item)
        yield blocks
        # advance the restricted-growth string: a[i] may rise to max(a[:i]) + 1
        i = n - 1
        while i > 0 and codes[i] > max(codes[:i]):
            i -= 1
        if i == 0:
            return
        codes[i] += 1
        for j in range(i + 1, n):
            codes[j] = 0


def enumerate_dissections(elements, max_parts: int):
    """Yield splits of a linearly ordered set into consecutive nonempty runs.

    A dissection cuts the ordered sequence into at most `max_parts`
    order-respecting intervals; concatenating the parts restores the input.
    """
    items = list(elements)
    n = len(items)
    if n > MAX_ELEMENTS:
        raise ValueError(f"dissection enumeration capped at {MAX_ELEMENTS} elements")
    if n == 0:
        yield []
        return
    if max_parts < 1:
        return
    for k in range(1, min(max_parts, n) + 1):
        for cuts in itertools.combinations(range(1, n), k - 1):
            bounds = (0,) + cuts + (n,)
            yield [items[bounds[i]:bounds[i + 1]] for i in range(k)]


def _mobius(n_blocks: int) -> float:
    return (-1.0) ** (n_blocks - 1) * math.factorial(n_blocks - 1)


def cumulant_matrix(model: ModelSpec, t: float, labels, s: int, direction: str) -> np.ndarray:
    """Cumulant of semigroups for the given cluster labels, on the (1+s)-sector.

    labels: iterable of frozensets of slot axes (merged clusters and
    singletons).  Returns sum over partitions P of the labels of
    (-1)^(|P|-1) (|P|-1)! prod_blocks e^(t Lambda(union of block slots)).
    """
    labels = [frozenset(lab) for lab in labels]
    seen: set = set()
    for lab in labels:
        if lab & seen:
            raise ValueError("cluster labels overlap")
        seen |= lab
    ws = workspace_for(model)
    dim = model.n_states ** (s + 1)
    total = np.zeros((dim, dim))
    for blocks in enumerate_partitions(labels):
        term = np.eye(dim)
        for block in blocks:
            selector = frozenset().union(*block)
            term = term @ ws.semigroup(s, selector, t, direction)
        total += _mobius(len(blocks)) * term
    return total


def verify_cluster_expansion(model: ModelSpec, t: float, s: int, n: int,
                             direction: str = "forward") -> float:
    """Max residual of the partition-sum reconstruction of the full semigroup.

    The cluster expansion rebuilds e^(t Lambda) on the (tracer, 1..s)-sector
    from cumulants of the label set ({tracer, Y minus X}, X) with |X| = n.
    """
    if n > s:
        raise ValueError("n cannot exceed s")
    if s + n > 4:
        raise ValueError("cap exceeded: desk-scale reconstruction stops at s + n = 4")
    singles = list(range(s - n + 1, s + 1))
    merged = frozenset({TRACER} | set(range(1, s - n + 1)))
    labels = [merged] + [frozenset({j}) for j in singles]
    ws = workspace_for(model)
    dim = model.n_states ** (s + 1)
    reconstruction = np.zeros((dim, dim))
    for blocks in enumerate_partitions(labels):
        term = np.eye(dim)
        for block in blocks:
            term = term @ cumulant_matrix(model, t, block, s, direction)
        reconstruction += term
    direct = ws.semigroup(s, frozenset(range(s + 1)), t, direction)
    return float(np.max(np.abs(reconstruction - direct)))
