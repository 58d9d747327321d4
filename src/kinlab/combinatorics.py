"""Set-partition machinery and operator-semigroup cumulants.

Cumulants are signed partition sums of semigroup products.  Elements of the
partitioned set are cluster labels: a label is a frozenset of slot axes,
either a singleton or the merged cluster that groups several slots into one
partition element.  The declustering map just takes the union of slots, so a
block's semigroup is the full generator restricted to those slots.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .model import ModelSpec, ValidationError
from .operators import TRACER, workspace_for

__all__ = [
    "MAX_ELEMENTS",
    "enumerate_partitions",
    "enumerate_dissections",
    "check_label_count",
    "partition_plan",
    "partition_products",
    "cumulant_apply",
    "cumulant_matrix",
    "verify_cluster_expansion",
]

# Bell(8) = 4140; anything larger is a bug, not a use case.
MAX_ELEMENTS = 8


def enumerate_partitions(elements):
    """Yield every partition of `elements` exactly once (Bell(n) total).

    Each partition is a list of blocks, each block a list of elements in
    input order.  The last element joins each block of every partition of
    the others in turn, then opens its own block; so the partitions come in
    lexicographic order of their restricted-growth strings, the order that
    `partition_plan` and the summations over it follow.
    """
    items = list(elements)
    if len(items) > MAX_ELEMENTS:
        raise ValueError(f"partition enumeration capped at {MAX_ELEMENTS} elements")
    if not items:
        yield []
        return
    last = items[-1]
    for blocks in enumerate_partitions(items[:-1]):
        for i, block in enumerate(blocks):
            yield blocks[:i] + [block + [last]] + blocks[i + 1:]
        yield blocks + [[last]]


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


def check_label_count(count: int, key: str, value) -> None:
    """Raise ValidationError, naming `key` at `value`, if `count` cluster labels exceed MAX_ELEMENTS."""
    if count > MAX_ELEMENTS:
        raise ValidationError(f"{key}: {value} needs a partition of {count} "
                              f"cluster labels, above the cap of {MAX_ELEMENTS}")


def partition_plan(model: ModelSpec, labels) -> tuple:
    """(mu, block unions) of every partition of the labels, in enumeration order.

    mu = (-1)^(|P|-1) (|P|-1)! is the Moebius weight of partition P; each
    block of P becomes the union of its labels' slots.  Enumerated once per
    label set and kept on the model's workspace, since it does not depend on
    time.  A sector of more than MAX_ELEMENTS labels is beyond the model's
    reach: its n_max is too large.
    """
    labels = tuple(frozenset(lab) for lab in labels)
    plans = workspace_for(model).plans
    if labels not in plans:
        check_label_count(len(labels), "n_max", model.n_max)
        seen: set = set()
        for lab in labels:
            if lab & seen:
                raise ValueError("cluster labels overlap")
            seen |= lab
        plans[labels] = tuple((_mobius(len(blocks)), tuple(frozenset().union(*b) for b in blocks))
                              for blocks in enumerate_partitions(labels))
    return plans[labels]


def partition_products(model: ModelSpec, t: float, labels, s: int, direction: str,
                       x: np.ndarray | None):
    """Yield (mu, prod_blocks e^(t Lambda(union of block slots)) x) per partition.

    The product is evaluated right to left on the (1+s)-sector, in the
    order of `partition_plan`.  x is a flat sector vector or a dim x m
    matrix of them; None stands for the identity, which yields the product
    matrices themselves.
    """
    ws = workspace_for(model)
    for mu, unions in partition_plan(model, labels):
        term = x
        for union in reversed(unions):
            semigroup = ws.semigroup(s, union, t, direction)
            term = semigroup if term is None else semigroup @ term
        yield mu, term


def cumulant_apply(model: ModelSpec, t: float, labels, s: int, direction: str,
                   x: np.ndarray | None) -> np.ndarray:
    """Cumulant of semigroups for the given cluster labels, applied to x.

    labels: iterable of frozensets of slot axes (merged clusters and
    singletons) on the (1+s)-sector.  Returns the sum over partitions P of
    the labels of (-1)^(|P|-1) (|P|-1)! prod_blocks e^(t Lambda(union of
    block slots)) x, summed as `partition_products` yields the terms, so no
    stack of products is formed.  x is as in `partition_products`; None
    gives the cumulant matrix itself.
    """
    dim = model.n_states ** (s + 1)
    total = np.zeros((dim, dim) if x is None else np.shape(x))
    for mu, term in partition_products(model, t, labels, s, direction, x):
        total += mu * term
    return total


def cumulant_matrix(model: ModelSpec, t: float, labels, s: int, direction: str) -> np.ndarray:
    """The cumulant of `cumulant_apply` as a matrix on the (1+s)-sector."""
    return cumulant_apply(model, t, labels, s, direction, None)


def verify_cluster_expansion(model: ModelSpec, t: float, s: int, n: int,
                             direction: str = "forward") -> float:
    """Max residual of the partition-sum reconstruction of the full semigroup.

    The cluster expansion rebuilds e^(t Lambda) on the (tracer, 1..s)-sector
    from cumulants of the label set ({tracer, Y minus X}, X) with |X| = n.
    Domain: n <= s, and the 1 + n labels within the partition enumerator's
    MAX_ELEMENTS.
    """
    if n > s:
        raise ValueError("n cannot exceed s")
    singles = list(range(s - n + 1, s + 1))
    merged = frozenset({TRACER} | set(range(1, s - n + 1)))
    labels = [merged] + [frozenset({j}) for j in singles]
    ws = workspace_for(model)
    dim = model.n_states ** (s + 1)
    reconstruction = np.zeros((dim, dim))
    for blocks in enumerate_partitions(labels):
        reconstruction += functools.reduce(np.matmul, (
            cumulant_matrix(model, t, block, s, direction) for block in blocks))
    direct = ws.semigroup(s, frozenset(range(s + 1)), t, direction)
    return float(np.max(np.abs(reconstruction - direct)))
