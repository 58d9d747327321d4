"""Liouville generators and their semigroups on sector spaces.

Forward generators act on observables (gain term integrates the kernel),
dual generators act on distributions (gain term integrates the rate-kernel
product over source states).  Both are materialized as explicit matrices on
the flattened sector space; sizes stay tiny at desk scale, so matrix
exponentials are exact workhorses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .model import ModelSpec
from .sectors import SectorFunction

__all__ = [
    "TRACER",
    "GeneratorMatrix",
    "LatestTimeMemo",
    "Workspace",
    "workspace_for",
    "build_forward_generator",
    "build_dual_generator",
    "evolve",
    "full_selector",
]

# slot 0 is the tracer; selectors are frozensets of slot axes
TRACER = 0


def full_selector(s: int) -> frozenset:
    return frozenset(range(s + 1))


@dataclass(frozen=True)
class GeneratorMatrix:
    """Explicit linear operator on one sector: system + environment + interaction."""

    s: int
    direction: str
    selector: frozenset
    matrix: np.ndarray = field(repr=False)


def _one_slot_forward(rate: np.ndarray, kernel: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # L[u, v] = a(u) * (w(v) A(v; u) - delta_{uv})
    gain = rate[:, None] * (kernel.T * weights[None, :])
    return gain - np.diag(rate)


def _one_slot_dual(rate: np.ndarray, kernel: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # L*[u, v] = a(v) A(u; v) w(v) - a(u) delta_{uv}
    gain = kernel * (rate * weights)[None, :]
    return gain - np.diag(rate)


def _pair(one_slot, rate: np.ndarray, kernel: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Two-slot block: first slot jumps, second is the catalyst.

    The one-slot block of rate a[:, c] and kernel A[:, :, c] on each catalyst
    state c; row/col index = (jumper, catalyst).
    """
    n = rate.shape[0]
    blk = np.zeros((n, n, n, n))
    for c in range(n):
        blk[:, c, :, c] = one_slot(rate[:, c], kernel[:, :, c], weights)
    return blk.reshape(n * n, n * n)


def _embedding(slots: tuple, n_slots: int, n: int):
    """The map that places a block acting on `slots` into an n_slots sector.

    Entry (i, j) of the embedded operator is block[r(i), r(j)], where r(i)
    reads the digits of i on `slots` in that order, if i and j agree on every
    other slot; all other entries are 0.  The index arrays are built here,
    once, so a cached map gathers without recomputing them.
    """
    slots = list(slots)
    dim, m = n ** n_slots, n ** len(slots)
    strides = (n ** np.arange(n_slots - 1, -1, -1))[slots]
    digits = np.indices((n,) * n_slots).reshape(n_slots, dim)[slots]
    block_digits = np.indices((n,) * len(slots)).reshape(len(slots), m)
    rows = np.arange(dim)
    # column j of row i: i with its digits on `slots` replaced by those of c
    cols = (rows - strides @ digits)[:, None] + (strides @ block_digits)[None, :]
    target = (rows[:, None] * dim + cols).reshape(-1)
    source = (np.ravel_multi_index(tuple(digits), (n,) * len(slots))[:, None] * m
              + np.arange(m)).reshape(-1)

    def embed(block: np.ndarray) -> np.ndarray:
        out = np.zeros(dim * dim)
        out[target] = block.reshape(-1)[source]
        return out.reshape(dim, dim)

    return embed


def _check_selector(s: int, selector: frozenset) -> None:
    if not selector:
        raise ValueError("selector must be nonempty")
    if any(slot < 0 or slot > s for slot in selector):
        raise ValueError(f"selector {sorted(selector)} out of range for arity {s}")


_ONE_SLOT = {"forward": _one_slot_forward, "dual": _one_slot_dual}


def _build_generator(model: ModelSpec, s: int, selector: frozenset, direction: str) -> GeneratorMatrix:
    if direction not in ("forward", "dual"):
        raise ValueError(f"unknown direction {direction!r}")
    _check_selector(s, selector)
    term = workspace_for(model).term
    dim = model.n_states ** (s + 1)
    env_slots = sorted(slot for slot in selector if slot != TRACER)

    system = np.zeros((dim, dim))
    environment = np.zeros((dim, dim))
    interaction = np.zeros((dim, dim))
    if TRACER in selector:
        system += term(s, "tracer", (TRACER,), direction)
    for i in env_slots:
        environment += term(s, "env1", (i,), direction)
    for i in env_slots:
        for j in env_slots:
            if i != j:
                environment += term(s, "env2", (i, j), direction)
    if TRACER in selector and env_slots:
        for i in env_slots:
            interaction += model.eps * term(s, "int", (TRACER, i), direction)
    return GeneratorMatrix(s=s, direction=direction, selector=frozenset(selector),
                           matrix=system + environment + interaction)


class LatestTimeMemo:
    """Values computed at one time magnitude |t|: the latest one asked for.

    A lookup at a new |t| drops every stored value, so memory stays flat in
    the number of times a run visits.  t and -t share one set, so an
    identity at t and the inverse semigroups it needs at -t reuse each other.
    """

    def __init__(self):
        self._abs_t = None
        self._values: dict = {}

    def get(self, t: float, key: tuple, build):
        """The value stored under (t, *key); build() makes it on a miss."""
        t = float(t)
        if abs(t) != self._abs_t:
            self._abs_t, self._values = abs(t), {}
        # build() may look up another |t| and replace self._values meanwhile
        values = self._values
        key = (t,) + key
        if key not in values:
            values[key] = build()
        return values[key]


class Workspace:
    """Per-model time-independent data (all kept) and semigroups (latest |t| only).

    The kept data are the collision blocks, generators, slot embeddings and
    `plans`, the partition plans of `combinatorics.partition_plan` per label
    set.

    Environment slots are exchangeable and Lambda(X) is the identity off X,
    so e^(t Lambda(X)) on sector s is the semigroup of the canonical
    selector X* = ({tracer} if tracer in X) | {1..k}, k = |X - {tracer}|, on
    sector k, placed on the slots [tracer] + sorted(X - {tracer}).  Only
    (sector k, X*) pairs call expm, once per |t| and sign; every other pair
    gathers from them.  For a tracer-free X the tracer axis of X* is an
    identity axis, so one rule covers both cases.
    """

    def __init__(self, model: ModelSpec):
        self.model = model
        self.plans: dict = {}
        self._blocks: dict = {}
        self._generators: dict = {}
        self._embeddings: dict = {}
        self._semigroups = LatestTimeMemo()

    def generator(self, s: int, selector: frozenset, direction: str) -> GeneratorMatrix:
        key = (s, frozenset(selector), direction)
        if key not in self._generators:
            self._generators[key] = _build_generator(self.model, s, frozenset(selector), direction)
        return self._generators[key]

    def semigroup(self, s: int, selector: frozenset, t: float, direction: str) -> np.ndarray:
        selector = frozenset(selector)
        return self._semigroups.get(t, (s, selector, direction),
                                    lambda: self._semigroup(s, selector, t, direction))

    def _semigroup(self, s: int, selector: frozenset, t: float, direction: str) -> np.ndarray:
        env = sorted(selector - {TRACER})
        k = len(env)
        canonical = frozenset(range(0 if TRACER in selector else 1, k + 1))
        if s == k and selector == canonical:
            return expm(t * self.generator(s, selector, direction).matrix)
        _check_selector(s, selector)
        return self.embedding(s, (TRACER, *env))(self.semigroup(k, canonical, t, direction))

    def term(self, s: int, kind: str, slots: tuple, direction: str) -> np.ndarray:
        """The collision block of `kind` placed on `slots` of sector s, without eps.

        'tracer' and 'env1' are one-slot blocks; 'env2' and 'int' are pair
        blocks whose first slot jumps.  Each block is built once.
        """
        key = (kind, direction)
        if key not in self._blocks:
            model = self.model
            one_slot = _ONE_SLOT[direction]
            law = (getattr(model, f"rate_{kind}"), getattr(model, f"kernel_{kind}"), model.weights)
            self._blocks[key] = (_pair(one_slot, *law) if kind in ("env2", "int")
                                 else one_slot(*law))
        return self.embedding(s, tuple(slots))(self._blocks[key])

    def embedding(self, s: int, slots: tuple):
        """The map that places a block acting on `slots` into sector s."""
        key = (s, slots)
        if key not in self._embeddings:
            self._embeddings[key] = _embedding(slots, s + 1, self.model.n_states)
        return self._embeddings[key]


def workspace_for(model: ModelSpec) -> Workspace:
    """The model's workspace, built on first use and freed with the model."""
    ws = vars(model).get("_workspace")
    if ws is None:
        ws = Workspace(model)
        object.__setattr__(model, "_workspace", ws)
    return ws


def build_forward_generator(model: ModelSpec, s: int, selector) -> GeneratorMatrix:
    """Forward Liouville operator restricted to the selected slots.

    Spectator slots act as identity; the interaction term only appears when
    the tracer and at least one environment slot are both selected.
    """
    return workspace_for(model).generator(s, frozenset(selector), "forward")


def build_dual_generator(model: ModelSpec, s: int, selector) -> GeneratorMatrix:
    """Adjoint of build_forward_generator in the weighted inner product."""
    return workspace_for(model).generator(s, frozenset(selector), "dual")


def evolve(gen: GeneratorMatrix, t: float, f: SectorFunction) -> SectorFunction:
    """Apply e^(t * generator) to a sector function.

    This is a dense expm of the generator itself, outside the workspace's
    compact-slot provider, so tests use it as an independent oracle for
    `Workspace.semigroup`.  Negative t is allowed (semigroup inverses are needed by the scattering
    cumulants); no positivity holds for it.
    """
    if f.data.ndim != gen.s + 1:
        raise ValueError(f"arity mismatch: generator sector {gen.s}, function arity {f.s}")
    if not np.all(np.isfinite(f.data)):
        raise ValueError("non-finite input")
    out = expm(t * gen.matrix) @ f.flat
    return SectorFunction(f.s, out.reshape(f.data.shape))
