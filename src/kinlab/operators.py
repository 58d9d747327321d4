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
    "compose_semigroup_on_partition",
    "full_selector",
    "interaction_term",
    "env_pair_term",
    "one_slot_term",
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

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _one_slot_forward(rate: np.ndarray, kernel: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # L[u, v] = a(u) * (w(v) A(v; u) - delta_{uv})
    gain = rate[:, None] * (kernel.T * weights[None, :])
    return gain - np.diag(rate)


def _one_slot_dual(rate: np.ndarray, kernel: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # L*[u, v] = a(v) A(u; v) w(v) - a(u) delta_{uv}
    gain = kernel * (rate * weights)[None, :]
    return gain - np.diag(rate)


def _pair_forward(rate: np.ndarray, kernel: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Two-slot block: first slot jumps, second is the catalyst.

    Returns a matrix on the pair space, row/col index = (jumper, catalyst).
    """
    n = rate.shape[0]
    blk = np.zeros((n, n, n, n))
    for c in range(n):
        a_c = rate[:, c]
        gain = a_c[:, None] * (kernel[:, :, c].T * weights[None, :])
        blk[:, c, :, c] = gain - np.diag(a_c)
    return blk.reshape(n * n, n * n)


def _pair_dual(rate: np.ndarray, kernel: np.ndarray, weights: np.ndarray) -> np.ndarray:
    n = rate.shape[0]
    blk = np.zeros((n, n, n, n))
    for c in range(n):
        a_c = rate[:, c]
        gain = kernel[:, :, c] * (a_c * weights)[None, :]
        blk[:, c, :, c] = gain - np.diag(a_c)
    return blk.reshape(n * n, n * n)


def _embed_one_slot(block: np.ndarray, slot: int, n_slots: int, n: int) -> np.ndarray:
    mats = [np.eye(n)] * n_slots
    mats[slot] = block
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _embed_pair(block: np.ndarray, slot_a: int, slot_b: int, n_slots: int, n: int) -> np.ndarray:
    """Embed a pair-space operator acting on (slot_a, slot_b), identity elsewhere."""
    dim = n ** n_slots
    rest = [k for k in range(n_slots) if k not in (slot_a, slot_b)]
    perm = [slot_a, slot_b] + rest
    big = np.kron(block, np.eye(n ** (n_slots - 2)))
    big = big.reshape((n,) * (2 * n_slots))
    inv = np.argsort(perm)
    axes = list(inv) + [n_slots + k for k in inv]
    big = big.transpose(axes)
    return big.reshape(dim, dim)


def _build_generator(model: ModelSpec, s: int, selector: frozenset, direction: str) -> GeneratorMatrix:
    if direction not in ("forward", "dual"):
        raise ValueError(f"unknown direction {direction!r}")
    if not selector:
        raise ValueError("selector must be nonempty")
    if any(slot < 0 or slot > s for slot in selector):
        raise ValueError(f"selector {sorted(selector)} out of range for arity {s}")
    n = model.n_states
    w = model.weights
    one = _one_slot_forward if direction == "forward" else _one_slot_dual
    pair = _pair_forward if direction == "forward" else _pair_dual
    n_slots = s + 1
    dim = n ** n_slots
    env_slots = sorted(slot for slot in selector if slot != TRACER)

    system = np.zeros((dim, dim))
    environment = np.zeros((dim, dim))
    interaction = np.zeros((dim, dim))
    if TRACER in selector:
        system += _embed_one_slot(one(model.rate_tracer, model.kernel_tracer, w), 0, n_slots, n)
    env_block = one(model.rate_env1, model.kernel_env1, w)
    for i in env_slots:
        environment += _embed_one_slot(env_block, i, n_slots, n)
    if len(env_slots) >= 2:
        pair_block = pair(model.rate_env2, model.kernel_env2, w)
        for i in env_slots:
            for j in env_slots:
                if i != j:
                    environment += _embed_pair(pair_block, i, j, n_slots, n)
    if TRACER in selector and env_slots:
        int_block = pair(model.rate_int, model.kernel_int, w)
        for i in env_slots:
            interaction += model.eps * _embed_pair(int_block, 0, i, n_slots, n)
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
    """Per-model generators (all kept) and semigroups (latest |t| only)."""

    def __init__(self, model: ModelSpec):
        self.model = model
        self._generators: dict = {}
        self._semigroups = LatestTimeMemo()

    def generator(self, s: int, selector: frozenset, direction: str) -> GeneratorMatrix:
        key = (s, frozenset(selector), direction)
        if key not in self._generators:
            self._generators[key] = _build_generator(self.model, s, frozenset(selector), direction)
        return self._generators[key]

    def semigroup(self, s: int, selector: frozenset, t: float, direction: str) -> np.ndarray:
        selector = frozenset(selector)
        return self._semigroups.get(
            t, (s, selector, direction),
            lambda: expm(t * self.generator(s, selector, direction).matrix))


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

    Negative t is allowed (semigroup inverses are needed by the scattering
    cumulants); no positivity holds for it.
    """
    if f.data.ndim != gen.s + 1:
        raise ValueError(f"arity mismatch: generator sector {gen.s}, function arity {f.s}")
    if not np.all(np.isfinite(f.data)):
        raise ValueError("non-finite input")
    out = expm(t * gen.matrix) @ f.flat
    return SectorFunction(f.s, out.reshape(f.data.shape))


def interaction_term(model: ModelSpec, s: int, env_slot: int, direction: str) -> np.ndarray:
    """Single tracer-environment collision operator on the (1+s)-sector, without eps."""
    n = model.n_states
    pair = _pair_forward if direction == "forward" else _pair_dual
    block = pair(model.rate_int, model.kernel_int, model.weights)
    return _embed_pair(block, 0, env_slot, s + 1, n)


def env_pair_term(model: ModelSpec, s: int, jumper: int, catalyst: int, direction: str) -> np.ndarray:
    """Single environment pair collision operator on the (1+s)-sector."""
    n = model.n_states
    pair = _pair_forward if direction == "forward" else _pair_dual
    block = pair(model.rate_env2, model.kernel_env2, model.weights)
    return _embed_pair(block, jumper, catalyst, s + 1, n)


def one_slot_term(model: ModelSpec, s: int, slot: int, direction: str) -> np.ndarray:
    """Free one-entity collision operator (tracer or environment) on the (1+s)-sector."""
    n = model.n_states
    one = _one_slot_forward if direction == "forward" else _one_slot_dual
    if slot == TRACER:
        block = one(model.rate_tracer, model.kernel_tracer, model.weights)
    else:
        block = one(model.rate_env1, model.kernel_env1, model.weights)
    return _embed_one_slot(block, slot, s + 1, n)


def compose_semigroup_on_partition(model: ModelSpec, s: int, parts, t: float,
                                   f: SectorFunction, direction: str) -> SectorFunction:
    """Apply the commuting product prod_i e^(t Lambda(X_i)) for disjoint parts."""
    seen: set = set()
    for part in parts:
        part = frozenset(part)
        if part & seen:
            raise ValueError("overlapping parts")
        seen |= part
    ws = workspace_for(model)
    vec = f.flat.copy()
    for part in parts:
        vec = ws.semigroup(s, frozenset(part), t, direction) @ vec
    return SectorFunction(f.s, vec.reshape(f.data.shape))
