"""Liouville generators and their semigroups on sector spaces.

Forward generators act on observables (gain term integrates the kernel),
dual generators act on distributions (gain term integrates the rate-kernel
product over source states).  Both are materialized as explicit matrices on
the flattened sector space; sizes stay tiny at desk scale, so matrix
exponentials are exact workhorses.

`expm` is kinlab's own matrix exponential: a Taylor polynomial with scaling
and squaring, in numpy alone and without a linear solve.  On generator
exponentials of sectors up to dim 81 it agrees with a long-double reference
to within 1e-14 of the largest entry (tests/test_operators.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
    "expm",
    "full_selector",
]

# slot 0 is the tracer; selectors are frozensets of slot axes
TRACER = 0


def full_selector(s: int) -> frozenset:
    return frozenset(range(s + 1))


# Taylor degree m, Paterson-Stockmeyer block size p and theta_m: for
# alpha <= theta_m the degree-m series is e^A with a backward error of at
# most 2^-53 (Al-Mohy & Higham 2011; Higham 2008, Table A.3).
_TAYLOR = ((6, 3, 9.07e-3), (9, 3, 8.96e-2), (12, 4, 3.00e-1),
           (16, 4, 7.81e-1), (20, 5, 1.44), (25, 5, 2.43))


def _taylor_blocks(m: int, p: int) -> np.ndarray:
    """Row j: the coefficients of I, A, ..., A^p in block j of T_m.

    T_m(A) = B_0 + A^p (B_1 + ... + A^p B_(q-1)), B_j = sum_(i<p) A^i / (jp+i)!,
    with A^m / m! in the last block.
    """
    degree = np.arange(p + 1) + p * np.arange(m // p)[:, None]
    coef = np.array([1 / math.factorial(k) for k in degree.flat]).reshape(degree.shape)
    coef[:-1, -1] = 0.0
    return coef


_TAYLOR_BLOCKS = {m: _taylor_blocks(m, p) for m, p, _ in _TAYLOR}


def expm(a: np.ndarray) -> np.ndarray:
    """e^a of a square float matrix: Taylor polynomial, scaling and squaring.

    A = a - mu I with mu = tr(a)/n.  The degree m is the smallest with
    alpha <= theta_m, where alpha = max(||A^2||^(1/2), ||A^3||^(1/3)) <= ||A||
    in the infinity norm (Al-Mohy & Higham 2009, Thm 4.2); past theta_25,
    m = 25 and s squarings bring alpha / 2^s below it.  The powers I, A, ...,
    A^p are scaled by 2^(-sk) (exact), one GEMM forms every Paterson-Stockmeyer
    block from them, times e^(mu / 2^s), and Horner in A^p joins the blocks
    into e^(a / 2^s); s squarings give e^a.  Folding e^mu in before the
    squarings keeps every intermediate at its true size: for a generator at
    a long forward time, e^A alone would overflow while e^a is bounded.

    Raises ValueError on a non-square or non-finite input and
    numpy.linalg.LinAlgError (a ValueError) when the powers of A or the
    result overflow.
    """
    n = len(a)
    if a.shape != (n, n):
        raise ValueError(f"expm: not a square matrix, shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("expm: non-finite input")
    powers = np.empty((6, n, n))  # I, A, ..., A^5
    flat = powers.reshape(6, n * n)
    powers[0] = 0.0
    flat[0, ::n + 1] = 1.0
    powers[1] = a
    diag = flat[1, ::n + 1]
    mu = sum(diag.tolist()) / n
    diag -= mu
    np.dot(powers[1], powers[1], out=powers[2])
    np.dot(powers[2], powers[1], out=powers[3])
    d2, d3 = np.abs(powers[2:4]).sum(axis=2).max(axis=1).tolist()
    if not math.isfinite(d2 + d3):
        raise np.linalg.LinAlgError("expm: the powers of the input overflow")
    alpha = max(d2 ** (1 / 2), d3 ** (1 / 3))
    m, p, theta = next((row for row in _TAYLOR if alpha <= row[2]), _TAYLOR[-1])
    s = math.ceil(math.log2(alpha / theta)) if alpha > theta else 0
    if s:
        for k in (1, 2, 3):
            np.ldexp(powers[k], -s * k, out=powers[k])
    if p > 3:
        np.dot(powers[2], powers[2], out=powers[4])
    if p > 4:
        np.dot(powers[4], powers[1], out=powers[5])
    try:
        coef = _TAYLOR_BLOCKS[m] * math.exp(mu / 2 ** s)
    except OverflowError:
        raise np.linalg.LinAlgError("expm: the result overflows") from None
    q = len(coef)
    blocks = np.empty((q + 1, n, n))  # B_0, ..., B_(q-1) and a product buffer
    np.dot(coef, flat[:p + 1], out=blocks[:q].reshape(q, n * n))
    x, r, tmp = powers[p], blocks[q - 1], blocks[q]
    for b in blocks[q - 2::-1]:
        np.dot(r, x, out=tmp)
        b += tmp
        r = b
    for _ in range(s):
        np.dot(r, r, out=tmp)
        r, tmp = tmp, r
    if not np.isfinite(r).all():
        raise np.linalg.LinAlgError("expm: the result overflows")
    return r.copy()  # r views `blocks`; a cached result must not keep them alive


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
    (sector k, X*) pairs call `expm` (Taylor, scaling and squaring), once
    per |t| and sign; every other pair gathers from them.  For a tracer-free
    X the tracer axis of X* is an identity axis, so one rule covers both
    cases.
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

    This is a dense `expm` of the generator on the whole sector, outside the
    workspace's compact-slot provider, so tests use it as an oracle for the
    provider's gathering.  It shares `expm` with the provider; `expm` itself
    is checked against a long-double reference.  Negative t is allowed
    (semigroup inverses are needed by the scattering cumulants); no
    positivity holds for it.
    """
    if f.data.ndim != gen.s + 1:
        raise ValueError(f"arity mismatch: generator sector {gen.s}, function arity {f.s}")
    if not np.all(np.isfinite(f.data)):
        raise ValueError("non-finite input")
    out = expm(t * gen.matrix) @ f.flat
    return SectorFunction(f.s, out.reshape(f.data.shape))
