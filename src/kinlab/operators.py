"""Liouville generators and their semigroups on sector spaces.

Forward generators act on observables (gain term integrates the kernel),
dual generators act on distributions (gain term integrates the rate-kernel
product over source states).  Both are materialized as explicit matrices on
the flattened sector space; sizes stay tiny at desk scale, so matrix
exponentials are exact workhorses.

`expm` is kinlab's own matrix exponential: a Taylor polynomial with scaling
and squaring, in numpy alone and without a linear solve.  On generator
exponentials of sectors up to dim 81 it agrees with a long-double reference
to within 1e-14 of the largest entry (tests/test_operators.py).  From dim
128 up the workspace's canonical semigroups are evaluated on their orbit
columns, within 1e-13 (relative) of the dense path.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import LAWS, ModelSpec
from .sectors import SectorFunction

__all__ = [
    "TRACER",
    "ORBIT_MIN_DIM",
    "OrbitMap",
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

# Canonical semigroups of this dimension and up are evaluated on their orbit
# columns (`OrbitMap`).  Per call against the dense path (medians, one BLAS
# thread, 2-core Xeon host): 0.74-0.86x as fast at dims 27-32, 1.07-1.25x at
# dims 64-81, 3.5x at dim 128, 2.6-4.5x at dim 243 and 6x at dim 256.
# Building the map takes 0.14-0.28 ms at dims 27-81, more than a few calls
# save there, and 0.24 ms at dim 128, 0.4-1.1 ms at dims 243-256, less than
# one call saves.
ORBIT_MIN_DIM = 128


class OrbitMap(NamedTuple):
    """The representative columns of a sector and the gather of a full matrix from them.

    A matrix M on sector k that commutes with every permutation sigma of the
    environment slots 1..k has M[i, j] = M[sigma(i), sigma(j)], so column j
    is the column of rep(j), j with its environment digits sorted, with its
    rows permuted.  `cols` holds the representatives in increasing order,
    n * C(n + k - 1, k) of them; `index[i, j]` is the flat position of
    M[i, j] in the dim x len(cols) block of their columns, and `rows` is
    `index[cols]`, the positions of the representative rows; both are
    C-contiguous, so a gather reads them in order.
    """

    cols: np.ndarray
    index: np.ndarray
    rows: np.ndarray

    def gather(self, thin: np.ndarray) -> np.ndarray:
        """The full matrix of a contiguous block of representative columns."""
        return thin.reshape(-1)[self.index]


def _orbit_map(n: int, k: int) -> OrbitMap:
    """The `OrbitMap` of sector k on n states."""
    dim = n ** (k + 1)
    digits = np.indices((n,) * (k + 1)).reshape(k + 1, dim)
    strides = n ** np.arange(k, -1, -1)
    # per column j, the slot order that sorts j's environment digits; the tracer stays first
    order = np.zeros((dim, k + 1), dtype=np.intp)
    order[:, 1:] = np.argsort(digits[1:].T, axis=1, kind="stable") + 1
    # perm[j, i] reads the digits of i in j's order: M[i, j] = M[perm[j, i], rep(j)]
    weight = np.zeros((dim, k + 1))
    np.put_along_axis(weight, order, strides.astype(float), axis=1)
    perm = (weight @ digits).astype(np.intp)
    cols, column = np.unique(perm.diagonal(), return_inverse=True)
    index = np.ascontiguousarray(perm.T * len(cols) + column)
    return OrbitMap(cols, index, np.ascontiguousarray(index[cols]))


def expm(a: np.ndarray, orbit: OrbitMap | None = None) -> np.ndarray:
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

    With the `OrbitMap` of a's sector, a must commute with every permutation
    of the environment slots, as a canonical generator does.  So do its
    powers and e^a, and the same polynomial is evaluated on the map's
    representative columns only: thin powers A^i R = A (A^(i-1) R), the
    norms read off the representative rows, and a full matrix gathered from
    the thin block wherever a product needs one on its left, A^p for Horner
    (it commutes with the blocks) and the matrix before each squaring.

    Raises ValueError on a non-square or non-finite input and
    numpy.linalg.LinAlgError (a ValueError) when the powers of A or the
    result overflow.
    """
    n = len(a)
    if a.shape != (n, n):
        raise ValueError(f"expm: not a square matrix, shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("expm: non-finite input")
    x = np.array(a, dtype=float)  # A = a - mu I, shifted in place
    diag = x.reshape(-1)[::n + 1]
    mu = sum(diag.tolist()) / n
    diag -= mu
    r = _taylor(x, mu) if orbit is None else _orbit_taylor(x, mu, orbit)
    if not np.isfinite(r).all():
        raise np.linalg.LinAlgError("expm: the result overflows")
    return r


def _degree(d2: float, d3: float) -> tuple:
    """(m, p, s) from the infinity norms of A^2 and A^3."""
    if not math.isfinite(d2 + d3):
        raise np.linalg.LinAlgError("expm: the powers of the input overflow")
    alpha = max(d2 ** (1 / 2), d3 ** (1 / 3))
    m, p, theta = next((row for row in _TAYLOR if alpha <= row[2]), _TAYLOR[-1])
    s = math.ceil(math.log2(alpha / theta)) if alpha > theta else 0
    return m, p, s


def _block_coefficients(m: int, mu: float, s: int) -> np.ndarray:
    """The Paterson-Stockmeyer block coefficients of T_m, times e^(mu / 2^s)."""
    try:
        return _TAYLOR_BLOCKS[m] * math.exp(mu / 2 ** s)
    except OverflowError:
        raise np.linalg.LinAlgError("expm: the result overflows") from None


def _taylor(x: np.ndarray, mu: float) -> np.ndarray:
    """e^(x + mu I) on full matrices."""
    n = len(x)
    powers = np.empty((6, n, n))  # I, A, ..., A^5
    flat = powers.reshape(6, n * n)
    powers[0] = 0.0
    flat[0, ::n + 1] = 1.0
    powers[1] = x
    np.dot(powers[1], powers[1], out=powers[2])
    np.dot(powers[2], powers[1], out=powers[3])
    m, p, s = _degree(*np.abs(powers[2:4]).sum(axis=2).max(axis=1).tolist())
    if s:
        for k in (1, 2, 3):
            np.ldexp(powers[k], -s * k, out=powers[k])
    if p > 3:
        np.dot(powers[2], powers[2], out=powers[4])
    if p > 4:
        np.dot(powers[4], powers[1], out=powers[5])
    coef = _block_coefficients(m, mu, s)
    q = len(coef)
    blocks = np.empty((q + 1, n, n))  # B_0, ..., B_(q-1) and a product buffer
    np.dot(coef, flat[:p + 1], out=blocks[:q].reshape(q, n * n))
    top, r, tmp = powers[p], blocks[q - 1], blocks[q]
    for b in blocks[q - 2::-1]:
        np.dot(r, top, out=tmp)
        b += tmp
        r = b
    for _ in range(s):
        np.dot(r, r, out=tmp)
        r, tmp = tmp, r
    return r.copy()  # r views `blocks`; a cached result must not keep them alive


def _orbit_taylor(x: np.ndarray, mu: float, orbit: OrbitMap) -> np.ndarray:
    """e^(x + mu I) for a slot-symmetric x, on the orbit's representative columns."""
    n, w = len(x), len(orbit.cols)
    powers = np.empty((6, n, w))  # the representative columns of I, A, ..., A^5
    flat = powers.reshape(6, n * w)
    powers[0] = 0.0
    powers[0][orbit.cols, np.arange(w)] = 1.0
    powers[1] = x[:, orbit.cols]
    np.dot(x, powers[1], out=powers[2])
    np.dot(x, powers[2], out=powers[3])
    # row sums are invariant too, so the representative rows hold the norm
    norms = np.abs(np.take(flat[2:4], orbit.rows, axis=1)).sum(axis=2).max(axis=1)
    m, p, s = _degree(*norms.tolist())
    if s:
        for k in (1, 2, 3):
            np.ldexp(powers[k], -s * k, out=powers[k])
    for k in range(4, p + 1):
        np.dot(x, powers[k - 1], out=powers[k])
        np.ldexp(powers[k], -s, out=powers[k])
    coef = _block_coefficients(m, mu, s)
    q = len(coef)
    blocks = np.empty((q + 1, n, w))
    np.dot(coef, flat[:p + 1], out=blocks[:q].reshape(q, n * w))
    top, r, tmp = orbit.gather(powers[p]), blocks[q - 1], blocks[q]
    for b in blocks[q - 2::-1]:
        np.dot(top, r, out=tmp)
        b += tmp
        r = b
    for _ in range(s):
        np.dot(orbit.gather(r), r, out=tmp)
        r, tmp = tmp, r
    return orbit.gather(r)


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


def _build_generator(model: ModelSpec, s: int, selector: frozenset, direction: str) -> np.ndarray:
    """The generator matrix on sector s: system + environment + interaction."""
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
    return system + environment + interaction


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
    """Per-model time-independent data (all kept) and the model's one latest-|t| store.

    The kept data are the collision blocks, generators, slot embeddings,
    orbit maps and `plans`, the partition plans of `combinatorics.partition_plan` per label
    set.  `latest` holds every time-dependent value of the model at the
    latest |t| asked for: the semigroups under (s, selector, direction) and
    each engine's values under keys that start with the engine.

    Environment slots are exchangeable and Lambda(X) is the identity off X,
    so e^(t Lambda(X)) on sector s is the semigroup of the canonical
    selector X* = ({tracer} if tracer in X) | {1..k}, k = |X - {tracer}|, on
    sector k, placed on the slots [tracer] + sorted(X - {tracer}).  Only
    (sector k, X*) pairs call `expm` (Taylor, scaling and squaring), once
    per |t| and sign; every other pair gathers from them.  For a tracer-free
    X the tracer axis of X* is an identity axis, so one rule covers both
    cases.  The same exchangeability makes Lambda(X*) commute with every
    permutation of the slots 1..k: from sector dimension ORBIT_MIN_DIM up,
    `expm` gets the sector's `OrbitMap` and works on its representative
    columns.  The map does not depend on time; it is kept per k, like the
    slot embeddings.
    """

    def __init__(self, model: ModelSpec):
        self.model = model
        self.plans: dict = {}
        self._blocks: dict = {}
        self._generators: dict = {}
        self._embeddings: dict = {}
        self._orbits: dict = {}
        self.latest = LatestTimeMemo()

    def generator(self, s: int, selector: frozenset, direction: str) -> np.ndarray:
        key = (s, frozenset(selector), direction)
        if key not in self._generators:
            self._generators[key] = _build_generator(self.model, s, frozenset(selector), direction)
        return self._generators[key]

    def semigroup(self, s: int, selector: frozenset, t: float, direction: str) -> np.ndarray:
        selector = frozenset(selector)
        return self.latest.get(t, (s, selector, direction),
                               lambda: self._semigroup(s, selector, t, direction))

    def _semigroup(self, s: int, selector: frozenset, t: float, direction: str) -> np.ndarray:
        env = sorted(selector - {TRACER})
        k = len(env)
        canonical = frozenset(range(0 if TRACER in selector else 1, k + 1))
        if s == k and selector == canonical:
            gen = self.generator(s, selector, direction)
            if len(gen) < ORBIT_MIN_DIM:
                return expm(t * gen)
            return expm(t * gen, self.orbit_map(k))
        _check_selector(s, selector)
        return self.embedding(s, (TRACER, *env))(self.semigroup(k, canonical, t, direction))

    def term(self, s: int, kind: str, slots: tuple, direction: str) -> np.ndarray:
        """The collision block of law `kind` placed on `slots` of sector s, without eps.

        A law of `LAWS` arity 1 ('tracer', 'env1') is a one-slot block, one of
        arity 2 ('env2', 'int') a pair block whose first slot jumps.  Each
        block is built once.
        """
        key = (kind, direction)
        if key not in self._blocks:
            model = self.model
            one_slot = _ONE_SLOT[direction]
            law = (getattr(model, f"rate_{kind}"), getattr(model, f"kernel_{kind}"), model.weights)
            self._blocks[key] = _pair(one_slot, *law) if LAWS[kind] == 2 else one_slot(*law)
        return self.embedding(s, tuple(slots))(self._blocks[key])

    def orbit_map(self, k: int) -> OrbitMap:
        """The `OrbitMap` of sector k, built on first use and kept."""
        if k not in self._orbits:
            self._orbits[k] = _orbit_map(self.model.n_states, k)
        return self._orbits[k]

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


def build_forward_generator(model: ModelSpec, s: int, selector) -> np.ndarray:
    """Forward Liouville operator restricted to the selected slots.

    Spectator slots act as identity; the interaction term only appears when
    the tracer and at least one environment slot are both selected.
    """
    return workspace_for(model).generator(s, frozenset(selector), "forward")


def build_dual_generator(model: ModelSpec, s: int, selector) -> np.ndarray:
    """Adjoint of build_forward_generator in the weighted inner product."""
    return workspace_for(model).generator(s, frozenset(selector), "dual")


def evolve(gen: np.ndarray, t: float, f: SectorFunction) -> SectorFunction:
    """Apply e^(t * generator) to a sector function.

    This is a dense `expm` of the generator on the whole sector, outside the
    workspace's compact-slot provider, so tests use it as an oracle for the
    provider's gathering.  It shares `expm` with the provider; `expm` itself
    is checked against a long-double reference.  Negative t is allowed
    (semigroup inverses are needed by the scattering cumulants); no
    positivity holds for it.
    """
    if gen.shape != (f.data.size,) * 2:
        raise ValueError(f"arity mismatch: generator shape {gen.shape}, function arity {f.s}")
    if not np.all(np.isfinite(f.data)):
        raise ValueError("non-finite input")
    out = expm(t * gen) @ f.flat
    return SectorFunction(f.s, out.reshape(f.data.shape))
