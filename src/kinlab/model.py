"""Microscopic model definition: state space, jump kernels, initial data.

Entities carry a combined label e = (species j, micro-state u) flattened
species-major into one axis of size M * |grid|.  All integrals of the
continuous theory become quadrature sums with per-point weights, so every
identity downstream is exact finite algebra.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .sectors import SectorFunction, SequenceState, integrate_env_slots

__all__ = [
    "ConfigError",
    "ValidationError",
    "MicroGrid",
    "ModelSpec",
    "CorrelationProfile",
    "ExperimentConfig",
    "builtin_kernel",
    "validate_kernel",
    "load_model",
    "load_model_file",
    "build_initial_state",
    "reduce_state",
    "tiny_model",
]

KERNEL_TOL = 1e-12

# the most bytes one array of a loaded model may take
ARRAY_BUDGET_BYTES = 2 ** 24

# the collision laws, each the fields rate_<law> and kernel_<law>, with the number
# of entities the rate depends on, which is also the kernel's argument count
LAWS = {"tracer": 1, "env1": 1, "env2": 2, "int": 2}

# the documented keys of each config section; load_model rejects any other
CONFIG_KEYS = {
    "model": ("m", "grid_points", "grid_weights", "eps", "n_max",
              *(f"rate_{law}" for law in LAWS), *(f"kernel_{law}" for law in LAWS)),
    "initial": ("tracer0", "env1", "g", "activity"),
    "run": ("t_max", "dt", "series_order", "mc_trajectories", "seed"),
    "output": ("dir", "format"),
}


class ConfigError(ValueError):
    """Malformed configuration document."""


class ValidationError(ValueError):
    """A model requirement is violated; message names the offending key."""


@dataclass(frozen=True)
class MicroGrid:
    """Finite micro-state grid with positive quadrature weights."""

    points: tuple
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if len(self.points) < 1:
            raise ValidationError("grid: at least one point required")
        if w.shape != (len(self.points),):
            raise ValidationError("grid: weights must match points")
        if not np.all(w > 0):
            raise ValidationError("grid: weights must be positive")
        w.setflags(write=False)
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.points)


def builtin_kernel(name: str, n_args: int, n_states: int, weights: np.ndarray) -> np.ndarray:
    """Named transition kernels A(v; u_1..u_m), target axis first.

    'uniform' spreads mass evenly over the weighted grid; 'copy' moves the
    jumping entity onto the state of the last argument (the catalyst for
    pair and interaction kernels, itself for one-body kernels).
    """
    total = float(np.sum(weights))
    shape = (n_states,) * (1 + n_args)
    if name == "uniform":
        return np.full(shape, 1.0 / total)
    if name == "copy":
        kern = np.zeros(shape)
        idx = np.arange(n_states)
        if n_args == 1:
            kern[idx, idx] = 1.0 / weights
        elif n_args == 2:
            for cat in idx:
                kern[cat, :, cat] = 1.0 / weights[cat]
        else:
            raise ConfigError(f"copy kernel undefined for {n_args} arguments")
        return kern
    raise ConfigError(f"unknown kernel built-in {name!r}")


def validate_kernel(kernel: np.ndarray, grid: MicroGrid, m: int = 1) -> float:
    """Max deviation of sum_v w(v) A(v; args) from 1 over every argument tuple."""
    n = m * len(grid)
    if kernel.shape[0] != n:
        raise ValidationError("kernel: shape mismatch against grid")
    masses = np.tile(grid.weights, m) @ kernel.reshape(n, -1)
    return float(np.max(np.abs(masses - 1.0))) if masses.size else 0.0


@dataclass(frozen=True)
class ModelSpec:
    """Rates a^[m], transition kernels A^[m], coupling eps, truncation cap.

    One rate and one kernel per law of `LAWS`: rates are nonnegative arrays
    over their argument tuples, kernels nonnegative arrays over (target,
    arguments) normalized against the quadrature weights.
    """

    m: int
    grid: MicroGrid
    eps: float
    rate_tracer: np.ndarray = field(repr=False)
    rate_env1: np.ndarray = field(repr=False)
    rate_env2: np.ndarray = field(repr=False)
    rate_int: np.ndarray = field(repr=False)
    kernel_tracer: np.ndarray = field(repr=False)
    kernel_env1: np.ndarray = field(repr=False)
    kernel_env2: np.ndarray = field(repr=False)
    kernel_int: np.ndarray = field(repr=False)
    n_max: int = 2

    def __post_init__(self):
        if self.m < 1:
            raise ValidationError("m: species count must be >= 1")
        if self.n_max < 0:
            raise ValidationError("n_max: must be >= 0")
        if not self.eps >= 0:
            raise ValidationError("eps: coupling must be >= 0")
        if not math.isfinite(self.eps):
            raise ValidationError("eps: coupling must be finite")
        n = self.n_states
        for law, arity in LAWS.items():
            key, shape = f"rate_{law}", (n,) * arity
            arr = np.asarray(getattr(self, key), dtype=float)
            if arr.shape != shape:
                raise ValidationError(f"{key}: expected shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{key}: rate positivity (non-finite entry)")
            if np.any(arr < 0):
                raise ValidationError(f"{key}: rate positivity")
            arr.setflags(write=False)
            object.__setattr__(self, key, arr)
        for law, arity in LAWS.items():
            key = f"kernel_{law}"
            arr = np.asarray(getattr(self, key), dtype=float)
            if arr.shape != (n,) * (1 + arity):
                raise ValidationError(f"{key}: expected {1 + arity} axes of size {n}")
            if np.any(arr < 0) or not np.all(np.isfinite(arr)):
                raise ValidationError(f"{key}: kernel positivity")
            dev = validate_kernel(arr, self.grid, self.m)
            if dev > KERNEL_TOL:
                raise ValidationError(f"{key}: kernel normalization (max deviation {dev:.3e})")
            arr.setflags(write=False)
            object.__setattr__(self, key, arr)

    @property
    def n_states(self) -> int:
        return self.m * len(self.grid)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """Quadrature weight per combined (species, micro) state; read-only, built once."""
        w = np.tile(self.grid.weights, self.m)
        w.setflags(write=False)
        return w

    @property
    def key(self) -> str:
        """Stable content hash, used in result metadata."""
        h = hashlib.sha256()
        h.update(f"{self.m}|{self.eps!r}|{self.n_max}".encode())
        h.update(np.asarray(self.grid.weights).tobytes())
        for kind in ("rate", "kernel"):
            for law in LAWS:
                h.update(np.asarray(getattr(self, f"{kind}_{law}")).tobytes())
        return h.hexdigest()[:16]

    def with_eps(self, eps: float) -> "ModelSpec":
        return replace(self, eps=eps)


@dataclass(frozen=True)
class CorrelationProfile:
    """Initial data: tracer distribution, environment marginals, correlations.

    g[n] is the tracer-environment correlation function on 1+n slots
    (g[0] identically 1); env_reduced[n] is the n-entity environment
    reduced distribution (env_reduced[0] is the scalar 1).
    """

    tracer0: np.ndarray = field(repr=False)
    env_reduced: tuple = field(repr=False)
    g: tuple = field(repr=False)

    def __post_init__(self):
        tr = np.asarray(self.tracer0, dtype=float)
        if np.any(tr < 0):
            raise ValidationError("tracer0: entries must be >= 0")
        if not np.all(np.isfinite(tr)):
            raise ValidationError("tracer0: entries must be finite")
        tr.setflags(write=False)
        object.__setattr__(self, "tracer0", tr)
        env = tuple(np.asarray(a, dtype=float) for a in self.env_reduced)
        gs = tuple(np.asarray(a, dtype=float) for a in self.g)
        if len(env) != len(gs):
            raise ValidationError("profile: g and env_reduced must cover the same arities")
        if not np.allclose(gs[0], 1.0, atol=1e-15):
            raise ValidationError("g: g_(1+0) must be identically 1")
        for n, (e, gg) in enumerate(zip(env, gs)):
            if e.ndim != n or gg.ndim != n + 1:
                raise ValidationError(f"profile: arity mismatch at n={n}")
            if not (np.all(np.isfinite(e)) and np.all(np.isfinite(gg))):
                raise ValidationError(f"profile: non-finite data at n={n}")
            e.setflags(write=False)
            gg.setflags(write=False)
        object.__setattr__(self, "env_reduced", env)
        object.__setattr__(self, "g", gs)

    @property
    def n_max(self) -> int:
        return len(self.g) - 1

    def validate_normalization(self, weights: np.ndarray, tol: float = 1e-12):
        mass = float(np.dot(weights, self.tracer0))
        if not abs(mass - 1.0) <= tol:   # a NaN mass fails too
            raise ValidationError(f"tracer0: normalization (mass {mass!r})")

    def chain_sector(self, n: int) -> np.ndarray:
        """The correlated initial sector g_(1+n) * F0_(0+n) * F0_(1+0)."""
        shape_env = self.env_reduced[n]
        env_full = shape_env if n > 0 else np.asarray(1.0)
        out = self.g[n] * self.tracer0.reshape((-1,) + (1,) * n)
        if n > 0:
            out = out * env_full[np.newaxis, ...]
        return out

    def chain_sequence(self, n_max: int | None = None) -> SequenceState:
        """The correlated reduced sequence (tracer, g*F_env*F_tracer, ...)."""
        cap = self.n_max if n_max is None else min(n_max, self.n_max)
        secs = [SectorFunction(n, self.chain_sector(n)) for n in range(cap + 1)]
        return SequenceState(tuple(secs), kind="distribution")

    @staticmethod
    def factorized(model: ModelSpec, tracer0, env1, g_pair: np.ndarray | None = None,
                   n_max: int | None = None) -> "CorrelationProfile":
        """Profile with product environment marginals and optional pair correlation.

        g_pair, when given, sets g_(1+1); higher correlation functions stay 1.
        """
        cap = model.n_max if n_max is None else n_max
        tracer0 = np.asarray(tracer0, dtype=float)
        env1 = np.asarray(env1, dtype=float)
        n = model.n_states
        env_reduced = [np.asarray(1.0)]
        gs = [np.ones(n)]
        for k in range(1, cap + 1):
            prod = env1
            for _ in range(k - 1):
                prod = np.multiply.outer(prod, env1)
            env_reduced.append(prod)
            if k == 1 and g_pair is not None:
                gs.append(np.asarray(g_pair, dtype=float))
            else:
                gs.append(np.ones((n,) * (k + 1)))
        return CorrelationProfile(tracer0=tracer0, env_reduced=tuple(env_reduced), g=tuple(gs))


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    profile: CorrelationProfile
    activity: float
    t_max: float
    dt: float
    series_order: int
    mc_trajectories: int
    seed: int
    out_dir: str
    out_format: str

    def __post_init__(self):
        if not self.t_max > 0:
            raise ValidationError("t_max: must be > 0")
        if not self.dt > 0:
            raise ValidationError("dt: must be > 0")
        if self.series_order < 0:
            raise ValidationError("series_order: must be >= 0")
        if self.mc_trajectories < 0:
            raise ValidationError("mc_trajectories: must be >= 0")
        if self.seed < 0:
            raise ValidationError("seed: must be >= 0")
        if self.series_order > self.model.n_max:
            raise ValidationError("series_order: must not exceed n_max")
        if not self.activity > 0:
            raise ValidationError("activity: must be > 0")
        if self.out_format not in ("csv", "json"):
            raise ValidationError("format: must be csv or json")
        for key in ("t_max", "dt", "activity"):
            if not math.isfinite(getattr(self, key)):
                raise ValidationError(f"{key}: must be finite")

    @property
    def key(self) -> str:
        h = hashlib.sha256()
        h.update(self.model.key.encode())
        h.update(np.asarray(self.profile.tracer0).tobytes())
        for arr in self.profile.g:
            h.update(np.asarray(arr).tobytes())
        for arr in self.profile.env_reduced:
            h.update(np.asarray(arr).tobytes())
        h.update(
            f"{self.activity!r}|{self.t_max!r}|{self.dt!r}|{self.series_order}"
            f"|{self.mc_trajectories}|{self.seed}".encode()
        )
        return h.hexdigest()[:16]


def _floats(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.replace(",", " ").split()])


def _table(flat: np.ndarray, shape: tuple) -> np.ndarray:
    if flat.size != math.prod(shape):
        raise ConfigError(f"expected {math.prod(shape)} entries, got {flat.size}")
    return flat.reshape(shape)


def _law(kind: str, text: str, arity: int, n_states: int, weights: np.ndarray) -> np.ndarray:
    """A rate or a kernel: `constant:<x>` or an inline table; a rate may be one
    number, a kernel `uniform` or `copy`."""
    shape = (n_states,) * (arity if kind == "rate" else 1 + arity)
    if kind == "kernel" and text in ("uniform", "copy"):
        return builtin_kernel(text, arity, n_states, weights)
    if text.startswith("constant:"):
        return np.full(shape, float(text.removeprefix("constant:")))
    flat = _floats(text)
    if kind == "rate":
        return np.full(shape, flat[0]) if flat.size == 1 else _table(flat, shape)
    # human layout: one row per argument tuple, columns over targets
    return np.moveaxis(_table(flat, shape), -1, 0)


def _pair_correlation(text: str, n_states: int) -> np.ndarray | None:
    """g_(1+1) of `sigma:<gamma>` or an inline table; None for `chaos`."""
    if text == "chaos":
        return None
    if text.startswith("sigma:"):
        gamma = float(text.removeprefix("sigma:"))
        sigma = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n_states)])
        return 1.0 + gamma * np.multiply.outer(sigma, sigma)
    return _table(_floats(text), (n_states, n_states))


def load_model(config_text: str, overrides=None) -> ExperimentConfig:
    """Parse and validate an experiment configuration document.

    Sections [model], [initial], [run], [output] with the keys of
    CONFIG_KEYS; see README.  `overrides` maps config keys to text that
    replaces the document's value before anything is read, so an override
    is parsed and checked like the file.  Raises ConfigError on malformed
    documents, unknown keys and values that do not parse, naming the key,
    and ValidationError with the offending key when a requirement fails; a
    model over ARRAY_BUDGET_BYTES is refused, naming n_max, before any of
    its arrays is built.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read_string(config_text)
    except configparser.Error as exc:
        raise ConfigError(f"parse error: {exc}") from exc
    for section in ("model", "initial", "run"):
        if section not in parser:
            raise ConfigError(f"missing section [{section}]")
    values = {}
    for section, known in CONFIG_KEYS.items():
        if section in parser:
            unknown = sorted(set(parser[section]) - set(known))
            if unknown:
                raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(unknown)}")
            values.update(parser[section])
    unknown = sorted(set(overrides or ()) - {key for keys in CONFIG_KEYS.values() for key in keys})
    if unknown:
        raise ConfigError(f"unknown override key(s): {', '.join(unknown)}")
    values.update(overrides or {})

    def read(key, parse, default=None):
        """parse(text) of the key's text or default; a failure is a ConfigError naming the key."""
        text = values.get(key, default)
        if text is None:
            raise ConfigError(f"missing key {key}")
        try:
            return parse(text)
        except ConfigError as exc:
            raise ConfigError(f"{key}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse {text!r}") from exc

    m = read("m", int, "1")
    if m < 1:  # checked again by ModelSpec, but the kernels are built from m first
        raise ValidationError("m: species count must be >= 1")
    points = tuple(range(read("grid_points", int)))
    weights = read("grid_weights", _floats) if values.get("grid_weights") else np.ones(len(points))
    grid = MicroGrid(points=points, weights=weights)
    n_states = m * len(points)
    eps, n_max = read("eps", float, "0.0"), read("n_max", int, "2")
    # the largest arrays: the profile's top sector and the generator of sector n_max
    for what, exponent in (("profile top sector", n_max + 3), ("sector generator", 2 * n_max + 2)):
        # past 2^64 floats every n_states > 1 is over budget: no exact count needed
        if 8 * n_states ** min(exponent, 64) > ARRAY_BUDGET_BYTES:
            raise ValidationError(f"n_max: {n_max} on {n_states} states needs a {what} of "
                                  f"{n_states}^{exponent} floats, above {ARRAY_BUDGET_BYTES} bytes")
    combined = np.tile(grid.weights, m)
    laws = {f"{kind}_{law}": read(f"{kind}_{law}", lambda text: _law(
                kind, text, arity, n_states, combined), default)
            for kind, default in (("rate", "1.0"), ("kernel", "uniform"))
            for law, arity in LAWS.items()}
    model = ModelSpec(m=m, grid=grid, eps=eps, n_max=n_max, **laws)

    w = model.weights

    def profile_vector(text):
        if text == "uniform":
            return np.full(n_states, 1.0 / np.sum(w))
        return _table(_floats(text), (n_states,))

    # carry correlation sectors beyond n_max so state functionals stay in range
    profile = CorrelationProfile.factorized(
        model, read("tracer0", profile_vector, "uniform"), read("env1", profile_vector, "uniform"),
        g_pair=read("g", lambda text: _pair_correlation(text, n_states), "chaos"), n_max=n_max + 2)
    profile.validate_normalization(w)

    return ExperimentConfig(
        model=model,
        profile=profile,
        activity=read("activity", float, "1.0"),
        t_max=read("t_max", float, "1.0"),
        dt=read("dt", float, "1e-3"),
        series_order=read("series_order", int, str(min(1, n_max))),
        mc_trajectories=read("mc_trajectories", int, "0"),
        seed=read("seed", int, "0"),
        out_dir=read("dir", str, "results"),
        out_format=read("format", str, "csv"),
    )


def load_model_file(path, overrides=None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return load_model(fh.read(), overrides)


def build_initial_state(profile: CorrelationProfile, model: ModelSpec,
                        z: float = 1.0) -> tuple[SequenceState, SequenceState]:
    """Construct the full ensemble D(0) and its reduced sequence.

    D_(1+n) = z^n * g_(1+n) * F0_(0+n) * F0_(1+0), zero above n_max; the
    reduced sectors are then computed exactly from D(0) by `reduce_state`,
    so the pair is self-consistent by construction.  z^n_max must be finite.
    """
    if not z > 0:
        raise ValidationError("activity: z must be > 0")
    if not math.isfinite(z):
        raise ValidationError("activity: z must be finite")
    if profile.n_max < model.n_max:
        raise ValidationError("profile: fewer correlation sectors than model n_max")
    try:
        powers = [float(z) ** n for n in range(model.n_max + 1)]
    except OverflowError:
        raise ValidationError(f"activity: z^{model.n_max} overflows (z {z!r})") from None
    full = [SectorFunction(n, powers[n] * profile.chain_sector(n)) for n in range(model.n_max + 1)]
    ensemble = SequenceState(tuple(full), kind="distribution")
    reduced = [reduce_state(ensemble, model, s) for s in range(model.n_max + 1)]
    return ensemble, SequenceState(tuple(reduced), kind="distribution")


def reduce_state(ensemble: SequenceState, model: ModelSpec, s: int) -> SectorFunction:
    """Grand-canonical marginal F_(1+s) of the truncated ensemble.

    F_(1+s) = (I, D)^(-1) sum_n (1/n!) D_(1+s+n) with its top n environment
    slots integrated out.
    """
    w = model.weights
    norm = ensemble.partition_norm(w)
    if norm <= 0:
        raise ValidationError("ensemble: zero partition norm")
    acc = np.zeros((model.n_states,) * (s + 1))
    for n in range(ensemble.n_max - s + 1):
        acc += integrate_env_slots(ensemble[s + n].data, w, s) / math.factorial(n)
    return SectorFunction(s, acc / norm)


def tiny_model(eps: float = 0.0, n_max: int = 2, kernel_int: str = "uniform",
               rate_env2: float = 1.0) -> ModelSpec:
    """The two-state reference model: one species, unit weights, unit rates."""
    grid = MicroGrid(points=(0, 1), weights=np.ones(2))
    n = 2
    w = np.ones(2)
    return ModelSpec(
        m=1, grid=grid, eps=eps, n_max=n_max,
        rate_tracer=np.ones(n), rate_env1=np.ones(n),
        rate_env2=np.full((n, n), rate_env2), rate_int=np.ones((n, n)),
        kernel_tracer=builtin_kernel("uniform", 1, n, w),
        kernel_env1=builtin_kernel("uniform", 1, n, w),
        kernel_env2=builtin_kernel("uniform", 2, n, w),
        kernel_int=builtin_kernel(kernel_int, 2, n, w),
    )
