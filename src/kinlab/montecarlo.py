"""Exact-jump stochastic oracle for the tracer-plus-environment process.

Direct-method Gillespie: every step re-enumerates all event channels, draws
an exponential dwell from the total rate, picks a channel proportionally to
its rate and redraws the jumping entity from the matching kernel row.
Entity count never changes; the environment size is drawn once from the
truncated grand-canonical ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import CorrelationProfile, ModelSpec, build_initial_state
from .sectors import SequenceState

__all__ = [
    "Configuration",
    "EventChannel",
    "Estimate",
    "sample_initial",
    "enumerate_channels",
    "gillespie_step",
    "simulate_trajectory",
    "evaluate_observable",
    "estimate_mean",
    "estimate_means",
]


@dataclass
class Configuration:
    tracer: int
    env: tuple
    t: float = 0.0


@dataclass(frozen=True)
class EventChannel:
    kind: str               # tracer-jump | env-single | env-pair | tracer-env
    participants: tuple     # slot indices into (tracer, env...), tracer = -1
    rate: float


@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    n_samples: int


def _weighted_choice(rng: np.random.Generator, probs: np.ndarray) -> int:
    u = rng.random() * probs.sum()
    return int(np.searchsorted(np.cumsum(probs), u, side="right").clip(0, len(probs) - 1))


def sample_initial(profile: CorrelationProfile, model: ModelSpec, z: float,
                   rng: np.random.Generator,
                   ensemble: SequenceState | None = None) -> Configuration:
    """Exact draw from the truncated grand-canonical ensemble D(0).

    The environment size n is drawn with probability proportional to
    (1/n!) times the weighted mass of the n-sector, then the configuration
    from the normalized sector array.
    """
    if ensemble is None:
        ensemble, _ = build_initial_state(profile, model, z)
    w = model.weights
    masses = []
    for n, sec in enumerate(ensemble.sectors):
        wprod = w.copy()
        for _ in range(n):
            wprod = np.multiply.outer(wprod, w)
        masses.append(float(np.sum(wprod * sec.data)) / math.factorial(n))
    masses = np.array(masses)
    if not np.any(masses > 0):
        raise ValueError("all-zero ensemble")
    n = _weighted_choice(rng, masses)
    sec = ensemble[n]
    wprod = w.copy()
    for _ in range(n):
        wprod = np.multiply.outer(wprod, w)
    probs = (wprod * sec.data).reshape(-1)
    flat = _weighted_choice(rng, probs)
    idx = np.unravel_index(flat, sec.data.shape)
    return Configuration(tracer=int(idx[0]), env=tuple(int(i) for i in idx[1:]), t=0.0)


def enumerate_channels(cfg: Configuration, model: ModelSpec) -> list:
    """All event channels of the current configuration with their rates."""
    chans = [EventChannel("tracer-jump", (-1,), float(model.rate_tracer[cfg.tracer]))]
    for i, e in enumerate(cfg.env):
        chans.append(EventChannel("env-single", (i,), float(model.rate_env1[e])))
    for i, ei in enumerate(cfg.env):
        for j, ej in enumerate(cfg.env):
            if i != j:
                chans.append(EventChannel("env-pair", (i, j), float(model.rate_env2[ei, ej])))
    for i, e in enumerate(cfg.env):
        chans.append(EventChannel("tracer-env", (-1, i),
                                  float(model.eps * model.rate_int[cfg.tracer, e])))
    return chans


def _kernel_row(model: ModelSpec, kind: str, cfg: Configuration, participants) -> np.ndarray:
    w = model.weights
    if kind == "tracer-jump":
        return w * model.kernel_tracer[:, cfg.tracer]
    if kind == "env-single":
        return w * model.kernel_env1[:, cfg.env[participants[0]]]
    if kind == "env-pair":
        i, j = participants
        return w * model.kernel_env2[:, cfg.env[i], cfg.env[j]]
    if kind == "tracer-env":
        return w * model.kernel_int[:, cfg.tracer, cfg.env[participants[1]]]
    raise ValueError(kind)


def gillespie_step(cfg: Configuration, model: ModelSpec,
                   rng: np.random.Generator) -> tuple[Configuration, float, EventChannel | None]:
    """One exact jump: returns the new configuration, dwell time and channel.

    A zero total rate is absorbing: infinite dwell, configuration unchanged.
    """
    chans = enumerate_channels(cfg, model)
    rates = np.array([c.rate for c in chans])
    total = rates.sum()
    if total <= 0:
        return cfg, math.inf, None
    dwell = rng.exponential(1.0 / total)
    chan = chans[_weighted_choice(rng, rates)]
    row = _kernel_row(model, chan.kind, cfg, chan.participants)
    new_state = _weighted_choice(rng, row)
    env = list(cfg.env)
    if chan.kind in ("tracer-jump", "tracer-env"):
        new_cfg = Configuration(tracer=new_state, env=tuple(env), t=cfg.t + dwell)
    else:
        env[chan.participants[0]] = new_state
        new_cfg = Configuration(tracer=cfg.tracer, env=tuple(env), t=cfg.t + dwell)
    return new_cfg, dwell, chan


def simulate_trajectory(cfg: Configuration, model: ModelSpec, t_end: float,
                        rng: np.random.Generator, record: list | None = None) -> Configuration:
    """Run the jump process to t_end; optionally record (t, kind, participants, state)."""
    while True:
        new_cfg, dwell, chan = gillespie_step(cfg, model, rng)
        if not math.isfinite(dwell) or new_cfg.t > t_end:
            return Configuration(tracer=cfg.tracer, env=cfg.env, t=t_end)
        cfg = new_cfg
        if record is not None:
            state = cfg.tracer if chan.kind in ("tracer-jump", "tracer-env") \
                else cfg.env[chan.participants[0]]
            record.append((cfg.t, chan.kind, chan.participants, state))


def evaluate_observable(obs: SequenceState, cfg: Configuration) -> float:
    """O_(1+n) evaluated at the configuration's states (symmetric in env)."""
    n = len(cfg.env)
    if n > obs.n_max:
        raise ValueError("observable sequence too short for configuration")
    return float(obs[n].data[(cfg.tracer,) + cfg.env])


def estimate_means(observables, profile: CorrelationProfile, model: ModelSpec,
                   t: float, n_traj: int, seed: int, z: float = 1.0) -> list:
    """Monte Carlo means of several observables over one shared trajectory set.

    Trajectories get independent RNG streams spawned from the seed, so the
    estimates are reproducible and the trajectory set is embarrassingly
    parallel; the reduction order is fixed by trajectory index.
    """
    if n_traj < 1:
        raise ValueError("need at least one trajectory")
    observables = list(observables)
    ensemble, _ = build_initial_state(profile, model, z)
    streams = np.random.SeedSequence(seed).spawn(n_traj)
    vals = np.empty((len(observables), n_traj))
    for k, ss in enumerate(streams):
        rng = np.random.Generator(np.random.PCG64(ss))
        cfg = sample_initial(profile, model, z, rng, ensemble=ensemble)
        cfg = simulate_trajectory(cfg, model, t, rng)
        for i, obs in enumerate(observables):
            vals[i, k] = evaluate_observable(obs, cfg)
    out = []
    for i in range(len(observables)):
        mean = float(vals[i].mean())
        stderr = float(vals[i].std(ddof=1) / math.sqrt(n_traj)) if n_traj > 1 else 0.0
        out.append(Estimate(mean=mean, stderr=stderr, n_samples=n_traj))
    return out


def estimate_mean(obs: SequenceState, profile: CorrelationProfile, model: ModelSpec,
                  t: float, n_traj: int, seed: int, z: float = 1.0) -> Estimate:
    """Monte Carlo mean of one observable at time t; see estimate_means."""
    return estimate_means([obs], profile, model, t, n_traj, seed, z=z)[0]
