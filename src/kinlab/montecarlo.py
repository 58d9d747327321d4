"""Exact-jump stochastic oracle for the tracer-plus-environment process.

One jump law, two drivers.  The law is Gillespie's direct method (Gillespie
1977) held as a table, as uniformization (Jensen 1953) views a finite chain:
`jump_table` lists once per model, for every configuration of every sector
n = 0..n_max, the rate of each one-entity jump.  Each process contributes
its rate times its weighted kernel row to the slot that jumps; the table
reads the model's rate and kernel arrays directly, one slot (or ordered
slot pair) at a time for all configurations of a sector.  Self-jumps stay
in, so a row's total is the configuration's total jump rate.  A
configuration waits an exponential dwell at that total, then jumps to a
target drawn from the row CDF; total 0 is absorbing.  Entity count never
changes: the configuration, environment size included, is drawn once from
the CDF of D(0), which is built once per (model, profile, z).

`sample_initial`, `gillespie_step` and `simulate_trajectory` drive the law
one trajectory at a time; `final_counts` and `estimate_means` drive blocks
of BLOCK trajectories in lockstep with numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# loaded with kinlab, so that the first draw does not pay for the import
import numpy.random  # noqa: F401

from .model import CorrelationProfile, ModelSpec, ValidationError, build_initial_state
from .sectors import SequenceState

__all__ = [
    "BLOCK",
    "Configuration",
    "Estimate",
    "JumpTable",
    "jump_table",
    "sample_initial",
    "gillespie_step",
    "simulate_trajectory",
    "evaluate_observable",
    "final_counts",
    "estimate_mean",
    "estimate_means",
]

# trajectories per lockstep block, each block with its own stream
BLOCK = 4096


@dataclass
class Configuration:
    tracer: int
    env: tuple
    t: float = 0.0


@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    n_samples: int


def evaluate_observable(obs: SequenceState, cfg: Configuration) -> float:
    """O_(1+n) evaluated at the configuration's states (symmetric in env)."""
    n = len(cfg.env)
    if n > obs.n_max:
        raise ValueError("observable sequence too short for configuration")
    return float(obs[n].data[(cfg.tracer,) + cfg.env])


@dataclass(frozen=True)
class JumpTable:
    """Every one-entity jump of a model, over the sectors n = 0..n_max.

    A configuration is a global flat index: sector n holds offsets[n] up to
    offsets[n + 1] - 1, its (tracer, env...) array in C order.  Row c lists,
    per slot and target state, the target configuration and the jump rate;
    sector n fills (1 + n) * d entries and pads with rate-0 self targets.
    The off-diagonal rates are the forward generator's entries, and
    rates[c].sum() is c's total jump rate, the sum of its processes' rates
    since kernel rows carry unit weighted mass; a row with total 0 is
    absorbing and never sampled.  Entry j of a row moves slot j // d - 1
    (-1 the tracer, i environment entity i) to state j % d.
    """

    n_states: int
    offsets: np.ndarray = field(repr=False)   # (n_max + 2,)
    targets: np.ndarray = field(repr=False)   # (N, J) global indices
    rates: np.ndarray = field(repr=False)     # (N, J)
    total: np.ndarray = field(repr=False)     # (N,) total rate per row
    cdf: np.ndarray = field(repr=False)       # (N, J) row CDF, exactly 1.0 at its end

    def index(self, cfg: Configuration) -> int:
        """Global flat index of a configuration."""
        flat = cfg.tracer
        for e in cfg.env:
            flat = flat * self.n_states + e
        return int(self.offsets[len(cfg.env)]) + flat

    def configuration(self, index: int, t: float = 0.0) -> Configuration:
        """The configuration at a global flat index, the inverse of index()."""
        n = int(self.offsets.searchsorted(index, side="right")) - 1
        flat, states = index - int(self.offsets[n]), []
        for _ in range(n + 1):
            flat, state = divmod(flat, self.n_states)
            states.append(state)
        return Configuration(tracer=states[-1], env=tuple(states[-2::-1]), t=t)


def _sector_jumps(model: ModelSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Targets (flat in sector n) and rates, shape (d**(1+n), 1+n, d).

    Each slot's rates are summed per part in the generator's order, system +
    environment + interaction with env1 before the env2 pairs in j order, so
    the entries agree with it bit for bit.
    """
    d, w = model.n_states, model.weights
    dim = d ** (n + 1)
    digits = np.indices((d,) * (n + 1)).reshape(n + 1, dim)
    tracer, env = digits[0], digits[1:]

    def law(rate, columns):
        # rate (dim,) times the weighted kernel row of each configuration
        return rate[:, None] * (w * columns.T)

    rates = np.zeros((dim, n + 1, d))
    interaction = np.zeros((dim, d))
    for i, e in enumerate(env, start=1):
        rates[:, i] = law(model.rate_env1[e], model.kernel_env1[:, e])
        for j, c in enumerate(env, start=1):
            if j != i:
                rates[:, i] += law(model.rate_env2[e, c], model.kernel_env2[:, e, c])
        interaction += model.eps * law(model.rate_int[tracer, e], model.kernel_int[:, tracer, e])
    rates[:, 0] = law(model.rate_tracer[tracer], model.kernel_tracer[:, tracer]) + interaction
    strides = d ** np.arange(n, -1, -1)
    targets = (np.arange(dim)[:, None, None]
               + (np.arange(d)[None, None, :] - digits.T[:, :, None]) * strides[None, :, None])
    return targets, rates


def _build_jump_table(model: ModelSpec) -> JumpTable:
    d = model.n_states
    width = (model.n_max + 1) * d
    offsets = np.cumsum([0] + [d ** (n + 1) for n in range(model.n_max + 1)])
    targets = np.repeat(np.arange(offsets[-1]), width).reshape(-1, width)
    rates = np.zeros(targets.shape)
    for n in range(model.n_max + 1):
        lo, hi = offsets[n], offsets[n + 1]
        sector_targets, sector_rates = _sector_jumps(model, n)
        targets[lo:hi, :(n + 1) * d] = lo + sector_targets.reshape(hi - lo, -1)
        rates[lo:hi, :(n + 1) * d] = sector_rates.reshape(hi - lo, -1)
    cum = np.cumsum(rates, axis=1)
    total = cum[:, -1]
    live = total > 0
    cdf = np.ones(rates.shape)
    cdf[live] = cum[live] / total[live, None]
    return JumpTable(n_states=d, offsets=offsets, targets=targets, rates=rates, total=total,
                     cdf=cdf)


def jump_table(model: ModelSpec) -> JumpTable:
    """The model's jump table, built on first use and freed with the model."""
    table = vars(model).get("_jump_table")
    if table is None:
        table = _build_jump_table(model)
        object.__setattr__(model, "_jump_table", table)
    return table


def _initial_cdf(profile: CorrelationProfile, model: ModelSpec, z: float) -> np.ndarray:
    """CDF of D(0) over the jump table's index; sector n's masses carry 1/n!.

    Only the latest (profile, z) is kept on the model: a call with the same
    profile object and an equal z reuses it.
    """
    memo = vars(model).get("_initial_cdf")
    if memo is not None and memo[0] is profile and memo[1] == z:
        return memo[2]
    ensemble, _ = build_initial_state(profile, model, z)
    mass, wprod = [], model.weights   # wprod: quadrature weight of each sector-n cell
    for n in range(model.n_max + 1):
        sector = (wprod * ensemble[n].data).reshape(-1) / math.factorial(n)
        if np.any(sector < 0):
            raise ValidationError(
                f"initial: D(0) sector {n} has negative mass (min {sector.min():.3g}); the "
                "Monte Carlo oracle needs [initial] g, tracer0 and env1 that keep it nonnegative")
        mass.append(sector)
        wprod = np.multiply.outer(wprod, model.weights)
    cum = np.cumsum(np.concatenate(mass))
    cdf = cum / cum[-1]
    object.__setattr__(model, "_initial_cdf", (profile, z, cdf))
    return cdf


def sample_initial(profile: CorrelationProfile, model: ModelSpec, z: float,
                   rng: np.random.Generator) -> Configuration:
    """Exact draw from the truncated grand-canonical ensemble D(0).

    One uniform against the initial CDF that final_counts uses picks the
    environment size and the configuration together.
    """
    cdf = _initial_cdf(profile, model, z)
    return jump_table(model).configuration(int(cdf.searchsorted(rng.random(), side="right")))


def gillespie_step(cfg: Configuration, model: ModelSpec,
                   rng: np.random.Generator) -> tuple[Configuration, float, int | None]:
    """One exact jump from cfg's row of the jump table.

    Returns the new configuration, the dwell time and the slot that moved:
    -1 for the tracer, i for environment entity i.  A zero total rate is
    absorbing: infinite dwell, configuration unchanged, slot None.
    """
    table = jump_table(model)
    row = table.index(cfg)
    total = float(table.total[row])
    if total <= 0:
        return cfg, math.inf, None
    dwell = rng.standard_exponential() / total
    entry = int(table.cdf[row].searchsorted(rng.random(), side="right"))
    new_cfg = table.configuration(int(table.targets[row, entry]), cfg.t + dwell)
    return new_cfg, dwell, entry // table.n_states - 1


def simulate_trajectory(cfg: Configuration, model: ModelSpec, t_end: float,
                        rng: np.random.Generator) -> Configuration:
    """Run the jump process from cfg to t_end; the configuration held at t_end."""
    while True:
        new_cfg, _, slot = gillespie_step(cfg, model, rng)
        if slot is None or new_cfg.t > t_end:
            return Configuration(tracer=cfg.tracer, env=cfg.env, t=t_end)
        cfg = new_cfg


def _run_block(table: JumpTable, initial_cdf: np.ndarray, t: float, size: int,
               rng: np.random.Generator) -> np.ndarray:
    """Final configurations at time t of `size` trajectories run in lockstep."""
    state = np.searchsorted(initial_cdf, rng.random(size), side="right")
    clock = np.zeros(size)
    live = np.flatnonzero(table.total[state] > 0)
    while live.size:
        at = state[live]
        clock[live] += rng.standard_exponential(live.size) / table.total[at]
        moving = clock[live] <= t
        live, at = live[moving], at[moving]
        entry = (table.cdf[at] <= rng.random(live.size)[:, None]).sum(axis=1)
        state[live] = table.targets[at, entry]
        live = live[table.total[state[live]] > 0]
    return state


def final_counts(profile: CorrelationProfile, model: ModelSpec, t: float, n_traj: int,
                 seed: int, z: float = 1.0) -> np.ndarray:
    """How many of n_traj trajectories sit in each configuration at time t.

    Indexed like the rows of jump_table(model).  Blocks of BLOCK trajectories
    (the last holds the remainder) run in lockstep; block k draws from
    stream k of SeedSequence(seed).spawn(n_blocks), so a rerun is
    bit-identical and memory is one block's arrays whatever n_traj.  A
    trajectory stops at the first dwell that passes t, or at an absorbing
    configuration, where it stays.
    """
    if n_traj < 1:
        raise ValueError("need at least one trajectory")
    table = jump_table(model)
    initial_cdf = _initial_cdf(profile, model, z)
    counts = np.zeros(len(table.total), dtype=np.int64)
    root = np.random.SeedSequence(seed)
    for start in range(0, n_traj, BLOCK):
        (stream,) = root.spawn(1)   # child k of root, as spawn(n_blocks)[k]
        rng = np.random.Generator(np.random.PCG64(stream))
        final = _run_block(table, initial_cdf, t, min(BLOCK, n_traj - start), rng)
        counts += np.bincount(final, minlength=len(counts))
    return counts


def estimate_means(observables, profile: CorrelationProfile, model: ModelSpec,
                   t: float, n_traj: int, seed: int, z: float = 1.0) -> list:
    """Monte Carlo means of several observables over one shared trajectory set.

    The trajectories are those of final_counts with the same arguments;
    each mean and standard error is an exact sum over that histogram.
    """
    counts = final_counts(profile, model, t, n_traj, seed, z)
    offsets = jump_table(model).offsets
    out = []
    for obs in observables:
        top = min(obs.n_max, model.n_max)
        if counts[offsets[top + 1]:].any():
            raise ValueError("observable sequence too short for configuration")
        vals = np.concatenate([obs[n].data.reshape(-1) for n in range(top + 1)])
        hits = counts[:len(vals)]
        mean = float(hits @ vals) / n_traj
        var = float(hits @ (vals - mean) ** 2) / (n_traj - 1) if n_traj > 1 else 0.0
        out.append(Estimate(mean=mean, stderr=math.sqrt(var / n_traj), n_samples=n_traj))
    return out


def estimate_mean(obs: SequenceState, profile: CorrelationProfile, model: ModelSpec,
                  t: float, n_traj: int, seed: int, z: float = 1.0) -> Estimate:
    """Monte Carlo mean of one observable at time t; see estimate_means."""
    return estimate_means([obs], profile, model, t, n_traj, seed, z=z)[0]
