"""The observable picture: reduced observables and the dual hierarchy.

Everything here is cross-checked against the brute-force oracle
`evolve_full`, which evolves whole sequences sector-by-sector with the
full-sector generator; the reduced machinery has to reproduce its mean
values exactly at truncation.  The hierarchy's solution reads one canonical
forward semigroup per sector and sums no partitions: its cumulant
expansion collapses because the forward generator sends constants to zero.
"""

from __future__ import annotations

import itertools

import numpy as np

from .model import ModelSpec, ValidationError
from .operators import TRACER, full_selector, workspace_for
from .sectors import (
    SectorFunction,
    SequenceState,
    embed_env_vector,
    embed_with_slots,
)

__all__ = [
    "additive_observable",
    "additive_reduced_initial",
    "evolve_full",
    "reduce_observable",
    "mean_value_full",
    "mean_value_reduced",
    "dual_bbgky_solution",
    "dual_bbgky_rhs",
    "additive_solution",
]


def additive_observable(o_tracer: np.ndarray, o_env: np.ndarray, n_max: int) -> SequenceState:
    """Full additive observable O_(1+n) = O_(1+0)(u) + sum_j O_(0+1)(u_j)."""
    secs = []
    for n in range(n_max + 1):
        data = embed_with_slots(np.asarray(o_tracer, dtype=float), n, ())
        for j in range(1, n + 1):
            data = data + embed_env_vector(np.asarray(o_env, dtype=float), n, j)
        secs.append(SectorFunction(n, data))
    return SequenceState(tuple(secs), kind="observable")


def additive_reduced_initial(o_tracer: np.ndarray, o_env: np.ndarray,
                             n_max: int) -> SequenceState:
    """Reduced image of an additive observable: (O_(1+0), O_(0+1), 0, ...)."""
    n = np.asarray(o_tracer).shape[0]
    secs = [SectorFunction(0, np.asarray(o_tracer, dtype=float))]
    if n_max >= 1:
        secs.append(SectorFunction(1, embed_env_vector(np.asarray(o_env, dtype=float), 1, 1)))
    for s in range(2, n_max + 1):
        secs.append(SectorFunction(s, np.zeros((n,) * (s + 1))))
    return SequenceState(tuple(secs), kind="observable")


def evolve_full(model: ModelSpec, seq: SequenceState, t: float, direction: str) -> SequenceState:
    """Brute-force oracle: e^(t Lambda) sector-by-sector with the full generator.

    direction 'forward' evolves observables, 'dual' evolves distributions.
    """
    ws = workspace_for(model)
    out = []
    for s, sec in enumerate(seq.sectors):
        mat = ws.semigroup(s, frozenset(range(s + 1)), t, direction)
        out.append(SectorFunction(s, (mat @ sec.flat).reshape(sec.data.shape)))
    return SequenceState(tuple(out), kind=seq.kind)


def reduce_observable(obs: SequenceState, s: int) -> SectorFunction:
    """Inclusion-exclusion reduction B_(1+s) of an observable sequence.

    B_(1+s) = sum_{n<=s} (-1)^n/n! sum over distinct j_1..j_n of
    O_(1+s-n) with those environment arguments deleted.
    """
    if s > obs.n_max:
        raise ValueError("sector not available")
    env = list(range(1, s + 1))
    acc = np.zeros_like(obs[s].data)
    for n in range(0, s + 1):
        for removed in itertools.combinations(env, n):
            kept = tuple(j for j in env if j not in removed)
            small = obs[s - n].data
            acc += (-1.0) ** n * embed_with_slots(small, s, kept)
    return SectorFunction(s, acc)


def mean_value_full(obs: SequenceState, ensemble: SequenceState, model: ModelSpec) -> float:
    """<O>(t) = (I, D)^(-1) sum_s (1/s!) <O_(1+s), D_(1+s)> (weighted sums)."""
    norm = ensemble.partition_norm(model.weights)
    if norm <= 0:
        raise ValidationError("ensemble: zero partition norm")
    return obs.pair(ensemble, model.weights) / norm


def mean_value_reduced(reduced_obs: SequenceState, reduced_state: SequenceState,
                       model: ModelSpec) -> float:
    """(B, F) = sum_s (1/s!) <B_(1+s), F_(1+s)>."""
    return reduced_obs.pair(reduced_state, model.weights)


def dual_bbgky_solution(model: ModelSpec, initial: SequenceState, t: float, s: int) -> SectorFunction:
    """Solution of the dual hierarchy on sector s, from the initial sequence.

    Its cumulant expansion collapses on the forward law e^(t Lambda(B)) 1 = 1
    (to `model.KERNEL_TOL`) and the Moebius identity (README "Library
    sketch"): B_(1+s)(t) = sum_(k<=s) (-1)^(s-k) sum_(|Z|=k) e^(t Lambda_k) O_k
    placed on the slots Z, O_k the sum over the subsets `kept` of 1..k of the
    initial |kept|-sector placed on them.  Zero initial sectors and a zero
    O_k are skipped.
    """
    if s > initial.n_max:
        raise ValueError("initial data missing for sector")
    ws = workspace_for(model)
    acc = np.zeros((model.n_states,) * (s + 1))
    for k in range(s + 1):
        o_k = sum(embed_with_slots(initial[j].data, k, kept)
                  for j in range(k + 1) if np.any(initial[j].data)
                  for kept in itertools.combinations(range(1, k + 1), j))
        if not np.any(o_k):
            continue
        v_k = (ws.semigroup(k, full_selector(k), t, "forward") @ o_k.reshape(-1)).reshape(o_k.shape)
        for slots in itertools.combinations(range(1, s + 1), k):
            acc += (-1.0) ** (s - k) * embed_with_slots(v_k, s, slots)
    return SectorFunction(s, acc)


def dual_bbgky_rhs(model: ModelSpec, current: SequenceState, s: int) -> SectorFunction:
    """Right-hand side of the dual hierarchy at sector s.

    The homogeneous part is the full-sector generator; the inhomogeneous
    terms lift (1+s-1)-sector functions by slot embedding: the tracer
    coupling enters with the eps prefactor, the environment pair terms sum
    over ordered pairs and both choices of deleted argument.
    """
    ws = workspace_for(model)
    gen = ws.generator(s, frozenset(range(s + 1)), "forward")
    shape = (model.n_states,) * (s + 1)
    acc = (gen @ current[s].flat).reshape(shape)
    if s >= 1:
        env = list(range(1, s + 1))
        lower = current[s - 1].data
        for j in env:
            kept = tuple(i for i in env if i != j)
            lifted = embed_with_slots(lower, s, kept).reshape(-1)
            acc += model.eps * (ws.term(s, "int", (TRACER, j), "forward") @ lifted).reshape(shape)
        for j1 in env:
            for j2 in env:
                if j1 == j2:
                    continue
                pair_op = ws.term(s, "env2", (j1, j2), "forward")
                for i in (j1, j2):
                    kept = tuple(k for k in env if k != i)
                    lifted = embed_with_slots(lower, s, kept).reshape(-1)
                    acc += (pair_op @ lifted).reshape(shape)
    return SectorFunction(s, acc)


def additive_solution(model: ModelSpec, o_tracer: np.ndarray, o_env: np.ndarray,
                      t: float, s: int) -> SectorFunction:
    """`dual_bbgky_solution` of `additive_reduced_initial`, whose sectors 2 and up are zero."""
    return dual_bbgky_solution(model, additive_reduced_initial(o_tracer, o_env, s), t, s)
