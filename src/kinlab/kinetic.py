"""The state picture: correlated reduced distributions and the kinetic equation.

The tracer's reduced distribution is a series over environment-particle
number whose generating operators are dual-semigroup cumulants dressed with
the initial correlations; the state functionals rebuild higher sectors from
the tracer distribution alone, and the generalized Fokker-Planck right-hand
side closes the evolution with a collision integral over the pair functional.

Two routes compute the state functionals:

* 'scattering' follows the generating-operator expansion literally
  (scattering cumulants, inverse one-entity semigroups, dissection sums),
  applied right to left to the functional-input columns;
* 'resolvent' reconstructs the initial tracer data by inverting the
  truncated series map and re-expands the correlated sectors, which makes
  the kinetic-equation identity exact at matched truncation order.

The kinetic equation uses the resolvent route; the duality check defaults to
the scattering route.  ``KineticEngine`` is the one way in: ``engine_for``
binds it to a (model, profile) pair.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .combinatorics import cumulant_apply, enumerate_dissections
from .hierarchy import dual_bbgky_solution
from .model import CorrelationProfile, ModelSpec, ValidationError
from .operators import TRACER, full_selector, workspace_for
from .sectors import SectorFunction, SequenceState, embed_with_slots, slot_weights

__all__ = [
    "TracerDistribution",
    "DualityReport",
    "KineticEngine",
    "StepRejected",
    "engine_for",
]

log = logging.getLogger(__name__)

RENORM_TOL = 1e-12


class StepRejected(RuntimeError):
    """A kinetic-equation step broke mass conservation beyond tolerance."""


@dataclass(frozen=True)
class TracerDistribution:
    """Tracer reduced distribution at one instant."""

    values: np.ndarray = field(repr=False)
    t: float = 0.0
    mass_drift: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class DualityReport:
    t: float
    order: int
    eps: float
    lhs: float
    rhs: float

    @property
    def abs_residual(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def rel_residual(self) -> float:
        scale = max(abs(self.lhs), abs(self.rhs), 1e-300)
        return self.abs_residual / scale


class KineticEngine:
    """Operator factory bound to one (model, profile) pair.

    Series terms, off-lattice columns, kinetic right-hand sides and the
    duality lhs per observable live in the model's one latest-|t| store,
    `ws.latest`, beside its semigroups, under keys that start with the
    engine itself: two engines on one model share no entry, and a move to
    a new |t| drops the values of both.  The scattering route's operators
    act on columns and keep nothing.  The one other time-dependent state is
    the column lattice of the correlated terms (`_columns`): per sector,
    its step and its latest index and value.  Every operator needs
    correlation data up to its sector, so the profile's n_max caps s + n
    (and s + K for functionals).

    The correlated terms read one semigroup per sector, the tracer's: a
    tracer-free block B of their cumulants drops out once its slots are
    integrated, as w_B^T e^(t Lambda*(B)) = w_B^T, to `model.KERNEL_TOL`.
    The columns C_k they evolve are registered per request (`_plan`), one
    pre-summed dim_k x n_states block per request and sector, so only
    blocks a term reads are built, however deep the profile.
    """

    def __init__(self, model: ModelSpec, profile: CorrelationProfile):
        if profile.n_max < model.n_max:
            raise ValidationError("profile: fewer correlation sectors than model n_max")
        self.model = model
        self.profile = profile
        self.ws = workspace_for(model)
        self._w_env = [slot_weights(model.weights, m) for m in range(profile.n_max + 1)]
        self._bases: dict = {}
        self._offsets: dict = {}
        self._plans: dict = {}
        self._lattice: dict = {}
        self._collision = None

    def _check_cap(self, top: int, what: str) -> None:
        if top > self.profile.n_max:
            raise ValueError(f"cap exceeded: {what} needs correlation sectors up to {top}, "
                             f"profile carries {self.profile.n_max}")

    # -- building blocks ---------------------------------------------------

    def scattering_op(self, t: float, cluster_slots, single_slots, sector: int,
                      x: np.ndarray) -> np.ndarray:
        """Scattering cumulant on the (1+sector)-slot space, applied to the columns x.

        The inverse free one-entity evolutions of every participating slot
        act first, then multiplication by the initial correlation g on those
        slots (tracer-anchored clusters only: one anchored at an environment
        entity carries no correlation data), then the dual cumulant of the
        cluster and singles.  x is dim x m; the operator is its value at I.
        """
        cluster = frozenset(cluster_slots)
        singles = tuple(sorted(single_slots))
        self._check_cap(sector, "scattering cumulant")
        for slot in sorted(cluster | set(singles), reverse=True):
            x = self.ws.semigroup(sector, frozenset({slot}), -t, "dual") @ x
        if TRACER in cluster:
            env_slots = tuple(sorted(cluster - {TRACER})) + singles
            g = embed_with_slots(self.profile.g[len(env_slots)], sector, env_slots)
            x = g.reshape(-1, 1) * x
        labels = [cluster] + [frozenset({j}) for j in singles]
        return cumulant_apply(self.model, t, labels, sector, "dual", x)

    def generating_op(self, t: float, s: int, n: int, x: np.ndarray) -> np.ndarray:
        """Generating operator of order 1+n for the (1+s)-sector functional, applied to x.

        n = 0 is the plain scattering cumulant; n >= 1 subtracts products of
        lower scattering cumulants over dissections of the peeled slots,
        each block anchored at a distinct lower slot.  The products act on
        the columns x right to left: the last peeled stage first, the
        leading cumulant last.
        """
        sector = s + n
        self._check_cap(sector, "generating operator")
        cluster = tuple(range(0, s + 1))
        if n == 0:
            return self.scattering_op(t, cluster, (), sector, x)
        total = 0.0
        for k in range(0, n + 1):
            for comps in _compositions_up_to(n, k):
                rem = n - sum(comps)
                # stage j peels the slots r_j+1..r_j+n_j, r_j = s + n - (n_1 + ... + n_j)
                term, r_j = x, s + rem
                for nj in reversed(comps):
                    term = self._stage_factor(t, range(r_j + 1, r_j + nj + 1), r_j, sector, term)
                    r_j += nj
                term = self.scattering_op(t, cluster, range(s + 1, s + rem + 1), sector, term)
                total = total + ((-1.0) ** k / math.factorial(rem)) * term
        return math.factorial(n) * total

    def _stage_factor(self, t: float, z_slots, r_j: int, sector: int, x: np.ndarray) -> np.ndarray:
        """Sum over dissections of the peeled slots, each block on its own host, applied to x.

        Hosts are the tracer and the environment slots 1..r_j below the
        peeled ones.  With no dissection the sum is zero.
        """
        host_pool = [TRACER] + list(range(1, r_j + 1))
        acc = np.zeros_like(x)
        for blocks in enumerate_dissections(z_slots, max_parts=r_j):
            coeff = 1.0 / math.factorial(len(blocks))
            for block in blocks:
                coeff /= math.factorial(len(block))
            for assign in itertools.permutations(host_pool, len(blocks)):
                term = x
                for host, block in reversed(list(zip(assign, blocks))):
                    term = self.scattering_op(t, (host,), tuple(block), sector, term)
                acc += coeff * term
        return acc

    # -- correlated terms and the tracer series ------------------------------

    def _block(self, k: int, s: int, lo: int, top: int) -> np.ndarray:
        """The blocks (s, lo..top) of sector k summed: their columns at t = 0.

        Block (s, n), s <= k <= s + n, is (-1)^(n-m) / n! times the marginals
        of P_(s+n) on the slots 0..s and R, summed over the m-subsets R of
        s+1..s+n, m = k - s, times the tracer identity: dim_k x n_states.
        """
        n_states, m = self.model.n_states, k - s
        total = 0.0
        for n in range(lo, top + 1):
            q = s + n
            dress = self.profile.g[q] * self.profile.env_reduced[q][np.newaxis, ...]
            w_rest = self._w_env[q - k]
            marginal = 0.0
            for subset in itertools.combinations(range(s + 1, q + 1), m):
                kept = (*range(1, s + 1), *subset)
                rest = [slot for slot in range(s + 1, q + 1) if slot not in subset]
                flat = dress.transpose((TRACER, *kept, *rest)).reshape(-1, w_rest.size)
                marginal = marginal + flat @ w_rest
            total = total + ((-1.0) ** (n - m) / math.factorial(n)) * marginal
        tracer = np.eye(n_states)[:, np.newaxis, :]
        return (total.reshape(n_states, -1, 1) * tracer).reshape(-1, n_states)

    def _plan(self, s: int, n: int, top: int) -> list:
        """(sector, first column, readout) per m = 0..top of the request (s, n, top).

        Sector k = s + m contributes the blocks (s, max(m, n)..top), summed
        into one block of C_k and registered on first use; a block another
        request registered is shared.  The readout I (x) w^(x)m integrates
        the top m slots.  Built on first use and kept.
        """
        key = (s, n, top)
        if key not in self._plans:
            n_states, plan = self.model.n_states, []
            for m in range(top + 1):
                k, block = s + m, (s + m, s, max(m, n), top)
                if block not in self._offsets:
                    basis = self._bases.get(k, np.empty((n_states ** (k + 1), 0)))
                    self._offsets[block] = basis.shape[1]
                    self._bases[k] = np.hstack([basis, self._block(*block)])
                readout = np.kron(np.eye(n_states ** (s + 1)), self._w_env[m])
                plan.append((k, self._offsets[block], readout))
            self._plans[key] = plan
        return self._plans[key]

    def _columns(self, t: float, k: int) -> np.ndarray:
        """V_k(t) = e^(t Lambda*_k) C_k, Lambda*_k the dual generator of all of sector k.

        The sector's lattice holds the times j * h and the index j of its
        latest value: t = 0 restarts it at j = 0 with V = C, and the first
        positive time after that is the step h, whose semigroup it copies.
        Then t == (j + 1) * h is one product with it, and t == j * h returns
        the latest value.  Blocks registered after the lattice left j = 0
        join it at its next lattice time t, as e^(t Lambda*_k) times their
        columns, once.  Any other time takes its semigroup from the
        workspace, memoized for the latest |t|, and leaves the lattice as is.
        """
        basis = self._bases[k]
        if t > 0 and k in self._lattice:
            j, cols, h, step = self._lattice[k]
            if j == 0:
                cols = basis
                if t != h:
                    h = t
                    step = self.ws.semigroup(k, full_selector(k), t, "dual").copy()
            if t == (j + 1) * h:
                j, cols = j + 1, step @ cols
            if t == j * h:
                if cols.shape[1] < basis.shape[1]:
                    new = basis[:, cols.shape[1]:]
                    cols = np.hstack([cols, self.ws.semigroup(k, full_selector(k), t, "dual") @ new])
                self._lattice[k] = (j, cols, h, step)
                return cols
        if t == 0:
            _, _, h, step = self._lattice.get(k, (0, basis, None, None))
            self._lattice[k] = (0, basis, h, step)
            return basis
        # the width tells apart the stacks before and after a block registers
        return self.ws.latest.get(t, (self, "columns", k, basis.shape[1]), lambda: (
            self.ws.semigroup(k, full_selector(k), t, "dual") @ basis))

    def _correlated_term(self, t: float, s: int, n: int, top: int | None = None) -> np.ndarray:
        """Order-n term of the correlated (1+s)-sector series, as a map of tracer data.

        The dual cumulant of the cluster {tracer, 1..s} and the singles
        s+1..s+n on the dressed tracer basis P_(s+n) = g[s+n] *
        env_reduced[s+n] (x) e_u, the slots above s integrated, over n!.  In
        a partition with cluster block {0..s} + R the other blocks drop out,
        and the Moebius weights of the partitions of the n - |R| other slots
        sum to (-1)^(n-|R|): per m = |R|, the term reads block (s, n) of
        V_(s+m)(t) and integrates its top m slots.  With `top`, the sum of
        the orders n..top; a term is linear in C_k, so its blocks are summed
        before they evolve (`_plan`).  Returns shape (n_states,)*(s+1) +
        (n_states,): the last axis takes the tracer data (`@ f0`).
        """
        n_states = self.model.n_states
        total = 0.0
        for k, first, readout in self._plan(s, n, n if top is None else top):
            total = total + readout @ self._columns(t, k)[:, first:first + n_states]
        return total.reshape((n_states,) * (s + 1) + (n_states,))

    def series_term_matrix(self, t: float, n: int) -> np.ndarray:
        """Matrix on tracer space for the order-n term of the distribution series."""
        self._check_cap(n, "series term")
        return self.ws.latest.get(t, (self, "series", n, n),
                                  lambda: self._correlated_term(t, 0, n))

    def _check_order(self, order: int) -> None:
        if order > self.model.n_max:
            raise ValidationError(f"order: series order {order} exceeds the model n_max "
                                  f"{self.model.n_max}")

    def series_matrix(self, t: float, order: int) -> np.ndarray:
        """F0 -> F_(1+0)(t) at the given truncation order, at most the model n_max."""
        self._check_order(order)
        return self.ws.latest.get(t, (self, "series", 0, order),
                                  lambda: self._correlated_term(t, 0, 0, order))

    def reduced_distribution(self, t: float, order: int) -> TracerDistribution:
        vals = self.series_matrix(t, order) @ self.profile.tracer0
        mass = float(np.dot(self.model.weights, vals))
        drift = mass - 1.0
        if abs(drift) > RENORM_TOL:
            log.info("tracer mass drift %.3e at t=%s (order %d); renormalizing", drift, t, order)
            vals = vals / mass
        return TracerDistribution(values=vals, t=t, mass_drift=drift)

    def free_env_marginal(self, t: float) -> np.ndarray:
        """One-entity environment distribution under its free evolution."""
        n = self.model.n_states
        # e^(t Lambda({1})) on the (1+1)-sector is I (x) the one-entity semigroup
        mat = self.ws.semigroup(1, frozenset({1}), t, "dual").reshape(n, n, n, n)
        return mat[0, :, 0, :] @ self.profile.env_reduced[1]

    # -- state functionals ---------------------------------------------------

    def functional_input(self, F: np.ndarray, t: float, sector: int) -> np.ndarray:
        """Tracer columns times free-evolved one-entity environment factors.

        F is n_states x m; the factors multiply in slot by slot, and the
        result has shape (n_states,)*(sector+1) + (m,).
        """
        n_states, m = F.shape
        out = F.reshape((n_states,) + (1,) * sector + (m,))
        f_t = self.free_env_marginal(t)
        for i in range(1, sector + 1):
            # trailing unit axes align f_t with slot i
            out = out * f_t.reshape((n_states,) + (1,) * (sector + 1 - i))
        return out

    def state_functional(self, t: float, F1: np.ndarray, s: int, order: int,
                         route: str = "scattering", recon_order: int | None = None) -> SectorFunction:
        """Correlated (1+s)-sector functional of the tracer distribution."""
        cols = np.asarray(F1, dtype=float)[:, np.newaxis]
        data = self._state_functionals(t, cols, s, order, route, recon_order)
        return SectorFunction(s, data[..., 0])

    def _state_functionals(self, t: float, F: np.ndarray, s: int, order: int, route: str,
                           recon_order: int | None = None) -> np.ndarray:
        """`state_functional` of each tracer column of F; shape (n_states,)*(s+1) + (m,)."""
        if s < 1:
            raise ValueError("state functionals start at the (1+1)-sector")
        self._check_cap(s + order, "functional")
        if route == "resolvent":
            k_rec = order if recon_order is None else recon_order
            f0 = np.linalg.solve(self.series_matrix(t, k_rec), F)
            return self._correlated_term(t, s, 0, order) @ f0
        if route != "scattering":
            raise ValueError(f"unknown route {route!r}")
        acc = 0.0
        for n in range(order + 1):
            cols = self.functional_input(F, t, s + n)
            out = self.generating_op(t, s, n, cols.reshape(-1, F.shape[1])).reshape(cols.shape)
            acc = acc + _integrate_env(out, self.model.weights, s) / math.factorial(n)
        return acc

    # -- kinetic equation ------------------------------------------------------

    def collision_matrix(self, F2_matrix: np.ndarray) -> np.ndarray:
        """Collision integral as a matrix on the tracer.

        The dual interaction block on the pair sector, its environment slot
        integrated against the weights, applied to F2_matrix, which maps a
        tracer vector to the flattened pair sector; the columns of the
        result all carry zero total mass.  The integrated block, n_states x
        n_states^2, is built once per engine.
        """
        if self._collision is None:
            n = self.model.n_states
            block = self.ws.term(1, "int", (TRACER, 1), "dual").reshape(n, n, n * n)
            self._collision = _integrate_env(block, self.model.weights, 0)
        return self._collision @ F2_matrix

    def rhs_matrix(self, t: float, order: int, route: str = "resolvent") -> np.ndarray:
        """Kinetic right-hand side as a matrix on the tracer distribution.

        Free tracer flow plus eps times the collision integral over the
        pair functional at order-1 lower truncation; with the resolvent
        route the identity d/dt F(t) = rhs(F(t)) is exact on the series
        trajectory at matched order; order is a series order, at most the model n_max.
        """
        self._check_order(order)

        def build():
            model = self.model
            n = model.n_states
            out = self.ws.generator(0, frozenset({TRACER}), "dual")
            if order >= 1 and model.eps > 0:
                # the pair functional of every tracer basis vector at once
                f2 = self._state_functionals(t, np.eye(n), 1, order - 1, route, recon_order=order)
                out = out + model.eps * self.collision_matrix(f2.reshape(n * n, n))
            return out

        return self.ws.latest.get(t, (self, "rhs", order, route), build)

    def fp_rhs(self, F1: np.ndarray, t: float, order: int, route: str = "resolvent") -> np.ndarray:
        return self.rhs_matrix(t, order, route=route) @ np.asarray(F1, dtype=float)

    def integrate_fp(self, f0: np.ndarray, t_max: float, dt: float, order: int,
                     route: str = "resolvent") -> list:
        """Classical four-stage Runge-Kutta trajectory of the kinetic equation.

        The non-Markovian right-hand side depends on absolute time through
        the cumulant operators, so stage operators are rebuilt per step; the
        store keeps the latest stage time, which the next stage or step reuses.
        The stage times are j * h with h = dt/2, computed from the index j,
        and they are the engine's column lattice: past the first half step,
        the correlated terms at a new time are one product per sector, with
        no semigroup built.  Step i ends at (2i) * h, which is i * dt
        exactly.  The first step takes the canonical semigroup at h of every
        sector from the workspace, and its last stage, at 2h, evicts them
        from the store.  A step with mass drift beyond 1e-6 raises
        StepRejected.  dt must divide t_max to a relative 1e-9, so the
        trajectory ends at steps * dt, which is t_max itself unless that
        product rounds elsewhere; both must be finite.
        """
        if not t_max > 0:
            raise ValidationError("t_max: must be > 0")
        if not dt > 0:
            raise ValidationError("dt: must be > 0")
        for key, value in (("t_max", t_max), ("dt", dt)):
            if not math.isfinite(value):
                raise ValidationError(f"{key}: must be finite")
        w = self.model.weights
        steps = int(round(t_max / dt))
        if abs(steps * dt - t_max) > 1e-9 * abs(t_max):
            raise ValidationError(f"dt: {dt!r} does not divide t_max {t_max!r}")
        h = 0.5 * dt
        f = np.asarray(f0, dtype=float).copy()
        out = [TracerDistribution(values=f.copy(), t=0.0, mass_drift=0.0)]
        for i in range(steps):
            t, t_half, t_next = (2 * i) * h, (2 * i + 1) * h, (2 * i + 2) * h
            k1 = self.fp_rhs(f, t, order, route=route)
            k2 = self.fp_rhs(f + 0.5 * dt * k1, t_half, order, route=route)
            k3 = self.fp_rhs(f + 0.5 * dt * k2, t_half, order, route=route)
            k4 = self.fp_rhs(f + dt * k3, t_next, order, route=route)
            f_new = f + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            drift = float(np.dot(w, f_new)) - 1.0
            if abs(drift) > 1e-6:
                raise StepRejected(
                    f"kinetic step rejected at t={t_next:.6f}: mass drift {drift:.3e} "
                    "(dt too large or series inconsistency)"
                )
            f = f_new
            out.append(TracerDistribution(values=f.copy(), t=t_next, mass_drift=drift))
        return out

    # -- duality -----------------------------------------------------------------

    def duality_check(self, initial_reduced: SequenceState, t: float, order: int,
                      route: str = "scattering") -> DualityReport:
        """Compare both pictures of the mean-value functional.

        Left: evolve the reduced observables by the hierarchy solution and
        pair against the correlated initial sequence.  Right: pair the
        initial observables against the tracer-distribution series at order
        n_max and the state functionals built from it.
        """
        model = self.model
        w = model.weights
        n_max = model.n_max
        if initial_reduced.n_max < n_max:
            raise ValueError("observable sequence shorter than n_max")
        # the lhs depends on neither order nor route: one build per (observable, t)
        key = tuple(initial_reduced[s].data.tobytes() for s in range(n_max + 1))
        lhs = self.ws.latest.get(t, (self, "lhs", key), lambda: SequenceState(tuple(
            dual_bbgky_solution(model, initial_reduced, t, s) for s in range(n_max + 1)),
            kind="observable").pair(self.profile.chain_sequence(n_max), w))
        f1 = self.reduced_distribution(t, n_max).values
        # a functional is built only where the observable sector is nonzero
        state = [SectorFunction(0, f1)] + [
            self.state_functional(t, f1, s, order, route=route, recon_order=n_max)
            if np.any(initial_reduced[s].data) else SectorFunction(s, np.zeros((f1.size,) * (s + 1)))
            for s in range(1, n_max + 1)]
        rhs = initial_reduced.pair(SequenceState(tuple(state), kind="distribution"), w)
        return DualityReport(t=t, order=order, eps=model.eps, lhs=lhs, rhs=rhs)


def _integrate_env(cols: np.ndarray, weights: np.ndarray, s: int) -> np.ndarray:
    """Integrate the environment slots above s out of a block whose last axis holds columns."""
    n_states, m = cols.shape[0], cols.shape[-1]
    w_env = slot_weights(weights, cols.ndim - 2 - s)
    out = np.matmul(w_env, cols.reshape(n_states ** (s + 1), w_env.size, m))
    return out.reshape((n_states,) * (s + 1) + (m,))


def _compositions_up_to(total: int, k: int):
    """Ordered tuples of k positive integers with sum <= total."""
    if k == 0:
        yield ()
        return
    for first in range(1, total - k + 2):
        for rest in _compositions_up_to(total - first, k - 1):
            yield (first,) + rest


def engine_for(model: ModelSpec, profile: CorrelationProfile) -> KineticEngine:
    """A fresh engine; it shares the model's workspace and its latest-|t| store."""
    return KineticEngine(model, profile)

