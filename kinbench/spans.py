"""Span tracing of kinlab's layers from outside the package.

`install` wraps the public functions of each layer module.  Every wrapped
call records a span (name, parent span, start, end, note) in memory; the
spans are reduced to per-layer counts and self times when the round ends.
A span's self time is its duration minus the durations of its child spans.

A wrapper is only seen by callers that look the name up where it was
patched.  kinlab modules import each other's functions by name
(`from .combinatorics import cumulant_matrix`), so `install` replaces the
function in every kinlab module that holds it, not only where it is
defined; otherwise `kinlab.kinetic.cumulant_matrix` would bypass the
wrapper and its count would read zero.  Methods and the `ModelSpec.key`
property are patched on their classes, which every instance looks up.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

NAME, PARENT, START, END, NOTE = range(5)

SECTOR_FUNCTIONS = ("embed_with_slots", "integrate_env_slots", "sector_inner")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, note=None):
        """Wrap fn in a span; note(args, kwargs, result) is stored with it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if note is not None:
                self.spans[idx][NOTE] = note(args, kwargs, result)
            return result

        return traced


def _patch_function(tracer: Tracer, module, attr: str, name: str, note=None) -> None:
    original = getattr(module, attr)
    traced = tracer.wrap(name, original, note)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "kinlab" and not mod_name.startswith("kinlab."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, traced)


def _patch_method(tracer: Tracer, cls, attr: str, name: str, note=None) -> None:
    setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], note))


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def _arg(args, kwargs, pos: int, key: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def install(kinlab) -> Tracer:
    """Wrap the layer boundaries of an imported kinlab package."""
    tracer = Tracer()
    model, sectors, operators = kinlab.model, kinlab.sectors, kinlab.operators
    combinatorics, hierarchy = kinlab.combinatorics, kinlab.hierarchy
    kinetic, montecarlo = kinlab.kinetic, kinlab.montecarlo

    _patch_function(tracer, model, "load_model", "model.load_model")
    _patch_function(tracer, model, "build_initial_state", "model.build_initial_state")
    model.ModelSpec.key = property(tracer.wrap("model.key", model.ModelSpec.key.fget))

    for attr in SECTOR_FUNCTIONS:
        _patch_function(tracer, sectors, attr, f"sectors.{attr}")

    _patch_function(tracer, operators, "expm", "operators.expm",
                    note=lambda a, k, r: (r.shape[0], r.nbytes))
    _patch_function(tracer, operators, "_build_generator", "operators.generator")
    _patch_method(tracer, operators.Workspace, "semigroup", "operators.semigroup")

    _patch_function(tracer, combinatorics, "cumulant_matrix", "combinatorics.cumulant_matrix",
                    note=lambda a, k, r: _bell(len(_arg(a, k, 2, "labels"))))
    _patch_function(tracer, combinatorics, "verify_cluster_expansion",
                    "combinatorics.verify_cluster_expansion")

    _patch_function(tracer, hierarchy, "dual_bbgky_solution", "hierarchy.dual_bbgky_solution")
    _patch_function(tracer, hierarchy, "evolve_full", "hierarchy.evolve_full")

    engine = kinetic.KineticEngine
    for attr in ("series_term_matrix", "scattering_op", "generating_op", "rhs_matrix",
                 "duality_check"):
        _patch_method(tracer, engine, attr, f"kinetic.{attr}")
    _patch_method(tracer, engine, "state_functional", "kinetic.state_functional",
                  note=lambda a, k, r: _arg(a, k, 7, "route", "scattering"))
    _patch_method(tracer, engine, "integrate_fp", "kinetic.integrate_fp",
                  note=lambda a, k, r: len(r) - 1)

    _patch_function(tracer, montecarlo, "estimate_means", "montecarlo.estimate_means",
                    note=lambda a, k, r: _arg(a, k, 4, "n_traj"))
    _patch_function(tracer, montecarlo, "sample_initial", "montecarlo.sample_initial")
    _patch_function(tracer, montecarlo, "simulate_trajectory", "montecarlo.simulate_trajectory")
    _patch_function(tracer, montecarlo, "gillespie_step", "montecarlo.gillespie_step",
                    note=lambda a, k, r: r[2] is None)
    return tracer


def layer_metrics(spans: list) -> dict:
    """Per-layer counts and self times of one round's spans."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    notes = defaultdict(list)
    misses = []
    for idx, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        if name == "kinetic.state_functional":
            name = f"kinetic.state_functional.{span[NOTE]}"
        calls[name] += 1
        total[name] += duration
        self_s[name] += duration - child_time[idx]
        if span[NOTE] is not None:
            notes[name].append(span[NOTE])
        if name == "operators.expm" and span[PARENT] >= 0 \
                and spans[span[PARENT]][NAME] == "operators.semigroup":
            misses.append(span[NOTE])

    sg_calls = calls["operators.semigroup"]
    fp_steps = sum(notes["kinetic.integrate_fp"])
    trajectories = sum(notes["montecarlo.estimate_means"])
    steps = calls["montecarlo.gillespie_step"]
    simulated = calls["montecarlo.simulate_trajectory"]
    sector_names = [f"sectors.{attr}" for attr in SECTOR_FUNCTIONS]
    return {
        "model.load_model.s": total["model.load_model"],
        "model.build_initial_state.s": total["model.build_initial_state"],
        "model.key.calls": calls["model.key"],
        "sectors.calls": sum(calls[n] for n in sector_names),
        "sectors.self_s": sum(self_s[n] for n in sector_names),
        "operators.semigroup.calls": sg_calls,
        "operators.semigroup.misses": len(misses),
        "operators.semigroup.hit_ratio": 1.0 - len(misses) / sg_calls if sg_calls else 0.0,
        "operators.semigroup.cached_mb": sum(nbytes for _, nbytes in misses) / 2**20,
        "operators.expm.self_s": self_s["operators.expm"],
        "operators.expm.max_dim": max((dim for dim, _ in notes["operators.expm"]), default=0),
        "operators.generator.builds": calls["operators.generator"],
        "combinatorics.cumulant_matrix.calls": calls["combinatorics.cumulant_matrix"],
        "combinatorics.cumulant_matrix.self_s": self_s["combinatorics.cumulant_matrix"],
        "combinatorics.cumulant_matrix.partition_terms":
            sum(notes["combinatorics.cumulant_matrix"]),
        "combinatorics.verify_cluster_expansion.self_s":
            self_s["combinatorics.verify_cluster_expansion"],
        "hierarchy.dual_bbgky_solution.calls": calls["hierarchy.dual_bbgky_solution"],
        "hierarchy.dual_bbgky_solution.self_s": self_s["hierarchy.dual_bbgky_solution"],
        "hierarchy.evolve_full.self_s": self_s["hierarchy.evolve_full"],
        "kinetic.series_term_matrix.self_s": self_s["kinetic.series_term_matrix"],
        "kinetic.scattering_op.calls": calls["kinetic.scattering_op"],
        "kinetic.scattering_op.self_s": self_s["kinetic.scattering_op"],
        "kinetic.generating_op.self_s": self_s["kinetic.generating_op"],
        "kinetic.state_functional.resolvent.self_s":
            self_s["kinetic.state_functional.resolvent"],
        "kinetic.state_functional.scattering.self_s":
            self_s["kinetic.state_functional.scattering"],
        "kinetic.rhs_matrix.calls": calls["kinetic.rhs_matrix"],
        "kinetic.rhs_matrix.self_s": self_s["kinetic.rhs_matrix"],
        "kinetic.integrate_fp.step_ms":
            1e3 * total["kinetic.integrate_fp"] / fp_steps if fp_steps else 0.0,
        "kinetic.duality_check.self_s": self_s["kinetic.duality_check"],
        "montecarlo.trajectory_us":
            1e6 * total["montecarlo.estimate_means"] / trajectories if trajectories else 0.0,
        # every trajectory ends with one drawn step that is not applied
        "montecarlo.jumps": steps - simulated,
        "montecarlo.jump_us":
            1e6 * self_s["montecarlo.gillespie_step"] / steps if steps else 0.0,
        "montecarlo.absorbed": sum(notes["montecarlo.gillespie_step"]),
        "montecarlo.sample_initial.self_s": self_s["montecarlo.sample_initial"],
        "montecarlo.simulate_trajectory.self_s": self_s["montecarlo.simulate_trajectory"],
        "montecarlo.estimate_means.self_s": self_s["montecarlo.estimate_means"],
    }
