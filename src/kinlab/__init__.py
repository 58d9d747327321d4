"""Finite-state laboratory for open-system jump-process kinetics."""

__version__ = "0.1.0"

from .model import (
    ConfigError,
    CorrelationProfile,
    ExperimentConfig,
    KernelReport,
    MicroGrid,
    ModelSpec,
    ValidationError,
    build_initial_state,
    builtin_kernel,
    load_model,
    load_model_file,
    tiny_model,
    validate_kernel,
)
from .sectors import SectorFunction, SequenceState
from .operators import (
    GeneratorMatrix,
    TRACER,
    build_dual_generator,
    build_forward_generator,
    compose_semigroup_on_partition,
    evolve,
)
from .combinatorics import (
    enumerate_dissections,
    enumerate_partitions,
    verify_cluster_expansion,
)
from .hierarchy import (
    ObservableSeq,
    additive_observable,
    additive_reduced_initial,
    additive_solution,
    dual_bbgky_rhs,
    dual_bbgky_solution,
    evolve_full,
    mean_value_full,
    mean_value_reduced,
    reduce_observable,
    reduce_state,
)
from .kinetic import (
    DualityReport,
    KineticEngine,
    StepRejected,
    TracerDistribution,
    engine_for,
)
from .montecarlo import (
    Configuration,
    Estimate,
    estimate_mean,
    estimate_means,
    gillespie_step,
    sample_initial,
    simulate_trajectory,
)
