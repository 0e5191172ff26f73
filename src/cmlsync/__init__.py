"""Synchronization statistics of coupled chaotic map lattices.

Core objects: lattice dynamics (`lattice`), synchronization observables
(`observables`), extreme-value estimators (`evt`, with the row-wise Brent
solvers of `brent`), closed-form predictions (`theory`), invariant-density
estimation (`density`), transfer-operator spectra (`ulam`), and experiment
orchestration (`experiments`, `cli`).
"""
from .density import DensityHistogram, DiagonalTrace, diagonal_trace, estimate_density
from .errors import CmlSyncError, ConfigError, DomainError, FitError
from .evt import (
    EiEstimate,
    EvtFitResult,
    compound_poisson_pmf,
    fit_gev_mle,
    fit_gpd_mle,
    poisson_pmf,
    qk_return_estimator,
    suveges_ei,
)
from .experiments import ExperimentConfig, reproduce, run_ei_sweep
from .lattice import (
    LocalMap,
    MapSpec,
    NoiseSpec,
    coupling_det,
    coupling_matrix,
    simulate,
    simulate_ensemble,
    step,
)
from .observables import (
    eval_global_sync,
    evaluate_series,
    running_maximum,
    threshold_from_quantile,
)
from .theory import ei_sync_flat_asymptotic, ei_sync_formula, iterations_for_sync
from .ulam import UlamOperator, build_ulam, ei_spectral, invariant_density_ulam

__all__ = [
    "CmlSyncError", "ConfigError", "DomainError", "FitError",
    "LocalMap", "MapSpec", "NoiseSpec",
    "step", "simulate", "simulate_ensemble", "coupling_matrix", "coupling_det",
    "eval_global_sync", "evaluate_series", "running_maximum",
    "threshold_from_quantile",
    "EvtFitResult", "EiEstimate", "fit_gev_mle", "fit_gpd_mle",
    "suveges_ei", "qk_return_estimator", "poisson_pmf", "compound_poisson_pmf",
    "ei_sync_formula", "ei_sync_flat_asymptotic", "iterations_for_sync",
    "DensityHistogram", "DiagonalTrace", "estimate_density", "diagonal_trace",
    "UlamOperator", "build_ulam", "invariant_density_ulam", "ei_spectral",
    "ExperimentConfig", "run_ei_sweep", "reproduce",
]

__version__ = "0.1.0"
