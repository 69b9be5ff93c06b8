"""Cycle-level out-of-order timing simulator.

A trace-driven timing model of the paper's baseline superscalar
(Table 3) and of the proposed dependence-based microarchitecture,
including the clustered variants of Section 5.6.  The committed
dynamic instruction stream comes from :mod:`repro.isa` /
:mod:`repro.workloads`; this package replays it through a parametric
pipeline: fetch (with gshare branch prediction), rename, dispatch with
a steering policy, wakeup/select (flexible window or FIFO heads),
execution with cache and store-set constraints, operand bypassing with
per-cluster latencies, and in-order commit.

Two interchangeable backends run the model: the frozen reference
(:mod:`repro.uarch.pipeline_reference`) and per-config compiled step
functions (:mod:`repro.uarch.compile`), which
:class:`~repro.uarch.pipeline.PipelineSimulator` runs -- select one
with ``simulate(..., mode=...)``; statistics are byte-identical
across both.
"""

from repro.uarch.config import (
    CacheConfig,
    ClusterConfig,
    MachineConfig,
    PredictorConfig,
)
from repro.uarch.predictor import GshareBranchPredictor
from repro.uarch.cache import SetAssociativeCache
from repro.uarch.stats import SimStats
from repro.uarch.pipeline import PipelineSimulator, simulate

__all__ = [
    "CacheConfig",
    "ClusterConfig",
    "MachineConfig",
    "PredictorConfig",
    "GshareBranchPredictor",
    "SetAssociativeCache",
    "SimStats",
    "PipelineSimulator",
    "simulate",
]
