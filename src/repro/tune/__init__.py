"""Learned online tuning: a persistent run store + residual predictor.

The analytic Eqs. 1-8 tuner (:mod:`repro.core.tuner`) predicts (M, N)
from a single short profile.  This package closes the loop across runs:

* :mod:`repro.tune.store` — a versioned, append-only JSONL history of
  recorded runs (prediction vs measurement, OOM/degraded flags), keyed
  by deterministic config fingerprints;
* :mod:`repro.tune.residual` — a deterministic residual model over that
  history which corrects and re-ranks the analytic predictions.

:class:`~repro.core.tuner.ProfilingTuner` is the one tuner or planner
that reads the store; with an empty store its decision is the analytic
one, bitwise-identically (tested).  The planner, the scheduler and the
straggler re-tune stay purely analytic.  Records still carry the
``cluster`` fingerprint, kept for provenance.
"""

from repro.tune.residual import (
    CORRECTION_CLIP,
    FEATURE_NAMES,
    MIN_FIT_POINTS,
    LearnedPredictor,
    ResidualModel,
    TuneDecision,
    features,
    select_records,
)
from repro.tune.store import (
    STORE_VERSION,
    RunContext,
    RunStore,
    StoreCorruptError,
    StoreError,
    TuneRecord,
    canonical_json,
    cluster_fingerprint,
    config_fingerprint,
    record_run,
    run_context,
    schedule_label,
    tuner_context,
)

__all__ = [
    "STORE_VERSION",
    "StoreError",
    "StoreCorruptError",
    "TuneRecord",
    "RunStore",
    "RunContext",
    "canonical_json",
    "config_fingerprint",
    "cluster_fingerprint",
    "run_context",
    "tuner_context",
    "schedule_label",
    "record_run",
    "MIN_FIT_POINTS",
    "CORRECTION_CLIP",
    "FEATURE_NAMES",
    "features",
    "ResidualModel",
    "TuneDecision",
    "LearnedPredictor",
    "select_records",
]
