"""Deterministic residual correction on top of the Eqs. 1-8 predictor.

The analytic predictor is a *model*; recorded runs are *measurements*.
The residual layer learns the multiplicative gap between them —
``measured / predicted`` per setting — and re-ranks candidate (M, N)
settings by corrected time.  Everything is deterministic at fit and at
predict time: no RNG, no wall clock, stable tie-breaks (the ARBO
predict→execute→feedback loop, grounded in our checkable simulator).

Three estimators, strongest first:

* **exact** — records at this (M, N): the geometric mean of their
  measured/predicted ratios.  Records from the *same context* (same
  cluster/schedule/partition fingerprint) shadow transfer-tier records
  for the same setting, so a seen configuration is ranked by its own
  measurement — the learned ranking can never do worse than analytic on
  seen configs.
* **least squares** — with >= :data:`MIN_FIT_POINTS` distinct settings,
  ridge-regularized least squares of the log-ratio over engineered
  features of (M, N) (:func:`features`), clipped to
  :data:`CORRECTION_CLIP` so sparse fits cannot extrapolate wildly.
* **k-NN** — below that, inverse-distance interpolation of log-ratios
  in (log2 M, log2 N) space with deterministic tie-breaks.

OOM-flagged records additionally veto their setting outright —
a measured out-of-memory beats any analytic feasibility claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.predictor import Prediction, Predictor, fits_memory
from repro.tune.store import RunStore, TuneRecord

__all__ = [
    "MIN_FIT_POINTS",
    "CORRECTION_CLIP",
    "features",
    "FEATURE_NAMES",
    "ResidualModel",
    "TuneDecision",
    "LearnedPredictor",
    "select_records",
]

#: distinct (M, N) points needed before the least-squares surface is
#: trusted over plain k-NN interpolation.
MIN_FIT_POINTS = 3

#: correction multipliers are clipped here — a residual model should
#: nudge the ranking, not replace the analytic model.
CORRECTION_CLIP = (0.25, 4.0)

#: ridge regularizer: keeps the normal equations solvable (and the fit
#: deterministic) on degenerate feature sets, e.g. all records at N=1.
RIDGE = 1e-6

FEATURE_NAMES = ("1", "log2M", "log2N", "log2M^2", "log2N^2", "log2M*log2N")


def features(m: int, n: int) -> np.ndarray:
    """Engineered features of one setting (quadratic in log-degrees)."""
    lm = math.log2(m)
    ln = math.log2(n)
    return np.array([1.0, lm, ln, lm * lm, ln * ln, lm * ln])


def _usable(records: Sequence[TuneRecord]) -> list[TuneRecord]:
    return [
        r
        for r in records
        if not r.oom
        and r.measured_batch_time is not None
        and r.measured_batch_time > 0
        and r.predicted_batch_time > 0
    ]


@dataclass
class ResidualModel:
    """Fitted measured/predicted correction over (M, N) settings."""

    #: per-setting geometric-mean multiplier (the exact tier)
    exact: dict[tuple[int, int], float] = field(default_factory=dict)
    #: settings a record measured as out-of-memory
    oom: frozenset = frozenset()
    #: ridge least-squares coefficients over :func:`features`, or None
    coef: np.ndarray | None = None
    #: (m, n, mean log-ratio) points for the k-NN fallback
    points: tuple[tuple[int, int, float], ...] = ()
    #: how many records informed the fit
    records_used: int = 0

    @classmethod
    def fit(
        cls,
        records: Sequence[TuneRecord],
        context: str | None = None,
        ridge: float = RIDGE,
    ) -> "ResidualModel":
        """Fit from records; ``context`` marks the exact-match tier whose
        same-setting records shadow transfer-tier ones."""
        usable = _usable(records)
        oom = frozenset((r.m, r.n) for r in records if r.oom)
        by_setting: dict[tuple[int, int], list[TuneRecord]] = {}
        for r in usable:
            by_setting.setdefault((r.m, r.n), []).append(r)
        exact: dict[tuple[int, int], float] = {}
        points: list[tuple[int, int, float]] = []
        for setting in sorted(by_setting):
            group = by_setting[setting]
            if context is not None:
                same = [r for r in group if r.context == context]
                if same:
                    group = same
            # canonical order: float summation is not associative, so an
            # unsorted group would make the fit depend on record order
            log_ratios = [
                math.log(r.measured_batch_time / r.predicted_batch_time)
                for r in sorted(group, key=TuneRecord.sort_key)
            ]
            mean = sum(log_ratios) / len(log_ratios)
            exact[setting] = math.exp(mean)
            points.append((setting[0], setting[1], mean))
        coef = None
        if len(points) >= MIN_FIT_POINTS:
            x = np.stack([features(m, n) for m, n, _ in points])
            y = np.array([lr for _, _, lr in points])
            a = x.T @ x + ridge * np.eye(x.shape[1])
            coef = np.linalg.solve(a, x.T @ y)
        return cls(
            exact=exact,
            oom=oom,
            coef=coef,
            points=tuple(points),
            records_used=len(records),
        )

    def known_oom(self, m: int, n: int) -> bool:
        """A record measured this exact setting out-of-memory."""
        return (m, n) in self.oom

    def correction(self, m: int, n: int) -> float:
        """Multiplier on the analytic batch time for setting (m, n)."""
        hit = self.exact.get((m, n))
        if hit is not None:
            return hit
        lo, hi = CORRECTION_CLIP
        if self.coef is not None:
            return float(min(max(math.exp(features(m, n) @ self.coef), lo), hi))
        if self.points:
            lm, ln = math.log2(m), math.log2(n)
            ranked = sorted(
                self.points,
                key=lambda p: ((math.log2(p[0]) - lm) ** 2
                               + (math.log2(p[1]) - ln) ** 2, p[0], p[1]),
            )[:2]
            weights, total = [], 0.0
            for pm, pn, _ in ranked:
                d2 = (math.log2(pm) - lm) ** 2 + (math.log2(pn) - ln) ** 2
                w = 1.0 / (d2 + 1e-9)
                weights.append(w)
                total += w
            mean = sum(
                w * lr for w, (_, _, lr) in zip(weights, ranked)
            ) / total
            return float(min(max(math.exp(mean), lo), hi))
        return 1.0


# --------------------------------------------------------------------- #
# record selection tiers


def select_records(
    store: RunStore, context, workload: str = ""
) -> tuple[tuple[TuneRecord, ...], str]:
    """Records informing a prediction at ``context``, coarse fallback.

    Returns ``(records, tier)`` where tier is ``"exact"`` (same full
    context present — possibly alongside transfer records for settings
    the context never measured), ``"transfer"`` (same workload family
    and stage count on a different cluster/schedule — the
    re-predict-under-changed-load case), or ``"none"``.
    """
    exact = store.matching(context.context)
    transfer = store.matching_workload(workload or context.workload, context.num_stages)
    if exact:
        # keep transfer records too: they cover settings the exact tier
        # hasn't measured yet; ResidualModel.fit shadows per-setting.
        seen = {id(r) for r in exact}
        combined = tuple(exact) + tuple(
            r for r in transfer if id(r) not in seen
        )
        return combined, "exact"
    if transfer:
        return transfer, "transfer"
    return (), "none"


# --------------------------------------------------------------------- #
# the learned predictor


@dataclass
class TuneDecision:
    """What the learned layer decided, next to the analytic baseline."""

    winner: Prediction
    predictions: list[Prediction]
    analytic_winner: Prediction
    #: corrected per-setting batch times (empty on the analytic path)
    corrected: dict = field(default_factory=dict)
    records_consulted: int = 0
    residual_applied: bool = False
    tier: str = "none"


class LearnedPredictor:
    """A :class:`~repro.core.predictor.Predictor` that consults history.

    With no store, no matching records, or an empty store the decision
    is the analytic one — the same ``best_setting`` call, the same
    winner object, bit for bit.  With matching records the candidate
    grid re-ranks by residual-corrected time, and settings that history
    measured as OOM are vetoed.
    """

    def __init__(
        self,
        predictor: Predictor,
        store: RunStore | None = None,
        context=None,
        workload: str = "",
    ) -> None:
        self.predictor = predictor
        self.store = store
        self.context = context
        self.workload = workload

    def best_setting(
        self,
        m_candidates: list[int],
        n_candidates: list[int],
        memory_limit_bytes,
    ) -> TuneDecision:
        winner, predictions = self.predictor.best_setting(
            m_candidates, n_candidates, memory_limit_bytes
        )
        if self.store is None or self.context is None or len(self.store) == 0:
            return TuneDecision(
                winner=winner, predictions=predictions, analytic_winner=winner
            )
        records, tier = select_records(self.store, self.context, self.workload)
        if not records:
            return TuneDecision(
                winner=winner, predictions=predictions, analytic_winner=winner
            )
        model = ResidualModel.fit(records, context=self.context.context)
        corrected: dict[tuple[int, int], float] = {}
        feasible: list[tuple[float, Prediction]] = []
        for p in predictions:
            if not fits_memory(p.f_total, memory_limit_bytes):
                continue
            if model.known_oom(p.m, p.n):
                continue
            time = model.correction(p.m, p.n) * p.batch_time
            corrected[(p.m, p.n)] = time
            feasible.append((time, p))
        if not feasible:
            # history vetoed everything the analytic model allowed —
            # trust the analytic winner rather than returning nothing
            return TuneDecision(
                winner=winner,
                predictions=predictions,
                analytic_winner=winner,
                corrected=corrected,
                records_consulted=len(records),
                residual_applied=False,
                tier=tier,
            )
        learned = min(feasible, key=lambda item: item[0])[1]
        return TuneDecision(
            winner=learned,
            predictions=predictions,
            analytic_winner=winner,
            corrected=corrected,
            records_consulted=len(records),
            residual_applied=True,
            tier=tier,
        )
