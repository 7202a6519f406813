"""Seeded fuzzing of the learned-tuner run store (the history axis).

The ``tune-fuzz`` axis of the :mod:`repro.verify.fuzz` protocol feeds
randomized *run-history* contents to the learned predictor: duplicated
records, repeated measurements of one config, records from stale
cluster fingerprints or foreign workloads, OOM-flagged records (up to
the whole grid), and the empty store.  Each case audits the contracts the learned layer makes:

* **crash-freedom** — ``LearnedPredictor.best_setting`` always returns a
  decision over the candidate grid, whatever the store holds (a raise
  is reported by the protocol as a ``raised`` problem);
* **fallback correctness** — an empty store (and a store with no usable
  records for the context) reproduces the analytic winner and the
  analytic prediction list exactly, with ``residual_applied`` False;
* **feasibility** — the chosen winner always fits the memory budget,
  and a setting OOM-vetoed by its own exact-context record is never
  chosen while a non-vetoed feasible setting exists;
* **round-trip + merge hygiene** — every fuzzed record survives a
  line round-trip, and ``merge`` stays idempotent and commutative;
* **determinism** — re-ranking the same store twice, and fitting the
  residual model on a reversed record list, give identical decisions.

``repro verify --tune-fuzz N`` runs N cases through the rotation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.utils.seeding import derive_rng

if TYPE_CHECKING:
    from repro.verify.fuzz import Finding

__all__ = ["TuneFuzzConfig", "tune_fuzz_configs", "audit_tune"]

_MUTATIONS = ("empty", "duplicates", "stale-cluster", "oom-flagged", "mixed")

_M_GRID = (1, 2, 4, 8)
_N_GRID = (1, 2)


@dataclass(frozen=True)
class TuneFuzzConfig:
    """One randomized run-store configuration."""

    index: int
    seed: int
    mutation: str  # one of _MUTATIONS
    num_records: int
    workload: str

    def describe(self) -> str:
        return (
            f"tune[{self.index}] mutation={self.mutation} "
            f"records={self.num_records} workload={self.workload}"
        )


def tune_fuzz_configs(count: int, seed: int = 0) -> list[TuneFuzzConfig]:
    """Draw ``count`` configurations from the seeded stream."""
    rng = derive_rng("verify-tune-fuzz", count, seed=seed)
    configs = []
    for i in range(count):
        mutation = _MUTATIONS[i % len(_MUTATIONS)]
        configs.append(
            TuneFuzzConfig(
                index=i,
                seed=seed,
                mutation=mutation,
                num_records=0 if mutation == "empty" else int(rng.integers(1, 13)),
                workload="awd",
            )
        )
    return configs


@functools.lru_cache(maxsize=None)
def _harness(workload: str):
    """The fixed analytic side every case ranks against (cached)."""
    from repro.core.predictor import Predictor
    from repro.core.simcfg import calibration_for
    from repro.schedules import AdvanceFPSchedule
    from repro.tune.store import tuner_context

    cal = calibration_for(workload)
    profiler = cal.profiler(AdvanceFPSchedule(2))
    predictor = Predictor(profiler.profile(iterations=4))
    context = tuner_context(profiler, workload=workload)
    return profiler, predictor, context, float(cal.memory_capacity_bytes)


def _fuzz_records(cfg: TuneFuzzConfig, predictor, context) -> list:
    """Synthesize ``cfg.num_records`` records under the case's mutation."""
    from repro.tune.store import TuneRecord

    rng = derive_rng("tune-fuzz-records", cfg.index, seed=cfg.seed)
    records = []
    for j in range(cfg.num_records):
        m = int(_M_GRID[int(rng.integers(0, len(_M_GRID)))])
        n = int(_N_GRID[int(rng.integers(0, len(_N_GRID)))])
        prediction = predictor.predict(m, n)
        kind = cfg.mutation
        if kind == "mixed":
            kind = ("duplicates", "stale-cluster", "oom-flagged")[
                int(rng.integers(0, 3))
            ]
        if kind == "stale-cluster":
            # a record of some other cluster / foreign workload: the
            # selector must route it to the transfer tier or drop it
            stale_ctx = f"stale{int(rng.integers(0, 3))}".ljust(16, "0")
            ctx_kwargs = dict(
                context=stale_ctx,
                cluster=f"clu{int(rng.integers(0, 3))}".ljust(16, "0"),
                workload=cfg.workload if rng.integers(0, 2) else "bert",
            )
        else:
            ctx_kwargs = dict(
                context=context.context,
                cluster=context.cluster,
                workload=cfg.workload,
            )
        oom = kind == "oom-flagged"
        ratio = float(rng.uniform(0.4, 2.5))
        record = TuneRecord(
            schedule=context.schedule,
            k=context.num_stages,
            m=m,
            n=n,
            predicted_batch_time=prediction.batch_time,
            predicted_peak_bytes=float(prediction.peak_memory),
            measured_batch_time=None if oom else ratio * prediction.batch_time,
            measured_peak_bytes=None if oom else float(prediction.peak_memory) * ratio,
            oom=oom,
            **ctx_kwargs,
        )
        records.append(record)
        if kind == "duplicates":
            records.append(record)  # exact duplicate: merge must dedup it
    return records


def audit_tune(cfg: TuneFuzzConfig, out: Finding) -> None:
    """Build the fuzzed store and audit every learned-layer contract."""
    from repro.core.predictor import fits_memory
    from repro.core.tuner import _stage_memory_limits
    from repro.tune.residual import LearnedPredictor, ResidualModel, select_records
    from repro.tune.store import RunStore, TuneRecord

    _profiler, predictor, context, limit = _harness(cfg.workload)
    limits = _stage_memory_limits(_profiler, limit)
    store = RunStore.from_records(_fuzz_records(cfg, predictor, context))
    out.tallies["records"] = len(store)

    # --- round-trip + merge hygiene -------------------------------------- #
    for record in store.records():
        if TuneRecord.from_line(record.to_line()) != record:
            out.problems.append(f"record {record.fingerprint} fails line round-trip")
    merged = store.merge(store)
    if [r.to_line() for r in merged.records()] != [
        r.to_line() for r in store.merge(store).merge(store).records()
    ]:
        out.problems.append("merge is not idempotent")
    distinct = len({r.to_line() for r in store.records()})
    if len(merged) != distinct:
        out.problems.append(
            f"self-merge holds {len(merged)} records, expected {distinct} distinct"
        )

    # --- the decision ----------------------------------------------------- #
    m_cands, n_cands = list(_M_GRID), list(_N_GRID)
    analytic_winner, analytic_preds = predictor.best_setting(
        m_cands, n_cands, limits
    )

    def decide():
        return LearnedPredictor(
            predictor, store=store, context=context, workload=cfg.workload
        ).best_setting(m_cands, n_cands, limits)

    decision = decide()
    out.tallies.update(
        residual=int(decision.residual_applied),
        fallback=int(not decision.residual_applied),
    )

    winner = decision.winner
    if (winner.m, winner.n) not in {(m, n) for m in m_cands for n in n_cands}:
        out.problems.append(f"winner ({winner.m}, {winner.n}) is outside the grid")
    if not fits_memory(winner.f_total, limits):
        out.problems.append(f"winner ({winner.m}, {winner.n}) does not fit memory")
    if not math.isfinite(winner.batch_time) or winner.batch_time <= 0:
        out.problems.append(f"winner batch_time {winner.batch_time} is not sane")

    # --- fallback correctness --------------------------------------------- #
    selected, tier = select_records(store, context, cfg.workload)
    if len(store) == 0 or not selected:
        if decision.winner != analytic_winner:
            out.problems.append(
                "no usable records but the decision diverges from analytic"
            )
        if decision.predictions != analytic_preds:
            out.problems.append("no usable records but predictions differ")
        if decision.residual_applied or decision.records_consulted:
            out.problems.append("no usable records but residual claims applied")
    else:
        if decision.records_consulted != len(selected):
            out.problems.append(
                f"records_consulted={decision.records_consulted} but "
                f"{len(selected)} records selected at tier {tier}"
            )

    # --- OOM vetoes -------------------------------------------------------- #
    if selected:
        model = ResidualModel.fit(selected, context=context.context)
        vetoed = {
            (p.m, p.n)
            for p in analytic_preds
            if model.known_oom(p.m, p.n) and fits_memory(p.f_total, limits)
        }
        feasible = {
            (p.m, p.n) for p in analytic_preds if fits_memory(p.f_total, limits)
        }
        if (winner.m, winner.n) in vetoed and feasible - vetoed:
            out.problems.append(
                f"winner ({winner.m}, {winner.n}) is OOM-vetoed while "
                f"{sorted(feasible - vetoed)} remain"
            )

    # --- determinism -------------------------------------------------------- #
    again = decide()
    if (again.winner, again.residual_applied) != (
        decision.winner,
        decision.residual_applied,
    ):
        out.problems.append("identical store ranked differently on re-run")
    if selected:
        forward = ResidualModel.fit(selected, context=context.context)
        backward = ResidualModel.fit(list(reversed(selected)), context=context.context)
        for m in m_cands:
            for n in n_cands:
                if forward.correction(m, n) != backward.correction(m, n):
                    out.problems.append(
                        f"correction({m}, {n}) depends on record order"
                    )
