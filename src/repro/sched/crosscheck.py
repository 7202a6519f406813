"""Numerics cross-check: replay scheduler N-trajectories on a real trainer.

The scheduler operates at the simulation level — it decides *when* a
job's N changes, not the numerics of the change.  This module closes the
loop: for every job the scheduler preempted or resized, it replays the
recorded trajectory on a real :class:`~repro.core.trainer.AvgPipeTrainer`
(the fast tiny-AWD workload the chaos suite uses) with the actual
production levers:

* ``shrink``  → :meth:`AvgPipeTrainer.evict_pipeline` (framework
  ``resize`` underneath, α renormalized);
* ``grow``    → :meth:`AvgPipeTrainer.rejoin_pipeline` (framework
  ``add_model`` seeded from the reference);
* ``preempt`` → :func:`repro.core.checkpoint.save_trainer` (format v2);
* ``resume``  → a *fresh* trainer restored with
  :func:`~repro.core.checkpoint.load_trainer` at the checkpoint's N,
  then resized to the scheduler's resumed N — ``rejoin_pipeline`` when
  the job came back wider, ``evict_pipeline`` when the scheduler could
  only re-admit it at fewer chains.

Between consecutive events the trainer runs one real training round, so
every lever fires against moved state.  Afterwards
:func:`repro.verify.elastic_equivalence_check` drives the surviving
framework and an independently-derived §3.2 oracle through identical
update rounds; the max divergence must stay below ``tolerance`` for the
job to count as clean.  This is the acceptance criterion's "post-recovery
numerics cross-check clean against the elastic oracle".
"""

from __future__ import annotations

import itertools
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.core.trainer import AvgPipeTrainer

from repro.sched.job import Job
from repro.sched.scheduler import SchedResult

__all__ = ["CrosscheckResult", "crosscheck_job", "crosscheck_result"]

#: replayed pipeline counts are capped so the tiny trainer stays fast;
#: the levers exercised (evict/rejoin/save/load) are N-independent
_MAX_REPLAY_N = 4
_TOLERANCE = 1e-4


@dataclass(frozen=True)
class CrosscheckResult:
    job_id: str
    events: int  # resize/preempt/resume events replayed
    divergence: float
    tolerance: float = _TOLERANCE

    @property
    def ok(self) -> bool:
        return self.divergence <= self.tolerance


def _train_round(trainer: AvgPipeTrainer) -> None:
    """One synchronous round: each pipeline steps on one batch (the tiny
    corpus's first batches, cycled), then the reference applies the round."""
    batches = itertools.cycle(trainer.loader)
    for pos in range(trainer.num_pipelines):
        trainer.step(pos, next(batches))
    trainer.end_round()


def _clamp(n: int) -> int:
    return max(1, min(_MAX_REPLAY_N, n))


def crosscheck_job(job: Job, seed: int = 0, tolerance: float = _TOLERANCE) -> CrosscheckResult:
    """Replay one job's recorded N-trajectory; see the module docstring."""
    from repro.core.checkpoint import load_trainer, save_trainer
    from repro.resilience.chaos import tiny_chaos_spec
    from repro.verify import elastic_equivalence_check

    spec = tiny_chaos_spec()
    trajectory = job.trajectory
    if not trajectory:
        raise ValueError(f"job {job.job_id} has no trajectory to replay")
    first_kind, first_n = trajectory[0][1], _clamp(trajectory[0][2])
    if first_kind != "admit":
        raise ValueError(f"job {job.job_id} trajectory starts with {first_kind!r}")
    trainer = AvgPipeTrainer(spec, seed=seed, num_pipelines=first_n, max_epochs=1)
    events = 0
    with tempfile.TemporaryDirectory(prefix="sched-crosscheck-") as tmp:
        checkpoint = Path(tmp) / "preempt.npz"
        pending_resume_from: int | None = None
        for _, kind, n_after in trajectory[1:]:
            n_after = _clamp(n_after)
            if pending_resume_from is not None:
                if kind != "resume":
                    raise ValueError(
                        f"job {job.job_id}: {kind!r} while preempted"
                    )
                # restart into a fresh trainer at the checkpoint's N, then
                # resize to the scheduler's resumed N — grow (add_model
                # path) when resumed wider, evict when the scheduler
                # could only re-admit the job at fewer chains
                trainer = AvgPipeTrainer(
                    spec, seed=seed, num_pipelines=pending_resume_from, max_epochs=1
                )
                load_trainer(trainer, checkpoint, allow_resize=True)
                while trainer.num_pipelines < n_after:
                    trainer.rejoin_pipeline()
                while trainer.num_pipelines > n_after:
                    trainer.evict_pipeline(trainer.num_pipelines - 1)
                pending_resume_from = None
            elif kind == "shrink":
                while trainer.num_pipelines > max(1, n_after):
                    trainer.evict_pipeline(trainer.num_pipelines - 1)
            elif kind == "grow":
                while trainer.num_pipelines < n_after:
                    trainer.rejoin_pipeline()
            elif kind == "preempt":
                save_trainer(trainer, checkpoint)
                pending_resume_from = trainer.num_pipelines
            else:
                raise ValueError(f"job {job.job_id}: unknown event {kind!r}")
            events += 1
            if pending_resume_from is None:
                _train_round(trainer)
        if pending_resume_from is not None:
            raise ValueError(f"job {job.job_id}: trajectory ends preempted")
        divergence = elastic_equivalence_check(
            trainer.framework, spec.build_model, rounds=2, seed=seed
        )
    return CrosscheckResult(
        job_id=job.job_id,
        events=events,
        divergence=divergence,
        tolerance=tolerance,
    )


def crosscheck_result(
    result: SchedResult, seed: int = 0, tolerance: float = _TOLERANCE
) -> list[CrosscheckResult]:
    """Cross-check every preempted-then-resumed or resized job in a run."""
    out = []
    for job in result.jobs:
        if job.was_resized or job.was_preempted:
            out.append(crosscheck_job(job, seed=seed, tolerance=tolerance))
    return out
