"""Empty-store bitwise-identity: the learned layer must be invisible
until records exist.

``ProfilingTuner`` is the one consumer of run history.  With
``history=None`` or an empty :class:`~repro.tune.store.RunStore` it must
produce *byte-equal* outcomes to the analytic decision.
"""

from repro.core.tuner import ProfilingTuner
from repro.tune.store import RunStore
from tests.test_core_predictor import make_profiler


class TestProfilingTuner:
    def test_empty_store_outcome_identical(self):
        limit = 64 * 2**30
        base = ProfilingTuner(make_profiler(), limit).tune(
            m_candidates=[1, 2, 4], n_candidates=[1, 2]
        )
        for history in (None, RunStore()):
            outcome = ProfilingTuner(
                make_profiler(), limit, history=history, workload="awd"
            ).tune(m_candidates=[1, 2, 4], n_candidates=[1, 2])
            assert (outcome.m, outcome.n) == (base.m, base.n)
            assert outcome.measured_batch_time == base.measured_batch_time
            assert outcome.tuning_cost == base.tuning_cost
            assert outcome.details == base.details
            assert outcome.records_consulted == 0
            assert not outcome.residual_applied
