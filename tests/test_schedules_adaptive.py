"""Algorithm 1: the adaptive advance-forward-propagation controller."""

import pytest

from repro.schedules import AdaptiveAdvanceController


def controller(**kwargs):
    defaults = dict(num_micro=16, memory_limit_bytes=1000.0)
    defaults.update(kwargs)
    return AdaptiveAdvanceController(**defaults)


class TestObserve:
    def test_grows_while_faster_and_within_memory(self):
        ctl = controller()
        assert ctl.observe(10.0, 100.0) == 1
        assert ctl.observe(9.0, 150.0) == 2
        assert ctl.observe(8.0, 200.0) == 3

    def test_stops_and_backs_off_when_no_longer_faster(self):
        ctl = controller()
        ctl.observe(10.0, 100.0)  # advance 0 -> 1
        ctl.observe(9.0, 150.0)  # 1 -> 2
        result = ctl.observe(9.0, 200.0)  # not faster: back to 1, stop
        assert result == 1
        assert ctl._stopped

    def test_stops_and_rolls_back_at_memory_limit(self):
        ctl = controller(memory_limit_bytes=120.0)
        ctl.observe(10.0, 100.0)  # 0 -> 1 (mem ok)
        result = ctl.observe(9.0, 130.0)  # faster but over limit -> roll back
        assert ctl._stopped
        assert result == 0  # never settle on an over-budget advance

    def test_capped_at_num_micro(self):
        ctl = controller(num_micro=2)
        ctl.observe(10.0, 1.0)
        ctl.observe(9.0, 1.0)
        result = ctl.observe(8.0, 1.0)
        assert result <= 2
        assert ctl._stopped

    def test_threshold_filters_noise(self):
        ctl = controller(improvement_threshold=0.05)
        ctl.observe(10.0, 1.0)
        result = ctl.observe(9.9, 1.0)  # only 1% faster: treated as flat
        assert ctl._stopped
        assert result == 0

    def test_observations_after_stop_are_inert(self):
        ctl = controller()
        ctl.observe(10.0, 1.0)
        ctl.observe(10.0, 1.0)  # stops
        frozen = ctl.advance
        assert ctl.observe(1.0, 1.0) == frozen


class TestTuneLoop:
    def test_converges_to_knee_of_synthetic_curve(self):
        """Synthetic response: time improves until advance 5, then flat."""

        def measure(adv):
            return (max(10.0 - adv, 5.0), 50.0 * (adv + 1))

        ctl = controller()
        settled = ctl.tune(measure)
        assert settled in (4, 5)

    def test_degenerates_to_1f1b_when_nothing_helps(self):
        ctl = controller()
        settled = ctl.tune(lambda adv: (10.0, 10.0))
        assert settled == 0

    def test_degenerates_toward_afab_when_memory_is_free(self):
        """Monotone improvement all the way: Algorithm 1 should push
        advance to the AFAB end (num_micro)."""
        ctl = controller(num_micro=8)
        settled = ctl.tune(lambda adv: (10.0 - adv, 1.0))
        assert settled == 8

    def test_history_recorded(self):
        ctl = controller()
        ctl.tune(lambda adv: (10.0 - adv * 0.5 if adv < 3 else 9.0, 1.0))
        assert len(ctl.history) >= 3
        assert ctl.history[0][0] == 0  # started at 1F1B


class TestValidation:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            AdaptiveAdvanceController(num_micro=0, memory_limit_bytes=1.0)
        with pytest.raises(ValueError):
            AdaptiveAdvanceController(num_micro=4, memory_limit_bytes=0.0)
