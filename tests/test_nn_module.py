"""Module base-class machinery: registration, state dicts, modes."""

import numpy as np
import pytest

from repro.nn import Dropout, Linear, Module, Parameter
from repro.tensor import Tensor


class LinearDropout(Module):
    def __init__(self, width):
        super().__init__()
        self.fc = Linear(width, width)
        self.drop = Dropout(0.5)

    def forward(self, x):
        return self.drop(self.fc(x))


class TwoLayer(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(4, 8)
        self.fc2 = Linear(8, 2)
        self.scale = Parameter(np.ones(1, dtype=np.float32))

    def forward(self, x):
        return self.fc2(self.fc1(x)) * self.scale


class TestRegistration:
    def test_named_parameters_are_prefixed(self):
        names = dict(TwoLayer().named_parameters())
        assert "fc1.weight" in names
        assert "fc2.bias" in names
        assert "scale" in names

    def test_parameter_bytes(self):
        m = Linear(4, 4, bias=False)
        assert m.parameter_bytes() == 16 * 4

    def test_modules_traversal(self):
        m = TwoLayer()
        kinds = [type(x).__name__ for x in m.modules()]
        assert kinds == ["TwoLayer", "Linear", "Linear"]


class TestStateDict:
    def test_roundtrip(self):
        m1, m2 = TwoLayer(), TwoLayer()
        m2.load_state_dict(m1.state_dict())
        for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)

    def test_state_dict_is_a_copy(self):
        m = TwoLayer()
        state = m.state_dict()
        state["scale"][...] = 99.0
        assert m.scale.data[0] == 1.0

    def test_load_copies_not_aliases(self):
        m = TwoLayer()
        state = m.state_dict()
        m.load_state_dict(state)
        state["scale"][...] = 42.0
        assert m.scale.data[0] == 1.0

    def test_missing_key_raises(self):
        m = TwoLayer()
        state = m.state_dict()
        del state["scale"]
        with pytest.raises(KeyError):
            m.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        m = TwoLayer()
        state = m.state_dict()
        state["scale"] = np.ones(3, dtype=np.float32)
        with pytest.raises(ValueError):
            m.load_state_dict(state)


class TestModes:
    def test_train_eval_propagates(self):
        m = LinearDropout(2)
        m.eval()
        assert all(not child.training for child in m.modules())
        m.train()
        assert all(child.training for child in m.modules())

    def test_zero_grad_clears_all(self):
        m = TwoLayer()
        out = m(Tensor(np.ones((1, 4), np.float32)))
        out.sum().backward()
        assert any(p.grad is not None for p in m.parameters())
        m.zero_grad()
        assert all(p.grad is None for p in m.parameters())

    def test_seed_changes_dropout_stream_not_weights(self):
        m = LinearDropout(4)
        before = m.state_dict()
        m.seed(123)
        after = m.state_dict()
        for k in before:
            assert np.array_equal(before[k], after[k])
