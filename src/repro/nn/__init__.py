"""Neural-network layers over the autograd engine.

Mirrors the slice of ``torch.nn`` that the paper's three workloads (GNMT,
BERT, AWD-LSTM) require, plus the introspection machinery the
elastic-averaging runtime relies on: ``Module.state_dict`` /
``load_state_dict`` — elastic averaging and checkpoints operate on flat
state dicts.  :class:`LSTMCell` holds the recurrent weights; the
GNMT decoder steps it over time, the other recurrent layers run it
through the whole-sequence kernel ``lstm_sequence``.
"""

from repro.nn.module import Module, Parameter
from repro.nn.linear import Linear
from repro.nn.embedding import Embedding
from repro.nn.normalization import LayerNorm
from repro.nn.dropout import Dropout, WeightDrop
from repro.nn.activations import Tanh
from repro.nn.recurrent import LSTMCell
from repro.nn.attention import MultiHeadAttention
from repro.nn.transformer import TransformerEncoderLayer, PositionalEncoding

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "WeightDrop",
    "Tanh",
    "LSTMCell",
    "MultiHeadAttention",
    "TransformerEncoderLayer",
    "PositionalEncoding",
]
