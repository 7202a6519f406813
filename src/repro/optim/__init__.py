"""Optimizers.

A key claim of the paper (§3.1) is that AvgPipe's elastic-averaging
*framework* decouples from the optimizer, unlike EASGD-style extended
optimizers.  We therefore provide the optimizers the workloads use (SGD,
Adam, Adagrad, ASGD) as independent classes behind one interface, plus the
classic coupled :class:`EASGD` optimizer as a related-work baseline that
the framework is compared against in tests.
"""

from repro.optim.optimizer import Optimizer
from repro.optim.sgd import SGD
from repro.optim.adam import Adam
from repro.optim.adamw import AdamW
from repro.optim.adagrad import Adagrad
from repro.optim.asgd import ASGD
from repro.optim.easgd import EASGD

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "Adagrad",
    "ASGD",
    "EASGD",
]
