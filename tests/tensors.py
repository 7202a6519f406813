"""Leaf-tensor constructor shared by the tensor and layer tests.

``tensor(data)`` builds a leaf :class:`Tensor` from array-like data;
float64 input is stored as float32 unless ``dtype`` is given, the same
default the library applies to non-array data.
"""

import numpy as np

from repro.tensor import Tensor


def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    arr = np.asarray(data, dtype=dtype)
    if dtype is None and arr.dtype == np.float64:
        arr = arr.astype(np.float32)
    return Tensor(arr, requires_grad=requires_grad)
