import math

import numpy as np
import pytest

from hopftwistor import StiefelPoint


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


@pytest.fixture
def canonical_pair():
    """The standard Stiefel point (e0, e1) in dimension n = 2."""
    um = np.array([1.0, 0.0, 0.0], dtype=complex)
    up = np.array([0.0, 1.0, 0.0], dtype=complex)
    return StiefelPoint(um, up)


def _loop_exp(a: np.ndarray) -> np.ndarray:
    """exp(a) for one matrix, as matrix_exp computed it one matrix per call:
    the squarings from its own 1-norm, a degree-18 Taylor polynomial by
    Horner's rule, then the squarings.  Unvalidated."""
    a = np.asarray(a, dtype=complex)
    norm1 = float(np.abs(a).sum(axis=0).max())
    squarings = 0
    if norm1 > 0.5:
        squarings = int(math.ceil(math.log2(norm1 / 0.5)))
        a = a / (2.0**squarings)
    eye = np.eye(a.shape[0], dtype=complex)
    result = eye + a / 18
    for m in range(17, 0, -1):
        result = eye + (a @ result) / m
    for _ in range(squarings):
        result = result @ result
    return result


@pytest.fixture
def loop_exp():
    """The per-matrix exponential, the reference for stacked matrix_exp."""
    return _loop_exp
