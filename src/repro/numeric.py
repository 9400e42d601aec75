"""Float totals that do not depend on the interpreter.

Python 3.12 made the builtin ``sum`` of floats compensated (Neumaier;
https://github.com/python/cpython/issues/100425), so ``sum(floats)``
can differ in the last bits between 3.11 and 3.12, and with it every
report, ranking and digest built on the total.  Every float total on
an output path is therefore an explicit sequential left fold,
``((0.0 + v[0]) + v[1]) + ...`` — the value 3.11's builtin computes
(it starts from the integer 0, so a ``-0.0`` total reads ``+0.0``) —
and stays bit-equal across interpreters.  Integer totals keep the
builtin: they are exact on every version.
"""

from __future__ import annotations

import numpy as np


def left_sums(values) -> np.ndarray:
    """Left-fold totals along the first axis of ``values``.

    ``np.cumsum`` is numpy's sequential accumulate (``np.sum`` is
    pairwise and rounds differently); adding ``0.0`` turns a ``-0.0``
    total into the builtin's ``+0.0``, and an overflow to infinity
    passes silently, as it does in the builtin.  A 2-D ``values`` folds
    every column at once; an empty first axis totals ``0.0``.
    """
    array = np.asarray(values, dtype=np.float64)
    if not len(array):
        return np.zeros(array.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cumsum(array, axis=0)[-1] + 0.0


def left_sum(values) -> float:
    """The left-fold total of a 1-D sequence, as a Python float."""
    return float(left_sums(values))
