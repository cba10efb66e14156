"""Small shared helpers."""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np


def _clamped_exp(x: float) -> float:
    """e^x with x clamped to +-40, so rates and intensities stay finite."""
    return math.exp(min(max(x, -40.0), 40.0))


def ordered_sum(terms) -> float:
    """0.0 plus each term, left to right.

    This is what `sum` of floats gives up to Python 3.11; from 3.12 `sum`
    compensates float rounding, which changes the result bits.
    """
    total = 0.0
    for term in terms:
        total += term
    return total


def ordered_array_sum(terms: np.ndarray) -> float:
    """`ordered_sum` of an array's terms.

    A cumulative sum adds left to right; np.sum adds pairwise, which
    changes the result bits.  The leading 0.0 makes an all -0.0 array sum
    to 0.0, as `ordered_sum` does.
    """
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def atomic_write(path: str, text: str):
    """Write via a temp file and rename so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".relboost-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
