"""Float-or-column arithmetic for the energy models.

The hardware models (Eqs. 2-16) are written once over plain arithmetic,
which broadcasts, so the same function evaluates one design point on a
Python float or a whole explored group on a NumPy column.  Only three
things differ between the two, and they live here: truth tests of a
comparison, maxima, and scalar-only steps.  NumPy is imported only when
an array is actually passed in.
"""

from __future__ import annotations


def _is_scalar(value) -> bool:
    return isinstance(value, (int, float))


def any_true(cond) -> bool:
    """A float comparison's own ``bool``; whether any element holds for
    an array comparison."""
    if cond is True or cond is False:
        return cond
    return bool(cond.any())


def maximum(a, b):
    """Builtin ``max`` on floats; element-wise ``np.maximum`` otherwise."""
    if _is_scalar(a) and _is_scalar(b):
        return max(a, b)
    import numpy as np
    return np.maximum(a, b)


def per_value(fn, x):
    """``fn(x)`` on a float; ``fn`` once per distinct element of an array.

    For scalar-only steps such as ``math.log10``, which NumPy does not
    reproduce bit-for-bit.
    """
    if _is_scalar(x):
        return fn(x)
    import numpy as np
    values, inverse = np.unique(x, return_inverse=True)
    return np.array([fn(value) for value in values.tolist()],
                    dtype=float)[inverse]
