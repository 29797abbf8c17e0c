"""Float-or-column arithmetic for the energy models and their reports.

The hardware models (Eqs. 2-16), the frame timing (Sec. 4.1) and the
report roll-ups are written once over plain arithmetic, which
broadcasts, so the same function evaluates one design point on a Python
float or a whole explored group on a NumPy column.  Only four things
differ between the two, and they live here: truth tests of a
comparison, maxima, shares of a total, and scalar-only steps.  NumPy is
imported only when an array is actually passed in.
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


def share(part, whole):
    """``part / whole``, or 0 where ``whole`` is 0 (element-wise)."""
    if _is_scalar(whole):
        return part / whole if whole else 0.0
    import numpy as np
    out = np.zeros(np.shape(whole))
    np.divide(part, whole, out=out, where=whole != 0)
    return out


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
