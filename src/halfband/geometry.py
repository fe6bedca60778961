"""Argument checks (arrays, numbers, choices, rngs), normalization, angles, hard thresholding."""

import math
import numbers

import numpy as np

from .errors import InvalidInputError

# The cap of every count an argument gives (a dimension, a sample count, an iteration
# count): the largest n below which a float64 holds every integer exactly. Counts are
# merged and scaled as floats (diagnostics._moments, the schedules).
MAX_COUNT = 2**53


def finite_array(name, a, shape):
    """a as a float array; InvalidInputError unless it is finite with this shape.

    A None in shape matches any length along that axis.
    """
    try:
        a = np.asarray(a, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int beyond floats
        raise InvalidInputError(f"{name} must be an array of numbers: {exc}") from exc
    if a.ndim != len(shape) or any(n is not None and n != m for n, m in zip(shape, a.shape)):
        want = str(tuple("K" if n is None else n for n in shape)).replace("'", "")
        raise InvalidInputError(f"{name} must be an array of shape {want}, got shape {a.shape}")
    if not np.isfinite(a).all():  # the method skips np.all's Python wrapper
        raise InvalidInputError(f"{name} must be finite")
    return a


def _shown(value):
    """repr(value) for an error message; an int of more than 50 digits by its sign and length.

    Python refuses to turn an int of more than 4,300 digits into a string, and
    so the repr of anything holding one.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        v = abs(int(value))
        if v >= 10**50:
            digits = int((v.bit_length() - 1) * math.log10(2.0)) + 1  # at most one short
            digits += v >= 10**digits
            return f"{'a negative' if value < 0 else 'an'} integer of {digits} digits"
    try:
        return repr(value)
    except ValueError:
        return f"a {type(value).__name__} too large to show"


def integer(name, value, lo, hi=None):
    """int(value); InvalidInputError unless value is an integer in [lo, hi] (hi None: no cap).

    An integer is a numbers.Integral that is not a bool: np.int64 passes; 2.5,
    np.float64(2.0), True and "3" fail. Type and range share one message.
    """
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and lo <= value and (hi is None or value <= hi)):
        return int(value)
    bound = f"at least {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise InvalidInputError(f"{name} must be an integer {bound}, got {_shown(value)}")


def real(name, value):
    """float(value); InvalidInputError unless value is a numbers.Real that is not a bool.

    An int too large for a float fails too. Non-finite floats pass: callers bound them.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInputError(f"{name} must be a real number, got {_shown(value)}")
    try:
        return float(value)
    except OverflowError as exc:
        raise InvalidInputError(f"{name} must be a real number within float range: {exc}") from exc


def choice(name, value, table):
    """value; InvalidInputError unless it is a str naming a row of table (a dict or tuple)."""
    if isinstance(value, str) and value in table:
        return value
    raise InvalidInputError(f"unknown {name} {_shown(value)}; choose from {', '.join(table)}")


def per_row(name, value, n):
    """A finite (n,) float array (finite_array): n values, or one real number (real) n times."""
    if isinstance(value, numbers.Real):
        value = np.full(n, real(name, value))
    return finite_array(name, value, (n,))


def generator(name, rng):
    """rng itself; InvalidInputError unless it is a numpy Generator (np.random.default_rng).

    Called before a draw, so a wrong rng leaves every other stream and the ledger as they were.
    """
    if not isinstance(rng, np.random.Generator):
        raise InvalidInputError(f"{name} must be a numpy Generator, got {_shown(rng)}")
    return rng


def generators(name, streams):
    """streams as a list; InvalidInputError unless it is a list or tuple of numpy Generators."""
    if not isinstance(streams, (list, tuple)):
        raise InvalidInputError(f"{name} must be a list or tuple of numpy Generators, "
                                f"got {_shown(streams)}")
    return [generator(f"{name}[{k}]", g) for k, g in enumerate(streams)]


def normalize(w):
    """Return w / ||w||_2; the zero vector maps to e_1 by convention.

    w must be a finite nonempty 1-d array (finite_array). The e_1 convention lets
    iterative code normalize a zero start vector without a special case.
    """
    w = finite_array("normalize: w", w, (None,))
    if not w.size:
        raise InvalidInputError("normalize: w must not be empty")
    n = np.linalg.norm(w)
    if n == 0.0:
        out = np.zeros_like(w)
        out[0] = 1.0
        return out
    return w / n


def angle(u, v):
    """Angle between u and v in [0, pi]; cosine clamped to [-1, 1] as a float guard.

    u and v must be finite 1-d arrays of one length (finite_array), neither zero.
    """
    u = finite_array("angle: u", u, (None,))
    v = finite_array("angle: v", v, u.shape)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise InvalidInputError("angle: zero vector")
    c = np.dot(u, v) / (nu * nv)
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def hard_threshold(w, s):
    """Keep the s largest-magnitude entries of w, zero the rest.

    w must be a finite 1-d array (finite_array) and s an integer at least 1
    (geometry.integer). Magnitude ties keep the lower coordinate index; s >= d
    is the identity.
    """
    w = finite_array("hard_threshold: w", w, (None,))
    s = integer("hard_threshold: s", s, 1)
    d = w.shape[0]
    if s >= d:
        return w.copy()
    # stable sort on -|w| keeps the lowest index first among equal magnitudes
    keep = np.argsort(-np.abs(w), kind="stable")[:s]
    out = np.zeros_like(w)
    out[keep] = w[keep]
    return out
