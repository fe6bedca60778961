"""Vector primitives: input checks, normalization, angles, ball projection, hard thresholding."""

import numpy as np

from .errors import InvalidInputError


def finite_array(name, a, shape):
    """a as a float array; InvalidInputError unless it is finite with this shape.

    A None in shape matches any length along that axis.
    """
    try:
        a = np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} must be an array of numbers: {exc}") from exc
    if a.ndim != len(shape) or any(n is not None and n != m for n, m in zip(shape, a.shape)):
        want = str(tuple("K" if n is None else n for n in shape)).replace("'", "")
        raise InvalidInputError(f"{name} must be an array of shape {want}, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} must be finite")
    return a


def normalize(w):
    """Return w / ||w||_2; the zero vector maps to e_1 by convention.

    The e_1 convention lets iterative code normalize a zero start
    vector without a special case.
    """
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise InvalidInputError("normalize: non-finite coordinates")
    n = np.linalg.norm(w)
    if n == 0.0:
        out = np.zeros_like(w)
        out[0] = 1.0
        return out
    return w / n


def angle(u, v):
    """Angle between u and v in [0, pi]; cosine clamped to [-1, 1] as a float guard."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise InvalidInputError("angle: zero vector")
    c = np.dot(u, v) / (nu * nv)
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def project_l2_ball(w, center, radius):
    """Euclidean projection of w onto the ball {x: ||x - center|| <= radius}."""
    if not radius > 0.0:
        raise InvalidInputError("project_l2_ball: radius must be positive")
    w = np.asarray(w, dtype=float)
    center = np.asarray(center, dtype=float)
    diff = w - center
    dist = np.linalg.norm(diff)
    if dist <= radius:
        return w
    return center + (radius / dist) * diff


def hard_threshold(w, s):
    """Keep the s largest-magnitude entries of w, zero the rest.

    Magnitude ties keep the lower coordinate index; s >= d is the identity.
    """
    w = np.asarray(w, dtype=float)
    s = int(s)
    if s < 1:
        raise InvalidInputError("hard_threshold: s must be at least 1")
    d = w.shape[0]
    if s >= d:
        return w.copy()
    # stable sort on -|w| keeps the lowest index first among equal magnitudes
    keep = np.argsort(-np.abs(w), kind="stable")[:s]
    out = np.zeros_like(w)
    out[keep] = w[keep]
    return out
