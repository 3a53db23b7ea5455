"""Matrix Lie-group and linear-algebra substrate.

SO(3) maps (hat / vex / psi / exponential), the extended special Euclidean
group SE_n(3) with one rotation block and n translation-like columns, and
the Kronecker / vectorization helpers used by the observer algebra.

All functions are pure; group elements are immutable after construction.
"""

from __future__ import annotations

import numpy as np

ROTATION_TOL = 1e-9
SMALL_ANGLE = 1e-8

_I3 = np.eye(3)


def hat(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix: hat(v) @ w == cross(v, w).

    A stack of vectors (..., 3) gives a stack of matrices (..., 3, 3).
    """
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape + (3,))
    out[..., 0, 1], out[..., 0, 2] = -v[..., 2], v[..., 1]
    out[..., 1, 0], out[..., 1, 2] = v[..., 2], -v[..., 0]
    out[..., 2, 0], out[..., 2, 1] = -v[..., 1], v[..., 0]
    return out


def vex(omega: np.ndarray, tol: float = ROTATION_TOL) -> np.ndarray:
    """Inverse of :func:`hat`. Rejects input that is not antisymmetric.

    Raises
    ------
    ValueError
        If ``omega + omega.T`` exceeds `tol` in max-abs norm.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (3, 3):
        raise ValueError(f"expected 3x3 matrix, got {omega.shape}")
    if np.max(np.abs(omega + omega.T)) > tol:
        raise ValueError("matrix is not antisymmetric within tolerance")
    return np.array([omega[2, 1], omega[0, 2], omega[1, 0]])


def psi(a: np.ndarray) -> np.ndarray:
    """vex of the antisymmetric part: psi(A) = vex((A - A.T) / 2), of each A of a stack (..., 3, 3)."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a - np.swapaxes(a, -1, -2))[..., [2, 0, 1], [1, 2, 0]]


def so3_exp(v: np.ndarray) -> np.ndarray:
    """Exponential map so(3) -> SO(3), Rodrigues closed form.

    Below ``SMALL_ANGLE`` the sin/versine coefficients switch to their
    second-order series to avoid 0/0. A stack of vectors (..., 3) gives a
    stack of rotations (..., 3, 3), each equal bit for bit to the
    exponential of its vector taken alone.
    """
    v = np.asarray(v, dtype=float)
    k = hat(v)
    # sqrt(v . v) rounds as the 1-D norm does; norm(axis=-1) does not
    theta = np.sqrt(np.vecdot(v, v))[..., None, None]
    small = theta < SMALL_ANGLE
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0, np.sin(safe) / safe)
    b = np.where(small, 0.5, (1.0 - np.cos(safe)) / (safe * safe))
    return _I3 + a * k + b * (k @ k)


def is_rotation(r: np.ndarray, tol: float = ROTATION_TOL) -> bool:
    """True when R is orthonormal with determinant +1 within `tol`."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        return False
    ortho = np.linalg.norm(r.T @ r - _I3)
    return ortho < tol and abs(np.linalg.det(r) - 1.0) < tol


def project_rotation(r: np.ndarray) -> np.ndarray:
    """Closest rotation in Frobenius norm (polar factor via SVD), of each
    matrix of a stack (..., 3, 3)."""
    u, _, vt = np.linalg.svd(np.asarray(r, dtype=float))
    # U diag(1, 1, d) V^T: flip U's last column where U V^T is a reflection
    u[..., 2] *= np.sign(np.linalg.det(u @ vt))[..., None]
    return u @ vt


def rotation_angle(r: np.ndarray) -> float | np.ndarray:
    """Geodesic angle of a rotation from its sine |psi(R)| and cosine
    (trace - 1)/2, accurate at every angle (arccos loses it near 0 and pi),
    of each matrix of a stack (..., 3, 3)."""
    s = psi(r)  # sqrt(s . s) rounds as the 1-D norm does; norm(axis=-1) does not
    return np.arctan2(np.sqrt(np.vecdot(s, s)), 0.5 * (np.trace(r, axis1=-2, axis2=-1) - 1.0))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product (numpy-backed)."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(a, dtype=float).reshape(-1, order="F")


def vec_inv(v: np.ndarray, m: int, n: int) -> np.ndarray:
    """Inverse of :func:`vec`: reshape an mn-vector back to m x n."""
    v = np.asarray(v, dtype=float)
    if v.size != m * n:
        raise ValueError(f"cannot reshape {v.size} entries to {m}x{n}")
    return v.reshape((m, n), order="F")


class SEn:
    """Element of SE_n(3): a rotation plus a 3 x n translation block.

    Stored blockwise rather than as the dense (3+n) x (3+n) matrix so the
    group constraints cannot drift; :meth:`as_matrix` realizes the dense
    embedding for oracles and tests. Instances are immutable.
    """

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation: np.ndarray, translation: np.ndarray, check: bool = True):
        rotation = np.array(rotation, dtype=float)
        translation = np.atleast_2d(np.array(translation, dtype=float))
        if translation.shape[0] != 3:
            raise ValueError(f"translation block must be 3 x n, got {translation.shape}")
        if check and not is_rotation(rotation):
            raise ValueError("rotation block violates orthonormality / det tolerance")
        rotation.setflags(write=False)
        translation.setflags(write=False)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("SEn elements are immutable")

    @property
    def n(self) -> int:
        return self.translation.shape[1]

    @classmethod
    def identity(cls, n: int) -> "SEn":
        return cls(np.eye(3), np.zeros((3, n)), check=False)

    @classmethod
    def from_matrix(cls, m: np.ndarray, check: bool = True) -> "SEn":
        m = np.asarray(m, dtype=float)
        n = m.shape[0] - 3
        if m.shape != (3 + n, 3 + n) or n < 1:
            raise ValueError(f"not a T_n embedding: shape {m.shape}")
        if check:
            if np.max(np.abs(m[3:, :3])) > ROTATION_TOL:
                raise ValueError("bottom-left block is not zero")
            if np.max(np.abs(m[3:, 3:] - np.eye(n))) > ROTATION_TOL:
                raise ValueError("bottom-right block is not identity")
        return cls(m[:3, :3], m[:3, 3:], check=check)

    def as_matrix(self) -> np.ndarray:
        n = self.n
        m = np.eye(3 + n)
        m[:3, :3] = self.rotation
        m[:3, 3:] = self.translation
        return m

    def compose(self, other: "SEn") -> "SEn":
        """Group product; equals the matrix product of the embeddings."""
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: n={self.n} vs n={other.n}")
        return SEn(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
            check=False,
        )

    def __matmul__(self, other: "SEn") -> "SEn":
        return self.compose(other)

    def inverse(self) -> "SEn":
        """Closed-form inverse (R.T, -R.T x)."""
        rt = self.rotation.T
        return SEn(rt, -rt @ self.translation, check=False)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Action on a (3+n)-vector, without forming the dense matrix."""
        v = np.asarray(v, dtype=float)
        if v.shape != (3 + self.n,):
            raise ValueError(f"expected length-{3 + self.n} vector, got {v.shape}")
        out = np.empty_like(v)
        out[:3] = self.rotation @ v[:3] + self.translation @ v[3:]
        out[3:] = v[3:]
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"SEn(n={self.n})"
