"""Dense linear algebra for small symmetric / SPD matrices.

Everything here is written directly against numpy primitives (no LAPACK
driver choices to worry about), runs in float64, and is bitwise
deterministic for identical inputs.  The eigensolver is Jacobi in the
parallel round-robin ordering of Brent & Luk (1985, SIAM J. Sci. Stat.
Comput. 6(1)): a sweep is n - 1 rounds of n/2 disjoint rotations, applied
by one matrix product per round, so it costs O(n) numpy calls, not O(n^2).
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# Jacobi stopping rule, checked before each sweep: off-diagonal Frobenius
# norm relative to the full Frobenius norm, and a hard cap on the sweeps.
JACOBI_REL_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100
_MIN_NORMAL = np.finfo(np.float64).tiny  # smallest positive normal float64


class NotPositiveDefiniteError(ValueError):
    """Cholesky pivot failure: the matrix is not positive definite."""


class EigenConvergenceError(RuntimeError):
    """Jacobi sweeps hit the iteration cap; input is ill-conditioned."""


def _as_square_float(entries) -> np.ndarray:
    a = np.asarray(entries, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("dimension must be >= 1")
    return a


@dataclass(frozen=True)
class SymMatrix:
    """Real symmetric matrix; symmetrized exactly on construction."""

    entries: np.ndarray

    def __post_init__(self):
        a = _as_square_float(self.entries)
        object.__setattr__(self, "entries", 0.5 * (a + a.T))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SPDOperator:
    """Symmetric positive definite matrix, certified by a Cholesky pass."""

    entries: np.ndarray
    _factor: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        a = _as_square_float(self.entries)
        a = 0.5 * (a + a.T)
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "_factor", cholesky_factor(a))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def logdet(self) -> float:
        """log det of the operator, 2 * sum log L_ii of its Cholesky factor."""
        return float(2.0 * np.sum(np.log(np.diag(self._factor))))


@dataclass(frozen=True)
class EigDecomp:
    """Eigendecomposition with eigenvalues sorted descending and
    orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def cholesky_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix.

    Raises NotPositiveDefiniteError on a non-positive pivot, which doubles
    as the definiteness certificate used by SPDOperator.
    """
    a = _as_square_float(a)
    n = a.shape[0]
    L = np.zeros((n, n))
    for j in range(n):
        d = a[j, j] - L[j, :j] @ L[j, :j]
        if not d > 0.0:
            raise NotPositiveDefiniteError(f"pivot {j} is {d!r}")
        L[j, j] = np.sqrt(d)
        if j + 1 < n:
            L[j + 1 :, j] = (a[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


@lru_cache(maxsize=32)
def _round_robin(n: int) -> tuple:
    """One Jacobi sweep in parallel ("round-robin") ordering.

    Index 0 stays put while the others rotate one seat per round, so the
    n - 1 rounds (n rounds for odd n, where the index paired with a phantom
    sits out) pair every (p, q) exactly once, and the pairs of a round are
    disjoint.  Each round is stored as flat indices into an n x n matrix:
    (pp, qq, pq, qp), one block per kind, p < q.
    """
    m = n + n % 2
    seats = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [sorted((seats[i], seats[m - 1 - i])) for i in range(m // 2)]
        p, q = np.array([pq for pq in pairs if pq[1] < n]).T
        idx = np.concatenate([p * n + p, q * n + q, p * n + q, q * n + p])
        idx.flags.writeable = False  # shared through the cache
        rounds.append(idx)
        seats = [seats[0], seats[-1]] + seats[1:-1]
    return tuple(rounds)


def sym_eig(a: SymMatrix) -> EigDecomp:
    """Eigendecomposition of a symmetric matrix by Jacobi rotations in
    parallel ordering (Brent & Luk 1985, SIAM J. Sci. Stat. Comput. 6(1)).

    Each round of a sweep applies n/2 disjoint rotations at once, as one
    ``J.T @ A @ J`` and one ``V @ J``; the rotated 2x2 pivot blocks are then
    set to their exact values (the rotations are disjoint, so each block
    depends on its own pair only).  The rotation angles use the classical
    formulas, in Python floats.

    Unconditionally stable at the dimensions used here, and deterministic:
    fixed round order, fixed rotation formulas, stable descending sort with
    a sign convention on each eigenvector (largest-magnitude entry positive).
    An input that is already diagonal takes no sweep and comes back exact.
    An input whose squared Frobenius norm is not a normal float64 (entries
    above about 1e154 or below about 1e-154) is rotated scaled by a power
    of two, so the stopping tolerance stays finite and nonzero.
    """
    A = a.entries.copy()
    n = A.shape[0]
    identity = np.eye(n)
    V = identity.copy()
    if n == 1:
        return EigDecomp(A[0].copy(), V)

    with np.errstate(over="ignore"):  # an overflow fails the range test below
        norm_sq = np.sum(A * A)
    exponent = 0
    if not _MIN_NORMAL <= norm_sq < math.inf and A.any() and np.isfinite(A).all():
        # Outside float64's normal range the tolerance would be inf or 0 and
        # no sweep would run: rotate A scaled by an exact power of two, to
        # a largest magnitude in [0.5, 1), and scale the eigenvalues back.
        exponent = int(np.frexp(np.abs(A).max())[1])
        A = np.ldexp(A, -exponent)
        norm_sq = np.sum(A * A)
    tol = JACOBI_REL_TOL * np.sqrt(norm_sq)

    for _ in range(JACOBI_MAX_SWEEPS):
        off = A - np.diag(np.diag(A))
        if np.sqrt(np.sum(off * off)) <= tol:
            break
        for idx in _round_robin(n):
            h = len(idx) // 4
            v = A.take(idx[: 3 * h]).tolist()
            cos, sin, new_pp, new_qq = [], [], [], []
            for app, aqq, apq in zip(v[:h], v[h : 2 * h], v[2 * h :]):
                t = 0.0
                if apq != 0.0:
                    theta = (aqq - app) / (2.0 * apq)
                    t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                cos.append(c)
                sin.append(t * c)
                new_pp.append(app - t * apq)
                new_qq.append(aqq + t * apq)
            if not any(sin):
                continue
            J = identity.copy()
            J.put(idx, cos + cos + sin + [-s for s in sin])
            A = J.T @ A @ J
            A.put(idx, new_pp + new_qq + [0.0] * (2 * h))
            V = V @ J
    else:
        raise EigenConvergenceError(
            f"Jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps (dim {n})"
        )

    w = np.ldexp(np.diag(A), exponent)  # a copy, exact at exponent 0
    order = np.argsort(-w, kind="stable")
    w = w[order]
    V = V[:, order]
    # Deterministic sign: make the largest-magnitude component positive.
    cols = np.arange(n)
    V = np.where(V[np.argmax(np.abs(V), axis=0), cols] < 0.0, -V, V)
    return EigDecomp(w, V)


def spd_sqrt(h: SPDOperator) -> SPDOperator:
    """Symmetric square root R of an SPD operator, R @ R == H."""
    eig = sym_eig(SymMatrix(h.entries))
    root = eig.eigenvectors @ (np.sqrt(eig.eigenvalues)[:, None] * eig.eigenvectors.T)
    return SPDOperator(root)


def spd_inverse(h: SPDOperator) -> SPDOperator:
    """Inverse of an SPD operator via its eigendecomposition."""
    eig = sym_eig(SymMatrix(h.entries))
    inv = eig.eigenvectors @ (eig.eigenvectors / eig.eigenvalues).T
    return SPDOperator(inv)


def orthonormalize_columns(m, rng: np.random.Generator) -> np.ndarray:
    """Orthonormalize the columns of a d x k matrix (k <= d).

    Modified Gram-Schmidt with a second orthogonalization pass.  On rank
    deficiency the whole matrix is redrawn from ``rng`` (at most 3 redraws).
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    d, k = m.shape
    if k > d:
        raise ValueError(f"need k <= d, got {m.shape}")

    for attempt in range(4):
        q = m.astype(np.float64).copy()
        ok = True
        for j in range(k):
            for _ in range(2):  # second pass restores orthogonality to ~1e-15
                q[:, j] -= q[:, :j] @ (q[:, :j].T @ q[:, j])
            norm = np.sqrt(q[:, j] @ q[:, j])
            if norm <= 1e-12 * max(1.0, np.sqrt(m[:, j] @ m[:, j])):
                ok = False
                break
            q[:, j] /= norm
        if ok:
            return q
        m = rng.standard_normal((d, k))
    raise ValueError("rank-deficient columns persisted after 3 redraws")
