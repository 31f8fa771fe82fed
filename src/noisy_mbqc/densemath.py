"""Dense complex-matrix kernel shared by every other module.

States and operators are plain ``numpy`` arrays in row-major computational
basis ordering (qubit 0 is the most significant index).  A density operator
is a square, Hermitian, positive semidefinite matrix; its trace carries the
branch probability, so post-selected branches are stored unnormalised.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import DimensionMismatch, NotNormalized

#: default tolerance for Hermiticity / positivity / trace checks
ATOL = 1e-10

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CZ = np.diag([1, 1, 1, -1]).astype(complex)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)
# shared by every caller: a write into one would corrupt it process-wide
for _const in (I2, X, Y, Z, H, CZ, KET0, KET1, PLUS, MINUS):
    _const.setflags(write=False)


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def stacked(ops, ndim: int, what: str) -> np.ndarray:
    """``ops``, an array or nested sequences, as one non-empty complex array
    with ``ndim`` axes: the storage of a Kraus set or an MPO site family."""
    try:
        out = np.asarray(ops, dtype=complex)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise DimensionMismatch(f"{what} must share one shape") from None
    if out.ndim != ndim or not out.size:
        raise DimensionMismatch(
            f"{what} must fill a non-empty {ndim}-axis array, got {out.shape}"
        )
    return out


def kron(*mats: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, left to right."""
    if not mats:
        raise DimensionMismatch("kron needs at least one operand")
    return reduce(np.kron, (np.asarray(m, dtype=complex) for m in mats))


def unit_ket(ket) -> np.ndarray:
    """The readout check of the oracle and the MPO: ``ket`` (a (2, 1) column
    too) as a complex 2-vector with |<v|v> - 1| <= 1e-12; NaN fails."""
    v = np.asarray(ket, dtype=complex)
    if v.size != 2:
        raise DimensionMismatch(f"a measurement ket must have 2 entries, got {v.shape}")
    v = v.reshape(2)
    if not abs(np.vdot(v, v) - 1.0) <= 1e-12:  # NaN fails too
        raise NotNormalized("a measurement ket must be a unit vector")
    return v


def projector(vec: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v|."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def rz(phi: float) -> np.ndarray:
    """Rotation exp(-i*phi*Z/2) about the Z axis."""
    return np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])


def equatorial_ket(phi: float, k: int) -> np.ndarray:
    """Equatorial basis state exp(-i*phi*Z/2) Z^k |+>, outcome k in {0,1}."""
    v = PLUS if k % 2 == 0 else MINUS
    return rz(phi) @ v


def partial_trace(rho: np.ndarray, keep, dims) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    Args:
        rho: operator on the full tensor-product space.
        keep: indices of the subsystems to retain, in any order.
        dims: dimension of each subsystem; their product must match ``rho``.
    """
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    total = int(np.prod(dims)) if dims else 1
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (total, total):
        raise DimensionMismatch(
            f"operator shape {rho.shape} does not match subsystem dims {dims}"
        )
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise DimensionMismatch(f"keep indices {keep} out of range for {n} subsystems")

    lower = "abcdefghijklmnopqrstuvwxyz"
    upper = lower.upper()
    if n > len(lower):
        raise DimensionMismatch("too many subsystems for partial_trace")
    row = [lower[i] for i in range(n)]
    col = [upper[i] if i in keep else lower[i] for i in range(n)]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    reduced = np.einsum("".join(row + col) + "->" + out, rho.reshape(dims + dims))
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return reduced.reshape(d_keep, d_keep)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the sum of singular values of (a - b)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return 0.5 * float(np.sum(np.linalg.svd(a - b, compute_uv=False)))


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entrywise difference |a - b|."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def is_hermitian(m: np.ndarray, tol: float = ATOL) -> bool:
    m = np.asarray(m)
    return m.shape[0] == m.shape[1] and bool(np.max(np.abs(m - dag(m))) <= tol)


def is_psd(m: np.ndarray, tol: float = ATOL) -> bool:
    """Hermitian within ``tol`` and all eigenvalues >= -tol."""
    m = np.asarray(m, dtype=complex)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch("positivity check needs a square matrix")
    if not is_hermitian(m, tol):
        return False
    evals = np.linalg.eigvalsh(0.5 * (m + dag(m)))
    return bool(evals.min() >= -tol)


def is_density_operator(
    rho: np.ndarray, tol: float = ATOL, normalized: bool = False
) -> bool:
    """Check Hermiticity, positivity and the trace convention.

    With ``normalized`` the trace must be 1; otherwise it may sit anywhere in
    [0, 1] (an unnormalised branch whose trace is its probability).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        return False
    if not np.all(np.isfinite(rho)):
        return False
    if not is_psd(rho, tol):
        return False
    tr = np.trace(rho).real
    if normalized:
        return bool(abs(tr - 1.0) <= tol)
    return bool(-tol <= tr <= 1.0 + tol)


def mat_to_json(m: np.ndarray) -> list:
    """Encode a complex array of any rank as nested [re, im] pairs, bit for bit."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def mat_from_json(rows: list) -> np.ndarray:
    """Inverse of :func:`mat_to_json`."""
    return np.array(
        [[complex(re, im) for re, im in row] for row in rows], dtype=complex
    )


def holds_bool(obj) -> bool:
    """True when nested lists hold a JSON boolean, which decodes as 0 or 1."""
    if isinstance(obj, list):
        return any(holds_bool(x) for x in obj)
    return isinstance(obj, bool)
