"""Dense complex-matrix kernel shared by every other module.

States and operators are plain ``numpy`` arrays in row-major computational
basis ordering (qubit 0 is the most significant index).  A density operator
is a square, Hermitian, positive semidefinite matrix; its trace carries the
branch probability, so post-selected branches are stored unnormalised.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import DimensionMismatch, NotNormalized, SizeLimit

#: tolerance of the library's state, unitarity and channel checks
ATOL = 1e-10

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)
# shared by every caller: a write into one would corrupt it process-wide
for _const in (I2, X, Y, Z, H, KET0, KET1, PLUS, MINUS):
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


def unit_ket(ket) -> np.ndarray:
    """The readout check of the oracle and the MPO: ``ket`` as a complex
    2-vector, shape (2,) and no other, with |<v|v> - 1| <= 1e-12; NaN fails."""
    v = np.asarray(ket, dtype=complex)
    if v.shape != (2,):
        raise DimensionMismatch(f"a measurement ket must be a 2-vector, got {v.shape}")
    if not abs(np.vdot(v, v) - 1.0) <= 1e-12:  # NaN fails too
        raise NotNormalized("a measurement ket must be a unit vector")
    return v


def projector(vec: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v|."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def outcome_bit(k) -> int:
    """``k`` if it is the integer 0 or 1, an ``int`` or a numpy integer; a bool,
    a float or any other value raises ValueError.  The one check of a readout
    outcome or a Pauli label bit."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k not in (0, 1):
        raise ValueError(f"outcome must be the integer 0 or 1, got {k!r}")
    return k


def rz(phi: float) -> np.ndarray:
    """Rotation exp(-i*phi*Z/2) about the Z axis; a non-finite phi raises ValueError."""
    if not np.isfinite(phi):
        raise ValueError("phi must be finite")
    return np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])


def equatorial_ket(phi: float, k: int) -> np.ndarray:
    """Equatorial basis state exp(-i*phi*Z/2) Z^k |+>, outcome k in {0,1}."""
    v = MINUS if outcome_bit(k) else PLUS
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

    # axis i of the rows is label i; of the columns, n + i if kept, else i (traced)
    col = [n + i if i in keep else i for i in range(n)]
    out = [*keep, *(n + i for i in keep)]
    reduced = np.einsum(rho.reshape(dims + dims), [*range(n), *col], out)
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


def is_psd(m: np.ndarray) -> bool:
    """Hermitian within ``ATOL`` and all eigenvalues >= -``ATOL``."""
    m = np.asarray(m, dtype=complex)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch("positivity check needs a square matrix")
    if not np.max(np.abs(m - dag(m))) <= ATOL:  # NaN fails too
        return False
    evals = np.linalg.eigvalsh(0.5 * (m + dag(m)))
    return bool(evals.min() >= -ATOL)


def mat_to_json(m: np.ndarray) -> list:
    """Encode a complex array of any rank as nested [re, im] pairs, bit for bit."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def mat_from_json(obj) -> np.ndarray:
    """Inverse of :func:`mat_to_json` for any rank, the one JSON array decoder.

    A boolean entry (numpy reads it as 0 or 1) or an integer too large for a
    float raises TypeError; anything else but nested lists of [re, im] number
    pairs (a ragged list, a lone pair, a string, None) raises ValueError.
    Non-finite floats decode as they are: callers check what they need.
    """
    try:
        entries = np.array(obj, dtype=object)
    except ValueError:  # numpy's "inhomogeneous shape", refused below
        entries = np.array(None)
    kinds = set(map(type, entries.flat))
    if entries.ndim < 2 or entries.shape[-1] != 2 or not kinds <= {bool, int, float}:
        raise ValueError("expected a matrix of [re, im] pairs")
    if bool in kinds:
        raise TypeError("matrix entries must be numbers, got a boolean")
    try:
        return entries.astype(float).view(complex)[..., 0]
    except OverflowError:
        raise TypeError("matrix entries must be finite") from None


def max_qubits() -> int:
    """Dense-simulation cap, overridable via the environment."""
    raw = os.environ.get("NOISY_MBQC_MAX_QUBITS", "12")
    try:
        return int(raw)
    except ValueError:
        raise SizeLimit(f"NOISY_MBQC_MAX_QUBITS must be an integer, got {raw!r}") from None
