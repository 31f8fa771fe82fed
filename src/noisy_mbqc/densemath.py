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


def _complex(a) -> np.ndarray | None:
    """``a`` as a complex array, or None when it is ragged or non-numeric (a
    string, bytes or any other object entry, even one numpy could parse)."""
    try:
        raw = np.asarray(a)
        return None if raw.dtype.kind in "OSUV" else raw.astype(complex, copy=False)
    except (TypeError, ValueError):  # numpy's "inhomogeneous shape", or a non-number
        return None


def stacked(a, shape: tuple, what: str) -> np.ndarray:
    """``a``, an array or nested sequences, as a non-empty complex array of
    ``shape``, whose leading ``None`` axes take any length: the one conversion
    and shape check of every state, operator, ket, Kraus set and MPO site a
    public call takes.  Ragged or non-numeric input raises DimensionMismatch
    too, naming ``what``."""
    out = _complex(a)
    free = shape.count(None)
    fits = out is not None and out.size and out.ndim == len(shape)
    if not fits or out.shape[free:] != shape[free:]:
        got = "ragged or non-numeric entries" if out is None else f"shape {out.shape}"
        want = str(shape).replace("None", "*")
        raise DimensionMismatch(f"{what} must be a non-empty {want} array, got {got}")
    return out


def item_or_stack(items, shape: tuple, what: str) -> np.ndarray:
    """``items`` as a complex array: one item of ``shape`` or a non-empty stack
    of them along one or more leading axes, told apart by shape, through
    :func:`stacked`; anything else is refused as a one-axis stack.  The one
    rule of a call that takes either."""
    try:
        got = np.shape(items)
    except ValueError:  # numpy's "inhomogeneous shape": ragged, refused below
        got = ()
    lead = 0 if got == shape else max(len(got) - len(shape), 1)
    return stacked(items, (None,) * lead + shape, what)


def unit_ket(ket) -> np.ndarray:
    """The readout check of the oracle and the MPO: ``ket`` as a complex
    2-vector, :func:`stacked` to shape (2,), with |<v|v> - 1| <= 1e-12; NaN fails."""
    v = stacked(ket, (2,), "measurement ket")
    if not abs(np.vdot(v, v) - 1.0) <= 1e-12:  # NaN fails too
        raise NotNormalized("a measurement ket must be a unit vector")
    return v


def projector(vec: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v| of a vector ``vec``."""
    v = stacked(vec, (None,), "projector vector")
    return np.outer(v, v.conj())


def _checked_int(k, error: type[Exception], what: str):
    """``k`` if it is an ``int`` or a numpy integer; a bool, a float, a string
    or any other value raises ``error``, "{what}, got {k!r}".  The one type
    check of an integer argument: a bit, a size, a site label, an index or a
    subsystem dimension."""
    if type(k) is int or isinstance(k, np.integer):  # a bool's type is bool
        return k
    raise error(f"{what}, got {k!r}")


def outcome_bit(k) -> int:
    """``k`` if it is the integer 0 or 1, an ``int`` or a numpy integer; a bool,
    a float or any other value raises ValueError.  The one check of a readout
    outcome or a Pauli label bit."""
    what = "outcome must be the integer 0 or 1"
    if _checked_int(k, ValueError, what) not in (0, 1):
        raise ValueError(f"{what}, got {k!r}")
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
        rho: operator on the full tensor-product space, or a non-empty stack
            of them (:func:`item_or_stack`); a stack gives a stack of the
            reduced operators, each with the bits a call of its own would.
        keep: indices of the subsystems to retain, in any order.
        dims: dimension of each subsystem, at least 1; their product must
            match ``rho``.
        Both hold integers (an ``int`` or a numpy integer); anything else
        raises DimensionMismatch.
    """
    integer = "subsystem dimensions and keep indices must be integers"
    dims = tuple(int(_checked_int(d, DimensionMismatch, integer)) for d in dims)
    if any(d < 1 for d in dims):
        raise DimensionMismatch(f"subsystem dimensions must be at least 1, got {dims}")
    n = len(dims)
    total = int(np.prod(dims)) if dims else 1
    rho = item_or_stack(rho, (total, total), f"operator on subsystem dims {dims}")
    keep = sorted(set(int(_checked_int(k, DimensionMismatch, integer)) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise DimensionMismatch(f"keep indices {keep} out of range for {n} subsystems")

    # axis i of the rows is label i; of the columns, n + i if kept, else i (traced)
    lead = rho.shape[:-2]
    col = [n + i if i in keep else i for i in range(n)]
    out = [..., *keep, *(n + i for i in keep)]
    reduced = np.einsum(rho.reshape(lead + dims + dims), [..., *range(n), *col], out)
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return reduced.reshape(*lead, d_keep, d_keep)


def _difference(a, b) -> np.ndarray:
    """``a - b`` as complex arrays of one shape, the operand of both distances;
    ragged, non-numeric or mismatched arguments raise DimensionMismatch."""
    a, b = _complex(a), _complex(b)
    if a is None or b is None:
        got = "ragged or non-numeric entries"
    elif a.shape != b.shape:
        got = f"shapes {a.shape} and {b.shape}"
    else:
        return a - b
    raise DimensionMismatch(f"compared arrays must be numeric and of one shape, got {got}")


def trace_distance(a, b):
    """Half the sum of singular values of (a - b), per matrix of the last two
    axes: a float for two matrices, an array of the leading shape for two
    stacks of them (each matrix gets the bits a call of its own would)."""
    d = _difference(a, b)
    half = 0.5 * np.sum(np.linalg.svd(d, compute_uv=False), axis=-1)
    return float(half) if d.ndim == 2 else half


def max_abs_diff(a, b):
    """Largest entrywise difference |a - b|, 0.0 for no entries: a float for
    two arrays of at most two axes, and per matrix of the last two axes, an
    array of the leading shape, for two stacks of matrices."""
    d = np.abs(_difference(a, b))
    if d.ndim <= 2:
        return float(np.max(d, initial=0.0))
    return np.max(d, axis=(-2, -1), initial=0.0)


def is_psd(m: np.ndarray) -> bool:
    """Hermitian within ``ATOL`` and all eigenvalues >= -``ATOL``."""
    m = stacked(m, (None, None), "positivity check matrix")
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
    kinds = set(map(type, entries.reshape(-1)))  # ``flat`` refuses past 32 axes
    if entries.ndim < 2 or entries.shape[-1] != 2 or not kinds <= {bool, int, float}:
        raise ValueError("expected a matrix of [re, im] pairs")
    if bool in kinds:
        raise TypeError("matrix entries must be numbers, got a boolean")
    try:
        return entries.astype(float).view(complex)[..., 0]
    except OverflowError:
        raise TypeError("matrix entries must be finite") from None


def max_qubits() -> int:
    """Dense-simulation cap, overridable via the environment: an integer of at
    least 1, else SizeLimit."""
    raw = os.environ.get("NOISY_MBQC_MAX_QUBITS", "12")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise SizeLimit(f"NOISY_MBQC_MAX_QUBITS must be an integer of at least 1, got {raw!r}")
    return cap
