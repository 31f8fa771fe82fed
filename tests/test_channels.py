import numpy as np
import pytest
from conftest import random_complex, random_density
from hypothesis import given, settings
from hypothesis import strategies as st

from noisy_mbqc import densemath as dm
from noisy_mbqc.channels import (
    KrausChannel,
    apply,
    basis_element,
    bit_flip,
    channel,
    check_unitary,
    channels_equal,
    choi,
    choi_distance,
    compose,
    depolarizing,
    identity_channel,
    kraus_sum,
    mixed_unitary,
    pauli_decompose,
    phase_flip,
    random_channel,
    unitary_channel,
    validate,
)
from noisy_mbqc.errors import DimensionMismatch, NotAChannel, NotUnitary


def assert_tp(ch):
    np.testing.assert_allclose(kraus_sum(ch.ops), np.eye(ch.dim), atol=1e-12)


def test_validate_identity_is_tp():
    assert_tp(validate([dm.I2]))


def test_validate_phase_flip_half_is_tp():
    assert_tp(validate([dm.I2 / np.sqrt(2), dm.Z / np.sqrt(2)]))


def test_validate_depolarizing_is_tp():
    assert_tp(depolarizing())


def test_validate_branch_is_trace_non_increasing():
    ch = validate([dm.Z / np.sqrt(2)])
    np.testing.assert_allclose(kraus_sum(ch.ops), dm.I2 / 2, atol=1e-12)


def test_validate_rejects_expanding_set():
    with pytest.raises(NotAChannel):
        validate([np.sqrt(2.0) * dm.I2])


def test_validate_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        validate([])
    with pytest.raises(DimensionMismatch):
        validate([dm.I2, np.eye(4)])


# (K, accepted): sum K^dag K entrywise within ATOL of I, or its largest
# eigenvalue within 1 + ATOL, passes; anything above that is rejected.  The
# sqrt of (1 + 0.9 ATOL) I + 0.9 ATOL X passes only through the entrywise test.
_ROOT = np.sqrt(1.0 + 1.8 * dm.ATOL)
_BOUNDARY = [
    (np.sqrt(1.0 + 0.5 * dm.ATOL) * dm.I2, True),
    (0.5 * (_ROOT + 1.0) * dm.I2 + 0.5 * (_ROOT - 1.0) * dm.X, True),
    (np.diag([1.0, np.sqrt(0.5)]), True),
    (np.diag([np.sqrt(1.0 + 0.5 * dm.ATOL), np.sqrt(0.5)]), True),
    (dm.Z / np.sqrt(2.0), True),
    (np.diag([np.sqrt(1.0 + 5.0 * dm.ATOL), 1.0]), False),
    (np.sqrt(2.0) * dm.I2, False),
]


@pytest.mark.parametrize("op, accepted", _BOUNDARY)
def test_validate_trace_bound_boundary(op, accepted):
    if accepted:
        assert validate([op]).ops[0].tobytes() == op.astype(complex).tobytes()
    else:
        with pytest.raises(NotAChannel, match="exceeds the identity"):
            validate([op])


def test_channel_skips_the_trace_bound():
    op = np.sqrt(2.0) * dm.projector(dm.KET0)
    with pytest.raises(NotAChannel):
        validate([op])
    np.testing.assert_array_equal(channel([op]).ops[0], op)


def test_apply_identity(rng):
    rho = random_density(rng)
    np.testing.assert_allclose(apply(identity_channel(), rho), rho, atol=1e-12)


def test_apply_depolarizing_examples():
    np.testing.assert_allclose(
        apply(depolarizing(), dm.projector(dm.KET0)), dm.I2 / 2, atol=1e-12
    )


def test_apply_phase_flip_half_kills_coherence():
    got = apply(phase_flip(0.5), dm.projector(dm.PLUS))
    np.testing.assert_allclose(got, dm.I2 / 2, atol=1e-12)


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply(identity_channel(), np.eye(4))


def test_apply_preserves_psd_and_trace(rng):
    for _ in range(20):
        ch = random_channel(rng, int(rng.integers(1, 5)))
        rho = random_density(rng)
        out = apply(ch, rho)
        assert dm.is_psd(out, tol=1e-10)
        assert np.trace(out).real <= np.trace(rho).real + 1e-10


def test_compose_with_identity_is_identity_on_choi(rng):
    ch = random_channel(rng, 3)
    assert channels_equal(compose(identity_channel(), ch), ch, tol=1e-12)


def test_compose_phase_flip_half_idempotent():
    pf = phase_flip(0.5)
    assert channels_equal(compose(pf, pf), pf, tol=1e-12)


def test_compose_x_conjugation_squares_to_identity():
    x = unitary_channel(dm.X)
    assert channels_equal(compose(x, x), identity_channel(), tol=1e-12)


def test_compose_matches_sequential_apply(rng):
    a = random_channel(rng, 2)
    b = random_channel(rng, 3)
    rho = random_density(rng)
    np.testing.assert_allclose(
        apply(compose(a, b), rho), apply(a, apply(b, rho)), atol=1e-12
    )


def test_choi_identity_is_bell_projector():
    c = choi(identity_channel())
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    np.testing.assert_allclose(c, 2.0 * dm.projector(bell), atol=1e-12)
    assert np.trace(c).real == pytest.approx(2.0)
    assert np.linalg.matrix_rank(c, tol=1e-10) == 1


def test_choi_depolarizing_is_maximally_mixed():
    np.testing.assert_allclose(choi(depolarizing()), np.eye(4) / 2, atol=1e-12)


def test_choi_gap_between_phase_flips():
    # entrywise Choi oracle: the only differing entries are the |0><1| blocks,
    # holding 1 - 2p; the gap between p=1/4 and p=1/2 is therefore 0.5
    gap = choi_distance(phase_flip(0.25), phase_flip(0.5))
    assert gap == pytest.approx(0.5, abs=1e-12)


def test_choi_tp_partial_trace_is_identity(rng):
    c = choi(random_channel(rng, 3))
    np.testing.assert_allclose(
        dm.partial_trace(c, keep=[0], dims=(2, 2)), dm.I2, atol=1e-10
    )


def test_choi_psd(rng):
    assert dm.is_psd(choi(random_channel(rng, 2)), tol=1e-10)


def test_choi_of_composition_is_linear(rng):
    a = random_channel(rng, 2)
    b = random_channel(rng, 2)
    comp = compose(a, b)
    direct = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            direct += np.kron(e, apply(a, apply(b, e)))
    np.testing.assert_allclose(choi(comp), direct, atol=1e-12)


def test_kraus_remix_gives_same_channel(rng):
    # an isometry on the Kraus index leaves the channel untouched
    for _ in range(10):
        n = int(rng.integers(2, 5))
        ch = random_channel(rng, n)
        g = random_complex(rng, (n, n))
        w, _ = np.linalg.qr(g)
        remixed = KrausChannel(
            tuple(sum(w[a, b] * ch.ops[b] for b in range(n)) for a in range(n))
        )
        assert choi_distance(ch, remixed) <= 1e-12


# --- stacked kernels against the per-operator loops --------------------------


def reference_apply(ch, rho):
    """sum_m K_m rho K_m^dag, one operator at a time."""
    out = np.zeros_like(rho)
    for k in ch.ops:
        out += k @ rho @ dm.dag(k)
    return out


def reference_choi(ch):
    """sum_ij |i><j| (x) ch(|i><j|), one basis element and kron at a time."""
    d = ch.dim
    c = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            c += np.kron(e, reference_apply(ch, e))
    return c


_UNITARIES = (dm.I2, dm.X, dm.Y, dm.Z, dm.H)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_kraus=st.one_of(st.integers(1, 8), st.integers(9, 256)),
    dim=st.sampled_from([2, 4]),
    structured=st.booleans(),
    trace_preserving=st.booleans(),
)
def test_stacked_kernels_match_the_loops(seed, n_kraus, dim, structured, trace_preserving):
    rng = np.random.default_rng(seed)
    if structured:
        # Paulis and H (tensor pairs of them at dim 4): many exact zeros
        picks = rng.integers(len(_UNITARIES), size=(n_kraus, dim // 2))
        us = [
            _UNITARIES[p[0]] if dim == 2 else np.kron(*(_UNITARIES[q] for q in p))
            for p in picks
        ]
        ch = mixed_unitary(zip(rng.dirichlet(np.ones(n_kraus)), us))
    else:
        ch = random_channel(rng, n_kraus, dim)
    if not trace_preserving:
        ch = channel([w * k for w, k in zip(rng.uniform(0.0, 1.5, n_kraus), ch.ops)])
    c = choi(ch)
    assert c.shape == (dim * dim, dim * dim)
    assert dm.max_abs_diff(c, reference_choi(ch)) <= 1e-13
    if trace_preserving:
        assert np.trace(c).real == pytest.approx(dim, abs=1e-12)
    for rho in (random_density(rng, dim), random_complex(rng, (dim, dim))):
        assert dm.max_abs_diff(apply(ch, rho), reference_apply(ch, rho)) <= 1e-13


def test_pauli_decompose_basis_elements():
    # sigma_gh = i^(gh) X^g Z^h: the (1, 0) slot holds X and (0, 1) holds Z
    np.testing.assert_allclose(pauli_decompose(dm.X), [[0, 0], [1, 0]], atol=1e-12)
    np.testing.assert_allclose(pauli_decompose(dm.Z), [[0, 1], [0, 0]], atol=1e-12)


def test_pauli_decompose_hadamard():
    np.testing.assert_allclose(
        pauli_decompose(dm.H), [[0, 1 / np.sqrt(2)], [1 / np.sqrt(2), 0]], atol=1e-12
    )


def test_pauli_roundtrip_random(rng):
    for _ in range(1000):
        k = random_complex(rng, (2, 2))
        a = pauli_decompose(k)
        back = sum(a[g, h] * basis_element(g, h) for g in range(2) for h in range(2))
        assert dm.max_abs_diff(back, k) <= 1e-12


def test_basis_elements_share_corners():
    # the labelling puts I and Y on the diagonal corners
    np.testing.assert_allclose(basis_element(0, 0), dm.I2)
    np.testing.assert_allclose(basis_element(1, 1), dm.Y, atol=1e-12)


def test_bit_flip_and_mixed_unitary():
    ch = bit_flip(0.3)
    assert_tp(ch)
    np.testing.assert_allclose(ch.ops[1], np.sqrt(0.3) * dm.X, atol=1e-12)
    assert_tp(mixed_unitary([(0.6, dm.I2), (0.4, dm.H)]))


def test_unitary_stock_channels_reject_non_unitary():
    projector = dm.projector(dm.KET0)
    with pytest.raises(NotUnitary):
        unitary_channel(projector)
    with pytest.raises(NotUnitary):
        mixed_unitary([(0.5, dm.I2), (0.5, projector)])
    with pytest.raises(NotUnitary):
        check_unitary(dm.H + 2e-10 * dm.X)
    with pytest.raises(DimensionMismatch):
        check_unitary(np.ones((2, 3)))
    np.testing.assert_array_equal(check_unitary(dm.H + 1e-11 * dm.X), dm.H + 1e-11 * dm.X)


def test_random_channel_is_cptp(rng):
    for n in (1, 2, 3, 4):
        ch = random_channel(rng, n)
        assert_tp(ch)
        assert len(ch.ops) == n

