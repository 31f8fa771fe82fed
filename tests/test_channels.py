import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import choi_distance, random_complex, random_density, signed_zero_complex
from hypothesis import given, settings
from hypothesis import strategies as st

from noisy_mbqc import densemath as dm
from noisy_mbqc.channels import (
    KrausChannel,
    apply,
    basis_element,
    bit_flip,
    check_unitary,
    choi,
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
from noisy_mbqc.mpo import (
    MpoState,
    mpo_apply_unitary,
    mpo_cluster,
    mpo_from_dict,
    mpo_to_dict,
)


def assert_tp(ch):
    np.testing.assert_allclose(kraus_sum(ch.ops), dm.I2, atol=1e-12)


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


def test_kraus_channel_stacks_its_operators_once():
    ch = KrausChannel([[[1, 0], [0, 1]], dm.X])
    assert ch.ops.dtype == complex and ch.ops.shape == (2, 2, 2)
    assert KrausChannel(ch.ops).ops is ch.ops
    for bad in ([], [dm.I2, np.eye(4)], [np.ones((2, 3))], dm.I2):
        with pytest.raises(DimensionMismatch):
            KrausChannel(bad)


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


def test_validate_refuses_a_huge_entry_before_the_sum_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotAChannel, match="exceeds the identity"):
            validate([[[1e200, 0], [0, 0]]])


def test_channel_skips_the_trace_bound():
    op = np.sqrt(2.0) * dm.projector(dm.KET0)
    with pytest.raises(NotAChannel):
        validate([op])
    np.testing.assert_array_equal(KrausChannel([op]).ops[0], op)


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


@pytest.mark.parametrize("n_kraus", [1, 2, 4, 256])
def test_apply_on_a_stack_equals_one_call_per_state_bit_for_bit(rng, n_kraus):
    ch = KrausChannel(signed_zero_complex(rng, (n_kraus, 2, 2)))
    rhos = signed_zero_complex(rng, (7, 2, 2))
    got = apply(ch, rhos)
    assert got.shape == (7, 2, 2)
    for rho, out in zip(rhos, got, strict=True):
        assert apply(ch, rho).tobytes() == out.tobytes()
    assert apply(ch, rhos[:1]).shape == (1, 2, 2)  # a stack of one stays a stack


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply(identity_channel(), np.eye(4))


def test_apply_preserves_psd_and_trace(rng):
    for _ in range(20):
        ch = random_channel(rng, int(rng.integers(1, 5)))
        rho = random_density(rng)
        out = apply(ch, rho)
        assert dm.is_psd(out)
        assert np.trace(out).real <= np.trace(rho).real + 1e-10


def test_compose_with_identity_is_identity_on_choi(rng):
    ch = random_channel(rng, 3)
    assert choi_distance(compose(identity_channel(), ch), ch) <= 1e-12


def test_compose_phase_flip_half_idempotent():
    pf = phase_flip(0.5)
    assert choi_distance(compose(pf, pf), pf) <= 1e-12


def test_compose_x_conjugation_squares_to_identity():
    x = unitary_channel(dm.X)
    assert choi_distance(compose(x, x), identity_channel()) <= 1e-12


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
    assert dm.is_psd(choi(random_channel(rng, 2)))


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
    c = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            c += np.kron(e, reference_apply(ch, e))
    return c


_UNITARIES = (dm.I2, dm.X, dm.Y, dm.Z, dm.H)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_kraus=st.one_of(st.integers(1, 8), st.integers(9, 256)),
    structured=st.booleans(),
    trace_preserving=st.booleans(),
)
def test_stacked_kernels_match_the_loops(seed, n_kraus, structured, trace_preserving):
    rng = np.random.default_rng(seed)
    if structured:
        # Paulis and H: many exact zeros
        us = [_UNITARIES[p] for p in rng.integers(len(_UNITARIES), size=n_kraus)]
        ch = mixed_unitary(zip(rng.dirichlet(np.ones(n_kraus)), us))
    else:
        ch = random_channel(rng, n_kraus)
    if not trace_preserving:
        ch = KrausChannel([w * k for w, k in zip(rng.uniform(0.0, 1.5, n_kraus), ch.ops)])
    c = choi(ch)
    assert c.shape == (4, 4)
    assert dm.max_abs_diff(c, reference_choi(ch)) <= 1e-13
    if trace_preserving:
        assert np.trace(c).real == pytest.approx(2, abs=1e-12)
    for rho in (random_density(rng), random_complex(rng, (2, 2))):
        assert dm.max_abs_diff(apply(ch, rho), reference_apply(ch, rho)) <= 1e-13



def reference_compose(after, before):
    """The Kraus set {A_i B_j}, one product at a time, i outer."""
    return KrausChannel(tuple(a @ b for a in after.ops for b in before.ops))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_after=st.integers(1, 16),
    n_before=st.integers(1, 16),
)
def test_compose_matches_the_product_loop_bit_for_bit(seed, n_after, n_before):
    rng = np.random.default_rng(seed)
    after, before = (
        KrausChannel(signed_zero_complex(rng, (n, 2, 2))) for n in (n_after, n_before)
    )
    got, want = compose(after, before), reference_compose(after, before)
    assert got.ops.shape == (n_after * n_before, 2, 2)
    assert got.ops.tobytes() == want.ops.tobytes()


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_non_finite_entries_are_not_a_channel_or_unitary(bad):
    m = np.array(dm.I2)
    m[1, 1] = bad
    with pytest.raises(NotAChannel):
        validate([m])
    with pytest.raises(NotAChannel):
        validate([np.full((2, 2), bad)])
    with pytest.raises(NotUnitary):
        check_unitary(m)
    with pytest.raises(NotUnitary):
        mixed_unitary([(0.5, dm.I2), (0.5, m)])
    with pytest.raises(NotUnitary):
        mpo_apply_unitary(mpo_cluster(3), 0, m)


def test_random_channel_is_cptp(rng):
    for n in (1, 2, 3, 4):
        ch = random_channel(rng, n)
        assert_tp(ch)
        assert len(ch.ops) == n


def _sites(bond):
    """One interior site and the boundary row, stacked, with bond dimension ``bond``."""
    return (np.ones((2, 1, bond, bond)), np.ones((2, 1, 1, bond)))


def _round_trip(bond):
    written = mpo_to_dict(SimpleNamespace(sites=_sites(bond), seed=dm.I2))
    return mpo_from_dict(written)


# each constructor that owns the single-qubit rule, fed a 3x3 or 4x4 operand
_UNITARY_SHAPE = r"^unitary must be a non-empty \(2, 2\) array, got shape \(\d, \d\)$"
_KRAUS_SHAPE = r"^Kraus operators must be a non-empty \(\*, 2, 2\) array, got shape \(1, \d, \d\)$"
_OWNERS = {
    "KrausChannel": (lambda: KrausChannel([np.eye(4)]), _KRAUS_SHAPE),
    "validate": (lambda: validate([np.eye(3)]), _KRAUS_SHAPE),
    "check_unitary": (lambda: check_unitary(np.eye(4)), _UNITARY_SHAPE),
    "unitary_channel": (lambda: unitary_channel(np.eye(4)), _UNITARY_SHAPE),
    "mixed_unitary": (
        lambda: mixed_unitary([(0.5, dm.I2), (0.5, np.eye(3))]),
        _UNITARY_SHAPE,
    ),
    "apply": (lambda: apply(identity_channel(), np.eye(4) / 4), r"^state rho .*\(4, 4\)$"),
    "MpoState-seed3x3": (lambda: MpoState(sites=_sites(2), seed=np.eye(3)), "^seed "),
    "MpoState-bond1": (lambda: MpoState(sites=_sites(1), seed=dm.I2), "^site 0 "),
    "MpoState-bond3": (lambda: MpoState(sites=_sites(3), seed=dm.I2), "^site 0 "),
    "MpoState-bond1_from_dict": (lambda: _round_trip(1), "^site 0 "),
    "MpoState-bond3_from_dict": (lambda: _round_trip(3), "^site 0 "),
}


@pytest.mark.parametrize("build, match", _OWNERS.values(), ids=_OWNERS)
def test_single_qubit_owners_reject_other_dimensions(build, match):
    with pytest.raises(DimensionMismatch, match=match):
        build()
