import numpy as np
import pytest
from conftest import random_density

from noisy_mbqc import densemath as dm
from noisy_mbqc.channels import (
    KrausChannel,
    apply,
    bit_flip,
    depolarizing,
    identity_channel,
    mixed_unitary,
    phase_flip,
    validate,
)
from noisy_mbqc.errors import DimensionMismatch
from noisy_mbqc.teleport import (
    bell_ket,
    diagonal_resource,
    is_pauli_channel,
    pauli_corrected_target,
    teleport_branch,
)


def bell_projector(i, j):
    return dm.projector(bell_ket(i, j))


def test_bell_states_orthonormal():
    kets = [bell_ket(i, j) for i in range(2) for j in range(2)]
    gram = np.array([[np.vdot(a, b) for b in kets] for a in kets])
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)


def test_diagonal_resource_identity():
    np.testing.assert_allclose(
        diagonal_resource(identity_channel()), bell_projector(0, 0), atol=1e-12
    )


def test_diagonal_resource_depolarizing():
    np.testing.assert_allclose(
        diagonal_resource(depolarizing()), np.eye(4) / 4, atol=1e-12
    )


def test_diagonal_resource_dephasing_half():
    want = 0.5 * bell_projector(0, 0) + 0.5 * bell_projector(0, 1)
    np.testing.assert_allclose(diagonal_resource(phase_flip(0.5)), want, atol=1e-12)


def test_noiseless_branches_apply_pauli_corrections(rng):
    rho = random_density(rng)
    resource = bell_projector(0, 0)
    for s in range(2):
        for t in range(2):
            out = teleport_branch(resource, rho, s, t)
            assert np.trace(out).real == pytest.approx(0.25, abs=1e-10)
            xs = np.linalg.matrix_power(dm.X, s)
            zt = np.linalg.matrix_power(dm.Z, t)
            np.testing.assert_allclose(
                out, 0.25 * xs @ zt @ rho @ zt @ xs, atol=1e-10
            )


def test_depolarized_resource_teleports_nothing(rng):
    rho = random_density(rng)
    for out in [teleport_branch(np.eye(4) / 4, rho, s, t) for s in range(2) for t in range(2)]:
        prob = np.trace(out).real
        assert prob == pytest.approx(0.25, abs=1e-10)
        np.testing.assert_allclose(out / prob, dm.I2 / 2, atol=1e-10)


def test_dephasing_branch_closed_form():
    rho = dm.projector(dm.PLUS)
    resource = diagonal_resource(phase_flip(0.5))
    for s in range(2):
        for t in range(2):
            got = teleport_branch(resource, rho, s, t)
            dephased = 0.5 * (rho + dm.Z @ rho @ dm.Z)  # = I/2 for |+><+|
            xs = np.linalg.matrix_power(dm.X, s)
            zt = np.linalg.matrix_power(dm.Z, t)
            np.testing.assert_allclose(
                got, 0.25 * xs @ zt @ dephased @ zt @ xs, atol=1e-10
            )


def test_check_pauli_teleportation_random_channels(rng):
    # a Pauli-noise resource teleports eps(rho) on every branch
    for eps in (identity_channel(), phase_flip(0.5), bit_flip(0.3), depolarizing()):
        rho, resource = random_density(rng), diagonal_resource(eps)
        for s in range(2):
            for t in range(2):
                got = teleport_branch(resource, rho, s, t)
                want = pauli_corrected_target(eps, rho, s, t)
                assert dm.trace_distance(got, want) <= 1e-10


def test_random_pauli_channel_probabilities_sum(rng):
    p = rng.dirichlet(np.ones(4))
    eps = validate(
        [np.sqrt(pi) * sigma for pi, sigma in zip(p, (dm.I2, dm.X, dm.Y, dm.Z))]
    )
    rho = random_density(rng)
    resource = diagonal_resource(eps)
    outs = [teleport_branch(resource, rho, s, t) for s in range(2) for t in range(2)]
    probs = [np.trace(o).real for o in outs]
    assert sum(probs) == pytest.approx(1.0, abs=1e-10)
    for prob in probs:
        assert prob == pytest.approx(0.25, abs=1e-10)


def test_corrected_branches_reconstruct_channel_output(rng):
    eps = bit_flip(0.2)
    rho = random_density(rng)
    resource = diagonal_resource(eps)
    total = np.zeros((2, 2), dtype=complex)
    for s in range(2):
        for t in range(2):
            out = teleport_branch(resource, rho, s, t)
            xs = np.linalg.matrix_power(dm.X, s)
            zt = np.linalg.matrix_power(dm.Z, t)
            total += zt @ xs @ out @ xs @ zt  # undo the byproduct
    np.testing.assert_allclose(total, apply(eps, rho), atol=1e-10)


def test_is_pauli_channel():
    assert is_pauli_channel(depolarizing())
    assert not is_pauli_channel(mixed_unitary([(0.5, dm.I2), (0.5, dm.H)]))


def test_pauli_corrected_target_shape(rng):
    eps = phase_flip(0.4)
    rho = random_density(rng)
    target = pauli_corrected_target(eps, rho, 1, 1)
    assert np.trace(target).real == pytest.approx(0.25, abs=1e-12)


def test_dimension_mismatches():
    with pytest.raises(DimensionMismatch):
        teleport_branch(np.eye(2), np.eye(2) / 2, 0, 0)
    with pytest.raises(DimensionMismatch):
        teleport_branch(np.eye(4) / 4, np.eye(4) / 4, 0, 0)
    with pytest.raises(DimensionMismatch):
        diagonal_resource(KrausChannel((np.eye(4) / 2,)))
