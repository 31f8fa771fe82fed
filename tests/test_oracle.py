import numpy as np
import pytest
from conftest import random_density

from noisy_mbqc import densemath as dm
from noisy_mbqc import oracle
from noisy_mbqc.block import BlockNoiseConfig, MeasSpec, ideal_block
from noisy_mbqc.channels import apply, bit_flip, choi, phase_flip, random_channel
from noisy_mbqc.errors import (
    NonOrthonormalBasis,
    SiteOutOfRange,
    SizeLimit,
    ZBasisUnsupported,
)
from noisy_mbqc.oracle import (
    CZ,
    Channel1Q,
    Measure,
    PrepPlus,
    PrepState,
    Unitary1Q,
    block_oracle_channel,
    build_cluster_dm,
    cluster_ops,
    measurement_kets,
    simulate,
    teleport_oracle_state,
)
from noisy_mbqc.teleport import diagonal_resource, teleport_branch


def test_single_block_circuit_matches_step_channel(rng):
    rho = random_density(rng)
    for phi in (0.0, 1.3):
        for k in (0, 1):
            meas = MeasSpec.equatorial(phi, k)
            ops = [PrepState(0, rho), PrepPlus(1), CZ(0, 1), Measure(0, meas, k)]
            got = simulate(2, ops).state
            want = apply(ideal_block(meas), rho)
            np.testing.assert_allclose(got, want, atol=1e-12)
            assert np.trace(got).real == pytest.approx(
                0.5 * np.trace(rho).real, abs=1e-10
            )


def test_prep_plus_z_measure_keep():
    res = simulate(1, [PrepPlus(0), Measure(0, MeasSpec.z(), 0, remove=False)])
    np.testing.assert_allclose(res.state, 0.5 * dm.projector(dm.KET0), atol=1e-12)
    assert res.outcomes == [(0, 0)]


def test_cluster_small_cases():
    np.testing.assert_allclose(build_cluster_dm(1), dm.projector(dm.PLUS), atol=1e-12)
    plus2 = dm.kron(dm.projector(dm.PLUS), dm.projector(dm.PLUS))
    np.testing.assert_allclose(build_cluster_dm(2), dm.CZ @ plus2 @ dm.CZ, atol=1e-12)


def test_cluster_matches_op_by_op_simulation():
    got = simulate(5, cluster_ops(5)).state
    np.testing.assert_allclose(got, build_cluster_dm(5), atol=1e-12)
    assert np.linalg.matrix_rank(build_cluster_dm(5), tol=1e-10) == 1


def test_teleport_circuit_reproduces_projector_math(rng):
    rho = random_density(rng)
    for eps in (phase_flip(0.5), random_channel(rng, 3)):
        resource = diagonal_resource(eps)
        for s in range(2):
            for t in range(2):
                circuit = teleport_oracle_state(eps, rho, s, t)
                direct = teleport_branch(resource, rho, s, t).state
                np.testing.assert_allclose(circuit, direct, atol=1e-10)


def test_trace_preserving_ops_keep_trace_and_psd(rng):
    ops = [
        PrepPlus(0),
        PrepState(1, random_density(rng)),
        CZ(0, 1),
        Unitary1Q(0, dm.H),
        Channel1Q(1, random_channel(rng, 2)),
    ]
    state = simulate(2, ops).state
    assert np.trace(state).real == pytest.approx(1.0, abs=1e-10)
    assert dm.is_psd(state, tol=1e-10)


def test_measurement_branch_completeness(rng):
    # removed-site branches sum to the partial trace of the pre-measurement
    # state, and their traces split its total probability
    rho = random_density(rng)
    pre = simulate(2, [PrepState(0, rho), PrepPlus(1), CZ(0, 1)]).state
    branches = []
    for k in (0, 1):
        ops = [
            PrepState(0, rho),
            PrepPlus(1),
            CZ(0, 1),
            Measure(0, MeasSpec.equatorial(0.8, k), k, remove=True),
        ]
        branches.append(simulate(2, ops).state)
    np.testing.assert_allclose(
        branches[0] + branches[1],
        dm.partial_trace(pre, keep=[1], dims=(2, 2)),
        atol=1e-10,
    )
    assert sum(np.trace(b).real for b in branches) == pytest.approx(1.0, abs=1e-10)


def test_disjoint_ops_commute(rng):
    rho = random_density(rng)
    ch = random_channel(rng, 2)
    a = simulate(
        2, [PrepPlus(0), PrepState(1, rho), Unitary1Q(0, dm.H), Channel1Q(1, ch)]
    ).state
    b = simulate(
        2, [PrepPlus(0), PrepState(1, rho), Channel1Q(1, ch), Unitary1Q(0, dm.H)]
    ).state
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_out_of_order_prep_keeps_site_ordering(rng):
    rho = random_density(rng)
    a = simulate(2, [PrepState(1, rho), PrepPlus(0)]).state
    b = simulate(2, [PrepPlus(0), PrepState(1, rho)]).state
    np.testing.assert_allclose(a, b, atol=1e-12)
    np.testing.assert_allclose(a, dm.kron(dm.projector(dm.PLUS), rho), atol=1e-12)


def test_site_errors():
    with pytest.raises(SiteOutOfRange):
        simulate(1, [PrepPlus(1)])
    with pytest.raises(SiteOutOfRange):
        simulate(2, [PrepPlus(0), CZ(0, 1)])  # site 1 never prepared
    with pytest.raises(SiteOutOfRange):
        simulate(1, [PrepPlus(0), PrepPlus(0)])


def test_non_orthonormal_basis_rejected():
    with pytest.raises(NonOrthonormalBasis):
        measurement_kets((dm.KET0, dm.PLUS))


def test_size_limit_and_env_cap(monkeypatch):
    with pytest.raises(SizeLimit):
        simulate(13, [])
    with pytest.raises(SizeLimit):
        build_cluster_dm(13)
    monkeypatch.setenv("NOISY_MBQC_MAX_QUBITS", "2")
    with pytest.raises(SizeLimit):
        simulate(3, [])
    monkeypatch.setenv("NOISY_MBQC_MAX_QUBITS", "13")
    simulate(13, [])  # raised cap admits a larger register


def test_block_oracle_noiseless_matches_ideal_choi():
    for k in (0, 1):
        cfg = BlockNoiseConfig(meas=MeasSpec.equatorial(0.4, k))
        np.testing.assert_allclose(
            block_oracle_channel(cfg), choi(ideal_block(cfg.meas)), atol=1e-12
        )


def test_block_oracle_full_hadamard_resource_noise():
    # deterministic Hadamard on the fresh qubit turns it into |0>, so CZ is
    # inert and the output is |0><0| weighted by the readout overlap
    from noisy_mbqc.channels import unitary_channel

    cfg = BlockNoiseConfig(
        meas=MeasSpec.equatorial(0.0, 0), alpha2=unitary_channel(dm.H)
    )
    c = block_oracle_channel(cfg)
    want = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            v = dm.equatorial_ket(0.0, 0)
            want += np.kron(e, (v.conj() @ e @ v) * dm.projector(dm.KET0))
    np.testing.assert_allclose(c, want, atol=1e-12)


def test_block_oracle_rejects_z_basis():
    with pytest.raises(ZBasisUnsupported):
        block_oracle_channel(BlockNoiseConfig(meas=MeasSpec.z(0), alpha1=bit_flip(0.1)))
