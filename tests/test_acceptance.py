"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
Shared random suites are built once per module through fixtures so the
equivalence criteria and the branch-bookkeeping criterion see the same data.
"""

import time
from itertools import product

import numpy as np
import pytest
from conftest import build_cluster_dm, choi_distance, random_density, run_block_sequence

from noisy_mbqc import densemath as dm
from noisy_mbqc import oracle
from noisy_mbqc.block import (
    BlockNoiseConfig,
    MeasSpec,
    compose_block_noise,
    ideal_block,
    map_measurement_noise,
    map_resource_noise,
)
from noisy_mbqc.channels import (
    KrausChannel,
    basis_element,
    bit_flip,
    choi,
    compose,
    depolarizing,
    identity_channel,
    mixed_unitary,
    phase_flip,
    random_channel,
    unitary_channel,
    validate,
)
from noisy_mbqc.mpo import (
    mpo_apply_channel,
    mpo_apply_pauli,
    mpo_apply_unitary,
    mpo_cluster,
    mpo_contract,
    mpo_maximally_mixed,
    mpo_measure,
    mpo_one_clean,
)
from noisy_mbqc.teleport import diagonal_resource, teleport_branch

X_KETS = (dm.PLUS, dm.MINUS)


def _verdict(name: str, ok: bool) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return ok


# --- shared random suites ------------------------------------------------------


@pytest.fixture(scope="module")
def block_suite():
    """200 random noisy-step configurations, built once, with timing."""
    rng = np.random.default_rng(1905)
    entries = []
    t0 = time.perf_counter()
    for _ in range(200):
        phi = float(rng.uniform(0.0, 2.0 * np.pi))
        alphas = {
            slot: random_channel(rng, int(rng.integers(1, 5)))
            for slot in ("alpha1", "alpha2", "alpha3", "alpha4")
        }
        per_k = []
        for k in (0, 1):
            cfg = BlockNoiseConfig(meas=MeasSpec.equatorial(phi, k), **alphas)
            per_k.append(
                (choi(compose_block_noise(cfg)), oracle.block_oracle_channel(cfg))
            )
        entries.append(per_k)
    return entries, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mpo_suite():
    """100 random site programs on clusters, every outcome string simulated."""
    rng = np.random.default_rng(8001)
    programs = []
    for _ in range(100):
        n = int(rng.integers(3, 7))
        state = mpo_cluster(n)
        ops = oracle.cluster_ops(n)
        touched = list(rng.permutation(n - 1))[: int(rng.integers(1, n))]
        for site in touched:
            kind = int(rng.integers(0, 3))
            if kind == 0:
                a, b = int(rng.integers(0, 2)), int(rng.integers(0, 2))
                state = mpo_apply_pauli(state, site, (a, b))
                ops.append(oracle.Unitary1Q(site, basis_element(a, b)))
            elif kind == 1:
                u = random_channel(rng, 1).ops[0]
                state = mpo_apply_unitary(state, site, u)
                ops.append(oracle.Unitary1Q(site, u))
            else:
                ch = random_channel(rng, int(rng.integers(2, 4)))
                state = mpo_apply_channel(state, site, ch)
                ops.append(oracle.Channel1Q(site, ch))
        measured = sorted(
            int(s) for s in rng.permutation(n - 1)[: int(rng.integers(1, n - 1))]
        )
        branches = []
        for outcomes in product((0, 1), repeat=len(measured)):
            branch_state = state
            branch_ops = list(ops)
            for site, m in zip(measured, outcomes):
                branch_state = mpo_measure(branch_state, site, X_KETS[m])
                branch_ops.append(oracle.Measure(site, X_KETS[m]))
            closed = mpo_contract(branch_state)
            dense = oracle.simulate(n, branch_ops)
            branches.append((closed, dense))
        programs.append(branches)
    return programs


# --- criterion 1: teleportation closed forms -----------------------------------


def test_criterion_1_teleportation_reproduction():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    ok = True
    dephase = phase_flip(0.5)
    resource = diagonal_resource(dephase)
    for _ in range(20):
        rho = random_density(rng)
        dephased = 0.5 * (rho + dm.Z @ rho @ dm.Z)
        for s, t in product(range(2), repeat=2):
            got = teleport_branch(resource, rho, s, t)
            xs = np.linalg.matrix_power(dm.X, s)
            zt = np.linalg.matrix_power(dm.Z, t)
            want = 0.25 * xs @ zt @ dephased @ zt @ xs
            ok &= dm.trace_distance(got, want) <= 1e-10
    depolarized = diagonal_resource(depolarizing())
    rho = random_density(rng)
    for s, t in product(range(2), repeat=2):
        out = teleport_branch(depolarized, rho, s, t)
        prob = np.trace(out).real
        ok &= dm.trace_distance(out / prob, dm.I2 / 2) <= 1e-10
        ok &= abs(prob - 0.25) <= 1e-10
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    assert _verdict(
        f"criterion 1: teleportation closed forms ({elapsed:.2f}s)", ok
    )


# --- criterion 2: golden operator tables ----------------------------------------


def test_criterion_2_golden_tables():
    ok = True
    # resource-noise map: I, X, Z, -iZX  ->  I, I, Z, -iZ
    rows = [
        (dm.I2, dm.I2),
        (dm.X, dm.I2),
        (dm.Z, dm.Z),
        (-1j * dm.Z @ dm.X, -1j * dm.Z),
    ]
    for initial, final in rows:
        got = map_resource_noise(KrausChannel([initial])).ops[0]
        ok &= dm.max_abs_diff(got, final) <= 1e-12

    # measurement-noise map, general angle and its phi=0 reduction
    for phi in (0.0, 0.8, 2.3, 5.1):
        u = dm.rz(phi)
        for k in (0, 1):
            sign = (-1.0) ** k
            rows = [
                (dm.I2, dm.I2),
                (u @ dm.Z @ dm.dag(u), dm.Z),
                (u @ dm.X @ dm.dag(u), sign * dm.I2),
                (u @ (1j * dm.X @ dm.Z) @ dm.dag(u), 1j * sign * dm.Z),
            ]
            for initial, final in rows:
                got = map_measurement_noise(KrausChannel([initial]), phi, k).ops[0]
                ok &= dm.max_abs_diff(got, final) <= 1e-12

    # logical Pauli map on cluster tensors: X, Z, iXZ rows
    a = [dm.H @ dm.projector(dm.KET0), dm.H @ dm.projector(dm.KET1)]
    state = mpo_cluster(3)
    finals = {
        (1, 0): [dm.Z @ a[k] @ dm.X for k in range(2)],
        (0, 1): [a[k] @ dm.Z for k in range(2)],
        (1, 1): [1j * dm.Z @ a[k] @ dm.X @ dm.Z for k in range(2)],
    }
    for label, want in finals.items():
        updated = mpo_apply_pauli(state, 1, label)
        for k in range(2):
            ok &= dm.max_abs_diff(updated.sites[1][k][0], want[k]) <= 1e-12
    assert _verdict("criterion 2: golden operator tables", ok)


# --- criterion 3: composite step equals the oracle -------------------------------


def test_criterion_3_block_oracle_equivalence(block_suite):
    entries, elapsed = block_suite
    worst = max(
        dm.max_abs_diff(closed, dense) for per_k in entries for closed, dense in per_k
    )
    ok = worst <= 1e-9 and elapsed < 10.0
    assert _verdict(
        f"criterion 3: 200 random noisy steps vs oracle "
        f"(worst {worst:.2e}, {elapsed:.2f}s)",
        ok,
    )


# --- criterion 4: the six worked noise examples ----------------------------------


def test_criterion_4_worked_examples():
    ok = True
    p = 0.3
    had = mixed_unitary([(1 - p, dm.I2), (p, dm.H)])

    def composite_matches_oracle(cfg):
        return (
            dm.max_abs_diff(
                choi(compose_block_noise(cfg)), oracle.block_oracle_channel(cfg)
            )
            <= 1e-10
        )

    for phi in (0.0, 1.1):
        for k in (0, 1):
            meas = MeasSpec.equatorial(phi, k)
            step = ideal_block(meas)

            # bit-flip on the resource dissolves
            cfg = BlockNoiseConfig(meas=meas, alpha2=bit_flip(0.3))
            ok &= choi_distance(map_resource_noise(bit_flip(0.3)), identity_channel()) <= 1e-10
            ok &= choi_distance(compose_block_noise(cfg), step) <= 1e-10
            ok &= composite_matches_oracle(cfg)

            # phase-flip on the resource lands on the output
            cfg = BlockNoiseConfig(meas=meas, alpha2=phase_flip(0.25))
            ok &= choi_distance(map_resource_noise(phase_flip(0.25)), phase_flip(0.25)) <= 1e-10
            ok &= choi_distance(compose_block_noise(cfg), compose(phase_flip(0.25), step)) <= 1e-10
            ok &= composite_matches_oracle(cfg)

            # Hadamard mixture on the resource collapses onto |0><0|
            mapped = map_resource_noise(had)
            ok &= dm.max_abs_diff(mapped.ops[0], np.sqrt(1 - p) * dm.I2) <= 1e-10
            ok &= (
                dm.max_abs_diff(mapped.ops[1], np.sqrt(2 * p) * dm.projector(dm.KET0))
                <= 1e-10
            )
            cfg = BlockNoiseConfig(meas=meas, alpha2=had)
            ok &= composite_matches_oracle(cfg)

    for k in (0, 1):
        meas = MeasSpec.equatorial(0.0, k)
        step = ideal_block(meas)

        # bit-flip just before the X readout dissolves
        cfg = BlockNoiseConfig(meas=meas, alpha3=bit_flip(0.3))
        ok &= choi_distance(map_measurement_noise(bit_flip(0.3), 0.0, k), identity_channel()) <= 1e-10
        ok &= choi_distance(compose_block_noise(cfg), step) <= 1e-10
        ok &= composite_matches_oracle(cfg)

        # phase-flip before the readout stays a phase flip (entering the step)
        cfg = BlockNoiseConfig(meas=meas, alpha3=phase_flip(0.25))
        ok &= choi_distance(map_measurement_noise(phase_flip(0.25), 0.0, k), phase_flip(0.25)) <= 1e-10
        ok &= choi_distance(compose_block_noise(cfg), compose(step, phase_flip(0.25))) <= 1e-10
        ok &= composite_matches_oracle(cfg)

        # Hadamard mixture before the readout projects onto the outcome
        mapped = map_measurement_noise(had, 0.0, k)
        ket = dm.KET0 if k == 0 else dm.KET1
        want = KrausChannel([np.sqrt(1 - p) * dm.I2, np.sqrt(2 * p) * dm.projector(ket)])
        ok &= choi_distance(mapped, want) <= 1e-10
        ok &= dm.max_abs_diff(mapped.ops[0], np.sqrt(1 - p) * dm.I2) <= 1e-10
        cfg = BlockNoiseConfig(meas=meas, alpha3=had)
        ok &= composite_matches_oracle(cfg)

    assert _verdict("criterion 4: worked noise examples vs oracle", ok)


# --- criterion 5: explicit operator families contract correctly ------------------


def test_criterion_5_mpo_builders():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 9):
        diff = dm.trace_distance(
            mpo_contract(mpo_cluster(n)), build_cluster_dm(n)
        )
        ok &= diff <= 1e-10
    for n in range(1, 7):
        ok &= (
            dm.max_abs_diff(
                mpo_contract(mpo_maximally_mixed(n)), np.eye(2**n) / 2**n
            )
            <= 1e-10
        )
    for n in range(1, 6):
        want = np.kron(dm.projector(dm.KET0), np.eye(2**n) / 2**n)
        ok &= dm.max_abs_diff(mpo_contract(mpo_one_clean(n)), want) <= 1e-10
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    assert _verdict(f"criterion 5: MPO builders vs dense ({elapsed:.2f}s)", ok)


# --- criterion 6: random site programs track the dense state ----------------------


def test_criterion_6_mpo_oracle_equivalence(mpo_suite):
    worst = max(
        dm.max_abs_diff(closed, dense)
        for branches in mpo_suite
        for closed, dense in branches
    )
    ok = worst <= 1e-9
    assert _verdict(
        f"criterion 6: 100 random site programs vs oracle (worst {worst:.2e})", ok
    )


# --- criterion 7: propagation into the correlation space --------------------------


def test_criterion_7_correlation_space_propagation():
    ok = True
    # a bit flip before an X readout leaves the logical step untouched
    for m in (0, 1):
        state = mpo_apply_channel(mpo_cluster(3), 1, bit_flip(0.5))
        state = mpo_measure(state, 1, X_KETS[m])
        got = choi(KrausChannel(state.sites[1][0]))
        hz = dm.H @ np.linalg.matrix_power(dm.Z, m)
        ok &= dm.max_abs_diff(got, 0.5 * choi(unitary_channel(hz))) <= 1e-10

    # Hadamard mixture then X readout reduces to sqrt(2) H |m><m| up to the
    # branch weight sqrt(p/2)
    p = 0.4
    had = mixed_unitary([(1 - p, dm.I2), (p, dm.H)])
    for m in (0, 1):
        state = mpo_apply_channel(mpo_cluster(3), 1, had)
        state = mpo_measure(state, 1, X_KETS[m])
        branch = state.sites[1][0][1]
        reported = np.sqrt(2.0) * dm.H @ dm.projector(dm.KET0 if m == 0 else dm.KET1)
        ok &= dm.max_abs_diff(branch, np.sqrt(p / 2.0) * reported) <= 1e-10

    # an {I, X, Y} mixture before an X readout acts as Z with probability p2,
    # with probability weights (not amplitude weights) on the superoperator
    p0, p1, p2 = 0.55, 0.25, 0.2
    ixy = validate([np.sqrt(p0) * dm.I2, np.sqrt(p1) * dm.X, np.sqrt(p2) * dm.Y])
    for m in (0, 1):
        state = mpo_apply_channel(mpo_cluster(3), 1, ixy)
        state = mpo_measure(state, 1, X_KETS[m])
        got = choi(KrausChannel(state.sites[1][0]))
        model = compose(
            ideal_block(MeasSpec.equatorial(0.0, m)),
            validate([np.sqrt(p0 + p1) * dm.I2, np.sqrt(p2) * dm.Z]),
        )
        ok &= dm.max_abs_diff(got, choi(model)) <= 1e-10
    assert _verdict("criterion 7: correlation-space propagation examples", ok)


# --- criterion 8: branch bookkeeping -----------------------------------------------


def test_criterion_8_branch_bookkeeping(block_suite, mpo_suite):
    ok = True
    # every random step configuration is built from CPTP noise, so the two
    # outcome branches must split probability exactly
    for per_k in block_suite[0]:
        total = sum(
            dm.partial_trace(closed, keep=[0], dims=(2, 2)) for closed, _ in per_k
        )
        ok &= dm.max_abs_diff(total, dm.I2) <= 1e-9

    # random site programs: outcome-string probabilities sum to one
    for branches in mpo_suite:
        total = sum(np.trace(closed).real for closed, _ in branches)
        ok &= abs(total - 1.0) <= 1e-9

    # L noiseless equatorial steps leave trace 2^-L
    rho = dm.projector(dm.PLUS)
    for length in (1, 2, 5, 8):
        blocks = [BlockNoiseConfig(meas=MeasSpec.equatorial(0.9, 1))] * length
        out = run_block_sequence(rho, blocks)
        ok &= abs(np.trace(out).real - 2.0**-length) <= 1e-12 * 2.0**-length + 1e-15
    assert _verdict("criterion 8: branch probability bookkeeping", ok)
