import json

import numpy as np
import pytest
from conftest import choi_distance, random_complex, random_density, run_block_sequence
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_channels import reference_compose

from noisy_mbqc import densemath as dm
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
    apply,
    bit_flip,
    choi,
    compose,
    identity_channel,
    mixed_unitary,
    phase_flip,
    random_channel,
)
from noisy_mbqc.cli import parse_experiment, run_experiment
from noisy_mbqc.errors import DimensionMismatch, ZBasisUnsupported
from noisy_mbqc.oracle import block_oracle_channel


def single(op):
    """Single-operator map, phases kept as given."""
    return KrausChannel([op])


def test_ideal_block_kraus_forms():
    np.testing.assert_allclose(
        ideal_block(MeasSpec.equatorial(0.0, 0)).ops[0],
        dm.H / np.sqrt(2),
        atol=1e-12,
    )
    phi = 0.9
    np.testing.assert_allclose(
        ideal_block(MeasSpec.equatorial(phi, 1)).ops[0],
        dm.X @ dm.H @ dm.rz(-phi) / np.sqrt(2),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        ideal_block(MeasSpec.z(1)).ops[0], dm.Z / np.sqrt(2), atol=1e-12
    )


# a float or bool outcome used to pass the constructor and fail later, in
# ``ket`` or ``ideal_block``
@pytest.mark.parametrize("make", [MeasSpec.z, lambda k: MeasSpec.equatorial(0.3, k)])
@pytest.mark.parametrize(
    "outcome", [1.0, 0.0, True, False, np.float64(1.0), np.bool_(True), 2, -1, "1", None]
)
def test_measspec_refuses_an_outcome_not_the_integer_0_or_1(make, outcome):
    with pytest.raises(ValueError, match=r"^outcome must be the integer 0 or 1, got "):
        make(outcome)


@pytest.mark.parametrize("outcome", [0, 1, np.int64(1), np.uint8(0)])
def test_measspec_takes_an_integer_outcome(outcome):
    meas = MeasSpec.equatorial(0.3, outcome)
    assert meas == MeasSpec.equatorial(0.3, int(outcome))
    np.testing.assert_allclose(meas.ket, dm.equatorial_ket(0.3, int(outcome)))
    ideal_block(MeasSpec.z(outcome))


def test_ideal_block_halves_trace(rng):
    rho = random_density(rng)
    for meas in (MeasSpec.z(0), MeasSpec.equatorial(1.7, 1)):
        out = apply(ideal_block(meas), rho)
        assert np.trace(out).real == pytest.approx(0.5, abs=1e-12)


# --- resource-noise mapping -------------------------------------------------


def test_resource_noise_golden_table():
    # lone basis operators map to (I, I, Z, -iZ)
    rows = [
        (dm.I2, dm.I2),
        (dm.X, dm.I2),
        (dm.Z, dm.Z),
        (-1j * dm.Z @ dm.X, -1j * dm.Z),
    ]
    for initial, final in rows:
        mapped = map_resource_noise(single(initial))
        np.testing.assert_allclose(mapped.ops[0], final, atol=1e-12)


def test_resource_bit_flip_becomes_identity():
    mapped = map_resource_noise(bit_flip(0.3))
    np.testing.assert_allclose(mapped.ops[0], np.sqrt(0.7) * dm.I2, atol=1e-12)
    np.testing.assert_allclose(mapped.ops[1], np.sqrt(0.3) * dm.I2, atol=1e-12)
    assert choi_distance(mapped, identity_channel()) <= 1e-12


def test_resource_phase_flip_unchanged():
    mapped = map_resource_noise(phase_flip(0.25))
    assert choi_distance(mapped, phase_flip(0.25)) <= 1e-12


def test_resource_hadamard_collapses_to_projector():
    p = 0.3
    mapped = map_resource_noise(mixed_unitary([(1 - p, dm.I2), (p, dm.H)]))
    np.testing.assert_allclose(mapped.ops[0], np.sqrt(1 - p) * dm.I2, atol=1e-12)
    np.testing.assert_allclose(
        mapped.ops[1], np.sqrt(2 * p) * dm.projector(dm.KET0), atol=1e-12
    )


# --- measurement-noise mapping ----------------------------------------------


def test_measurement_noise_golden_table_phi_zero():
    # at phi = 0 the rotated basis is the plain one: rows (I, Z, X, iXZ)
    # map to (I, Z, (-1)^k I, i(-1)^k Z)
    for k in (0, 1):
        sign = (-1.0) ** k
        rows = [
            (dm.I2, dm.I2),
            (dm.Z, dm.Z),
            (dm.X, sign * dm.I2),
            (1j * dm.X @ dm.Z, 1j * sign * dm.Z),
        ]
        for initial, final in rows:
            mapped = map_measurement_noise(single(initial), 0.0, k)
            np.testing.assert_allclose(mapped.ops[0], final, atol=1e-12)


def test_measurement_noise_golden_table_general_phi():
    for phi in (0.6, 2.9):
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
                mapped = map_measurement_noise(single(initial), phi, k)
                np.testing.assert_allclose(mapped.ops[0], final, atol=1e-12)


def test_measurement_bit_flip_becomes_identity():
    for k in (0, 1):
        mapped = map_measurement_noise(bit_flip(0.3), 0.0, k)
        sign = (-1.0) ** k
        np.testing.assert_allclose(
            mapped.ops[1], sign * np.sqrt(0.3) * dm.I2, atol=1e-12
        )
        assert choi_distance(mapped, identity_channel()) <= 1e-12


def test_measurement_phase_flip_unchanged():
    for k in (0, 1):
        mapped = map_measurement_noise(phase_flip(0.4), 0.0, k)
        assert choi_distance(mapped, phase_flip(0.4)) <= 1e-12


def test_measurement_hadamard_projects_onto_outcome():
    p = 0.4
    had = mixed_unitary([(1 - p, dm.I2), (p, dm.H)])
    for k in (0, 1):
        mapped = map_measurement_noise(had, 0.0, k)
        ket = dm.KET0 if k == 0 else dm.KET1
        want = KrausChannel(
            [np.sqrt(1 - p) * dm.I2, np.sqrt(2 * p) * dm.projector(ket)]
        )
        # the k = 1 operator picks up a harmless global sign, so compare maps
        assert choi_distance(mapped, want) <= 1e-12
        np.testing.assert_allclose(
            mapped.ops[0], np.sqrt(1 - p) * dm.I2, atol=1e-12
        )


# --- composite step ----------------------------------------------------------


def test_compose_noiseless_equals_ideal():
    for k in (0, 1):
        meas = MeasSpec.equatorial(1.2, k)
        cfg = BlockNoiseConfig(meas=meas)
        assert choi_distance(compose_block_noise(cfg), ideal_block(meas)) <= 1e-12


def test_compose_input_noise_only(rng):
    a1 = random_channel(rng, 2)
    meas = MeasSpec.equatorial(0.3, 1)
    cfg = BlockNoiseConfig(meas=meas, alpha1=a1)
    assert choi_distance(compose_block_noise(cfg), compose(ideal_block(meas), a1)) <= 1e-12


def test_compose_output_noise_only(rng):
    a4 = random_channel(rng, 3)
    meas = MeasSpec.equatorial(2.2, 0)
    cfg = BlockNoiseConfig(meas=meas, alpha4=a4)
    assert choi_distance(compose_block_noise(cfg), compose(a4, ideal_block(meas))) <= 1e-12


def test_compose_resource_and_measurement_example():
    # phase-flip on the resource survives, bit-flip at the readout dissolves
    for k in (0, 1):
        meas = MeasSpec.equatorial(0.0, k)
        cfg = BlockNoiseConfig(meas=meas, alpha2=phase_flip(0.5), alpha3=bit_flip(0.5))
        want = compose(phase_flip(0.5), ideal_block(meas))
        assert choi_distance(compose_block_noise(cfg), want) <= 1e-12


@pytest.mark.parametrize("slot", ["alpha1", "alpha4"])
def test_compose_rejects_mismatched_dimension(rng, slot):
    # KrausChannel refuses a two-qubit set, so compose never meets one
    meas = MeasSpec.equatorial(0.5, 1)
    cfg = BlockNoiseConfig(meas=meas, **{slot: random_channel(rng, 2)})
    assert compose_block_noise(cfg).ops.shape == (2, 2, 2)
    shape = r"^Kraus operators must be a non-empty \(\*, 2, 2\) array, got shape \(2, 4, 4\)$"
    with pytest.raises(DimensionMismatch, match=shape):
        BlockNoiseConfig(meas=meas, **{slot: KrausChannel(random_complex(rng, (2, 4, 4)))})


def test_compose_z_step_is_ideal_and_takes_no_noise():
    for k in (0, 1):
        meas = MeasSpec.z(k)
        got = compose_block_noise(BlockNoiseConfig(meas=meas))
        assert got.ops.tobytes() == ideal_block(meas).ops.tobytes()
        for slot in ("alpha1", "alpha2", "alpha3", "alpha4"):
            cfg = BlockNoiseConfig(meas=meas, **{slot: identity_channel()})
            with pytest.raises(ZBasisUnsupported):
                compose_block_noise(cfg)


def test_oracle_equivalence_random_configs(rng):
    # the module's central check: composed closed form against brute force
    worst = 0.0
    for _ in range(40):
        phi = float(rng.uniform(0, 2 * np.pi))
        alphas = {
            slot: random_channel(rng, int(rng.integers(1, 5)))
            for slot in ("alpha1", "alpha2", "alpha3", "alpha4")
        }
        for k in (0, 1):
            cfg = BlockNoiseConfig(meas=MeasSpec.equatorial(phi, k), **alphas)
            diff = dm.max_abs_diff(
                choi(compose_block_noise(cfg)), block_oracle_channel(cfg)
            )
            worst = max(worst, diff)
    assert worst <= 1e-9


def test_branch_probabilities_sum_to_one(rng):
    rho = random_density(rng)
    phi = 1.9
    alphas = {
        slot: random_channel(rng, 2)
        for slot in ("alpha1", "alpha2", "alpha3", "alpha4")
    }
    total = 0.0
    for k in (0, 1):
        cfg = BlockNoiseConfig(meas=MeasSpec.equatorial(phi, k), **alphas)
        total += np.trace(apply(compose_block_noise(cfg), rho)).real
    assert total == pytest.approx(1.0, abs=1e-10)


# --- sequences ---------------------------------------------------------------


def test_single_noiseless_block_on_plus():
    out = run_block_sequence(
        dm.projector(dm.PLUS), [BlockNoiseConfig(meas=MeasSpec.equatorial(0.0, 0))]
    )
    np.testing.assert_allclose(out, 0.5 * dm.projector(dm.KET0), atol=1e-12)


def test_two_noiseless_blocks_double_hadamard():
    blocks = [BlockNoiseConfig(meas=MeasSpec.equatorial(0.0, 0))] * 2
    out = run_block_sequence(dm.projector(dm.PLUS), blocks)
    np.testing.assert_allclose(out, 0.25 * dm.projector(dm.PLUS), atol=1e-12)


def test_noiseless_chain_trace_halves_each_step(rng):
    rho = random_density(rng)
    for length in (1, 3, 6):
        blocks = [BlockNoiseConfig(meas=MeasSpec.equatorial(0.4, 1))] * length
        out = run_block_sequence(rho, blocks)
        assert np.trace(out).real == pytest.approx(2.0**-length, rel=1e-12)


def test_z_basis_blocks_allowed_when_noiseless(rng):
    rho = random_density(rng)
    out = run_block_sequence(rho, [BlockNoiseConfig(meas=MeasSpec.z(1))])
    np.testing.assert_allclose(out, 0.5 * dm.Z @ rho @ dm.Z, atol=1e-12)


def test_z_basis_block_with_noise_raises(rng):
    cfg = BlockNoiseConfig(meas=MeasSpec.z(0), alpha1=random_channel(rng, 2))
    with pytest.raises(ZBasisUnsupported):
        run_block_sequence(random_density(rng), [cfg])


# --- composite step against the chained-compose reference -------------------


def reference_compose_block_noise(cfg: BlockNoiseConfig):
    """The composite step as a chain of compositions."""
    meas = cfg.meas
    composite = cfg.alpha1 if cfg.alpha1 is not None else identity_channel()
    if cfg.alpha3 is not None:
        composite = reference_compose(
            map_measurement_noise(cfg.alpha3, meas.phi, meas.outcome), composite
        )
    composite = reference_compose(ideal_block(meas), composite)
    if cfg.alpha2 is not None:
        composite = reference_compose(map_resource_noise(cfg.alpha2), composite)
    if cfg.alpha4 is not None:
        composite = reference_compose(cfg.alpha4, composite)
    return composite


_SLOTS = ("alpha1", "alpha2", "alpha3", "alpha4")
_UNITARIES = (dm.I2, dm.X, dm.Y, dm.Z, dm.H)


def _test_channel(rng, n_kraus: int, structured: bool):
    """A random CPTP channel, or a mixture of Paulis and H with exact zeros."""
    if not structured:
        return random_channel(rng, n_kraus)
    weights = rng.dirichlet(np.ones(n_kraus))
    return mixed_unitary([(w, _UNITARIES[rng.integers(5)]) for w in weights])


@settings(max_examples=300, deadline=None)
# a mapped readout noise at phi = 0, k = 1 with no input noise: only the
# identity factor at the start turns its -0.0 entries into the reference's 0.0
@example(seed=1, kraus={"alpha3": (2, True)}, phi=0.0)
@given(
    seed=st.integers(0, 2**32 - 1),
    kraus=st.fixed_dictionaries(
        {}, optional={s: st.tuples(st.integers(1, 4), st.booleans()) for s in _SLOTS}
    ),
    phi=st.one_of(
        st.sampled_from([0.0, -0.0, np.pi / 2, -np.pi]), st.floats(-10.0, 10.0)
    ),
)
def test_compose_matches_chained_compose_bit_for_bit(seed, kraus, phi):
    rng = np.random.default_rng(seed)
    alphas = {slot: _test_channel(rng, *spec) for slot, spec in kraus.items()}
    for k in (0, 1):
        cfg = BlockNoiseConfig(meas=MeasSpec.equatorial(phi, k), **alphas)
        got, want = compose_block_noise(cfg), reference_compose_block_noise(cfg)
        assert [op.tobytes() for op in got.ops] == [op.tobytes() for op in want.ops]
        if phi == 0.0:
            # +0.0 and -0.0 share a MeasSpec key, so they must share the channel
            flipped = BlockNoiseConfig(meas=MeasSpec.equatorial(-phi, k), **alphas)
            other = compose_block_noise(flipped).ops
            assert [op.tobytes() for op in other] == [op.tobytes() for op in got.ops]


# --- the Pauli-table maps the matrix formulas replaced ------------------------


def _zx_basis(u):
    """{(g, h): u (-i)^(gh) Z^g X^h u^dag}, the readout-side Pauli ordering."""
    z, x = (dm.I2, dm.Z), (dm.I2, dm.X)
    return {
        (g, h): u @ ((-1j) ** (g * h) * z[g] @ x[h]) @ dm.dag(u)
        for g in (0, 1)
        for h in (0, 1)
    }


def _table(op, basis):
    return {gh: np.trace(dm.dag(b) @ op) / 2.0 for gh, b in basis.items()}


def reference_resource_map(alpha2):
    """I -> I, X -> I, Z -> Z, Y -> -iZ on the Z^g X^h coefficients."""
    mapped = []
    for op in alpha2.ops:
        a = _table(op, _zx_basis(dm.I2))
        mapped.append((a[0, 0] + a[0, 1]) * dm.I2 + (a[1, 0] - 1j * a[1, 1]) * dm.Z)
    return mapped


def reference_measurement_map(alpha3, phi, k):
    """The same table in the basis rotated by exp(-i*phi*Z/2), with the
    X slots signed by the outcome."""
    sign = -1.0 if k % 2 else 1.0
    mapped = []
    for op in alpha3.ops:
        a = _table(op, _zx_basis(dm.rz(phi)))
        a0 = a[0, 0] + sign * a[0, 1]
        a1 = a[1, 0] + 1j * sign * a[1, 1]
        mapped.append(a0 * dm.I2 + a1 * dm.Z)
    return mapped


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_kraus=st.integers(1, 4),
    structured=st.booleans(),
    phi=st.one_of(
        st.sampled_from([0.0, -0.0, np.pi / 2, -np.pi]), st.floats(-10.0, 10.0)
    ),
)
def test_noise_maps_match_the_pauli_table_rules(seed, n_kraus, structured, phi):
    rng = np.random.default_rng(seed)
    noise = _test_channel(rng, n_kraus, structured)
    got = map_resource_noise(noise).ops
    want = reference_resource_map(noise)
    assert len(got) == len(want)
    assert all(dm.max_abs_diff(g, w) <= 1e-13 for g, w in zip(got, want))
    for k in (0, 1):
        got = map_measurement_noise(noise, phi, k).ops
        want = reference_measurement_map(noise, phi, k)
        assert len(got) == len(want)
        assert all(dm.max_abs_diff(g, w) <= 1e-13 for g, w in zip(got, want))


# --- the rotation convention, pinned by numbers written out by hand ---------
# rz(phi) = exp(-i phi Z / 2); the closed forms and the oracle both read it,
# so only literal values can see a wrong convention

_STEP_ON_PLUS = {  # (1/2) X^k H exp(i pi/4 Z) |+><+| exp(-i pi/4 Z) H X^k
    0: [[0.25, -0.25j], [0.25j, 0.25]],
    1: [[0.25, 0.25j], [-0.25j, 0.25]],
}


def _anchor_equatorial_ket():
    want = np.array([np.exp(-0.25j * np.pi), np.exp(0.25j * np.pi)]) / np.sqrt(2)
    np.testing.assert_allclose(dm.equatorial_ket(np.pi / 2, 0), want, atol=1e-15)


def _anchor_noiseless_step():
    # on |0><0| every Z rotation cancels, (1/2)|+><+| whatever the angle; on
    # |+><+| the angle shows
    for k, want in _STEP_ON_PLUS.items():
        step = ideal_block(MeasSpec.equatorial(np.pi / 2, k))
        np.testing.assert_allclose(apply(step, dm.projector(dm.KET0)), 0.25, atol=1e-15)
        np.testing.assert_allclose(apply(step, dm.projector(dm.PLUS)), want, atol=1e-15)


def _anchor_one_step_chain():
    doc = {"kind": "block_chain", "chain": [{"phi": np.pi / 2, "k": "both"}]}
    report = run_experiment(parse_experiment(json.dumps(doc)))
    assert [case.case_id for case in report.cases] == ["k=0", "k=1"]
    for case, want in zip(report.cases, _STEP_ON_PLUS.values()):
        np.testing.assert_allclose(case.closed_form, want, atol=1e-15)
        np.testing.assert_allclose(case.oracle, want, atol=1e-15)


_ANCHORS = [_anchor_equatorial_ket, _anchor_noiseless_step, _anchor_one_step_chain]
_WRONG_RZ = {
    "doubled": lambda phi: np.diag([np.exp(-1j * phi), np.exp(1j * phi)]),
    "sign-flipped": lambda phi: np.diag([np.exp(0.5j * phi), np.exp(-0.5j * phi)]),
}


@pytest.mark.parametrize("anchor", _ANCHORS, ids=lambda f: f.__name__[len("_anchor_") :])
def test_rotation_convention_anchor(anchor):
    anchor()


@pytest.mark.parametrize("mutant", sorted(_WRONG_RZ))
@pytest.mark.parametrize("anchor", _ANCHORS, ids=lambda f: f.__name__[len("_anchor_") :])
def test_rotation_anchors_reject_a_wrong_rz(monkeypatch, anchor, mutant):
    monkeypatch.setattr(dm, "rz", _WRONG_RZ[mutant])
    with pytest.raises(AssertionError):
        anchor()
