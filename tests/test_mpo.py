import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import build_cluster_dm, random_complex, signed_zero_complex, whole_register_ops
from test_block import _test_channel

from noisy_mbqc import densemath as dm
from noisy_mbqc import oracle
from noisy_mbqc.channels import (
    KrausChannel,
    basis_element,
    bit_flip,
    choi,
    compose,
    mixed_unitary,
    phase_flip,
    random_channel,
    unitary_channel,
    validate,
)
from noisy_mbqc.errors import (
    AlreadyMeasured,
    DimensionMismatch,
    NotNormalized,
    NotUnitary,
    SizeLimit,
    UnmeasuredSites,
)
from noisy_mbqc.mpo import (
    MpoState,
    mpo_apply_channel,
    mpo_apply_pauli,
    mpo_apply_unitary,
    mpo_cluster,
    mpo_contract,
    mpo_from_dict,
    mpo_logical_output,
    mpo_maximally_mixed,
    mpo_measure,
    mpo_one_clean,
    mpo_to_dict,
)

X_KETS = (dm.PLUS, dm.MINUS)


def x_measure(state, site, outcome):
    return mpo_measure(state, site, X_KETS[outcome])


# --- builders -----------------------------------------------------------------


def test_cluster_contraction_matches_dense():
    for n in (2, 3, 5):
        got = mpo_contract(mpo_cluster(n))
        np.testing.assert_allclose(got, build_cluster_dm(n), atol=1e-12)


def test_cluster_branches_are_rank_one():
    state = mpo_cluster(3)
    for i in range(2):
        for j in range(2):
            a_i, a_j = state.sites[0][i][0], state.sites[0][j][0]
            out = a_i @ state.seed @ dm.dag(a_j)
            assert np.linalg.matrix_rank(out, tol=1e-12) <= 1


def test_maximally_mixed_contraction():
    for n in (1, 2, 3):
        got = mpo_contract(mpo_maximally_mixed(n))
        np.testing.assert_allclose(got, np.eye(2**n) / 2**n, atol=1e-12)
        assert np.trace(got).real == pytest.approx(1.0, abs=1e-12)


def test_one_clean_contraction():
    np.testing.assert_allclose(
        mpo_contract(mpo_one_clean(1)),
        np.kron(dm.projector(dm.KET0), dm.I2 / 2),
        atol=1e-12,
    )
    got = mpo_contract(mpo_one_clean(2))
    np.testing.assert_allclose(
        got, np.diag([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0]), atol=1e-12
    )
    # tracing the mixed sites leaves the clean qubit
    np.testing.assert_allclose(
        dm.partial_trace(got, keep=[0], dims=(2, 2, 2)),
        dm.projector(dm.KET0),
        atol=1e-12,
    )


def test_builder_validation():
    with pytest.raises(ValueError):
        mpo_cluster(1)
    with pytest.raises(ValueError):
        mpo_maximally_mixed(0)


def test_contract_size_limit():
    big = mpo_cluster(14)  # building is fine, contracting is not
    with pytest.raises(SizeLimit):
        mpo_contract(big)


# --- measurement ---------------------------------------------------------------


def test_x_measurement_collapses_to_hadamard_byproduct():
    for m in (0, 1):
        state = x_measure(mpo_cluster(3), 0, m)
        collapsed = state.sites[0][0][0]
        zm = np.linalg.matrix_power(dm.Z, m)
        np.testing.assert_allclose(collapsed, dm.H @ zm / np.sqrt(2), atol=1e-12)


def test_computational_measurement_selects_branch():
    state = mpo_measure(mpo_cluster(3), 0, dm.KET1)
    np.testing.assert_allclose(
        state.sites[0][0][0], dm.H @ dm.projector(dm.KET1), atol=1e-12
    )


def test_measured_branch_matches_oracle():
    n = 4
    state = x_measure(mpo_cluster(n), 1, 1)
    ops = oracle.cluster_ops(n) + [oracle.Measure(1, X_KETS[1])]
    np.testing.assert_allclose(
        mpo_contract(state), oracle.simulate(n, ops), atol=1e-12
    )


def test_boundary_measurement_with_complex_basis():
    # exercises the conjugation asymmetry between interior and boundary sites
    yplus = np.array([1, 1j], dtype=complex) / np.sqrt(2)
    yminus = np.array([1, -1j], dtype=complex) / np.sqrt(2)
    state = mpo_measure(mpo_cluster(3), 2, yplus)
    state = mpo_measure(state, 0, yminus)
    ops = oracle.cluster_ops(3) + [
        oracle.Measure(2, yplus),
        oracle.Measure(0, yminus),
    ]
    np.testing.assert_allclose(
        mpo_contract(state), oracle.simulate(3, ops), atol=1e-12
    )


def test_measurement_branch_traces_sum():
    n = 4
    state = mpo_cluster(n)
    pre = np.trace(mpo_contract(state)).real
    total = sum(
        np.trace(mpo_contract(x_measure(state, 2, m))).real for m in (0, 1)
    )
    assert total == pytest.approx(pre, abs=1e-10)


def test_full_x_sweep_reaches_correlation_space(rng):
    n = 5
    outcomes = [int(b) for b in rng.integers(0, 2, size=n - 1)]
    state = mpo_cluster(n)
    for site, m in enumerate(outcomes):
        state = x_measure(state, site, m)
    # correlation-space composition: (1/sqrt2 H Z^m) per measured site
    c = np.eye(2, dtype=complex)
    for m in outcomes:
        c = (dm.H @ np.linalg.matrix_power(dm.Z, m) / np.sqrt(2)) @ c
    want = c @ dm.projector(dm.PLUS) @ dm.dag(c)
    np.testing.assert_allclose(mpo_logical_output(state), want, atol=1e-12)
    # the surviving physical qubit holds the same operator
    np.testing.assert_allclose(mpo_contract(state), want, atol=1e-12)
    ops = oracle.cluster_ops(n) + [
        oracle.Measure(site, X_KETS[m])
        for site, m in enumerate(outcomes)
    ]
    np.testing.assert_allclose(
        mpo_contract(state), oracle.simulate(n, ops), atol=1e-12
    )


def test_all_zero_sweep_trace():
    n = 6
    state = mpo_cluster(n)
    for site in range(n - 1):
        state = x_measure(state, site, 0)
    out = mpo_logical_output(state)
    assert np.trace(out).real == pytest.approx(2.0 ** -(n - 1), rel=1e-12)


def test_measure_errors():
    state = mpo_cluster(3)
    with pytest.raises(NotNormalized):
        mpo_measure(state, 0, np.array([1.0, 1.0]))
    state = x_measure(state, 0, 0)
    with pytest.raises(AlreadyMeasured):
        x_measure(state, 0, 1)
    with pytest.raises(UnmeasuredSites):
        mpo_logical_output(state)  # site 1 still open


# --- single-site updates --------------------------------------------------------


def test_pauli_update_golden_table():
    a = [dm.H @ dm.projector(dm.KET0), dm.H @ dm.projector(dm.KET1)]
    state = mpo_cluster(3)
    x_updated = mpo_apply_pauli(state, 1, (1, 0))
    z_updated = mpo_apply_pauli(state, 1, (0, 1))
    y_updated = mpo_apply_pauli(state, 1, (1, 1))
    for k in (0, 1):
        np.testing.assert_allclose(
            x_updated.sites[1][k][0], dm.Z @ a[k] @ dm.X, atol=1e-12
        )
        np.testing.assert_allclose(
            z_updated.sites[1][k][0], a[k] @ dm.Z, atol=1e-12
        )
        np.testing.assert_allclose(
            y_updated.sites[1][k][0],
            1j * dm.Z @ a[k] @ dm.X @ dm.Z,
            atol=1e-12,
        )


def test_pauli_identity_leaves_state_alone():
    state = mpo_cluster(3)
    updated = mpo_apply_pauli(state, 0, (0, 0))
    for k in (0, 1):
        np.testing.assert_allclose(
            updated.sites[0][k][0], state.sites[0][k][0], atol=1e-15
        )


def test_pauli_z_is_an_involution():
    state = mpo_cluster(3)
    twice = mpo_apply_pauli(mpo_apply_pauli(state, 1, (0, 1)), 1, (0, 1))
    for k in (0, 1):
        np.testing.assert_allclose(
            twice.sites[1][k][0], state.sites[1][k][0], atol=1e-12
        )


def test_pauli_updates_track_dense_state(rng):
    n = 4
    for a, b in ((1, 0), (0, 1), (1, 1)):
        site = int(rng.integers(0, n - 1))
        state = mpo_apply_pauli(mpo_cluster(n), site, (a, b))
        ops = oracle.cluster_ops(n) + [
            oracle.Unitary1Q(site, basis_element(a, b))
        ]
        np.testing.assert_allclose(
            mpo_contract(state), oracle.simulate(n, ops), atol=1e-12
        )


def test_dual_forms_of_the_z_update():
    # A[k] Z and X A[k] represent the same evolution on cluster tensors
    state = mpo_cluster(4)
    via_rule = mpo_apply_pauli(state, 2, (0, 1))
    manual = MpoState(
        sites=tuple(
            [[dm.X @ m for m in fam] for fam in a] if idx == 2 else a
            for idx, a in enumerate(state.sites)
        ),
        seed=state.seed,
    )
    np.testing.assert_allclose(
        mpo_contract(via_rule), mpo_contract(manual), atol=1e-12
    )


def test_unitary_identity_and_x_match_pauli_rule():
    state = mpo_cluster(3)
    np.testing.assert_allclose(
        mpo_apply_unitary(state, 0, dm.I2).sites[0][1][0],
        state.sites[0][1][0],
        atol=1e-12,
    )
    np.testing.assert_allclose(
        mpo_apply_unitary(state, 0, dm.X).sites[0][1][0],
        mpo_apply_pauli(state, 0, (1, 0)).sites[0][1][0],
        atol=1e-12,
    )


def test_unitary_update_tracks_dense_state():
    n = 4
    state = mpo_apply_unitary(mpo_cluster(n), 2, dm.H)
    ops = oracle.cluster_ops(n) + [oracle.Unitary1Q(2, dm.H)]
    np.testing.assert_allclose(
        mpo_contract(state), oracle.simulate(n, ops), atol=1e-12
    )


def test_unitary_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        mpo_apply_unitary(mpo_cluster(3), 0, dm.H + 0.1 * dm.X)


def test_channel_update_phase_flip_form():
    # completely dephasing noise doubles the s family with (A, A Z)/sqrt(2)
    state = mpo_apply_channel(mpo_cluster(3), 1, phase_flip(0.5))
    a = [dm.H @ dm.projector(dm.KET0), dm.H @ dm.projector(dm.KET1)]
    for k in (0, 1):
        fam = state.sites[1][k]
        assert len(fam) == 2
        np.testing.assert_allclose(fam[0], a[k] / np.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(fam[1], a[k] @ dm.Z / np.sqrt(2), atol=1e-12)


def test_channel_update_tracks_dense_state(rng):
    n = 4
    ch = random_channel(rng, 2)
    state = mpo_apply_channel(mpo_cluster(n), 1, ch)
    ops = oracle.cluster_ops(n) + [oracle.Channel1Q(1, ch)]
    np.testing.assert_allclose(
        mpo_contract(state), oracle.simulate(n, ops), atol=1e-12
    )


def test_trace_preserving_channel_keeps_contraction_trace(rng):
    state = mpo_cluster(4)
    before = np.trace(mpo_contract(state)).real
    state = mpo_apply_channel(state, 2, random_channel(rng, 3))
    assert np.trace(mpo_contract(state)).real == pytest.approx(before, abs=1e-10)


def test_updates_rejected_on_measured_or_boundary_sites():
    state = x_measure(mpo_cluster(3), 0, 0)
    with pytest.raises(AlreadyMeasured):
        mpo_apply_pauli(state, 0, (1, 0))
    with pytest.raises(ValueError):
        mpo_apply_unitary(state, 2, dm.X)  # boundary site holds rows


# --- the Pauli-table rule the matrix rule replaced -----------------------------

# sigma_gh = i^(gh) X^g Z^h, written out
_SIGMA = {(0, 0): dm.I2, (0, 1): dm.Z, (1, 0): dm.X, (1, 1): 1j * dm.X @ dm.Z}


def reference_conjugation_update(mat, k):
    """A -> sum_gh a_gh Z^g A sigma_gh for k = sum_gh a_gh sigma_gh."""
    out = np.zeros_like(mat)
    for (g, h), sigma in _SIGMA.items():
        coeff = np.trace(dm.dag(sigma) @ k) / 2.0
        out += coeff * (np.linalg.matrix_power(dm.Z, g) @ mat @ sigma)
    return out


def _random_family_state(rng, s_count: int) -> MpoState:
    """Interior site 0 holds a random family of s_count bond matrices per
    physical value; the rule acts on bond dimension 2."""

    def rand(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    family = tuple(tuple(rand(2, 2) for _ in range(s_count)) for _ in range(2))
    return MpoState(sites=(family, ((rand(1, 2),), (rand(1, 2),))), seed=rand(2, 2))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s_count=st.integers(1, 3),
    event=st.sampled_from(["pauli", "unitary", "channel"]),
    pauli=st.tuples(st.integers(0, 1), st.integers(0, 1)),
    n_kraus=st.integers(1, 4),
    structured=st.booleans(),
)
def test_event_rule_matches_the_pauli_table_rule(
    seed, s_count, event, pauli, n_kraus, structured
):
    rng = np.random.default_rng(seed)
    state = _random_family_state(rng, s_count)
    if event == "pauli":
        ops, updated = [_SIGMA[pauli]], mpo_apply_pauli(state, 0, pauli)
    elif event == "unitary":
        u = _test_channel(rng, 1, structured).ops[0]
        ops, updated = [u], mpo_apply_unitary(state, 0, u)
    else:
        eta = _test_channel(rng, n_kraus, structured)
        ops, updated = eta.ops, mpo_apply_channel(state, 0, eta)
    for before, after in zip(state.sites[0], updated.sites[0], strict=True):
        want = [reference_conjugation_update(m, k) for m in before for k in ops]
        assert len(after) == len(want)
        assert all(dm.max_abs_diff(a, w) <= 1e-13 for a, w in zip(after, want))
    assert updated.sites[1] is state.sites[1]


# --- stacked event and measurement kernels against the per-member loops --------


def reference_event_update(family, ks):
    """Each member A becomes A diag(K) + Z A offdiag(K), one member and one K at
    a time; member s under K k lands at s * len(ks) + k."""
    parts = [(np.diag(np.diag(k)), k - np.diag(np.diag(k))) for k in ks]
    return np.array(
        [[a @ d + dm.Z @ a @ off for a in fam for d, off in parts] for fam in family]
    )


def reference_collapse(family, weights):
    """The one slot sum_i weights[i] A[i, s], one member at a time."""
    return np.array(
        [[weights[0] * a0 + weights[1] * a1 for a0, a1 in zip(family[0], family[1])]]
    )


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s_count=st.integers(1, 16),
    n_kraus=st.integers(1, 16),
    ket=st.sampled_from(["zero", "one", "plus", "minus", "random"]),
)
def test_stacked_event_and_measure_match_the_loops_bit_for_bit(
    seed, s_count, n_kraus, ket
):
    rng = np.random.default_rng(seed)
    interior = signed_zero_complex(rng, (2, s_count, 2, 2))
    bound = signed_zero_complex(rng, (2, s_count, 1, 2))
    state = MpoState(sites=(interior, bound), seed=dm.I2)
    # any (K, 2, 2) stack: the event kernel takes no trace bound
    ks = signed_zero_complex(rng, (n_kraus, 2, 2))
    updated = mpo_apply_channel(state, 0, KrausChannel(ks))
    want = reference_event_update(interior, ks)
    assert updated.sites[0].tobytes() == want.tobytes()

    if ket == "random":
        v = random_complex(rng, 2)
        v /= np.linalg.norm(v)
    else:
        v = {"zero": dm.KET0, "one": dm.KET1, "plus": dm.PLUS, "minus": dm.MINUS}[ket]
    # every site, the boundary rows included, takes the amplitudes conjugated
    for site, weights in ((0, v.conj()), (1, v.conj())):
        got = mpo_measure(updated, site, v).sites[site]
        want = reference_collapse(updated.sites[site], weights)
        assert len(got) == 1 and got.tobytes() == want.tobytes()


def test_site_tensor_stacks_its_family_once():
    bound = [[[dm.KET0]], [[dm.KET1]]]
    state = MpoState(sites=([[dm.H, [[1, 0], [0, 1]]], [dm.Z, dm.X]], bound), seed=dm.I2)
    site = state.sites[0]
    assert site.dtype == complex and site.shape == (2, 2, 2, 2)
    assert state.sites[1].shape == (2, 1, 1, 2)  # the last site is the boundary row
    assert MpoState(sites=state.sites, seed=dm.I2).sites[0] is site
    # every error names the site at fault, or "sites" when there is none
    for bad, where in (
        (([[dm.H], [np.eye(3)]], bound), "site 0 "),  # ragged family
        ((bound, bound), "site 0 "),  # rows on an interior site
        (([[dm.H], [dm.X]], [[dm.H], [dm.X]]), "site 1 "),  # matrices on the boundary
        (([[], []], bound), "site 0 "),  # no members
        ((), "sites"),  # no site at all
        ((np.zeros((3, 1, 2, 2)), bound), "site 0 "),  # a third physical slot
        (([[np.eye(3)], [np.eye(3)]], bound), "site 0 "),  # bond 3 on a 2x2 seed
        (([[dm.H], [dm.X]], [[[np.ones(3)]], [[np.ones(3)]]]), "site 1 "),  # boundary too
        (([[dm.H], [dm.X]], [[dm.KET0], [dm.KET1]]), "site 1 "),  # kets, not rows
    ):
        with pytest.raises(DimensionMismatch, match=f"^{where}"):
            MpoState(sites=bad, seed=dm.I2)
    single_row = r"^site 1 must be a non-empty \(\*, \*, 1, 2\) array, got shape \(2, 1, 2, 2\)$"
    with pytest.raises(DimensionMismatch, match=single_row):
        MpoState(sites=([[dm.H], [dm.X]], [[dm.H], [dm.X]]), seed=dm.I2)


# --- error propagation examples --------------------------------------------------


def test_bit_flip_then_x_measure_is_invisible():
    for m in (0, 1):
        state = mpo_apply_channel(mpo_cluster(3), 1, bit_flip(0.5))
        state = x_measure(state, 1, m)
        step = KrausChannel(state.sites[1][0])
        ideal = unitary_channel(dm.H @ np.linalg.matrix_power(dm.Z, m))
        np.testing.assert_allclose(choi(step), 0.5 * choi(ideal), atol=1e-12)


def test_ixy_channel_then_x_measure_is_z_with_p2():
    p0, p1, p2 = 0.5, 0.3, 0.2
    ch = validate([np.sqrt(p0) * dm.I2, np.sqrt(p1) * dm.X, np.sqrt(p2) * dm.Y])
    for m in (0, 1):
        state = mpo_apply_channel(mpo_cluster(3), 1, ch)
        state = x_measure(state, 1, m)
        got = choi(KrausChannel(state.sites[1][0]))
        from noisy_mbqc.block import MeasSpec, ideal_block

        model = compose(
            ideal_block(MeasSpec.equatorial(0.0, m)),
            validate([np.sqrt(p0 + p1) * dm.I2, np.sqrt(p2) * dm.Z]),
        )
        np.testing.assert_allclose(got, choi(model), atol=1e-12)


def test_hadamard_noise_then_x_measure_projects():
    p = 0.4
    had = mixed_unitary([(1 - p, dm.I2), (p, dm.H)])
    for m in (0, 1):
        state = mpo_apply_channel(mpo_cluster(3), 1, had)
        state = x_measure(state, 1, m)
        fam = state.sites[1][0]
        ket = dm.KET0 if m == 0 else dm.KET1
        # noisy branch reduces to a projector onto the outcome, proportional
        # to sqrt(2) H |m><m| (branch weight sqrt(p/2))
        np.testing.assert_allclose(
            fam[1],
            np.sqrt(p / 2.0) * np.sqrt(2.0) * dm.H @ dm.projector(ket),
            atol=1e-12,
        )


# --- random programs against the oracle -------------------------------------------


def _mixed_ops(clean: int, n: int) -> list:
    ops = [oracle.PrepState(0, dm.projector(dm.KET0))] if clean else []
    return ops + [oracle.PrepState(i, dm.I2 / 2) for i in range(clean, n)]


def test_random_programs_match_oracle(rng):
    # (state, oracle ops) per builder over n sites in total
    builders = (
        lambda n: (mpo_cluster(n), oracle.cluster_ops(n)),
        lambda n: (mpo_maximally_mixed(n), _mixed_ops(0, n)),
        lambda n: (mpo_one_clean(n - 1), _mixed_ops(1, n)),
    )
    logical_checks = 0
    for trial in range(36):
        kind = trial % 3
        n = int(rng.integers(3, 8))
        state, ops = builders[kind](n)
        # at most one update per site: the conjugation rules assume tensors
        # still carry the cluster symmetry; the mixed builders lack it, and
        # only Paulis are exact there
        sites = list(rng.permutation(n - 1))[: int(rng.integers(1, n))]
        for site in sites:
            event = rng.integers(0, 3) if kind == 0 else 0
            if event == 0:
                a, b = int(rng.integers(0, 2)), int(rng.integers(0, 2))
                state = mpo_apply_pauli(state, site, (a, b))
                ops.append(oracle.Unitary1Q(site, basis_element(a, b)))
            elif event == 1:
                u = random_channel(rng, 1).ops[0]
                state = mpo_apply_unitary(state, site, u)
                ops.append(oracle.Unitary1Q(site, u))
            else:
                ch = random_channel(rng, int(rng.integers(2, 4)))
                state = mpo_apply_channel(state, site, ch)
                ops.append(oracle.Channel1Q(site, ch))
        # X, Y or a random complex basis on any site, the boundary included;
        # a third of the programs measure exactly the interior sites
        if trial % 9 < 3:
            measured = list(range(n - 1))
        else:
            p = rng.random()
            measured = [s for s in range(n) if rng.random() < p]
        for site in rng.permutation(measured):
            u = (dm.H, dm.H @ np.diag([1, 1j]), random_channel(rng, 1).ops[0])[
                int(rng.integers(0, 3))
            ]
            ket = u[:, int(rng.integers(0, 2))]
            state = mpo_measure(state, int(site), ket)
            ops.append(oracle.Measure(int(site), ket))
        dense = oracle.simulate(n, ops)
        np.testing.assert_allclose(mpo_contract(state), dense, atol=1e-9)
        if measured == list(range(n - 1)):
            got = np.trace(mpo_logical_output(state))
            assert abs(got - np.trace(dense)) <= 1e-9
            logical_checks += 1
    assert logical_checks > 0


def _pauli_channel(rng) -> KrausChannel:
    """A random Pauli channel: sigma_ab with a Dirichlet-drawn probability."""
    probs = rng.dirichlet(np.ones(4))
    return validate([np.sqrt(p) * _SIGMA[ab] for p, ab in zip(probs, _SIGMA)])


_BUILDERS = (mpo_cluster, mpo_maximally_mixed, mpo_one_clean)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    builder=st.sampled_from(_BUILDERS),
    n=st.integers(2, 5),
)
def test_any_readout_of_any_site_matches_the_oracle(seed, builder, n):
    # inside the event rule's exact domain (Pauli events and Pauli channels on
    # any builder, one unitary or 2-Kraus channel per cluster site), reading
    # out a random set of sites, the boundary row included, with random
    # complex kets contracts to the oracle's state of the same circuit
    rng = np.random.default_rng(seed)
    state, events = builder(n), []
    for site in range(state.n_sites - 1):
        if builder is mpo_cluster and rng.random() < 0.5:
            if rng.random() < 0.5:
                u = random_channel(rng, 1).ops[0]
                state = mpo_apply_unitary(state, site, u)
                events.append(oracle.Unitary1Q(site, u))
            else:
                eta = random_channel(rng, 2)
                state = mpo_apply_channel(state, site, eta)
                events.append(oracle.Channel1Q(site, eta))
            continue
        for _ in range(int(rng.integers(0, 3))):
            if rng.random() < 0.5:
                bits = tuple(int(b) for b in rng.integers(0, 2, 2))
                state = mpo_apply_pauli(state, site, bits)
                events.append(oracle.Unitary1Q(site, basis_element(*bits)))
            else:
                eta = _pauli_channel(rng)
                state = mpo_apply_channel(state, site, eta)
                events.append(oracle.Channel1Q(site, eta))
    readouts = []
    for site in (int(j) for j in rng.permutation(state.n_sites)):
        if rng.random() < 0.5:
            v = random_complex(rng, 2)
            v /= np.linalg.norm(v)
            state = mpo_measure(state, site, v)
            readouts.append(oracle.Measure(site, v))
    ops = whole_register_ops(builder.__name__.removeprefix("mpo_"), n, events, readouts)
    want = oracle.simulate(state.n_sites, ops)
    np.testing.assert_allclose(mpo_contract(state), want, rtol=0, atol=1e-12)


# --- serialization -----------------------------------------------------------------


def test_serialization_roundtrip(rng):
    state = mpo_apply_channel(mpo_cluster(3), 1, random_channel(rng, 2))
    state = x_measure(state, 0, 1)
    doc = mpo_to_dict(state)
    back = mpo_from_dict(doc)
    np.testing.assert_allclose(mpo_contract(back), mpo_contract(state), atol=1e-12)
    # the matrices are the whole record: no version key, no per-site dims or flags
    assert set(doc) == {"seed", "sites"}
    assert all(set(site) == {"matrices"} for site in doc["sites"])
    shapes = [np.shape(site["matrices"]) for site in doc["sites"]]
    assert shapes == [(1, 1, 2, 2, 2), (2, 2, 2, 2, 2), (2, 1, 1, 2, 2)]


# json.dumps(mpo_to_dict(builder(2))) as a save_mpo file holds it, per builder
_SAVED = {
    mpo_cluster: (
        '{"seed": [[[0.4999999999999999, 0.0], [0.4999999999999999, 0.0]], '
        '[[0.4999999999999999, 0.0], [0.4999999999999999, 0.0]]], "sites": '
        '[{"matrices": [[[[[0.7071067811865475, 0.0], [0.0, 0.0]], '
        '[[0.7071067811865475, 0.0], [-0.0, 0.0]]]], [[[[0.0, 0.0], '
        '[0.7071067811865475, 0.0]], [[-0.0, 0.0], [-0.7071067811865475, 0.0]]]]]}, '
        '{"matrices": [[[[[1.0, 0.0], [0.0, 0.0]]]], [[[[0.0, 0.0], [1.0, 0.0]]]]]}]}'
    ),
    mpo_maximally_mixed: (
        '{"seed": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], "sites": '
        '[{"matrices": [[[[[0.7071067811865475, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, '
        '0.0]]], [[[0.0, 0.0], [0.7071067811865475, 0.0]], [[0.0, 0.0], [0.0, '
        '0.0]]]], [[[[0.0, 0.0], [0.7071067811865475, 0.0]], [[0.0, 0.0], [0.0, '
        '0.0]]], [[[0.7071067811865475, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, '
        '0.0]]]]]}, {"matrices": [[[[[0.7071067811865475, 0.0], [0.0, 0.0]]], [[[0.0, '
        '0.0], [0.7071067811865475, 0.0]]]], [[[[0.0, 0.0], [0.7071067811865475, '
        '0.0]]], [[[0.7071067811865475, 0.0], [0.0, 0.0]]]]]}]}'
    ),
    mpo_one_clean: (
        '{"seed": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], "sites": '
        '[{"matrices": [[[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]], '
        '[[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]]}, {"matrices": '
        '[[[[[0.7071067811865475, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], '
        '[[[0.0, 0.0], [0.7071067811865475, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]], '
        '[[[[0.0, 0.0], [0.7071067811865475, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], '
        '[[[0.7071067811865475, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]]}, '
        '{"matrices": [[[[[0.7071067811865475, 0.0], [0.0, 0.0]]], [[[0.0, 0.0], '
        '[0.7071067811865475, 0.0]]]], [[[[0.0, 0.0], [0.7071067811865475, 0.0]]], '
        '[[[0.7071067811865475, 0.0], [0.0, 0.0]]]]]}]}'
    ),
}


@pytest.mark.parametrize("builder", _BUILDERS, ids=lambda b: b.__name__)
def test_saved_builders_keep_their_bytes(builder):
    # the boundary is stored as bra rows and written as its vectors, so a
    # save_mpo file of a prepared state keeps the bytes it always had
    assert json.dumps(mpo_to_dict(builder(2))) == _SAVED[builder]
    back = mpo_from_dict(json.loads(_SAVED[builder]))
    assert [a.tobytes() for a in back.sites] == [a.tobytes() for a in builder(2).sites]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    builder=st.sampled_from(_BUILDERS),
    n=st.integers(2, 5),
    n_events=st.integers(0, 4),
    measure_share=st.floats(0.0, 1.0),
)
def test_serialization_roundtrip_is_bit_exact(seed, builder, n, n_events, measure_share):
    rng = np.random.default_rng(seed)
    state = builder(n)
    for _ in range(n_events):
        site, event = int(rng.integers(0, state.n_sites - 1)), int(rng.integers(0, 3))
        if event == 0:
            state = mpo_apply_pauli(state, site, tuple(int(b) for b in rng.integers(0, 2, 2)))
        elif event == 1:
            state = mpo_apply_unitary(state, site, random_channel(rng, 1).ops[0])
        else:
            state = mpo_apply_channel(state, site, random_channel(rng, int(rng.integers(1, 4))))
    # any sites, the boundary included, each onto a random unit vector
    for site in range(state.n_sites):
        if rng.random() < measure_share:
            v = random_complex(rng, 2)
            state = mpo_measure(state, site, v / np.linalg.norm(v))
    back = mpo_from_dict(json.loads(json.dumps(mpo_to_dict(state))))
    assert back.seed.tobytes() == state.seed.tobytes()
    assert [(a.shape, a.tobytes()) for a in back.sites] == [
        (a.shape, a.tobytes()) for a in state.sites
    ]


# mpo_to_dict output of the earlier format, which also recorded each site's
# dims, flags and outcome; reading ignores those keys
_RECORDED = {
    "boundary measured": (
        lambda: mpo_measure(mpo_maximally_mixed(2), 1, dm.KET1),
        '{"seed": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], "sites": '
        '[{"physical_dim": 2, "bond_dim": 2, "s_count": 2, "boundary": false, '
        '"measured": false, "outcome": null, "matrices": [[[[[0.7071067811865475, '
        "0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], [[[0.0, 0.0], "
        "[0.7071067811865475, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]], [[[[0.0, 0.0], "
        "[0.7071067811865475, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], "
        "[[[0.7071067811865475, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]]}, "
        '{"physical_dim": 1, "bond_dim": 2, "s_count": 2, "boundary": true, '
        '"measured": true, "outcome": 1, "matrices": [[[[[0.0, 0.0], '
        "[0.7071067811865475, 0.0]]], [[[0.7071067811865475, 0.0], [0.0, 0.0]]]]]}]}",
    ),
    "interior measured": (
        lambda: mpo_measure(mpo_apply_pauli(mpo_cluster(2), 0, (1, 1)), 0, dm.MINUS),
        '{"seed": [[[0.4999999999999999, 0.0], [0.4999999999999999, 0.0]], '
        "[[0.4999999999999999, 0.0], [0.4999999999999999, 0.0]]], "
        '"sites": [{"physical_dim": 1, "bond_dim": 2, "s_count": 1, "boundary": '
        'false, "measured": true, "outcome": 1, "matrices": [[[[[0.0, '
        "-0.4999999999999999], [0.0, -0.4999999999999999]], [[0.0, "
        '-0.4999999999999999], [0.0, 0.4999999999999999]]]]]}, {"physical_dim": 2, '
        '"bond_dim": 2, "s_count": 1, "boundary": true, "measured": false, '
        '"outcome": null, "matrices": [[[[[1.0, 0.0], [0.0, 0.0]]]], [[[[0.0, 0.0], '
        "[1.0, 0.0]]]]]}]}",
    ),
}


@pytest.mark.parametrize("case", sorted(_RECORDED))
def test_from_dict_reads_the_recorded_format(case):
    make, text = _RECORDED[case]
    want, got = make(), mpo_from_dict(json.loads(text))
    assert got.seed.tobytes() == want.seed.tobytes()
    assert [(a.shape, a.tobytes()) for a in got.sites] == [
        (a.shape, a.tobytes()) for a in want.sites
    ]


def _ragged_s_count(doc):
    doc["sites"][1]["matrices"][0].append(doc["sites"][1]["matrices"][0][0])


def _third_slot(doc):
    doc["sites"][1]["matrices"].append(doc["sites"][1]["matrices"][0])


def _no_boundary(doc):
    doc["sites"].pop()


def _boundary_first(doc):
    doc["sites"].insert(0, doc["sites"].pop())


def _wrong_bond_dim(doc):
    doc["sites"][0]["matrices"][0][0] = [[[1.0, 0.0]] * 3] * 3


def _ragged_row(doc):
    doc["sites"][1]["matrices"][0][0][1].append([0.0, 0.0])


def _no_seed(doc):
    del doc["seed"]


def _no_sites(doc):
    del doc["sites"]


def _no_matrices(doc):
    del doc["sites"][1]["matrices"]


def _sites_not_a_list(doc):
    doc["sites"] = 3


def _bare_number_entry(doc):
    doc["sites"][2]["matrices"][0][0][0][1] = 0.5


@pytest.mark.parametrize(
    "corrupt",
    [
        _ragged_s_count,
        _third_slot,
        _no_boundary,
        _boundary_first,
        _wrong_bond_dim,
        _ragged_row,
        _no_seed,
        _no_sites,
        _no_matrices,
        _sites_not_a_list,
        _bare_number_entry,
    ],
)
def test_from_dict_rejects_malformed_sites(corrupt):
    doc = mpo_to_dict(mpo_cluster(3))
    corrupt(doc)
    with pytest.raises(DimensionMismatch, match=r"^(site \d |seed|sites)"):
        mpo_from_dict(doc)


@pytest.mark.parametrize("key", ["seed", "site"])
@pytest.mark.parametrize("depth", [32, 40, 64])
def test_from_dict_rejects_a_pair_nested_past_32_axes(key, depth):
    nested = [1.0, 0.0]
    for _ in range(depth):
        nested = [nested]
    doc = mpo_to_dict(mpo_cluster(3))
    if key == "seed":
        doc["seed"] = nested
    else:
        doc["sites"][1]["matrices"] = nested
    with pytest.raises(DimensionMismatch, match=r"^(site 1 |seed)"):
        mpo_from_dict(doc)


def _bool_site_entry(doc):
    doc["sites"][1]["matrices"][0][0][0][1] = [False, False]  # in place of 0


def _bool_seed_entry(doc):
    doc["seed"][0][0] = [True, False]


@pytest.mark.parametrize(
    "corrupt, where",
    [(_bool_site_entry, "site 1"), (_bool_seed_entry, "seed")],
    ids=["site", "seed"],
)
def test_from_dict_rejects_boolean_entries(corrupt, where):
    # a JSON boolean would decode as 0 or 1, and both edited files would load;
    # the site one would even load to the cluster itself
    doc = mpo_to_dict(mpo_cluster(3))
    corrupt(doc)
    message = rf"^{where}: matrix entries must be numbers, got a boolean$"
    with pytest.raises(DimensionMismatch, match=message):
        mpo_from_dict(doc)


def _nan_site_entry(doc):
    doc["sites"][1]["matrices"][0][0][0][0] = [math.nan, 0.0]


def _infinite_seed_entry(doc):
    doc["seed"][0][0] = [0.5, -math.inf]


def _huge_seed_entry(doc):
    doc["seed"][0][0] = [10**400, 0]


@pytest.mark.parametrize(
    "corrupt, where",
    [(_nan_site_entry, "site 1"), (_infinite_seed_entry, "seed"), (_huge_seed_entry, "seed")],
    ids=["nan_site", "infinite_seed", "huge_integer_seed"],
)
def test_from_dict_rejects_entries_that_are_not_finite(corrupt, where):
    # no document can make such a state: a NaN or Infinity file would load and
    # contract to NaN, and the integer would overflow instead of being refused
    doc = mpo_to_dict(mpo_cluster(3))
    corrupt(doc)
    message = rf"^{where}: matrix entries must be finite$"
    with pytest.raises(DimensionMismatch, match=message):
        mpo_from_dict(json.loads(json.dumps(doc)))


def test_contraction_is_bounded_by_the_qubit_cap(monkeypatch):
    monkeypatch.setenv("NOISY_MBQC_MAX_QUBITS", "4")
    assert mpo_contract(mpo_cluster(4)).shape == (16, 16)
    with pytest.raises(SizeLimit, match=r"^contraction over 5 open sites exceeds 2\^4$"):
        mpo_contract(mpo_cluster(5))


def test_an_event_on_a_long_state_checks_only_its_site(monkeypatch):
    # an event or readout re-checks the one site it changes, not all 200
    state, n, flip = mpo_cluster(200), 200, bit_flip(0.1)
    calls = []
    stacked = dm.stacked

    def counted(a, shape, what):
        calls.append(what)
        return stacked(a, shape, what)

    monkeypatch.setattr(dm, "stacked", counted)
    state = mpo_apply_channel(state, 100, flip)
    state = mpo_apply_pauli(state, 7, (1, 1))
    state = mpo_apply_unitary(state, 8, dm.H)
    state = x_measure(state, 100, 1)
    state = mpo_measure(state, n - 1, dm.KET0)
    assert calls == [
        "site 100",
        "site 7",
        "unitary",
        "site 8",
        "measurement ket",
        "site 100",
        "measurement ket",
        f"site {n - 1}",
    ]
    monkeypatch.undo()
    assert state.unmeasured_count() == n - 2
    with pytest.raises(AlreadyMeasured):
        mpo_measure(state, 100, dm.PLUS)


@pytest.mark.parametrize("doc", [[], None, "x", 3])
def test_from_dict_rejects_a_top_level_that_is_not_an_object(doc):
    with pytest.raises(DimensionMismatch, match=r"^seed and sites: expected an object"):
        mpo_from_dict(doc)


def _bond_sites(bond: int) -> tuple[np.ndarray, np.ndarray]:
    """Two sites, one interior and the boundary row, with the given bond dimension."""
    interior = np.array(((np.eye(bond),), (2.0 * np.eye(bond),)))
    bound = np.ones((2, 1, 1, bond))
    return (interior, bound)


@pytest.mark.parametrize(
    "bond, from_dict",
    [(1, False), (3, False), (1, True)],
    ids=["bond1", "bond3", "bond1_from_dict"],
)
@pytest.mark.parametrize(
    "event",
    [
        lambda s: mpo_apply_pauli(s, 0, (1, 0)),
        lambda s: mpo_apply_unitary(s, 0, dm.H),
        lambda s: mpo_apply_channel(s, 0, phase_flip(0.2)),
    ],
    ids=["pauli", "unitary", "channel"],
)
def test_events_name_the_site_and_its_bond_dimension(bond, from_dict, event):
    # an event needs bond dimension 2, and MpoState refuses any other bond,
    # built or decoded, naming the site, so no event can meet one
    seed = dm.I2 / 2
    assert mpo_contract(event(MpoState(sites=_bond_sites(2), seed=seed))).shape == (4, 4)
    match = r"^site 0 must be a non-empty \(\*, \*, 2, 2\) array, "
    match += rf"got shape \(2, 1, {bond}, {bond}\)$"
    with pytest.raises(DimensionMismatch, match=match):
        if from_dict:
            doc = mpo_to_dict(SimpleNamespace(sites=_bond_sites(bond), seed=seed))
            event(mpo_from_dict(doc))
        else:
            event(MpoState(sites=_bond_sites(bond), seed=seed))


_INDEX_CALLS = {
    "mpo_measure": lambda i: mpo_measure(mpo_cluster(3), i, dm.PLUS),
    "mpo_apply_pauli": lambda i: mpo_apply_pauli(mpo_cluster(3), i, (1, 0)),
    "mpo_apply_unitary": lambda i: mpo_apply_unitary(mpo_cluster(3), i, dm.H),
    "mpo_apply_channel": lambda i: mpo_apply_channel(mpo_cluster(3), i, phase_flip(0.2)),
}


@pytest.mark.parametrize("index", [True, 1.0, 0.5, "1"], ids=repr)
@pytest.mark.parametrize("call", sorted(_INDEX_CALLS))
def test_an_event_or_readout_index_must_be_an_integer(call, index):
    # a bool or an integral float used to pass the range check and name site 1
    with pytest.raises(IndexError, match="^an MPO site index must be an integer, got "):
        _INDEX_CALLS[call](index)


@pytest.mark.parametrize("call", sorted(_INDEX_CALLS))
def test_a_numpy_integer_index_gives_the_int_answer(call):
    want, got = _INDEX_CALLS[call](1), _INDEX_CALLS[call](np.int64(1))
    assert json.dumps(mpo_to_dict(got)) == json.dumps(mpo_to_dict(want))
