import dataclasses
import tracemalloc
from bisect import bisect_left
from itertools import product

import numpy as np
import pytest
from conftest import build_cluster_dm, random_density, record_live_qubits
from hypothesis import given, settings
from hypothesis import strategies as st

from noisy_mbqc import densemath as dm
from noisy_mbqc import oracle
from noisy_mbqc.block import BlockNoiseConfig, MeasSpec, ideal_block
from noisy_mbqc.channels import apply, bit_flip, choi, phase_flip, random_channel
from noisy_mbqc.errors import (
    DimensionMismatch,
    NotNormalized,
    SiteOutOfRange,
    SizeLimit,
    ZBasisUnsupported,
)
from noisy_mbqc.mpo import mpo_apply_channel, mpo_cluster, mpo_contract, mpo_measure
from noisy_mbqc.oracle import (
    CZ,
    Channel1Q,
    Measure,
    PrepPlus,
    PrepState,
    Unitary1Q,
    block_oracle_channel,
    block_step_ops,
    cluster_ops,
    simulate,
    teleport_oracle_state,
)
from noisy_mbqc.teleport import diagonal_resource, teleport_branch


def test_single_block_circuit_matches_step_channel(rng):
    rho = random_density(rng)
    for phi in (0.0, 1.3):
        for k in (0, 1):
            meas = MeasSpec.equatorial(phi, k)
            ops = [PrepState(0, rho), PrepPlus(1), CZ(0, 1), Measure(0, meas.ket)]
            got = simulate(2, ops)
            want = apply(ideal_block(meas), rho)
            np.testing.assert_allclose(got, want, atol=1e-12)
            assert np.trace(got).real == pytest.approx(
                0.5 * np.trace(rho).real, abs=1e-10
            )


def test_cluster_small_cases():
    np.testing.assert_allclose(build_cluster_dm(1), dm.projector(dm.PLUS), atol=1e-12)
    cz = np.diag([1, 1, 1, -1])
    plus2 = np.kron(dm.projector(dm.PLUS), dm.projector(dm.PLUS))
    np.testing.assert_allclose(build_cluster_dm(2), cz @ plus2 @ cz, atol=1e-12)


def test_cluster_matches_op_by_op_simulation():
    got = simulate(5, cluster_ops(5))
    np.testing.assert_allclose(got, build_cluster_dm(5), atol=1e-12)
    assert np.linalg.matrix_rank(build_cluster_dm(5), tol=1e-10) == 1


def test_teleport_circuit_reproduces_projector_math(rng):
    rhos = np.stack([random_density(rng), dm.projector(dm.KET1)])
    for eps in (phase_flip(0.5), random_channel(rng, 3)):
        resource = diagonal_resource(eps)
        circuit = teleport_oracle_state(eps, rhos)
        assert circuit.shape == (2, 2, 2, 2, 2)  # [input, s, t] then the output
        for (i, rho), s, t in product(enumerate(rhos), range(2), range(2)):
            direct = teleport_branch(resource, rho, s, t)
            np.testing.assert_allclose(circuit[i, s, t], direct, atol=1e-10)


def test_trace_preserving_ops_keep_trace_and_psd(rng):
    ops = [
        PrepPlus(0),
        PrepState(1, random_density(rng)),
        CZ(0, 1),
        Unitary1Q(0, dm.H),
        Channel1Q(1, random_channel(rng, 2)),
    ]
    state = simulate(2, ops)
    assert np.trace(state).real == pytest.approx(1.0, abs=1e-10)
    assert dm.is_psd(state)


def test_measurement_branch_completeness(rng):
    # removed-site branches sum to the partial trace of the pre-measurement
    # state, and their traces split its total probability
    rho = random_density(rng)
    pre = simulate(2, [PrepState(0, rho), PrepPlus(1), CZ(0, 1)])
    branches = []
    for k in (0, 1):
        ops = [
            PrepState(0, rho),
            PrepPlus(1),
            CZ(0, 1),
            Measure(0, MeasSpec.equatorial(0.8, k).ket),
        ]
        branches.append(simulate(2, ops))
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
    )
    b = simulate(
        2, [PrepPlus(0), PrepState(1, rho), Channel1Q(1, ch), Unitary1Q(0, dm.H)]
    )
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_out_of_order_prep_keeps_site_ordering(rng):
    rho = random_density(rng)
    a = simulate(2, [PrepState(1, rho), PrepPlus(0)])
    b = simulate(2, [PrepPlus(0), PrepState(1, rho)])
    np.testing.assert_allclose(a, b, atol=1e-12)
    np.testing.assert_allclose(a, np.kron(dm.projector(dm.PLUS), rho), atol=1e-12)


def test_site_errors():
    with pytest.raises(SiteOutOfRange):
        simulate(1, [PrepPlus(1)])
    with pytest.raises(SiteOutOfRange):
        simulate(2, [PrepPlus(0), CZ(0, 1)])  # site 1 never prepared
    with pytest.raises(SiteOutOfRange):
        simulate(1, [PrepPlus(0), PrepPlus(0)])


@pytest.mark.parametrize(
    "ket, error",
    [
        (np.zeros(2), NotNormalized),
        (np.array([1.0, 1.0]), NotNormalized),
        (np.array([np.nan, 0.0]), NotNormalized),
        (np.full(4, 0.5), DimensionMismatch),
        (np.eye(4)[0], DimensionMismatch),
    ],
    ids=["zero", "ones", "nan", "four_entries", "eye4_row"],
)
def test_measure_rejects_a_ket_that_is_not_a_unit_2_vector(ket, error):
    with pytest.raises(error):
        simulate(1, [PrepPlus(0), Measure(0, ket)])


def test_a_readout_always_removes_its_site():
    assert Measure.remove is True
    with pytest.raises(TypeError):
        Measure(0, dm.PLUS, remove=False)


@pytest.mark.parametrize("which", ["readout", "prep"])
def test_a_stack_of_one_adds_a_length_1_axis(which, rng):
    # a stack forks whatever its length: a (1, 2) readout as a (1, 2, 2) prep
    rho, ket = random_density(rng), MeasSpec.equatorial(0.3, 1).ket

    def run(item):
        prep, readout = (item, ket) if which == "prep" else (rho, item)
        ops = [PrepState(0, prep), PrepPlus(1), CZ(0, 1), Measure(0, readout)]
        return simulate(2, ops)

    lone = rho if which == "prep" else ket
    one, stacked = run(lone), run(lone[None])
    assert (one.shape, stacked.shape) == ((2, 2), (1, 2, 2))
    assert stacked[0].tobytes() == one.tobytes()


def test_oracle_and_mpo_refuse_a_column_ket():
    column = dm.MINUS.reshape(2, 1)
    with pytest.raises(DimensionMismatch):
        simulate(1, [PrepPlus(0), Measure(0, column)])
    with pytest.raises(DimensionMismatch):
        mpo_measure(mpo_cluster(2), 0, column)


@st.composite
def readout_kets(draw):
    """A unit ket off by a relative ``d`` in its length, a non-finite entry, the
    zero vector, a (2, 1) column or a 4-entry vector."""
    theta = draw(st.floats(0.0, np.pi))
    phase = draw(st.floats(-np.pi, np.pi))
    ket = np.array([np.cos(theta / 2), np.exp(1j * phase) * np.sin(theta / 2)])
    kind = draw(st.sampled_from(["scaled", "non_finite", "zero", "column", "four"]))
    if kind == "scaled":
        d = draw(st.sampled_from([0.0, 1e-13, -1e-13, 1e-11, -1e-11, 1e-9, -1e-9]))
        return ket * (1.0 + d)
    if kind == "non_finite":
        ket[draw(st.integers(0, 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
        )
        return ket
    if kind == "zero":
        return np.zeros(2)
    if kind == "column":
        return ket.reshape(2, 1)
    return np.append(ket, [0.0, 0.0])


def _raised(run):
    """The class of the ``ValueError`` ``run()`` raises, or None."""
    try:
        run()
    except ValueError as e:
        return type(e)
    return None


@settings(max_examples=200, deadline=None)
@given(readout_kets())
def test_oracle_and_mpo_share_one_readout_check(ket):
    oracle_error = _raised(lambda: simulate(1, [PrepPlus(0), Measure(0, ket)]))
    mpo_error = _raised(lambda: mpo_measure(mpo_cluster(2), 0, ket))
    assert oracle_error is mpo_error


_BAD_STACKS = {
    "empty_ket_stack": (Measure(0, np.zeros((0, 2))), DimensionMismatch, "at least one ket"),
    "non_unit_row": (
        Measure(0, np.stack([dm.PLUS, 2 * dm.MINUS, dm.KET0])),
        NotNormalized,
        "row 1",
    ),
    "nan_row": (Measure(0, np.stack([[np.nan, 0.0], dm.KET1])), NotNormalized, "row 0"),
    "prep_stack_of_3x3": (PrepState(1, np.zeros((2, 3, 3))), DimensionMismatch, r"\(P, 2, 2\)"),
    "prep_stack_of_rows": (PrepState(1, np.zeros((3, 2))), DimensionMismatch, r"\(P, 2, 2\)"),
    "empty_prep_stack": (PrepState(1, np.zeros((0, 2, 2))), DimensionMismatch, r"\(P, 2, 2\)"),
    "prep_stack_of_stacks": (
        PrepState(1, np.zeros((2, 2, 2, 2))),
        DimensionMismatch,
        r"\(P, 2, 2\)",
    ),
    "ket_stack_of_stacks": (
        Measure(0, np.stack([[dm.KET0, dm.KET1]] * 2)),
        DimensionMismatch,
        r"\(K, 2\)",
    ),
}


@pytest.mark.parametrize("name", sorted(_BAD_STACKS))
def test_simulate_refuses_a_bad_stack(name):
    op, error, message = _BAD_STACKS[name]
    with pytest.raises(error, match=message):
        simulate(2, [PrepPlus(0), op])


def test_size_limit_and_env_cap(monkeypatch):
    # the cap counts the qubits held densely, not the site labels
    with pytest.raises(SizeLimit, match="^register size 0 must be at least 1$"):
        simulate(0, [])
    monkeypatch.delenv("NOISY_MBQC_MAX_QUBITS", raising=False)
    assert dm.max_qubits() == 12
    monkeypatch.setenv("NOISY_MBQC_MAX_QUBITS", "2")
    with pytest.raises(SizeLimit, match="^joining site 2 would hold 3 qubits densely, "):
        simulate(3, cluster_ops(3))
    simulate(3, [PrepPlus(0), PrepPlus(1), PrepPlus(2), Measure(0, dm.PLUS), CZ(1, 2)])
    monkeypatch.setenv("NOISY_MBQC_MAX_QUBITS", "3")
    assert simulate(3, cluster_ops(3)).shape == (8, 8)  # a raised cap admits it


def test_join_past_the_cap_raises_before_the_state_grows(monkeypatch):
    sizes = record_live_qubits(monkeypatch)
    monkeypatch.setenv("NOISY_MBQC_MAX_QUBITS", "3")
    with pytest.raises(SizeLimit, match="^joining site 3 would hold 4 qubits densely, "):
        simulate(5, cluster_ops(5))
    assert sizes == [0, 1, 2, 3]


def test_site_labels_run_past_the_cap(monkeypatch):
    # 300 sites read out one after another hold at most two live qubits
    sizes = record_live_qubits(monkeypatch)
    n = 300
    ops = [*(PrepPlus(i) for i in range(n))]
    for i in range(n - 1):
        ops += [CZ(i, i + 1), Measure(i, dm.PLUS)]
    out = simulate(n, ops)
    assert max(sizes) == 2 and out.shape == (2, 2)
    assert np.trace(out).real == pytest.approx(2.0 ** -(n - 1), rel=1e-12)
    with pytest.raises(SiteOutOfRange, match="outside register of size 300"):
        simulate(n, [PrepPlus(n)])


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


def test_block_step_ops_order():
    a1, a2, a3, a4 = (phase_flip(p) for p in (0.1, 0.2, 0.3, 0.4))
    meas = MeasSpec.equatorial(0.7, 1)
    cfg = BlockNoiseConfig(meas=meas, alpha1=a1, alpha2=a2, alpha3=a3, alpha4=a4)
    ops = block_step_ops(cfg)
    assert ops[:-1] == [
        PrepPlus(1),
        Channel1Q(0, a1),
        Channel1Q(1, a2),
        CZ(0, 1),
        Channel1Q(0, a3),
        Channel1Q(1, a4),
    ]
    bare = block_step_ops(BlockNoiseConfig(meas=meas))
    assert bare[:-1] == [PrepPlus(1), CZ(0, 1)]
    # a readout holds an array, so it is compared field by field
    for readout in (ops[-1], bare[-1]):
        assert isinstance(readout, Measure)
        assert (readout.site, readout.remove) == (0, True)
        assert readout.ket.tobytes() == dm.equatorial_ket(0.7, 1).tobytes()


def test_block_oracle_rejects_z_basis():
    with pytest.raises(ZBasisUnsupported):
        block_oracle_channel(BlockNoiseConfig(meas=MeasSpec.z(0), alpha1=bit_flip(0.1)))


# --- the axis-local kernels against the embed-and-matmul reference ------------------


def _embed(op, pos, m):
    return np.kron(np.kron(np.eye(2**pos), op), np.eye(2 ** (m - pos - 1)))


def reference_simulate(ops):
    """The embed-and-matmul oracle: each single-site op as a full 2^m x 2^m
    matrix, O(8^m) per op, and removal as a projection then a partial trace."""
    sites, state = [], np.array([[1.0 + 0j]])
    for op in ops:
        m = len(sites)
        if isinstance(op, (PrepPlus, PrepState)):
            rho = dm.projector(dm.PLUS) if isinstance(op, PrepPlus) else op.rho
            pos = bisect_left(sites, op.site)
            ket = list(range(m))
            ket.insert(pos, m)
            t = np.kron(state, rho).reshape((2,) * (2 * m + 2))
            state = t.transpose(ket + [m + 1 + i for i in ket]).reshape(2 ** (m + 1), -1)
            sites.insert(pos, op.site)
        elif isinstance(op, CZ):
            bits = (np.arange(2**m)[:, None] >> (m - 1 - np.arange(m))) & 1
            d = 1.0 - 2.0 * (bits[:, sites.index(op.a)] & bits[:, sites.index(op.b)])
            state = d[:, None] * state * d[None, :]
        else:
            pos = sites.index(op.site)
            if isinstance(op, Unitary1Q):
                kraus = [op.u]
            elif isinstance(op, Channel1Q):
                kraus = op.channel.ops
            else:
                kraus = [dm.projector(op.ket)]
            state = sum(_embed(k, pos, m) @ state @ dm.dag(_embed(k, pos, m)) for k in kraus)
            if isinstance(op, Measure):
                keep = [i for i in range(m) if i != pos]
                state = dm.partial_trace(state, keep, (2,) * m)
                del sites[pos]
    return state


def _random_unitary(rng):
    return random_channel(rng, 1).ops[0]


@st.composite
def circuits(draw):
    """A random circuit ``(n, ops)`` over at most 6 sites.

    Sites are prepared in a random order, any live pair may meet in a CZ, and
    a measurement reads one ket and removes its site.
    """
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = [int(s) for s in rng.permutation(n)]
    live: list[int] = []
    ops: list = []
    for _ in range(draw(st.integers(0, 14))):
        step = draw(st.sampled_from(["prep", "cz", "unitary", "channel", "measure"]))
        if step == "prep" or not live:
            if not order:
                continue
            site = order.pop()
            prep = draw(st.sampled_from(["plus", "density", "element"]))
            if prep == "plus":
                ops.append(PrepPlus(site))
            elif prep == "density":
                ops.append(PrepState(site, random_density(rng)))
            else:
                e = np.zeros((2, 2), dtype=complex)
                e[draw(st.integers(0, 1)), draw(st.integers(0, 1))] = 1.0
                ops.append(PrepState(site, e))
            live.append(site)
        elif step == "cz":
            if len(live) < 2:
                continue
            a, b = rng.choice(live, size=2, replace=False)
            ops.append(CZ(int(a), int(b)))
        else:
            site = int(rng.choice(live))
            if step == "unitary":
                ops.append(Unitary1Q(site, _random_unitary(rng)))
            elif step == "channel":
                ops.append(Channel1Q(site, random_channel(rng, draw(st.integers(1, 4)))))
            else:
                u = draw(st.sampled_from(["x", "z", "equatorial", "random"]))
                k = draw(st.integers(0, 1))
                if u == "random":
                    ket = _random_unitary(rng)[:, k]
                else:
                    ket = {
                        "x": MeasSpec.equatorial(0.0, k),
                        "z": MeasSpec.z(k),
                        "equatorial": MeasSpec.equatorial(float(rng.uniform(0, 6.3)), k),
                    }[u].ket
                ops.append(Measure(site, ket))
                live.remove(site)
    return n, ops


@settings(max_examples=150, deadline=None)
@given(circuits())
def test_simulate_matches_embed_reference(circuit):
    n, ops = circuit
    np.testing.assert_allclose(
        simulate(n, ops), reference_simulate(ops), rtol=0, atol=1e-12
    )


def test_eleven_site_noisy_cluster_matches_mpo(rng):
    # a random channel on every site but the boundary, all of them measured
    n = 11
    state, ops = mpo_cluster(n), oracle.cluster_ops(n)
    for site in range(n - 1):
        ch = random_channel(rng, int(rng.integers(1, 5)))
        state = mpo_apply_channel(state, site, ch)
        ops.append(Channel1Q(site, ch))
    for site in range(n - 1):
        k = int(rng.integers(0, 2))
        state = mpo_measure(state, site, (dm.PLUS, dm.MINUS)[k])
        ops.append(Measure(site, (dm.PLUS, dm.MINUS)[k]))
    np.testing.assert_allclose(simulate(n, ops), mpo_contract(state), atol=1e-9)


# --- a batch of branches in one call against one call per branch --------------------


def _stack_ops(ops) -> list[int]:
    """Indices of the ops holding a prep or readout stack, in op order."""
    return [
        i
        for i, op in enumerate(ops)
        if (isinstance(op, PrepState) and np.ndim(op.rho) == 3)
        or (isinstance(op, Measure) and np.ndim(op.ket) == 2)
    ]


def branch_loop(n, ops) -> np.ndarray:
    """One single-prep, single-ket simulate per branch, in product order over
    the stacks, stacked as (*stacks, D, D)."""
    at = _stack_ops(ops)
    rows = [ops[i].rho if isinstance(ops[i], PrepState) else ops[i].ket for i in at]
    outs = []
    for choice in product(*(range(len(r)) for r in rows)):
        branch = list(ops)
        for i, r, c in zip(at, rows, choice):
            field = "rho" if isinstance(ops[i], PrepState) else "ket"
            branch[i] = dataclasses.replace(ops[i], **{field: r[c]})
        outs.append(simulate(n, branch))
    return np.stack(outs).reshape(*(len(r) for r in rows), *outs[0].shape)


@st.composite
def stacked_circuits(draw):
    """A random circuit ``(n, ops)`` on 2-5 sites whose preps may hold (P, 2, 2)
    stacks and whose readouts, on any live site, may fork over (K, 2) stacks of
    unit kets, K = 1 too; CZ, unitary and channel ops run before and after them.
    At most 48 branches in all."""
    n = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = [int(s) for s in rng.permutation(n)]
    live: list[int] = []
    ops: list = []
    branches = 1
    for _ in range(draw(st.integers(1, 16))):
        step = draw(st.sampled_from(["prep", "cz", "unitary", "channel", "measure"]))
        size = draw(st.integers(1, 4))
        stack = draw(st.booleans()) and branches * size <= 48
        if step == "prep" or not live:
            if not order:
                continue
            site = order.pop()
            if not stack and draw(st.booleans()):
                ops.append(PrepPlus(site))
            else:
                blocks = [random_density(rng) for _ in range(size)]
                # a basis element |i><j| too, as block_oracle_channel feeds
                blocks[0] = np.eye(4, dtype=complex)[draw(st.integers(0, 3))].reshape(2, 2)
                ops.append(PrepState(site, np.stack(blocks) if stack else blocks[-1]))
                branches *= size if stack else 1
            live.append(site)
        elif step == "cz":
            if len(live) < 2:
                continue
            a, b = rng.choice(live, size=2, replace=False)
            ops.append(CZ(int(a), int(b)))
        elif step == "unitary":
            ops.append(Unitary1Q(int(rng.choice(live)), _random_unitary(rng)))
        elif step == "channel":
            ch = random_channel(rng, draw(st.integers(1, 3)))
            ops.append(Channel1Q(int(rng.choice(live)), ch))
        else:
            site = int(rng.choice(live))
            kets = [_random_unitary(rng)[:, int(rng.integers(0, 2))] for _ in range(size)]
            kets[0] = MeasSpec.equatorial(float(rng.uniform(0, 6.3)), 1).ket
            ops.append(Measure(site, np.stack(kets) if stack else kets[-1]))
            branches *= size if stack else 1
            live.remove(site)
    return n, ops


@settings(max_examples=150, deadline=None)
@given(stacked_circuits())
def test_a_batched_simulate_is_the_branch_loop_bit_for_bit(circuit):
    n, ops = circuit
    got, want = simulate(n, ops), branch_loop(n, ops)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# --- a prep joins the state when an op first touches its site ------------------------


def test_a_site_ordered_cluster_holds_only_its_live_sites():
    # the mpo runner's circuit: every prep first, then per site its CZ to the
    # right, a channel and its readout; joined at once, 12 sites need 268 MB
    n = 12
    ops: list = [PrepPlus(j) for j in range(n)]
    for j in range(n):
        ops += [CZ(j, j + 1)] if j < n - 1 else []
        ops += [Channel1Q(j, bit_flip(0.1)), Measure(j, dm.PLUS)]
    tracemalloc.start()
    try:
        out = simulate(n, ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (1, 1)
    assert peak < 2**20


def _joined_at_prep(ops) -> list:
    """``ops`` with an identity unitary right after each prep, which joins the
    prepared site to the state at once."""
    out: list = []
    for op in ops:
        out.append(op)
        if isinstance(op, (PrepPlus, PrepState)):
            out.append(Unitary1Q(op.site, dm.I2))
    return out


@settings(max_examples=150, deadline=None)
@given(stacked_circuits())
def test_a_pending_prep_gives_what_a_prep_joined_at_once_gives(circuit):
    n, ops = circuit
    got, want = simulate(n, ops), simulate(n, _joined_at_prep(ops))
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_a_stacked_prep_pending_across_a_fork_keeps_its_axis_first(rng):
    # site 1's three preps join only at the end, after site 0 forked in two
    rhos = np.stack([random_density(rng) for _ in range(3)])
    kets = np.stack([dm.KET0, dm.PLUS])  # outcome weights 1/2 and 1 on |+>
    ops = [PrepPlus(0), PrepState(1, rhos), Measure(0, kets)]
    got = simulate(2, ops)
    assert got.shape == (3, 2, 2, 2)
    np.testing.assert_allclose(got, np.stack([rhos / 2, rhos], axis=1), atol=1e-15)
    assert got.tobytes() == branch_loop(2, ops).tobytes()
