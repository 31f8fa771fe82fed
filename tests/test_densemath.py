import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from conftest import random_complex, random_density, signed_zero_complex

from noisy_mbqc import densemath as dm
from noisy_mbqc.block import MeasSpec, map_measurement_noise
from noisy_mbqc.channels import (
    PAULI_DAGGERS,
    KrausChannel,
    apply,
    basis_element,
    bit_flip,
    check_unitary,
    identity_channel,
    mixed_unitary,
    pauli_decompose,
    unitary_channel,
    validate,
)
from noisy_mbqc.errors import DimensionMismatch
from noisy_mbqc.mpo import (
    MpoState,
    mpo_apply_pauli,
    mpo_apply_unitary,
    mpo_cluster,
    mpo_measure,
    mpo_to_dict,
)
from noisy_mbqc.oracle import Measure, PrepPlus, PrepState, Unitary1Q, simulate
from noisy_mbqc.teleport import (
    BELL_PROJECTORS,
    bell_ket,
    diagonal_resource,
    pauli_corrected_target,
    teleport_branch,
)


def test_partial_trace_bell():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    reduced = dm.partial_trace(dm.projector(bell), keep=[0], dims=(2, 2))
    np.testing.assert_allclose(reduced, dm.I2 / 2, atol=1e-12)


def test_partial_trace_product(rng):
    for _ in range(10):
        a = random_density(rng)
        b = 0.7 * random_density(rng)  # subnormalised second factor
        got = dm.partial_trace(np.kron(a, b), keep=[0], dims=(2, 2))
        np.testing.assert_allclose(got, a * np.trace(b), atol=1e-12)


def test_partial_trace_cz_dephases_input():
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]], dtype=complex)
    cz = np.diag([1, 1, 1, -1])
    joint = cz @ np.kron(rho, dm.projector(dm.PLUS)) @ cz
    got = dm.partial_trace(joint, keep=[0], dims=(2, 2))
    np.testing.assert_allclose(got, np.diag([0.7, 0.3]), atol=1e-12)


@pytest.mark.parametrize("keep", [[2, 0], [1]])
def test_partial_trace_mixed_dims_matches_a_loop(rng, keep):
    dims = (2, 3, 2)
    rho = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    full = rho.reshape(dims + dims)
    kept = sorted(keep)  # the kept subsystems come out in ascending order
    traced = [i for i in range(3) if i not in kept]
    kept_dims = [dims[i] for i in kept]
    want = np.zeros((int(np.prod(kept_dims)),) * 2, dtype=complex)
    for a, r in enumerate(np.ndindex(*kept_dims)):
        for b, c in enumerate(np.ndindex(*kept_dims)):
            for s in np.ndindex(*(dims[i] for i in traced)):
                row, col = [0] * 3, [0] * 3
                for i, x, y in zip(kept, r, c):
                    row[i], col[i] = x, y
                for i, x in zip(traced, s):
                    row[i] = col[i] = x
                want[a, b] += full[(*row, *col)]
    got = dm.partial_trace(rho, keep=keep, dims=dims)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(1,), (5,), (2, 3)])
@pytest.mark.parametrize("dims, keep", [((2, 3, 2), [2, 0]), ((3, 2), [1]), ((2, 2, 2), [])])
def test_partial_trace_on_a_stack_equals_one_call_per_matrix_bit_for_bit(rng, shape, dims, keep):
    d = int(np.prod(dims))
    rhos = signed_zero_complex(rng, (*shape, d, d))
    got = dm.partial_trace(rhos, keep, dims)
    d_keep = int(np.prod([dims[i] for i in keep]))
    assert got.shape == (*shape, d_keep, d_keep)
    for i in np.ndindex(shape):
        assert dm.partial_trace(rhos[i], keep, dims).tobytes() == got[i].tobytes()


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dm.partial_trace(np.eye(4), keep=[0], dims=(2, 3))


def test_stacked_names_what_it_wants_and_what_it_got():
    ops = np.zeros((3, 2, 2), dtype=complex)
    assert dm.stacked(ops, (None, 2, 2), "ops") is ops  # a complex array is not copied
    assert dm.stacked([[1, 0], [0, 1]], (2, 2), "u").dtype == complex
    wants = r"^ops must be a non-empty \(\*, 2, 2\) array, got "
    with pytest.raises(DimensionMismatch, match=wants + r"shape \(3, 2\)$"):
        dm.stacked(np.zeros((3, 2)), (None, 2, 2), "ops")
    with pytest.raises(DimensionMismatch, match=wants + r"shape \(0, 2, 2\)$"):
        dm.stacked(np.zeros((0, 2, 2)), (None, 2, 2), "ops")
    with pytest.raises(DimensionMismatch, match=wants + "ragged or non-numeric entries$"):
        dm.stacked([dm.I2, np.eye(3)], (None, 2, 2), "ops")
    with pytest.raises(DimensionMismatch, match=r"got shape \(\)$"):
        dm.stacked(1.0, (None,), "v")  # a leading None axis is still an axis


@pytest.mark.parametrize(
    "call",
    [
        lambda: dm.unit_ket(["1", "0"]),  # it read as the ket |0>
        lambda: check_unitary([["1", "0"], ["0", "1j"]]),  # it read as S
        lambda: dm.unit_ket([b"1", b"0"]),
        lambda: dm.unit_ket(np.array([1, 0], dtype=object)),
    ],
    ids=["numeric_strings", "numeric_string_unitary", "bytes", "object_array"],
)
def test_stacked_refuses_strings_and_objects_that_numpy_would_parse(call):
    with pytest.raises(DimensionMismatch, match="ragged or non-numeric entries$"):
        call()


def test_projector_and_is_psd_refuse_a_misshapen_argument():
    with pytest.raises(DimensionMismatch, match="^projector vector "):
        dm.projector(np.eye(2))  # it used to flatten into a 4x4 "projector"
    with pytest.raises(DimensionMismatch, match="^positivity check matrix "):
        dm.is_psd([1, 2])  # it used to raise IndexError
    with pytest.raises(DimensionMismatch, match="square"):
        dm.is_psd(np.ones((2, 3)))


_BOUNDARY_ROW = [[[dm.KET0]], [[dm.KET1]]]

# each public call that takes an array: (the call, the shape it takes, the
# name its refusal starts with); validate, unitary_channel, mixed_unitary and
# mpo_apply_unitary reach dm.stacked through KrausChannel and check_unitary
_ARRAY_ARGUMENTS = {
    "KrausChannel": (KrausChannel, (None, 2, 2), "Kraus operators"),
    "validate": (validate, (None, 2, 2), "Kraus operators"),
    "apply": (lambda a: apply(identity_channel(), a), (2, 2), "state rho"),
    "apply_stack": (lambda a: apply(identity_channel(), a), (None, 2, 2), "state rho"),
    "trace_distance": (
        lambda a: dm.trace_distance(a, np.zeros((1, 2, 2))),
        (None, 2, 2),
        "compared arrays",
    ),
    "max_abs_diff": (
        lambda a: dm.max_abs_diff(np.zeros((1, 2, 2)), a),
        (None, 2, 2),
        "compared arrays",
    ),
    "pauli_decompose": (pauli_decompose, (2, 2), "operator k"),
    "check_unitary": (check_unitary, (2, 2), "unitary"),
    "unitary_channel": (unitary_channel, (2, 2), "unitary"),
    "mixed_unitary": (lambda a: mixed_unitary([(1.0, a)]), (2, 2), "unitary"),
    "mpo_apply_unitary": (lambda a: mpo_apply_unitary(mpo_cluster(2), 0, a), (2, 2), "unitary"),
    "unit_ket": (dm.unit_ket, (2,), "measurement ket"),
    "mpo_measure": (lambda a: mpo_measure(mpo_cluster(2), 0, a), (2,), "measurement ket"),
    "projector": (dm.projector, (None,), "projector vector"),
    "partial_trace": (
        lambda a: dm.partial_trace(a, [0], (2, 2)),
        (None, 4, 4),
        "operator on subsystem dims (2, 2)",
    ),
    "is_psd": (dm.is_psd, (None, None), "positivity check matrix"),
    "PrepState": (lambda a: simulate(1, [PrepState(0, a)]), (None, 2, 2), "prepared state"),
    "Measure": (lambda a: simulate(1, [PrepPlus(0), Measure(0, a)]), (None, 2), "readout"),
    "Unitary1Q": (
        lambda a: simulate(1, [PrepPlus(0), Unitary1Q(0, a)]),
        (2, 2),
        "single-site unitary",
    ),
    "teleport_resource": (lambda a: teleport_branch(a, dm.I2 / 2, 0, 0), (4, 4), "resource"),
    "teleport_rho": (
        lambda a: teleport_branch(np.eye(4) / 4, a, 0, 0),
        (None, 2, 2),
        "input rho",
    ),
    "MpoState_seed": (lambda a: MpoState(sites=mpo_cluster(2).sites, seed=a), (2, 2), "seed"),
    "MpoState_site": (
        lambda a: MpoState(sites=(a, _BOUNDARY_ROW), seed=dm.I2),
        (None, None, 2, 2),
        "site 0",
    ),
}


def _bad_arguments(shape: tuple) -> dict:
    """A ragged list, a list of non-numbers and a misshapen array for a call
    taking ``shape``; and an empty stack when ``shape`` has a free axis."""
    full = tuple(1 if d is None else d for d in shape)
    bad = {
        "ragged": [np.zeros(full[1:]).tolist(), [0, 0, 0]],
        "not_a_number": np.full(full, {}, dtype=object).tolist(),
        "misshapen": np.zeros((3, 3, 3)),
    }
    if None in shape:
        bad["empty_stack"] = np.zeros((0, *full[1:]))
    return bad


_BAD_CALLS = [
    (name, kind)
    for name, (_, shape, _) in _ARRAY_ARGUMENTS.items()
    for kind in _bad_arguments(shape)
]


@pytest.mark.parametrize("name, kind", _BAD_CALLS, ids=lambda v: v)
def test_every_array_argument_is_refused_as_a_dimension_mismatch(name, kind):
    # numpy's own ValueError, TypeError or IndexError used to escape some calls
    call, shape, what = _ARRAY_ARGUMENTS[name]
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(what)}"):
        call(_bad_arguments(shape)[kind])


def test_trace_distance_values():
    rho = dm.projector(dm.KET0)
    assert dm.trace_distance(rho, rho) == 0.0
    assert dm.trace_distance(rho, dm.projector(dm.KET1)) == pytest.approx(1.0)
    assert dm.trace_distance(rho, dm.I2 / 2) == pytest.approx(0.5)


def test_trace_distance_triangle(rng):
    for _ in range(30):
        a, b, c = (random_density(rng) for _ in range(3))
        assert dm.trace_distance(a, c) <= (
            dm.trace_distance(a, b) + dm.trace_distance(b, c) + 1e-12
        )


def test_trace_distance_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        dm.trace_distance(np.eye(2), np.eye(4))


@pytest.mark.parametrize("d", [0, 1, 2, 3, 16])
@pytest.mark.parametrize("lead", [(0,), (5,), (2, 3)], ids=str)
def test_stacked_distances_equal_the_per_matrix_calls_bit_for_bit(rng, d, lead):
    # two stacks close enough that the singular values and entry differences
    # are small, with signed zeros in both
    a = signed_zero_complex(rng, (*lead, d, d))
    b = a + 1e-9 * signed_zero_complex(rng, (*lead, d, d))
    for distance in (dm.trace_distance, dm.max_abs_diff):
        got = distance(a, b)
        assert got.shape == lead
        for index in np.ndindex(*lead):
            one = distance(a[index], b[index])
            assert type(one) is float
            assert np.float64(one).tobytes() == got[index].tobytes()


def test_is_psd():
    assert dm.is_psd(dm.I2)
    assert not dm.is_psd(dm.Z)
    assert dm.is_psd(dm.projector(dm.PLUS))
    assert not dm.is_psd(dm.X + 1j * dm.I2)  # not Hermitian


def test_equatorial_kets_orthonormal():
    for phi in (0.0, 0.3, 2.7):
        v0 = dm.equatorial_ket(phi, 0)
        v1 = dm.equatorial_ket(phi, 1)
        assert abs(np.vdot(v0, v0) - 1) < 1e-12
        assert abs(np.vdot(v0, v1)) < 1e-12
    np.testing.assert_allclose(dm.equatorial_ket(0.0, 0), dm.PLUS)


def test_shared_constants_are_read_only():
    for name in ("I2", "X", "Y", "Z", "H", "KET0", "KET1", "PLUS", "MINUS"):
        assert not getattr(dm, name).flags.writeable, name
    for table in (BELL_PROJECTORS, PAULI_DAGGERS):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0
    with pytest.raises(ValueError):
        MeasSpec.z(0).ket[0] = 0
    np.testing.assert_array_equal(dm.KET0, [1, 0])


def test_mat_json_roundtrip(rng):
    m = random_complex(rng, (3, 3))
    np.testing.assert_allclose(dm.mat_from_json(dm.mat_to_json(m)), m)


def _pairs(m):
    """The per-entry loop: [float(re), float(im)] for each entry of a vector."""
    return [[float(x.real), float(x.imag)] for x in m]


# the per-entry loops that encoded a vector (a boundary row), a matrix and an
# MPO site family before mat_to_json took any rank
_LOOPS = {
    1: _pairs,
    2: lambda m: [_pairs(row) for row in m],
    4: lambda a: [[[_pairs(row) for row in m] for m in fam] for fam in a],
}


@pytest.mark.parametrize(
    "shape", [(0,), (1,), (5,), (0, 3), (3, 0), (3, 4), (2, 3, 2, 2), (1, 2, 1, 3)]
)
def test_mat_to_json_matches_the_per_entry_loop_bit_for_bit(rng, shape):
    m = signed_zero_complex(rng, shape)
    special = np.array([np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1e-310])
    flat, n = m.reshape(-1), min(m.size, len(special))  # flat is a view of m
    flat.real[:n], flat.imag[m.size - n :] = special[:n], special[::-1][:n]
    got, want = dm.mat_to_json(m), _LOOPS[len(shape)](m)
    assert json.dumps(got) == json.dumps(want)
    got_bits = np.array(got, dtype=float).view(np.int64)
    assert np.array_equal(got_bits, np.array(want, dtype=float).view(np.int64))
    assert all(type(x) is float for x in np.ravel(np.array(got, dtype=object)))


# finite and infinite parts, with both signed zeros drawn often
_PARTS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False))
_ARRAYS = hnp.arrays(
    complex,
    hnp.array_shapes(min_dims=1, max_dims=5, min_side=1, max_side=3),
    elements=st.builds(complex, _PARTS, _PARTS),
)


def _lists(node):
    """Every list of ``node`` whose items are lists, root first."""
    if isinstance(node, list) and isinstance(node[0], list):
        yield node
        for child in node:
            yield from _lists(child)


@settings(max_examples=200, deadline=None)
@given(a=_ARRAYS)
def test_mat_from_json_inverts_mat_to_json_at_every_rank(a):
    back = dm.mat_from_json(json.loads(json.dumps(dm.mat_to_json(a))))
    assert back.dtype == complex and back.shape == a.shape
    assert back.tobytes() == a.tobytes()  # the sign of every zero included


@settings(max_examples=200, deadline=None)
@given(a=_ARRAYS, data=st.data())
def test_mat_from_json_refuses_a_boolean_at_any_depth(a, data):
    doc = dm.mat_to_json(a)
    rows = [n for n in _lists(doc) if not isinstance(n[0][0], list)]  # lists of pairs
    pair = data.draw(st.sampled_from(data.draw(st.sampled_from(rows))))
    pair[data.draw(st.integers(0, 1))] = data.draw(st.booleans())
    with pytest.raises(TypeError, match=r"^matrix entries must be numbers, got a boolean$"):
        dm.mat_from_json(doc)


@settings(max_examples=200, deadline=None)
@given(a=_ARRAYS, data=st.data())
def test_mat_from_json_refuses_a_ragged_list_at_any_depth(a, data):
    doc = dm.mat_to_json(a)
    node = data.draw(st.sampled_from(list(_lists(doc))))
    node.append(node[0][:-1])  # one item shorter than its first sibling
    with pytest.raises(ValueError, match=r"^expected a matrix of \[re, im\] pairs$"):
        dm.mat_from_json(doc)


@pytest.mark.parametrize(
    "obj",
    ["x", None, [1.0, 0.0], [["1", 0.0]], [[None, 0.0]], [{}], []],
    ids=["string", "none", "lone_pair", "string_entry", "null_entry", "object", "empty"],
)
def test_mat_from_json_refuses_what_is_not_an_array_of_pairs(obj):
    with pytest.raises(ValueError, match=r"^expected a matrix of \[re, im\] pairs$"):
        dm.mat_from_json(obj)


def test_mat_from_json_refuses_an_integer_too_large_for_a_float():
    with pytest.raises(TypeError, match=r"^matrix entries must be finite$"):
        dm.mat_from_json([[10**400, 0]])


_NOISE = bit_flip(0.1)
_RESOURCE = diagonal_resource(_NOISE)
_RHO = dm.projector(dm.PLUS)
# every public call that takes an outcome or a Pauli label bit, by the slot
# the bit goes into; each used to read an out-of-range bit as some other one
_BIT_CALLS = {
    "equatorial_ket": lambda k: dm.equatorial_ket(0.3, k),
    "MeasSpec.z": MeasSpec.z,
    "MeasSpec.equatorial": lambda k: MeasSpec.equatorial(0.3, k),
    "map_measurement_noise": lambda k: map_measurement_noise(_NOISE, 0.3, k),
    "basis_element.g": lambda k: basis_element(k, 1),
    "basis_element.h": lambda k: basis_element(1, k),
    "bell_ket.i": lambda k: bell_ket(k, 0),
    "bell_ket.j": lambda k: bell_ket(0, k),
    "teleport_branch.s": lambda k: teleport_branch(_RESOURCE, _RHO, k, 0),
    "teleport_branch.t": lambda k: teleport_branch(_RESOURCE, _RHO, 0, k),
    "pauli_corrected_target.s": lambda k: pauli_corrected_target(_NOISE, _RHO, k, 0),
    "pauli_corrected_target.t": lambda k: pauli_corrected_target(_NOISE, _RHO, 0, k),
    "mpo_apply_pauli.a": lambda k: mpo_apply_pauli(mpo_cluster(2), 0, (k, 0)),
    "mpo_apply_pauli.b": lambda k: mpo_apply_pauli(mpo_cluster(2), 0, (0, k)),
}


@pytest.mark.parametrize("bit", [2, -1, True, 0.5], ids=repr)
@pytest.mark.parametrize("call", list(_BIT_CALLS))
def test_a_bit_not_the_integer_0_or_1_raises(call, bit):
    with pytest.raises(ValueError, match=r"^outcome must be the integer 0 or 1, got "):
        _BIT_CALLS[call](bit)


@pytest.mark.parametrize("bit", [0, 1])
@pytest.mark.parametrize("call", list(_BIT_CALLS))
def test_a_numpy_integer_bit_gives_the_int_answer(call, bit):
    want, got = _BIT_CALLS[call](bit), _BIT_CALLS[call](np.int64(bit))
    if isinstance(want, MeasSpec):
        assert got == want and got.ket.tobytes() == want.ket.tobytes()
    elif isinstance(want, KrausChannel):
        assert got.ops.tobytes() == want.ops.tobytes()
    elif isinstance(want, MpoState):
        assert json.dumps(mpo_to_dict(got)) == json.dumps(mpo_to_dict(want))
    else:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        dm.rz,
        lambda phi: dm.equatorial_ket(phi, 0),
        lambda phi: map_measurement_noise(_NOISE, phi, 1),
    ],
    ids=["rz", "equatorial_ket", "map_measurement_noise"],
)
def test_a_non_finite_angle_raises(call, phi):
    with pytest.raises(ValueError, match=r"^phi must be finite$"):
        call(phi)
