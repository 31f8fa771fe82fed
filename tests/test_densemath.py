import json

import numpy as np
import pytest
from conftest import random_complex, random_density, signed_zero_complex

from noisy_mbqc import densemath as dm
from noisy_mbqc.errors import DimensionMismatch


def test_kron_identity():
    np.testing.assert_allclose(dm.kron(dm.I2, dm.I2), np.eye(4))


def test_kron_x_z_frozen():
    # direct index expansion of X (x) Z
    want = np.array(
        [
            [0, 0, 1, 0],
            [0, 0, 0, -1],
            [1, 0, 0, 0],
            [0, -1, 0, 0],
        ],
        dtype=complex,
    )
    np.testing.assert_allclose(dm.kron(dm.X, dm.Z), want)


def test_kron_projector_block():
    got = dm.kron(dm.projector(dm.KET0), dm.H)
    want = np.zeros((4, 4), dtype=complex)
    want[:2, :2] = dm.H
    np.testing.assert_allclose(got, want)


def test_kron_mixed_product(rng):
    for _ in range(20):
        a, b, c, d = (random_complex(rng, (2, 2)) for _ in range(4))
        np.testing.assert_allclose(
            dm.kron(a, b) @ dm.kron(c, d), dm.kron(a @ c, b @ d), atol=1e-12
        )


def test_kron_associative_and_bilinear(rng):
    a, b, c = (random_complex(rng, (2, 2)) for _ in range(3))
    np.testing.assert_allclose(
        dm.kron(dm.kron(a, b), c), dm.kron(a, dm.kron(b, c)), atol=1e-12
    )
    x, y = random_complex(rng, (2, 2)), random_complex(rng, (2, 2))
    np.testing.assert_allclose(
        dm.kron(a, 2.0 * x + y), 2.0 * dm.kron(a, x) + dm.kron(a, y), atol=1e-12
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
        got = dm.partial_trace(dm.kron(a, b), keep=[0], dims=(2, 2))
        np.testing.assert_allclose(got, a * np.trace(b), atol=1e-12)


def test_partial_trace_cz_dephases_input():
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]], dtype=complex)
    joint = dm.CZ @ dm.kron(rho, dm.projector(dm.PLUS)) @ dm.CZ
    got = dm.partial_trace(joint, keep=[0], dims=(2, 2))
    np.testing.assert_allclose(got, np.diag([0.7, 0.3]), atol=1e-12)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dm.partial_trace(np.eye(4), keep=[0], dims=(2, 3))


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


def test_is_psd():
    assert dm.is_psd(dm.I2)
    assert not dm.is_psd(dm.Z)
    assert dm.is_psd(dm.projector(dm.PLUS))
    assert not dm.is_psd(dm.X + 1j * dm.I2)  # not Hermitian


def test_is_density_operator():
    assert dm.is_density_operator(dm.I2 / 2, normalized=True)
    assert dm.is_density_operator(0.25 * dm.projector(dm.PLUS))
    assert not dm.is_density_operator(1.5 * dm.I2)
    assert not dm.is_density_operator(dm.X)


def test_equatorial_kets_orthonormal():
    for phi in (0.0, 0.3, 2.7):
        v0 = dm.equatorial_ket(phi, 0)
        v1 = dm.equatorial_ket(phi, 1)
        assert abs(np.vdot(v0, v0) - 1) < 1e-12
        assert abs(np.vdot(v0, v1)) < 1e-12
    np.testing.assert_allclose(dm.equatorial_ket(0.0, 0), dm.PLUS)


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
