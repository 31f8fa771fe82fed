import numpy as np
import pytest

from noisy_mbqc import densemath as dm
from noisy_mbqc import oracle
from noisy_mbqc.block import compose_block_noise
from noisy_mbqc.channels import apply, choi
from noisy_mbqc.cli import CaseResult, Report


def random_density(rng, dim=2):
    """Full-rank random density matrix via a Gaussian Gram matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)


def signed_zero_complex(rng, shape):
    """Random complex entries, about a third of whose real and imaginary parts
    are exactly +0.0 or -0.0 (set part by part, so each zero keeps its sign)."""
    parts = rng.normal(size=(2, *shape))
    zeros = rng.random(parts.shape) < 1.0 / 3.0
    parts[zeros] = np.copysign(0.0, rng.normal(size=int(zeros.sum())))
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = parts
    return out


# --- named references: independent forms the library is checked against ----


def run_block_sequence(rho, blocks) -> np.ndarray:
    """The chain fold; the output trace is the outcome string's probability."""
    out = np.asarray(rho, dtype=complex)
    for cfg in blocks:
        out = apply(compose_block_noise(cfg), out)
    return out


def choi_distance(a, b) -> float:
    """Max-entry Choi distance: channel equality, as Kraus sets are not unique."""
    return dm.max_abs_diff(choi(a), choi(b))


def build_cluster_dm(n: int) -> np.ndarray:
    """Pure linear-cluster density matrix from the basis-index bits, not a
    circuit: |+>^n with a sign (-1) per neighbouring pair of ones."""
    idx = np.arange(2**n)
    pairs = np.array([bin(b).count("1") for b in idx & (idx >> 1)])
    vec = (-1.0) ** pairs * 2 ** (-n / 2.0)
    return np.outer(vec, vec).astype(complex)


def whole_register_ops(builder: str, n: int, events: list, readouts: list) -> list:
    """The ``mpo`` runner's oracle circuit in whole-register order: every prep,
    then every CZ, the events (oracle ops) in document order, then the
    readouts (``oracle.Measure`` ops) in document order."""
    if builder == "cluster":
        ops = oracle.cluster_ops(n)
    elif builder == "maximally_mixed":
        ops = [oracle.PrepState(i, dm.I2 / 2) for i in range(n)]
    else:  # one_clean: the clean qubit, then n maximally mixed ones
        ops = [oracle.PrepState(0, dm.projector(dm.KET0))]
        ops += [oracle.PrepState(i + 1, dm.I2 / 2) for i in range(n)]
    return [*ops, *events, *readouts]


def record_live_qubits(monkeypatch) -> list[int]:
    """Wrap ``oracle._Register.prep``, where every site joins the dense state,
    to record the live qubit count after each join; the list starts at 0."""
    sizes = [0]
    prep = oracle._Register.prep

    def recorded(reg, site, blocks):
        prep(reg, site, blocks)
        sizes.append(reg.m)

    monkeypatch.setattr(oracle._Register, "prep", recorded)
    return sizes


def report_from_dict(doc: dict) -> Report:
    """Read back a JSON report of format 2 (``cli.report_to_dict``); a passing
    case has no ``oracle`` key and reads back with ``oracle=None``."""
    assert doc["format"] == 2, doc["format"]
    meta, mat = doc["meta"], dm.mat_from_json
    scalars = ("max_entry_diff", "trace_distance", "branch_prob")
    cases = [
        CaseResult(
            c["case"],
            mat(c["closed_form"]),
            mat(c["oracle"]) if "oracle" in c else None,
            *(c[k] for k in scalars),
        )
        for c in doc["cases"]
    ]
    return Report(cases, doc["tolerance"], meta["seed"], meta["spec_sha256"], meta["timestamp"])
