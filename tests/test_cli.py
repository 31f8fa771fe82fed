import json

import numpy as np
import pytest

from noisy_mbqc import densemath as dm
from noisy_mbqc.cli import (
    emit_report,
    main,
    parse_experiment,
    report_from_dict,
    report_to_dict,
    run_experiment,
)
from noisy_mbqc.errors import NotAChannel, ParseError, UnknownChannelRef
from noisy_mbqc.mpo import mpo_from_dict


MINIMAL_BLOCK = {
    "kind": "block_chain",
    "chain": [{"phi": 0.0, "k": "both"}],
}


def spec_text(doc) -> str:
    return json.dumps(doc)


def test_parse_minimal_block_chain():
    spec = parse_experiment(spec_text(MINIMAL_BLOCK))
    assert spec.kind == "block_chain"
    assert spec.tolerance == 1e-9 and spec.seed == 0
    assert spec.spec_hash


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError):
        parse_experiment("{not json")


def test_parse_rejects_unknown_kind():
    with pytest.raises(ParseError):
        parse_experiment(spec_text({"kind": "nonsense"}))


def test_parse_unknown_channel_ref_names_path():
    doc = {
        "kind": "block_chain",
        "chain": [{"phi": 0.1, "k": 0, "alpha2": "alpha_bad"}],
    }
    with pytest.raises(UnknownChannelRef, match=r"chain\[0\].alpha2"):
        parse_experiment(spec_text(doc))


def test_parse_rejects_non_channel():
    doc = {
        "kind": "block_chain",
        "channels": {"bad": {"dim": 2, "ops": [dm.mat_to_json(2.0 * dm.I2)]}},
        "chain": [{"phi": 0.0, "k": 0, "alpha1": "bad"}],
    }
    with pytest.raises(NotAChannel, match="channels.bad"):
        parse_experiment(spec_text(doc))


def test_parse_rejects_empty_chain():
    with pytest.raises(ParseError):
        parse_experiment(spec_text({"kind": "block_chain", "chain": []}))


def test_parse_rejects_forward_adaptive_reference():
    doc = {
        "kind": "block_chain",
        "chain": [{"phi": {"magnitude": 0.5, "flip_on": [1]}, "k": 0}],
    }
    with pytest.raises(ParseError):
        parse_experiment(spec_text(doc))


def test_noiseless_block_both_outcomes():
    report = run_experiment(parse_experiment(spec_text(MINIMAL_BLOCK)))
    assert len(report.cases) == 2
    assert report.passed
    assert report.max_entry_diff <= 1e-12
    probs = sorted(c.branch_prob for c in report.cases)
    assert probs == pytest.approx([0.5, 0.5], abs=1e-10)


def test_teleport_experiment_dephasing():
    doc = {
        "kind": "teleport",
        "channels": {"noise": {"builtin": "phase_flip", "p": 0.5}},
        "resource_noise": "noise",
        "inputs": ["plus", "zero"],
    }
    report = run_experiment(parse_experiment(spec_text(doc)))
    assert len(report.cases) == 8  # 2 inputs x 4 Bell outcomes
    assert report.passed
    assert all(c.branch_prob == pytest.approx(0.25, abs=1e-10) for c in report.cases)


def test_teleport_random_inputs_deterministic():
    doc = {
        "kind": "teleport",
        "seed": 11,
        "channels": {"noise": {"builtin": "depolarizing"}},
        "resource_noise": "noise",
        "inputs": {"random": 3},
    }
    a = run_experiment(parse_experiment(spec_text(doc)))
    b = run_experiment(parse_experiment(spec_text(doc)))
    assert a.passed and len(a.cases) == 12
    for ca, cb in zip(a.cases, b.cases):
        np.testing.assert_array_equal(ca.closed_form, cb.closed_form)


def test_noisy_chain_with_adaptive_angle():
    doc = {
        "kind": "block_chain",
        "channels": {"pf": {"builtin": "phase_flip", "p": 0.3}},
        "input": "plus",
        "chain": [
            {"phi": 0.7, "k": "both", "alpha2": "pf"},
            {"phi": {"magnitude": 0.7, "flip_on": [0]}, "k": "both", "alpha3": "pf"},
        ],
    }
    report = run_experiment(parse_experiment(spec_text(doc)))
    assert len(report.cases) == 4
    assert report.passed
    total = sum(c.branch_prob for c in report.cases)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_chain_with_z_basis_step():
    doc = {
        "kind": "block_chain",
        "input": "plus",
        "chain": [{"z": True, "k": 0}, {"phi": 0.2, "k": 0}],
    }
    report = run_experiment(parse_experiment(spec_text(doc)))
    assert report.passed and len(report.cases) == 1


def test_random_suite_passes():
    doc = {
        "kind": "block_chain",
        "seed": 5,
        "random_suite": {"cases": 5, "kraus": 2},
    }
    report = run_experiment(parse_experiment(spec_text(doc)))
    assert len(report.cases) == 10  # both outcomes per configuration
    assert report.passed
    assert report.max_entry_diff <= 1e-12


def test_mpo_experiment_bit_flip_then_sweep(tmp_path):
    save = tmp_path / "resource.json"
    doc = {
        "kind": "mpo",
        "channels": {"bf": {"builtin": "bit_flip", "p": 0.5}},
        "builder": {"name": "cluster", "n": 5},
        "site_ops": [{"site": 3, "channel": "bf"}],
        "measurements": [
            {"site": s, "basis": "x", "outcome": "both"} for s in range(4)
        ],
        "save_mpo": str(save),
    }
    report = run_experiment(parse_experiment(spec_text(doc)))
    assert len(report.cases) == 16
    assert report.passed and report.max_entry_diff <= 1e-10
    total = sum(c.branch_prob for c in report.cases)
    assert total == pytest.approx(1.0, abs=1e-9)
    stored = mpo_from_dict(json.loads(save.read_text()))
    assert stored.n_sites == 5


def test_mpo_builders_run():
    for name, n, cases in (("maximally_mixed", 3, 1), ("one_clean", 2, 2)):
        doc = {
            "kind": "mpo",
            "builder": {"name": name, "n": n},
            "measurements": (
                [{"site": 1, "basis": "z", "outcome": "both"}] if cases == 2 else []
            ),
        }
        report = run_experiment(parse_experiment(spec_text(doc)))
        assert report.passed and len(report.cases) == cases


def test_case_filter():
    report = run_experiment(
        parse_experiment(spec_text(MINIMAL_BLOCK)), case_filter="k=0"
    )
    assert [c.case_id for c in report.cases] == ["k=0"]


def test_report_json_roundtrip(tmp_path):
    report = run_experiment(parse_experiment(spec_text(MINIMAL_BLOCK)))
    path = tmp_path / "report.json"
    emit_report(report, "json", str(path))
    back = report_from_dict(json.loads(path.read_text()))
    assert back.spec_hash == report.spec_hash
    assert [c.case_id for c in back.cases] == [c.case_id for c in report.cases]
    for ca, cb in zip(report.cases, back.cases):
        np.testing.assert_allclose(ca.closed_form, cb.closed_form)
        assert ca.max_entry_diff == cb.max_entry_diff


def test_report_determinism_modulo_timestamp():
    text = spec_text({**MINIMAL_BLOCK, "seed": 3})
    docs = []
    for _ in range(2):
        report = run_experiment(parse_experiment(text))
        doc = report_to_dict(report)
        doc["meta"]["timestamp"] = "fixed"
        docs.append(json.dumps(doc, sort_keys=False))
    assert docs[0] == docs[1]


def test_emit_csv(tmp_path):
    report = run_experiment(parse_experiment(spec_text(MINIMAL_BLOCK)))
    path = tmp_path / "report.csv"
    emit_report(report, "csv", str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "case,branch_prob,max_entry_diff,trace_distance,pass"
    assert len(lines) == 3
    probs = [float(line.split(",")[1]) for line in lines[1:]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-10)


def test_emit_csv_empty_report(tmp_path):
    report = run_experiment(
        parse_experiment(spec_text(MINIMAL_BLOCK)), case_filter="nomatch"
    )
    path = tmp_path / "empty.csv"
    emit_report(report, "csv", str(path))
    assert path.read_text().strip() == "case,branch_prob,max_entry_diff,trace_distance,pass"


def test_main_pass_and_report(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec_text(MINIMAL_BLOCK))
    out_path = tmp_path / "report.json"
    code = main(["run", str(spec_path), "--out", str(out_path)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    assert out_path.exists()


def test_main_tolerance_failure(tmp_path, capsys):
    doc = {
        "kind": "block_chain",
        "seed": 1,
        "random_suite": {"cases": 2},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec_text(doc))
    code = main(["run", str(spec_path), "--tol", "1e-30"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_main_spec_error_exit_code(tmp_path, capsys):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text("{broken")
    assert main(["run", str(spec_path)]) == 2
    assert main(["run", str(tmp_path / "missing.json")]) == 2


def test_main_z_basis_noise_is_spec_error(tmp_path):
    doc = {
        "kind": "block_chain",
        "channels": {"pf": {"builtin": "phase_flip", "p": 0.2}},
        "chain": [{"z": True, "k": 0, "alpha1": "pf"}],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec_text(doc))
    assert main(["run", str(spec_path)]) == 2


def test_main_respects_register_cap(tmp_path, monkeypatch):
    doc = {
        "kind": "teleport",
        "channels": {"noise": {"builtin": "identity"}},
        "resource_noise": "noise",
        "inputs": ["plus"],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec_text(doc))
    monkeypatch.setenv("NOISY_MBQC_MAX_QUBITS", "2")
    assert main(["run", str(spec_path)]) == 2  # teleportation needs 3 sites


def _run_doc(tmp_path, doc, *extra) -> int:
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec_text(doc))
    return main(["run", str(spec_path), *extra])


def test_main_channels_not_an_object_is_spec_error(tmp_path, capsys):
    assert _run_doc(tmp_path, dict(MINIMAL_BLOCK, channels=[])) == 2
    assert "channels: expected an object" in capsys.readouterr().err


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_main_bad_document_tolerance_is_spec_error(tmp_path, capsys, tol):
    assert _run_doc(tmp_path, dict(MINIMAL_BLOCK, tolerance=tol)) == 2
    assert "tolerance must be finite and non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_main_bad_tol_flag_is_spec_error(tmp_path, capsys, tol):
    assert _run_doc(tmp_path, MINIMAL_BLOCK, f"--tol={tol}") == 2
    assert "tolerance must be finite and non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("builtin", ["bit_flip", "phase_flip", "mixed_unitary"])
@pytest.mark.parametrize("p", [1.5, -0.25, float("nan"), float("inf")])
def test_parse_rejects_bad_probability(builtin, p):
    noise = {"builtin": builtin, "p": p, "matrix": dm.mat_to_json(dm.H)}
    doc = dict(MINIMAL_BLOCK, channels={"noise": noise})
    with pytest.raises(ParseError, match=r"channels\.noise\.p"):
        parse_experiment(spec_text(doc))


def test_parse_accepts_probability_bounds():
    for p in (0.0, 1.0):
        doc = dict(MINIMAL_BLOCK, channels={"noise": {"builtin": "bit_flip", "p": p}})
        assert "noise" in parse_experiment(spec_text(doc)).channels
