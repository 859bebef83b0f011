import base64
import json

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from pepskit import cli, parent
from pepskit.fileio import write_observable, write_peps
from pepskit.observables import SPIN1, Observable
from pepskit.patch import error_bound


@pytest.fixture
def aklt_file(tmp_path):
    path = tmp_path / "aklt.json"
    assert cli.main(["gen", "aklt", "--n", "8", "-o", str(path)]) == cli.EXIT_OK
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--obs", "pauli-z", "--site", "3", "--ell", "2"],
        ["estimate", "--obs", "pauli-z", "--site", "3", "--epsilon", "1e-3"],
        ["oracle", "--obs", "pauli-z", "--site", "3"],
    ],
    ids=["estimate-fixed", "estimate-adaptive", "oracle"],
)
def test_observable_dimension_mismatch_exits_1_with_error_document(aklt_file, tmp_path, capsys, argv):
    out = tmp_path / "result.json"
    command, rest = argv[0], argv[1:]
    code = cli.main([command, aklt_file, *rest, "-o", str(out)])
    assert code == cli.EXIT_INPUT
    error = json.loads(out.read_text())["results"]["error"]
    assert error["code"] == "argument"
    assert "physical dims [3]" in error["message"]
    assert "error[argument]" in capsys.readouterr().err


def test_matching_observable_estimate_succeeds(aklt_file, tmp_path):
    out = tmp_path / "result.json"
    code = cli.main(["estimate", aklt_file, "--obs", "s_z", "--site", "3", "--ell", "2", "-o", str(out)])
    assert code == cli.EXIT_OK
    assert json.loads(out.read_text())["results"]["estimate"]["radius_used"] == 2


def test_parser_is_built_once_and_reused(aklt_file, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["estimate", aklt_file, "--obs", "s_z", "--ell", "two"]) == cli.EXIT_INPUT
    out = tmp_path / "result.json"
    argv = ["estimate", aklt_file, "--obs", "s_z", "--site", "3", "--ell", "2", "-o", str(out)]
    docs = []
    for _ in range(2):
        assert cli.main(argv) == cli.EXIT_OK
        doc = json.loads(out.read_text())
        doc["results"]["estimate"].pop("wall_time_ms")
        docs.append(doc)
    assert docs[0]["results"] == docs[1]["results"]
    assert docs[0]["config"] == docs[1]["config"]


def test_oracle_document_names_its_paths(aklt_file, tmp_path):
    out = tmp_path / "result.json"
    code = cli.main(["oracle", aklt_file, "--obs", "s_z", "--site", "3", "-o", str(out)])
    assert code == cli.EXIT_OK
    assert json.loads(out.read_text())["results"]["oracle"]["paths"] == ["state_vector", "network"]


def test_oracle_document_times_its_stages(aklt_file, tmp_path):
    out = tmp_path / "result.json"
    assert cli.main(["oracle", aklt_file, "--obs", "s_z", "--site", "3", "-o", str(out)]) == cli.EXIT_OK
    timings = json.loads(out.read_text())["timings"]
    stages = [timings[k] for k in ("state_vector_ms", "rdm_ms", "network_ms")]
    assert min(stages) >= 0
    assert sum(stages) <= timings["total_ms"]


@pytest.fixture(scope="module")
def grid_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("grid") / "grid.json"
    gen = ["gen", "perturbed", "--lattice", "12x12", "--bond-dim", "2", "--phys-dim", "2",
           "--eta", "0.3", "--seed", "1", "-o", str(path)]
    assert cli.main(gen) == cli.EXIT_OK
    return str(path)


def _estimate(aklt_file, tmp_path, flags):
    out = tmp_path / "estimate.json"
    argv = ["estimate", aklt_file, "--obs", "s_z", "--site", "3", "--ell", "2", *flags]
    assert cli.main([*argv, "-o", str(out)]) == cli.EXIT_OK
    return json.loads(out.read_text())["results"]["estimate"]


def test_estimate_bound_is_null_without_its_inputs(aklt_file, tmp_path):
    assert _estimate(aklt_file, tmp_path, [])["bound"] is None
    assert _estimate(aklt_file, tmp_path, ["--gap", "0.5", "--kappa-star", "2"])["bound"] is None
    assert _estimate(aklt_file, tmp_path, ["--gap", "0.5"])["bound"] is None


def test_estimate_bound_from_all_three_inputs(aklt_file, tmp_path):
    flags = ["--gap", "0.5", "--kappa-star", "2", "--constant", "1.5"]
    est = _estimate(aklt_file, tmp_path, flags)
    assert est["bound"] == error_bound(2, 1, gap=0.5, kappa_star=2.0, op_norm=1.0, c=1.5)


@pytest.mark.parametrize(
    "flags",
    [
        ["--ell", "1", "--gap", "nan", "--kappa-star", "2", "--constant", "1"],
        ["--ell", "1", "--gap", "inf", "--kappa-star", "2", "--constant", "1"],
        ["--ell", "1", "--gap", "0.5", "--kappa-star", "inf", "--constant", "1"],
        ["--ell", "1", "--gap", "0.5", "--kappa-star", "-3", "--constant", "1"],
        ["--epsilon", "nan"],
        ["--ell", "1", "--gap", "nan"],
        ["--ell", "1", "--kappa-star", "0.5"],
        ["--epsilon", "1e-3", "--constant", "-1"],
    ],
    ids=["gap-nan", "gap-inf", "kappa-inf", "kappa-negative", "epsilon-nan",
         "lone-gap-nan", "lone-kappa-below-1", "lone-constant-negative-adaptive"],
)
def test_non_finite_estimate_inputs_exit_1_with_argument_document(aklt_file, tmp_path, flags):
    out = tmp_path / "result.json"
    argv = ["estimate", aklt_file, "--obs", "s_z", "--site", "3", *flags, "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert json.loads(out.read_text())["results"]["error"]["code"] == "argument"


def test_non_finite_eta_exits_1_without_writing(tmp_path, capsys):
    out = tmp_path / "state.json"
    argv = ["gen", "perturbed", "--lattice", "3x3", "--eta", "nan", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert "error[argument]" in capsys.readouterr().err
    assert not out.exists()


def test_transfer_with_one_dressing_operator_exits_1(aklt_file, tmp_path):
    out = tmp_path / "result.json"
    argv = ["transfer", aklt_file, "--obs-a", "s_z", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_INPUT
    error = json.loads(out.read_text())["results"]["error"]
    assert error["code"] == "argument"
    assert "--obs-b" in error["message"]


@pytest.mark.parametrize(
    "state, flags",
    [
        ("chain", ["--column", "1"]),
        ("chain", ["--width", "2"]),
        ("grid", ["--site-index", "1"]),
        ("grid", ["--obs-a", "pauli-z", "--obs-b", "pauli-z"]),
    ],
    ids=["chain-column", "chain-width", "grid-site-index", "grid-dressing"],
)
def test_transfer_flag_of_the_other_dimension_exits_1(aklt_file, grid_file, tmp_path, state, flags):
    out = tmp_path / "result.json"
    path = aklt_file if state == "chain" else grid_file
    assert cli.main(["transfer", path, *flags, "-o", str(out)]) == cli.EXIT_INPUT
    error = json.loads(out.read_text())["results"]["error"]
    assert error["code"] == "argument"
    assert flags[0] in error["message"]


def test_transfer_on_a_3d_state_exits_1_with_argument_document(tmp_path, capsys):
    state, out = tmp_path / "cube.json", tmp_path / "result.json"
    assert cli.main(["gen", "perturbed", "--lattice", "2x2x2", "-o", str(state)]) == cli.EXIT_INPUT
    assert not state.exists()
    assert "error[argument]: contraction engine supports dimensions 1 and 2" in capsys.readouterr().err
    # A 2x2x2 product state written by hand: every site of the cube has three legs.
    data = base64.b64encode(np.array([1, 0], "<c16").tobytes()).decode("ascii")
    tensor = {"shape": [2, 1, 1, 1], "data": data}
    sites = [[i, j, k] for i in range(2) for j in range(2) for k in range(2)]
    doc = {
        "format_version": 2,
        "lattice": {"extents": [2, 2, 2]},
        "tensors": [{"site": site, **tensor} for site in sites],
    }
    state.write_text(json.dumps(doc))
    assert cli.main(["transfer", str(state), "-o", str(out)]) == cli.EXIT_INPUT
    error = json.loads(out.read_text())["results"]["error"]
    assert error["code"] == "argument"
    assert "dimensions 1 and 2" in error["message"]
    assert "Traceback" not in capsys.readouterr().err


# A 2-site product chain in the retired format 1: derived headers, [re, im] pairs.
_FORMAT_1_CHAIN = {
    "format_version": 1,
    "lattice": {"dimension": 1, "extents": [2]},
    "phys_dim": 2,
    "bond_dim": 1,
    "tensors": [{"site": [i], "shape": [2, 1], "data": [[1.0, 0.0], [0.0, 0.0]]} for i in range(2)],
}


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "is not a JSON object"),
        ('"x"', "is not a JSON object"),
        ("3", "is not a JSON object"),
        (json.dumps(_FORMAT_1_CHAIN), "unsupported format_version 1"),
    ],
    ids=["list", "string", "number", "format-1"],
)
def test_unreadable_state_file_exits_1_with_argument_document(tmp_path, capsys, text, message):
    state, out = tmp_path / "state.json", tmp_path / "result.json"
    state.write_text(text)
    argv = ["estimate", str(state), "--obs", "pauli-z", "--site", "0", "--ell", "1", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_INPUT
    error = json.loads(out.read_text())["results"]["error"]
    assert error["code"] == "argument"
    assert message in error["message"]
    assert "Traceback" not in capsys.readouterr().err


def test_non_finite_result_is_strict_json(tmp_path, capsys):
    # A bond-dimension-1 chain has one nonzero transfer eigenvalue, so an infinite decay rate.
    state, out = tmp_path / "product.json", tmp_path / "result.json"
    assert cli.main(["gen", "product", "--lattice", "8", "--bond-dim", "1", "-o", str(state)]) == 0
    capsys.readouterr()

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    assert cli.main(["transfer", str(state), "-o", str(out)]) == cli.EXIT_OK
    assert cli.main(["transfer", str(state)]) == cli.EXIT_OK
    for text in (out.read_text(), capsys.readouterr().out):
        rate = json.loads(text, parse_constant=refuse)["results"]["spectrum"]["decay_rate"]
        assert rate == "inf"
        assert float(rate) == float("inf")


def test_preset_name_wins_over_a_file_of_that_name(aklt_file, grid_file, tmp_path, monkeypatch):
    # A file named like a preset in the working directory does not shadow the preset.
    monkeypatch.chdir(tmp_path)
    for name in ("pauli-z", "s_z"):
        (tmp_path / name).write_text("not an observable")
    out = tmp_path / "result.json"
    argv = ["estimate", grid_file, "--obs", "pauli-z", "--site", "1,1", "--ell", "1", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert json.loads(out.read_text())["results"]["estimate"]["radius_used"] == 1
    argv = ["transfer", aklt_file, "--obs-a", "s_z", "--obs-b", "s_z", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert "correlations" in json.loads(out.read_text())["results"]


@pytest.mark.parametrize("command", ["estimate", "oracle"])
def test_site_with_an_observable_file_exits_1(aklt_file, tmp_path, command):
    obs, out = tmp_path / "sz.json", tmp_path / "result.json"
    write_observable(Observable(sites=((3,),), matrix=SPIN1["s_z"]), obs)
    flags = ["--ell", "2"] if command == "estimate" else []
    argv = [command, aklt_file, "--obs", str(obs), "--site", "4", *flags, "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_INPUT
    error = json.loads(out.read_text())["results"]["error"]
    assert error["code"] == "argument"
    assert "--site" in error["message"]


@pytest.mark.parametrize("flag", ["--obs-a", "--obs-b"])
def test_transfer_observable_file_exits_1(aklt_file, tmp_path, flag):
    # The file names site (1,), which the ring model has no use for.
    obs, out = tmp_path / "sz.json", tmp_path / "result.json"
    write_observable(Observable(sites=((1,),), matrix=SPIN1["s_z"]), obs)
    other = "--obs-b" if flag == "--obs-a" else "--obs-a"
    argv = ["transfer", aklt_file, flag, str(obs), other, "s_z", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_INPUT
    error = json.loads(out.read_text())["results"]["error"]
    assert error["code"] == "argument"
    assert flag in error["message"] and "observable file" in error["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--obs", "pauli-z", "--site", "6,6", "--ell", "6"],
        ["oracle", "--obs", "pauli-z", "--site", "6,6"],
    ],
    ids=["estimate", "oracle"],
)
def test_over_budget_exits_2_with_budget_document(grid_file, tmp_path, capsys, argv):
    out = tmp_path / "result.json"
    command, rest = argv[0], argv[1:]
    assert cli.main([command, grid_file, *rest, "-o", str(out)]) == cli.EXIT_BUDGET
    assert json.loads(out.read_text())["results"]["error"]["code"] == "budget"
    assert "error[budget]" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_estimate_exits_3_with_numerical_document(overflowing_chain, tmp_path, capsys):
    path, out = tmp_path / "big.json", tmp_path / "result.json"
    write_peps(overflowing_chain, path)
    argv = ["estimate", str(path), "--obs", "pauli-z", "--site", "1", "--ell", "1"]
    assert cli.main([*argv, "-o", str(out)]) == cli.EXIT_NUMERICAL
    assert json.loads(out.read_text())["results"]["error"]["code"] == "numerical"
    assert "error[numerical]" in capsys.readouterr().err


def test_unwritable_output_exits_1_without_traceback(aklt_file, tmp_path, capsys):
    out = tmp_path / "missing" / "result.json"
    argv = ["estimate", aklt_file, "--obs", "s_z", "--site", "3", "--ell", "2", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert "error[io]" in capsys.readouterr().err


def _parent_gap(aklt_file, tmp_path):
    out = tmp_path / "gap.json"
    code = cli.main(["parent-gap", aklt_file, "-o", str(out)])
    return code, json.loads(out.read_text())["results"]


def test_parent_gap_exits_0_with_gap_document(aklt_file, tmp_path):
    code, results = _parent_gap(aklt_file, tmp_path)
    assert code == cli.EXIT_OK
    rep = results["parent_gap"]
    assert rep["chain_length"] == 8
    assert rep["gap"] == pytest.approx(0.38977801311598775, abs=1e-12)
    assert rep["ground_fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert rep["solvers"] == {"dense": 2, "iterative": 5}


def test_parent_gap_over_budget_exits_2(aklt_file, tmp_path, monkeypatch):
    # A real over-cutoff chain would first solve prefixes of dimension 354k.
    monkeypatch.setattr(parent, "ITERATIVE_CUTOFF", 100)
    code, results = _parent_gap(aklt_file, tmp_path)
    assert code == cli.EXIT_BUDGET
    assert results["error"]["code"] == "budget"
    assert "162 above" in results["error"]["message"]


def test_parent_gap_without_convergence_exits_3(aklt_file, tmp_path, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    monkeypatch.setattr(parent, "DENSE_FALLBACK_MAX", parent.DENSE_CUTOFF)
    code, results = _parent_gap(aklt_file, tmp_path)
    assert code == cli.EXIT_NUMERICAL
    assert results["error"]["code"] == "numerical"


def test_parent_gap_lapack_failure_exits_3_with_numerical_document(aklt_file, tmp_path, monkeypatch):
    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    code, results = _parent_gap(aklt_file, tmp_path)
    assert code == cli.EXIT_NUMERICAL
    assert results["error"] == {"code": "numerical", "message": "Eigenvalues did not converge"}


def test_degenerate_parent_gap_reports_null_fidelity(tmp_path):
    chain = tmp_path / "chain.json"
    gen = ["gen", "perturbed", "--lattice", "7", "--phys-dim", "3", "--bond-dim", "3",
           "--eta", "1.0", "--seed", "1", "-o", str(chain)]
    assert cli.main(gen) == cli.EXIT_OK
    out = tmp_path / "gap.json"
    assert cli.main(["parent-gap", str(chain), "--max-n", "4", "-o", str(out)]) == cli.EXIT_OK
    text = out.read_text()
    rep = json.loads(text)["results"]["parent_gap"]
    assert rep["ground_fidelity"] is None
    assert '"ground_fidelity": null' in text
    assert rep["warning"] == "prefix 4: degenerate ground space"
