import json
import re

import numpy as np
import pytest

from pepskit import cli, network, parent
from pepskit.fileio import _pack, read_peps, write_observable, write_peps
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


def test_oracle_document_times_its_stages(aklt_file, tmp_path):
    out = tmp_path / "result.json"
    assert cli.main(["oracle", aklt_file, "--obs", "s_z", "--site", "3", "-o", str(out)]) == cli.EXIT_OK
    timings = json.loads(out.read_text())["timings"]
    assert set(timings) == {"state_vector_ms", "rdm_ms", "total_ms"}
    stages = [timings[k] for k in ("state_vector_ms", "rdm_ms")]
    assert min(stages) >= 0
    assert sum(stages) <= timings["total_ms"]


@pytest.mark.parametrize("radius", [["--ell", "2"], ["--epsilon", "1e-3"]], ids=["fixed", "adaptive"])
def test_estimate_document_times_its_stages(aklt_file, tmp_path, radius):
    out = tmp_path / "result.json"
    argv = ["estimate", aklt_file, "--obs", "s_z", "--site", "3", *radius, "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    timings = json.loads(out.read_text())["timings"]
    assert set(timings) == {"select_ms", "assemble_ms", "contract_ms", "total_ms"}
    stages = [timings[k] for k in ("select_ms", "assemble_ms", "contract_ms")]
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


@pytest.mark.parametrize("inputs", [[], ["--gap", "0.5", "--kappa-star", "2", "--constant", "1"]],
                         ids=["no-inputs", "all-inputs"])
def test_covering_estimate_reports_bound_zero(aklt_file, tmp_path, inputs):
    # The patch is the whole lattice, so the value is exact whatever the inputs.
    grid, out = tmp_path / "grid.json", tmp_path / "result.json"
    gen = ["gen", "perturbed", "--lattice", "3x3", "--eta", "0.3", "--seed", "1", "-o", str(grid)]
    assert cli.main(gen) == cli.EXIT_OK
    for state, flags, n_sites in [
        (aklt_file, ["--obs", "s_z", "--site", "3", "--ell", "7"], 8),
        (str(grid), ["--obs", "pauli-z", "--site", "1,1", "--epsilon", "1e-3"], 9),
    ]:
        assert cli.main(["estimate", state, *flags, *inputs, "-o", str(out)]) == cli.EXIT_OK
        est = json.loads(out.read_text())["results"]["estimate"]
        assert est["patch_size"] == n_sites
        assert est["bound"] == 0.0
    assert [rung["ell"] for rung in est["ladder"]] == [0, 1, 2]


def test_estimate_bound_is_capped_at_twice_the_operator_norm(tmp_path):
    # The paper's bound reads 2.165 here; no two values of a Pauli-Z differ by more than 2.
    grid, out = tmp_path / "grid.json", tmp_path / "result.json"
    gen = ["gen", "perturbed", "--lattice", "4x4", "--eta", "0.3", "--seed", "1", "-o", str(grid)]
    assert cli.main(gen) == cli.EXIT_OK
    argv = ["estimate", str(grid), "--obs", "pauli-z", "--site", "0,0", "--epsilon", "1e-3",
            "--gap", "0.5", "--kappa-star", "2", "--constant", "1", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    est = json.loads(out.read_text())["results"]["estimate"]
    assert (est["radius_used"], est["patch_size"]) == (4, 13)
    assert error_bound(4, 2, gap=0.5, kappa_star=2.0, op_norm=1.0, c=1.0) > 2.0
    assert est["bound"] == 2.0


@pytest.mark.parametrize(
    "flags",
    [
        ["--ell", "1", "--gap", "nan", "--kappa-star", "2", "--constant", "1"],
        ["--ell", "1", "--gap", "inf", "--kappa-star", "2", "--constant", "1"],
        ["--ell", "1", "--gap", "0.5", "--kappa-star", "inf", "--constant", "1"],
        ["--ell", "1", "--gap", "0.5", "--kappa-star", "-3", "--constant", "1"],
        ["--epsilon", "nan"],
        ["--epsilon", "inf"],
        ["--ell", "1", "--gap", "nan"],
        ["--ell", "1", "--kappa-star", "0.5"],
        ["--epsilon", "1e-3", "--constant", "-1"],
        ["--ell", "1", "--gap", "0"],
        ["--epsilon", "1e-3", "--constant", "inf"],
    ],
    ids=["gap-nan", "gap-inf", "kappa-inf", "kappa-negative", "epsilon-nan", "epsilon-inf",
         "lone-gap-nan", "lone-kappa-below-1", "lone-constant-negative-adaptive",
         "lone-gap-zero", "lone-constant-inf-adaptive"],
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


def test_negative_seed_exits_1_without_writing(tmp_path, capsys):
    out = tmp_path / "state.json"
    argv = ["gen", "perturbed", "--lattice", "3x3", "--seed", "-1", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "error[argument]: seed must be nonnegative, got -1" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, entries",
    [(["--bond-dim", "100000"], 2 * 100000**4), (["--phys-dim", "100000000"], 100000000 * 2**4)],
    ids=["bond-dim", "phys-dim"],
)
def test_oversized_site_array_exits_2_without_allocating(tmp_path, capsys, flags, entries):
    out = tmp_path / "state.json"
    argv = ["gen", "perturbed", "--lattice", "3x3", *flags, "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_BUDGET
    err = capsys.readouterr().err
    assert f"error[budget]: site array needs {entries} entries" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"sites": [[3]], "dim": 0, "matrix": []}', "observable matrix is empty"),
        ('{"sites": [[3]], "dim": 1, "matrix": [[NaN, 0]]}', "non-finite entry"),
        ('{"sites": [[3]], "dim": 1, "matrix": [[1, -Infinity]]}', "non-finite entry"),
    ],
    ids=["empty", "nan", "infinity"],
)
@pytest.mark.parametrize("command", ["estimate", "oracle"])
def test_bad_observable_matrix_exits_1_with_argument_document(aklt_file, tmp_path, capsys, command,
                                                              text, message):
    obs, out = tmp_path / "obs.json", tmp_path / "result.json"
    obs.write_text(text)
    flags = ["--ell", "1"] if command == "estimate" else []
    assert cli.main([command, aklt_file, "--obs", str(obs), *flags, "-o", str(out)]) == cli.EXIT_INPUT
    error = json.loads(out.read_text())["results"]["error"]
    assert error["code"] == "argument"
    assert message in error["message"]
    assert "Traceback" not in capsys.readouterr().err


def _rewrite_state(path, edit):
    """Write ``path`` again through the format-3 packer, its row-major arrays changed by ``edit``."""
    peps = read_peps(path)
    arrays = [peps.tensors[s] for s in peps.lattice.sites()]
    path.write_bytes(_pack(peps.lattice.extents, edit(arrays)))


def test_zero_extent_state_exits_1_with_model_document(tmp_path, capsys):
    state, out = tmp_path / "grid.json", tmp_path / "result.json"
    gen = ["gen", "perturbed", "--lattice", "4x4", "--eta", "0.3", "--seed", "1", "-o", str(state)]
    assert cli.main(gen) == cli.EXIT_OK
    # (1, 1) lies outside the radius-1 patch of (2, 2), whose payload is all the estimate reads.
    _rewrite_state(state, lambda arrays: arrays[:5] + [np.zeros((0, 2, 2, 2, 2))] + arrays[6:])
    for argv in (["estimate", "--obs", "pauli-z", "--site", "2,2", "--ell", "1"],
                 ["oracle", "--obs", "pauli-z", "--site", "2,2"]):
        command, rest = argv[0], argv[1:]
        assert cli.main([command, str(state), *rest, "-o", str(out)]) == cli.EXIT_INPUT
        error = json.loads(out.read_text())["results"]["error"]
        assert error == {"code": "model", "message": "site (1, 1): zero extent in shape (0, 2, 2, 2, 2)"}
    assert "Traceback" not in capsys.readouterr().err


def _set_row(k, column, delta):
    def edit(raw):
        header_end = raw.index(b"\n") + 1
        index = np.frombuffer(raw, "<i8", count=8 * 144, offset=header_end).copy()
        index[8 * k + column] += delta
        return raw[:header_end] + index.tobytes() + raw[header_end + index.nbytes :]

    return edit


# Faults at (1, 1) or on its edges, far outside the radius-1 patch of (10, 10) on the 12x12 grid.
@pytest.mark.parametrize(
    "arrays, raw, code, message",
    [
        (lambda a: a[:13] + [np.ones((2, 2, 2, 2, 3))] + a[14:], None, "model",
         r"^edge \(\(1, 1\), \(1, 2\)\): bond dims differ, 3 vs 2$"),
        (None, lambda raw: raw[:-1], "argument", "the index lists 61952 payload bytes, the file has 61951"),
        (None, _set_row(13, 0, 16), "argument", r"site \(1, 1\) has data offset \d+, expected \d+"),
        (lambda a: a[:14] + a[13:], None, "argument", "the index lists 145 sites, the lattice has 144"),
        (lambda a: a[:13] + a[14:], None, "argument", "the index lists 143 sites, the lattice has 144"),
    ],
    ids=["bond-mismatch", "truncated-payload", "offset", "site-listed-twice", "site-missing"],
)
def test_index_fault_outside_the_patch_is_refused_by_estimate(grid_file, tmp_path, arrays, raw, code,
                                                               message):
    state, out = tmp_path / "grid.json", tmp_path / "result.json"
    state.write_bytes(open(grid_file, "rb").read())
    if arrays is not None:
        _rewrite_state(state, arrays)
    if raw is not None:
        state.write_bytes(raw(state.read_bytes()))
    argv = ["estimate", str(state), "--obs", "pauli-z", "--site", "10,10", "--ell", "1", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_INPUT
    error = json.loads(out.read_text())["results"]["error"]
    assert error["code"] == code
    assert re.search(message, error["message"])


def test_estimate_reads_only_the_payload_of_its_patch(tmp_path):
    # New bytes for (3, 3), outside the radius-1 patch of (0, 0), with the same byte count.
    clean, changed = tmp_path / "clean.json", tmp_path / "changed.json"
    gen = ["gen", "perturbed", "--lattice", "4x4", "--eta", "0.5", "--seed", "1", "-o", str(clean)]
    assert cli.main(gen) == cli.EXIT_OK
    changed.write_bytes(clean.read_bytes())
    new = np.random.default_rng(2).standard_normal((2, 2, 2)) + 0j
    _rewrite_state(changed, lambda arrays: arrays[:15] + [new])
    assert changed.stat().st_size == clean.stat().st_size

    def run(state, *argv):
        out = tmp_path / "result.json"
        assert cli.main([argv[0], str(state), *argv[1:], "-o", str(out)]) == cli.EXIT_OK
        results = json.loads(out.read_text())["results"]
        results.get("estimate", {}).pop("wall_time_ms", None)
        return results

    for flags in (["--ell", "1"], ["--epsilon", "0.5"]):
        argv = ["estimate", "--obs", "pauli-z", "--site", "0,0", *flags]
        assert run(changed, *argv) == run(clean, *argv)
        assert run(clean, *argv)["estimate"]["patch_size"] < 16
    np.testing.assert_array_equal(read_peps(changed).tensors[(3, 3)], new)
    oracle = ["oracle", "--obs", "pauli-z", "--site", "0,0"]
    assert run(changed, *oracle)["oracle"]["value"] != run(clean, *oracle)["oracle"]["value"]


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
        ("grid", ["--x-range", "0:5"]),
        ("grid", ["--length", "7"]),
    ],
    ids=["chain-column", "chain-width", "grid-site-index", "grid-dressing", "grid-x-range", "grid-length"],
)
def test_transfer_flag_of_the_other_dimension_exits_1(aklt_file, grid_file, tmp_path, state, flags):
    out = tmp_path / "result.json"
    path = aklt_file if state == "chain" else grid_file
    assert cli.main(["transfer", path, *flags, "-o", str(out)]) == cli.EXIT_INPUT
    error = json.loads(out.read_text())["results"]["error"]
    assert error["code"] == "argument"
    assert flags[0] in error["message"]


@pytest.mark.parametrize("flags", [["--x-range", "0:5"], ["--length", "7"], ["--x-range", "0:5", "--length", "7"]],
                         ids=["x-range", "length", "both"])
def test_transfer_correlation_flags_without_dressing_operators_exit_1(aklt_file, tmp_path, flags):
    # Only the correlations read the separations and the line length.
    out = tmp_path / "result.json"
    assert cli.main(["transfer", aklt_file, *flags, "-o", str(out)]) == cli.EXIT_INPUT
    error = json.loads(out.read_text())["results"]["error"]
    given = ", ".join(flags[::2])
    assert error == {"code": "argument", "message": f"{given} not used without --obs-a and --obs-b"}


def test_transfer_chain_defaults_apply_only_when_unset(aklt_file, tmp_path):
    docs = []
    for flags in ([], ["--x-range", "1:4", "--length", "64"]):
        out = tmp_path / f"result{len(docs)}.json"
        argv = ["transfer", aklt_file, "--obs-a", "s_z", "--obs-b", "s_z", *flags, "-o", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        docs.append(json.loads(out.read_text()))
    unset, given = docs
    assert [c["x"] for c in unset["results"]["correlations"]] == [1, 2, 3, 4]
    assert unset["results"]["correlations"] == given["results"]["correlations"]
    assert unset["results"]["decay_fit"] == given["results"]["decay_fit"]
    assert (unset["config"]["x_range"], unset["config"]["length"]) == (None, None)
    assert (given["config"]["x_range"], given["config"]["length"]) == ("1:4", 64)


def test_transfer_on_a_3d_state_exits_1_with_argument_document(tmp_path, capsys):
    state, out = tmp_path / "cube.json", tmp_path / "result.json"
    assert cli.main(["gen", "perturbed", "--lattice", "2x2x2", "-o", str(state)]) == cli.EXIT_INPUT
    assert not state.exists()
    assert "error[argument]: contraction engine supports dimensions 1 and 2" in capsys.readouterr().err
    # A 2x2x2 product state packed by hand: every site of the cube has three legs.
    state.write_bytes(_pack((2, 2, 2), [np.array([1, 0]).reshape(2, 1, 1, 1)] * 8))
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


# The same chain in the retired format 2, as its writer laid it out: base64 of each array's bytes.
_FORMAT_2_CHAIN = {
    "format_version": 2,
    "lattice": {"extents": [2]},
    "tensors": [{"site": [i], "shape": [2, 1], "data": "AAAAAAAA8D8AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA="}
                for i in range(2)],
}


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "is not a JSON object"),
        ('"x"', "is not a JSON object"),
        ("3", "is not a JSON object"),
        (json.dumps(_FORMAT_1_CHAIN), "unsupported format_version 1"),
        (json.dumps(_FORMAT_2_CHAIN, indent=1), "unsupported format_version 2"),
        ('{"format_version": 3.0, "lattice": {"extents": [2]}}\n', "unsupported format_version 3.0"),
    ],
    ids=["list", "string", "number", "format-1", "format-2", "format-3-float"],
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
    error = json.loads(out.read_text())["results"]["error"]
    assert error["code"] == "budget"
    if command == "oracle":  # the first half's single layer, refused unwrapped
        assert re.fullmatch(r"contraction intermediate of \d+ entries exceeds budget \d+", error["message"])
    assert "error[budget]" in capsys.readouterr().err


def test_oracle_over_numpy_axes_exits_2_with_budget_document(tmp_path, capsys, monkeypatch):
    """A d=1 half of 70 sites has one axis per site: refused before any arithmetic."""
    peps, obs, out = tmp_path / "chain.json", tmp_path / "one.json", tmp_path / "result.json"
    gen = ["gen", "perturbed", "--lattice", "140", "--phys-dim", "1", "-o", str(peps)]
    assert cli.main(gen) == cli.EXIT_OK
    write_observable(Observable(sites=((70,),), matrix=np.eye(1)), obs)
    monkeypatch.setattr(np, "dot", pytest.fail)
    assert cli.main(["oracle", str(peps), "--obs", str(obs), "-o", str(out)]) == cli.EXIT_BUDGET
    error = json.loads(out.read_text())["results"]["error"]
    assert error["code"] == "budget"
    axes, limit = map(int, re.fullmatch(
        r"contraction intermediate of (\d+) axes exceeds NumPy's limit of (\d+)", error["message"]
    ).groups())
    assert axes > limit == network._numpy_max_axes()
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
    assert "solvers" not in rep


def test_parent_gap_document_times_its_stages(aklt_file, tmp_path):
    out = tmp_path / "gap.json"
    assert cli.main(["parent-gap", aklt_file, "--max-n", "5", "-o", str(out)]) == cli.EXIT_OK
    timings = json.loads(out.read_text())["timings"]
    stages = [timings[f"{k}_ms"] for k in ("terms", "assemble", "state", "eigensolve")]
    assert min(stages) > 0
    assert sum(stages) <= timings["total_ms"]


def test_parent_gap_over_budget_exits_2(aklt_file, tmp_path, monkeypatch):
    # A real over-cutoff chain would first solve prefixes of dimension 354k.
    monkeypatch.setattr(parent, "ITERATIVE_CUTOFF", 100)
    code, results = _parent_gap(aklt_file, tmp_path)
    assert code == cli.EXIT_BUDGET
    assert results["error"]["code"] == "budget"
    assert "162 above" in results["error"]["message"]


def test_parent_gap_without_convergence_exits_3(aklt_file, tmp_path, monkeypatch):
    # With no restart, the AKLT prefix of dim 486 (30 products) does not converge.
    monkeypatch.setattr(parent, "LANCZOS_MAX_RESTARTS", 0)
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
