import json

import pytest

from pepskit import cli


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
