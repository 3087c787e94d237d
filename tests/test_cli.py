import json
import pathlib
import subprocess
import sys

import pytest

from pairstab.cli import run

GOLDEN = pathlib.Path(__file__).parent / "golden"

GOLDEN_CASES = {
    "examples_index.json": ["examples"],
    "examples_quadric.json": ["examples", "quadric-2x2"],
    "examples_xnil.json": ["examples", "sl3-xnil"],
    "examples_boundary.json": ["examples", "inaccessible-boundary"],
    "examples_gkz.json": ["examples", "gkz"],
    "chow_d3.json": ["chow-polytope", "--d", "3"],
    "disc_d3.json": ["disc-polytope", "--d", "3"],
    "resultant_quad.json": ["resultant", "--f=-1,0,1", "--g=-4,0,1"],
    "sl2_violation.json": ["pair-check-sl2", "--f=0,0,1", "--g=0,0,0,1"],
    "euler.json": ["euler-degree", "--h0", "0,4"],
    "scaled_d4.json": ["scaled-containment", "--d", "4"],
    "koszul_res.json": ["koszul-resultant", "--f=-1,0,1", "--g=-4,0,1", "--m", "4"],
}

EXIT_2_CASES = {"sl2_violation.json"}


@pytest.mark.parametrize("fname", sorted(GOLDEN_CASES))
def test_golden_output(fname):
    code, out = run(GOLDEN_CASES[fname])
    assert out == (GOLDEN / fname).read_text()
    assert code == (2 if fname in EXIT_2_CASES else 0)


def test_outputs_are_deterministic():
    for argv in GOLDEN_CASES.values():
        assert run(argv) == run(argv)


def test_output_schema_marker():
    _, out = run(["resultant", "--f=0,1", "--g=1,1"])
    doc = json.loads(out)
    assert doc["schema"] == "pairstab/v1"
    assert out.endswith("\n")


def _pair_doc():
    return {
        "v": {"N": 1, "shape": "Wedge(2)", "entries": [[[0, 1], 1]]},
        "w": {"N": 1, "shape": "Sym(2)", "entries": [[[1, 1], 1]]},
    }


def _write(tmp, name, doc):
    p = tmp / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_pair_check_file_roundtrip(tmp_path):
    path = _write(tmp_path, "pair.json", _pair_doc())
    code, out = run(["pair-check", "--pair", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["status"] == "not-refuted"
    assert doc["verdict"]["tori_tested"] == 65


def test_pair_check_unstable_exit_2(tmp_path):
    doc = _pair_doc()
    doc["w"]["entries"] = [[[2, 0], 1]]
    path = _write(tmp_path, "pair.json", doc)
    code, out = run(["pair-check", "--pair", path])
    assert code == 2
    verdict = json.loads(out)["verdict"]
    assert verdict["status"] == "unstable"
    assert verdict["witness"] == [1, -1]
    assert verdict["futaki"] == 2


def test_pair_check_negative_samples_is_exit_1(tmp_path):
    path = _write(tmp_path, "pair.json", _pair_doc())
    code, out = run(["pair-check", "--pair", path, "--samples", "-1"])
    assert code == 1
    assert json.loads(out) == {
        "error": "samples must be nonnegative",
        "op": "pair-check",
        "schema": "pairstab/v1",
    }
    # the SL(2) decider needs no samples, yet the argument is still checked
    code, out = run(["pair-check-sl2", "--f=0,0,1", "--g=0,0,0,1", "--samples", "-1"])
    assert code == 1
    assert json.loads(out) == {
        "error": "samples must be nonnegative",
        "op": "pair-check-sl2",
        "schema": "pairstab/v1",
    }


def test_futaki_subcommand(tmp_path):
    doc = _pair_doc()
    doc["w"]["entries"] = [[[2, 0], 1]]
    path = _write(tmp_path, "pair.json", doc)
    code, out = run(["futaki", "--pair", path, "--u", "1,-1"])
    assert code == 0
    assert json.loads(out)["futaki"] == 2


def test_characteristic_subcommand(tmp_path):
    vec = {"N": 1, "shape": "Sym(2)", "entries": [[[2, 0], 1]]}
    path = _write(tmp_path, "vec.json", vec)
    code, out = run(["characteristic", "--vector", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["chi_min"] == [2, 0]
    assert doc["chi_min_traceless"] == [1, -1]
    assert doc["ht_sq"] == 2


def test_characteristic_height_zero_is_error(tmp_path):
    vec = {"N": 1, "shape": "Sym(2)", "entries": [[[1, 1], 1]]}
    path = _write(tmp_path, "vec.json", vec)
    code, out = run(["characteristic", "--vector", path])
    assert code == 1
    assert json.loads(out) == {
        "error": "height zero: the weight polytope contains the origin",
        "op": "characteristic",
        "schema": "pairstab/v1",
    }


def test_energy_profile_csv(tmp_path):
    path = _write(tmp_path, "pair.json", _pair_doc())
    code, out = run(
        ["energy-profile", "--pair", path, "--u", "1,-1", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,log_t2,nu"
    assert len(lines) == 26  # header + default grid


def test_energy_profile_json_slope(tmp_path):
    doc = _pair_doc()
    doc["w"]["entries"] = [[[2, 0], 1]]
    path = _write(tmp_path, "pair.json", doc)
    code, out = run(["energy-profile", "--pair", path, "--u", "1,-1"])
    assert code == 0
    parsed = json.loads(out)
    assert abs(parsed["slope"] - 2.0) < 1e-9
    assert parsed["futaki"] == 2


@pytest.mark.parametrize("per_decade", ["0", "-1"])
def test_energy_profile_nonpositive_per_decade_is_exit_1(tmp_path, per_decade):
    path = _write(tmp_path, "pair.json", _pair_doc())
    argv = ["energy-profile", "--pair", path, "--u", "1,-1", "--per-decade", per_decade]
    code, out = run(argv)
    assert code == 1
    assert json.loads(out) == {
        "error": "per_decade must be at least 1",
        "op": "energy-profile",
        "schema": "pairstab/v1",
    }


def test_toric_extend_exit_codes(tmp_path):
    a = _write(tmp_path, "a.json", {"points": [[0], [1], [2], [3]]})
    b_ok = _write(tmp_path, "b1.json", {"points": [[0], [3]]})
    b_bad = _write(tmp_path, "b2.json", {"points": [[0], [1]]})
    code, out = run(["toric-extend", "--A", a, "--B", b_ok])
    assert code == 0
    assert json.loads(out)["extends"] is True
    code, out = run(["toric-extend", "--A", a, "--B", b_bad])
    assert code == 2
    doc = json.loads(out)
    assert doc["extends"] is False
    assert "star_violator" in doc
    assert doc["lhs"] > doc["rhs"]


def test_failed_witness_check_is_exit_1(tmp_path, monkeypatch):
    from pairstab import _linalg

    a = _write(tmp_path, "a.json", {"points": [[0], [1], [2], [3]]})
    b = _write(tmp_path, "b.json", {"points": [[0], [1]]})
    monkeypatch.setattr(_linalg, "primitive", lambda v: [0] * len(v))
    code, out = run(["toric-extend", "--A", a, "--B", b])
    assert code == 1
    assert "star condition" in json.loads(out)["error"]


def test_malformed_json_reports_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"v": \n  oops}')
    code, out = run(["pair-check", "--pair", str(p)])
    assert code == 1
    doc = json.loads(out)
    assert doc["line"] == 2
    assert doc["column"] == 3
    assert doc["op"] == "pair-check"


def test_missing_file_is_exit_1():
    code, out = run(["pair-check", "--pair", "/no/such/file.json"])
    assert code == 1
    assert "no such file" in json.loads(out)["error"]


def test_argparse_errors_are_exit_1():
    code, out = run(["no-such-command"])
    assert code == 1
    assert out == ""
    code, _ = run(["resultant", "--f=0,1"])  # missing --g
    assert code == 1


def test_inexact_complex_is_exit_1(tmp_path):
    doc = {"dims": [2, 2], "maps": [[[1, 2], [2, 4]]]}
    path = _write(tmp_path, "c.json", doc)
    code, out = run(["torsion", "--complex", path])
    assert code == 1
    assert json.loads(out) == {
        "error": "torsion undefined: complex is not exact",
        "op": "torsion",
        "schema": "pairstab/v1",
    }


def test_torsion_subcommand(tmp_path):
    doc = {"dims": [2, 2], "maps": [[[1, 2], [3, 4]]]}
    path = _write(tmp_path, "c.json", doc)
    code, out = run(["torsion", "--complex", path])
    assert code == 0
    parsed = json.loads(out)
    assert parsed["torsion"] == -2
    assert parsed["ranks"] == [2]


def test_output_flag_writes_file(tmp_path):
    target = tmp_path / "out.json"
    code, out = run(["chow-polytope", "--d", "2", "--output", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["d"] == 2


def test_seed_env_changes_default(tmp_path, monkeypatch):
    path = _write(tmp_path, "pair.json", _pair_doc())
    monkeypatch.setenv("PAIRSTAB_SEED", "7")
    _, out_env = run(["pair-check", "--pair", path])
    monkeypatch.delenv("PAIRSTAB_SEED")
    _, out_exp = run(["pair-check", "--pair", path, "--seed", "7"])
    assert out_env == out_exp


def test_module_entrypoint_subprocess(src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "pairstab.cli", "resultant", "--f=-1,0,1", "--g=-4,0,1"],
        capture_output=True,
        text=True,
        env=src_env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["resultant"] == 9


def test_console_script_exit_2(src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "pairstab.cli", "pair-check-sl2", "--f=0,0,1", "--g=0,0,0,1"],
        capture_output=True,
        text=True,
        env=src_env,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["semistable"] is False


def test_seed_default_is_resolved_per_call(tmp_path, monkeypatch):
    path = _write(tmp_path, "pair.json", _pair_doc())
    monkeypatch.delenv("PAIRSTAB_SEED", raising=False)
    assert json.loads(run(["pair-check", "--pair", path, "--seed", "7"])[1])["seed"] == 7
    # an explicit seed in one call does not become the next call's default
    assert json.loads(run(["pair-check", "--pair", path])[1])["seed"] == 0
    # the parser exists by now; the environment is still read at call time
    monkeypatch.setenv("PAIRSTAB_SEED", "5")
    assert json.loads(run(["pair-check", "--pair", path])[1])["seed"] == 5
    assert json.loads(run(["pair-check", "--pair", path, "--seed", "7"])[1])["seed"] == 7


def test_malformed_seed_env_is_exit_1(tmp_path, monkeypatch):
    path = _write(tmp_path, "pair.json", _pair_doc())
    monkeypatch.setenv("PAIRSTAB_SEED", "seven")
    code, out = run(["pair-check", "--pair", path])
    assert code == 1
    assert json.loads(out)["op"] == "pair-check"
    # subcommands without --seed do not read it
    assert run(["resultant", "--f=0,1", "--g=1,1"])[0] == 0


def _error(message, op):
    return {"error": message, "op": op, "schema": "pairstab/v1"}


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("entries", [5], "entries must be [key, coefficient] pairs"),
        ("entries", [[5, 1]], "key must be a list"),
        ("N", [1], "expected an integer, got [1]"),
        ("shape", 5, "unrecognized shape '5'"),
        ("entries", [[[1, 1], 1], [[1, 1], 2]], "duplicate key [1, 1]"),
        ("shape", "Tensor(Sym(1),Sym(1),Sym(1))", "tensor key arity mismatch"),
        ("shape", "Trivial", "trivial factor key must be []"),
    ],
)
def test_malformed_vector_document_is_exit_1(tmp_path, field, value, message):
    doc = _pair_doc()
    doc["w"][field] = value
    code, out = run(["pair-check", "--pair", _write(tmp_path, "pair.json", doc)])
    assert code == 1
    assert json.loads(out) == _error(message, "pair-check")


@pytest.mark.parametrize(
    "points, message",
    [
        (5, "points must be a list"),
        ([[0], 1], "point must be a list"),
        ([[None]], "expected an integer, got None"),
    ],
)
def test_malformed_points_are_exit_1(tmp_path, points, message):
    a = _write(tmp_path, "a.json", {"points": points})
    b = _write(tmp_path, "b.json", {"points": [[0]]})
    code, out = run(["toric-extend", "--A", a, "--B", b])
    assert code == 1
    assert json.loads(out) == _error(message, "toric-extend")


def test_map_that_is_not_a_matrix_is_exit_1(tmp_path):
    path = _write(tmp_path, "c.json", {"dims": [2, 2], "maps": [5]})
    code, out = run(["torsion", "--complex", path])
    assert code == 1
    assert json.loads(out) == _error("map must be a list", "torsion")


def test_directory_as_input_is_exit_1(tmp_path):
    code, out = run(["pair-check", "--pair", str(tmp_path)])
    assert code == 1
    assert json.loads(out) == _error(f"cannot open {tmp_path}: Is a directory", "pair-check")


def test_unwritable_output_is_exit_1(tmp_path):
    code, out = run(["chow-polytope", "--d", "2", "--output", str(tmp_path)])
    assert code == 1
    assert json.loads(out) == _error(f"cannot open {tmp_path}: Is a directory", "chow-polytope")


def test_discriminant_subcommand():
    code, out = run(["discriminant", "--f=-1,0,1"])
    assert code == 0
    assert json.loads(out) == {"deg": 2, "discriminant": -4, "schema": "pairstab/v1"}
    code, out = run(["discriminant", "--f=1,2,3", "--deg", "3"])
    assert code == 1
    assert json.loads(out) == _error("leading coefficient must be nonzero", "discriminant")


@pytest.mark.parametrize(
    "doc, code, verdict",
    [
        (
            {
                "v": {"N": 1, "shape": "Trivial", "entries": [[[], 1]]},
                "w": {"N": 1, "shape": "Sym(3)", "entries": [[[1, 2], -1], [[3, 0], 1]]},
            },
            0,
            {"method": "sl2-binary-forms", "status": "proven-semistable"},
        ),
        # (z, (z^2-2)^2): refuted only through an irrational root class, so
        # the verdict has no conjugator, witness or value
        (
            {
                "v": {"N": 1, "shape": "Sym(1)", "entries": [[[1, 0], 1]]},
                "w": {"N": 1, "shape": "Sym(4)", "entries": [[[0, 4], 4], [[2, 2], -4], [[4, 0], 1]]},
            },
            2,
            {
                "conjugator": None,
                "detail": "order criterion fails on a root class with no rational point",
                "futaki": None,
                "status": "unstable",
                "witness": None,
            },
        ),
    ],
)
def test_pair_check_binary_form_verdict_payloads(tmp_path, doc, code, verdict):
    got, out = run(["pair-check", "--pair", _write(tmp_path, "pair.json", doc)])
    assert got == code
    assert json.loads(out)["verdict"] == verdict


_V = _pair_doc()["v"]


@pytest.mark.parametrize(
    "doc, message",
    [
        (5, "pair document needs fields 'v' and 'w'"),
        ({"v": _V}, "pair document needs fields 'v' and 'w'"),
        ({"v": _V, "w": 5}, "vector document must be an object"),
        ({"v": _V, "w": {"N": 1, "shape": "Sym(2)"}}, "vector document is missing 'entries'"),
    ],
)
def test_malformed_pair_document_is_exit_1(tmp_path, doc, message):
    code, out = run(["pair-check", "--pair", _write(tmp_path, "pair.json", doc)])
    assert code == 1
    assert json.loads(out) == _error(message, "pair-check")


@pytest.mark.parametrize("tmin, samples", [("0.5", 2), ("0.05", 6)])
def test_energy_profile_without_a_slope(tmp_path, tmin, samples):
    # a slope needs three samples spanning two decades of t
    path = _write(tmp_path, "pair.json", _pair_doc())
    code, out = run(["energy-profile", "--pair", path, "--u", "1,-1", "--tmin", tmin])
    assert code == 0
    doc = json.loads(out)
    assert doc["slope"] is None
    assert len(doc["samples"]) == samples
