from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from momentcut.cli import run
from momentcut.corpus import asymmetric_wedge, box, chopped_cube, delta3
from momentcut.polytope import MAX_DIM, canonical_equal, dumps, loads

F = Fraction


@pytest.fixture
def square_file(tmp_path):
    p = tmp_path / "square.json"
    p.write_text(dumps(box(F(1), F(1))))
    return str(p)


@pytest.fixture
def pex2_file(tmp_path):
    p = tmp_path / "pex2.json"
    p.write_text(dumps(asymmetric_wedge()))
    return str(p)


@pytest.fixture
def d3_file(tmp_path):
    p = tmp_path / "d3.json"
    p.write_text(dumps(delta3()))
    return str(p)


def test_validate_ok(square_file):
    out = run(["validate", "--in", square_file])
    assert out.exit_code == 0 and out.payload["valid"]


def test_validate_invalid(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"dim": 2, "facets": [
        {"normal": [1, 0], "offset": "1", "label": 1},
        {"normal": [0, 1], "offset": "1", "label": 1}]}))
    out = run(["validate", "--in", str(p)])
    assert out.exit_code == 1 and not out.payload["valid"]


def test_unknown_flag_is_usage_error():
    out = run(["validate", "--nope"])
    assert out.exit_code == 1 and out.payload["error"] == "input"


def test_missing_file():
    out = run(["validate", "--in", "/definitely/not/here.json"])
    assert out.exit_code == 1


def test_reduce_exit_codes(square_file):
    assert run(["reduce", "--level", "1/2", "--in", square_file]).exit_code == 0
    out = run(["reduce", "--level", "0", "--in", square_file])
    assert out.exit_code == 2 and out.payload["kind"] == "NotRegularLevel"


def test_float_flag_rejected(square_file):
    out = run(["reduce", "--level", "0.5", "--in", square_file])
    assert out.exit_code == 1
    assert "1/2" in out.payload["message"]


def test_nonprimitive_normal_rejected_with_suggestion(tmp_path):
    p = tmp_path / "np.json"
    p.write_text(json.dumps({"dim": 2, "facets": [
        {"normal": [2, 4], "offset": "1", "label": 1},
        {"normal": [-1, 0], "offset": "0", "label": 1},
        {"normal": [0, -1], "offset": "0", "label": 1}]}))
    out = run(["validate", "--in", str(p)])
    assert out.exit_code == 1
    assert "[1, 2]" in out.payload["message"]


def test_add_fixed_points_pipeline(pex2_file, tmp_path):
    outfile = str(tmp_path / "out.json")
    out = run(["add-fixed-points", "--eps", "1/4", "--in", pex2_file,
               "--out", outfile])
    assert out.exit_code == 0
    rep = out.payload["report"]
    assert rep["ok"] and len(rep["new_fixed_vertices"]) == 2
    assert all(v["weights"] == [-2, 1] for v in rep["new_fixed_vertices"])
    assert {t["multiplier"] for t in out.payload["ledger"]["terms"]} == {"1/2"}
    # the file written alongside round-trips
    saved = loads(open(outfile).read())
    assert canonical_equal(saved, loads(json.dumps(out.payload["polytope"])))


def test_wall_check(d3_file):
    out = run(["wall-check", "--wall", "0", "--window", "1/2", "--in", d3_file])
    assert out.exit_code == 0 and out.payload["ok"]
    assert out.payload["fixed_vertices"][0]["weights"] == [-1, 1, 1]


def test_wall_check_precondition(square_file):
    out = run(["wall-check", "--wall", "1/2", "--in", square_file])
    assert out.exit_code == 2
    assert out.payload["kind"] == "WallNotSimpleCrossing"


def test_blowup_by_index_and_ledger(square_file):
    out = run(["blowup", "--vertex-index", "0", "--depth", "1/4",
               "--in", square_file])
    assert out.exit_code == 0
    assert out.payload["ledger"]["terms"][0]["multiplier"] == "1"
    assert out.payload["ledger"]["terms"][0]["depth"] == "1/4"
    facet_idx = out.payload["ledger"]["terms"][0]["facet"]
    facet = out.payload["polytope"]["facets"][facet_idx]
    assert facet["normal"] == [-1, -1]


def test_cut_reverse_reverse_diff(square_file, tmp_path):
    cut_out = run(["cut", "--level", "1/2", "--in", square_file,
                   "--out", str(tmp_path / "cut.json")])
    assert cut_out.exit_code == 0
    r1 = run(["reverse", "--in", str(tmp_path / "cut.json"),
              "--out", str(tmp_path / "r1.json")])
    r2 = run(["reverse", "--in", str(tmp_path / "r1.json"),
              "--out", str(tmp_path / "r2.json")])
    assert r1.exit_code == r2.exit_code == 0
    diff = run(["diff", "--in", str(tmp_path / "cut.json"),
                "--other", str(tmp_path / "r2.json")])
    assert diff.exit_code == 0 and diff.payload["equal"]
    diff2 = run(["diff", "--in", str(tmp_path / "cut.json"),
                 "--other", str(tmp_path / "r1.json")])
    assert diff2.exit_code == 1 and not diff2.payload["equal"]


def test_compactify_cli(tmp_path):
    strip = {"dim": 2, "facets": [
        {"normal": [-1, 0], "offset": "0", "label": 1},
        {"normal": [0, -1], "offset": "0", "label": 1},
        {"normal": [0, 1], "offset": "1", "label": 1}]}
    p = tmp_path / "strip.json"
    p.write_text(json.dumps(strip))
    out = run(["compactify", "--min", "1/4", "--max", "3/4", "--in", str(p)])
    assert out.exit_code == 0
    offsets = {tuple(f["normal"]): f["offset"]
               for f in out.payload["polytope"]["facets"]}
    assert offsets[(1, 0)] == "3/4" and offsets[(-1, 0)] == "-1/4"


def test_dh_csv_and_reports(d3_file, tmp_path):
    csv = tmp_path / "mu.csv"
    out = run(["dh", "--in", d3_file, "--csv", str(csv), "--samples", "9",
               "--check-log-concavity", "--local-minima"])
    assert out.exit_code == 0
    assert out.payload["total_integral"] == "1/6"
    assert out.payload["log_concavity"]["log_concave"]
    assert out.payload["strict_local_minima"] == []
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "s,mu"
    assert len(lines) == 10
    assert lines[1] == "-1,0"
    # every value is a rational string, never a float
    for line in lines[1:]:
        assert "." not in line


def test_dh_deterministic(d3_file):
    a = run(["dh", "--in", d3_file])
    b = run(["dh", "--in", d3_file])
    assert a.payload == b.payload


def test_info_report(pex2_file):
    out = run(["info", "--in", pex2_file])
    assert out.exit_code == 0
    assert out.payload["critical_values"] == ["-1", "1"]
    kinds = {v["class"]["kind"] for v in out.payload["vertices"]}
    assert kinds == {"z2", "orbifold"}
    orders = {s["order"] for s in out.payload["facet_stabilizer_orders"]}
    assert orders == {2, "infinite"}


def test_stdin_composite_envelope(square_file, tmp_path, monkeypatch):
    # ops accept the composite {"polytope": ...} payload of a previous op
    import io
    import sys

    cut_out = run(["cut", "--level", "1/2", "--in", square_file])
    text = json.dumps(cut_out.payload)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    out = run(["reverse", "--in", "-"])
    assert out.exit_code == 0


def test_local_model_single_values():
    out = run(["local-model", "npm", "--weights=-2,2", "--z", "4,9"])
    assert out.exit_code == 0
    assert out.payload == {"n_minus": 2.0, "n_plus": 3.0}
    out = run(["local-model", "solve", "--weights", "1", "--z", "1",
               "--level", "2"])
    assert out.exit_code == 0
    assert abs(out.payload["time"] - 0.5 * 1.3862943611198906) < 1e-9


def test_local_model_batteries_cli():
    out = run(["local-model", "monotone", "--weights", "1", "--trials", "25",
               "--seed", "5"])
    assert out.exit_code == 0 and out.payload["ok"]
    out = run(["local-model", "convexity", "--weights=-1,1", "--trials", "20",
               "--seed", "5"])
    assert out.exit_code == 0 and out.payload["ok"]
    out = run(["local-model", "convexity", "--weights=-1,1", "--trials", "10",
               "--seed", "5", "--bad-region"])
    assert out.payload["reentries"] > 0


@pytest.fixture
def half_strip_file(tmp_path):
    """The unbounded half-strip x >= 0, 0 <= y <= 1."""
    strip = {"dim": 2, "facets": [
        {"normal": [-1, 0], "offset": "0", "label": 1},
        {"normal": [0, -1], "offset": "0", "label": 1},
        {"normal": [0, 1], "offset": "1", "label": 1}]}
    p = tmp_path / "strip.json"
    p.write_text(json.dumps(strip))
    return str(p)


def test_dh_refuses_unbounded_region(half_strip_file):
    # the half-strip has no density profile
    out = run(["dh", "--in", half_strip_file])
    assert out.exit_code == 2 and out.payload["error"] == "precondition"
    assert "[1, 0]" in out.payload["message"]


def test_info_refuses_unbounded_region(half_strip_file):
    # its critical values would be only one end of its moment image
    out = run(["info", "--in", half_strip_file])
    assert out.exit_code == 2 and out.payload["error"] == "precondition"
    assert "[1, 0]" in out.payload["message"]


@pytest.mark.parametrize("argv", [["reverse"], ["cut", "--level", "1/2"]],
                         ids=["reverse", "cut"])
def test_out_to_missing_directory_refused(d3_file, tmp_path, argv):
    out = run(argv + ["--in", d3_file, "--out", str(tmp_path / "missing-dir" / "x.json")])
    assert out.exit_code == 1 and out.payload["error"] == "input"
    assert "cannot write" in out.payload["message"]


def _wedge_doc() -> dict:
    return json.loads(dumps(asymmetric_wedge()))


def _facets_not_list(doc):
    doc["facets"] = {"normal": [1, 0], "offset": "1"}


def _facets_ints(doc):
    doc["facets"] = [1, 2]


def _label_true(doc):
    doc["facets"][1]["label"] = True


def _dim_true(doc):
    # a segment, so that dim true would otherwise read as dim 1
    doc["dim"] = True
    doc["facets"] = [{"normal": [1], "offset": "1"}, {"normal": [-1], "offset": "0"}]


def _normal_entry_false(doc):
    doc["facets"][0]["normal"] = [False, 1]


@pytest.mark.parametrize("corrupt", [
    _facets_not_list, _facets_ints, _label_true, _dim_true, _normal_entry_false,
], ids=lambda f: f.__name__.lstrip("_"))
def test_malformed_polytope_refused(tmp_path, corrupt):
    doc = _wedge_doc()
    corrupt(doc)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    out = run(["validate", "--in", str(p)])
    assert out.exit_code == 1 and out.payload["error"] == "input"
    assert out.payload["message"]


@pytest.mark.parametrize("target,message", [
    ("-", "give a file path"),
    ("missing-dir/mu.csv", "cannot write"),
])
def test_dh_csv_target_refused(d3_file, tmp_path, target, message):
    csv = target if target == "-" else str(tmp_path / target)
    out = run(["dh", "--in", d3_file, "--csv", csv])
    assert out.exit_code == 1 and out.payload["error"] == "input"
    assert message in out.payload["message"]


def test_cut_identity_single_point_serializes():
    out = run(["local-model", "cut-identity", "--weights=-1,2", "--z", "1+1j,2-1j,1j"])
    assert out.exit_code == 0 and out.payload["ok"] is True
    json.dumps(out.payload)


def test_closed_stdout_is_no_traceback(tmp_path):
    # `momentcut info ... | head -1`: the reader is gone before the report
    # is written; here it is gone from the start, so the write must fail
    p = tmp_path / "chopped-cube.json"
    p.write_text(dumps(chopped_cube()))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [x for x in os.environ.get("PYTHONPATH", "").split(os.pathsep) if x]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "momentcut.cli", "info", "--in", str(p)],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == ""


@pytest.mark.parametrize("command", ["info", "dh"])
def test_dimension_cap_refused(tmp_path, command):
    n = MAX_DIM + 1
    p = tmp_path / "cube.json"
    p.write_text(dumps(box(*[F(1)] * n)))
    out = run([command, "--in", str(p)])
    assert out.exit_code == 2 and out.payload["error"] == "precondition"
    assert out.payload["message"] == run(["validate", "--in", str(p)]).payload["failures"][0]
