from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from momentcut.cli import _HANDLERS, _emit, run
from momentcut.corpus import asymmetric_wedge, box, chopped_cube, delta3
from momentcut.ops import add_fixed_points
from momentcut.polytope import MAX_DIM, canonical_equal, dumps, loads

from conftest import cut_8_cube, empty_8d_region

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


@pytest.mark.parametrize("command", ["reduce", "cut"])
def test_negative_rational_level_is_a_value(d3_file, command):
    out = run([command, "--level", "-1/2", "--in", d3_file])
    assert out.exit_code == 0, out.payload
    assert run([command, "--level=-1/2", "--in", d3_file]) == out


def test_negative_list_values_are_values():
    out = run(["local-model", "npm", "--weights", "-1,1", "--z", "-1+2j,3"])
    assert out.exit_code == 0, out.payload
    assert run(["local-model", "npm", "--weights=-1,1", "--z=-1+2j,3"]) == out


def test_float_flag_rejected(square_file):
    out = run(["reduce", "--level", "0.5", "--in", square_file])
    assert out.exit_code == 1
    assert "1/2" in out.payload["message"]


def test_validate_names_the_facet_by_input_position(tmp_path):
    # the bad facet comes second and sorts first
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"dim": 2, "facets": [
        {"normal": [1, 0], "offset": "1"}, {"normal": [-1], "offset": "0"}]}))
    out = run(["validate", "--in", str(p)])
    assert out.exit_code == 1
    assert out.payload["message"] == "facet 1: normal has length 1, expected 2"


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
    saved = loads(Path(outfile).read_text())
    assert canonical_equal(saved, loads(json.dumps(out.payload["polytope"])))


def test_wall_check(d3_file):
    out = run(["wall-check", "--wall", "0", "--window", "1/2", "--in", d3_file])
    assert out.exit_code == 0 and out.payload["ok"]
    assert out.payload["fixed_vertices"][0]["weights"] == [-1, 1, 1]


# wall-check JSON for two walls, byte for byte as the former special
# cases for weights (-1, 1, ..) and (-2, 1, ..) printed it
WALL_CHECK_DELTA3 = (
    '{"blowup_match": {"samples": [{"equal": true, "s": "1/8"}, '
    '{"equal": true, "s": "1/4"}], "verdict": true}, '
    '"euler_slopes": {"above": [{"normal": [-1, -1], "slope": "-1"}, '
    '{"normal": [-1, 0], "slope": "0"}, {"normal": [0, -1], "slope": "0"}, '
    '{"normal": [1, 1], "slope": "1/2"}], "below": [{"inducing_facet": 0, '
    '"normal": [1, 1], "slope": "1/2"}, {"inducing_facet": 1, '
    '"normal": [-1, 0], "slope": "0"}, {"inducing_facet": 2, "normal": [0, '
    '-1], "slope": "0"}]}, '
    '"fixed_vertices": [{"class": {"half_sum_integral": false, "index": 1, '
    '"kind": "smooth"}, "class_coefficient": "2*pi*(s - 0)", '
    '"depth_law_ok": true, "exceptional_normal": [-1, -1], '
    '"exceptional_offset_slope": "-1", "image_vertex_ok": true, '
    '"multiplicity": 1, "point": ["0", "0", "0"], "weights": [-1, 1, 1]}], '
    '"ok": true, "reversed": {"coefficient_sign": "flipped", '
    '"mirror_slices_ok": true, "ok": true, "wall": "0", "weights": [[-1, '
    '-1, 1]], "weights_negated_ok": true}, "wall": "0", "window": "1/2"}'
)

WALL_CHECK_WEDGE_AFP = (
    '{"blowup_match": {"samples": [{"equal": true, "s": "1/32"}, '
    '{"equal": true, "s": "1/16"}], "verdict": true}, '
    '"euler_slopes": {"above": [{"normal": [-1], "slope": "0"}, '
    '{"normal": [1], "slope": "0"}], "below": [{"inducing_facet": 0, '
    '"normal": [-1], "slope": "1/2"}, {"inducing_facet": 1, "normal": [1], '
    '"slope": "1/2"}]}, '
    '"fixed_vertices": [{"class": {"half_sum_integral": false, "index": 1, '
    '"kind": "smooth"}, "class_coefficient": "pi*(s - 0)", '
    '"depth_law_ok": true, "exceptional_normal": [-1], '
    '"exceptional_offset_slope": "0", "image_vertex_ok": true, '
    '"multiplicity": 2, "point": ["0", "-1/2"], "weights": [-2, 1]}, '
    '{"class": {"half_sum_integral": false, "index": 1, "kind": "smooth"}, '
    '"class_coefficient": "pi*(s - 0)", "depth_law_ok": true, '
    '"exceptional_normal": [1], "exceptional_offset_slope": "0", '
    '"image_vertex_ok": true, "multiplicity": 2, "point": ["0", "1/2"], '
    '"weights": [-2, 1]}], "ok": true, '
    '"reversed": {"coefficient_sign": "flipped", "mirror_slices_ok": true, '
    '"ok": true, "wall": "0", "weights": [[-1, 2], [-1, 2]], '
    '"weights_negated_ok": true}, "wall": "0", "window": "1/8"}'
)


def test_wall_check_output_pinned(d3_file, tmp_path):
    afp = tmp_path / "afp.json"
    afp.write_text(dumps(add_fixed_points(asymmetric_wedge(), F(1, 4))[0]))
    for argv, want in ((["--wall", "0", "--window", "1/2", "--in", d3_file], WALL_CHECK_DELTA3),
                       (["--wall", "0", "--in", str(afp)], WALL_CHECK_WEDGE_AFP)):
        out = run(["wall-check", *argv])
        assert out.exit_code == 0
        assert json.dumps(out.payload, sort_keys=True) == want


def test_add_fixed_points_eps_above_image(tmp_path):
    # a unimodular image of delta3 with x1 in [-5/2, -3/2]: the cut below
    # eps = 1/8 is redundant
    p = tmp_path / "low.json"
    p.write_text(json.dumps({"dim": 3, "facets": [
        {"normal": [-2, 1, -2], "offset": "11/2"}, {"normal": [0, 0, 1], "offset": "0"},
        {"normal": [1, -1, 1], "offset": "-3"}, {"normal": [1, 0, 0], "offset": "-3/2"}]}))
    out = run(["add-fixed-points", "--eps", "1/8", "--in", str(p)])
    assert out.exit_code == 2
    assert out.payload["message"] == "eps = 1/8 lies above the top -3/2 of the moment image"


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


@pytest.mark.parametrize("level", ["2/4", "+1/2", " 1/2"])
def test_cut_prints_the_normalized_level(square_file, level):
    out = run(["cut", "--level", level, "--in", square_file])
    assert out.exit_code == 0 and out.payload["level"] == "1/2"
    assert run(["reduce", "--level", level, "--in", square_file]).payload["level"] == "1/2"


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


def test_diff_names_the_differing_facets(square_file, tmp_path):
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"dim": 2, "facets": [
        {"normal": [1, 0], "offset": "2"}, {"normal": [-1, 0], "offset": "0"},
        {"normal": [0, 1], "offset": "1"}, {"normal": [0, -1], "offset": "0", "label": 2},
        # redundant: no part of the canonical key
        {"normal": [1, 1], "offset": "5"}]}))
    out = run(["diff", "--in", square_file, "--other", str(other)])
    assert out.exit_code == 1 and out.payload == {"equal": False, "facets_only_in": {
        "in": [{"normal": [0, -1], "offset": "0", "label": 1},
               {"normal": [1, 0], "offset": "1", "label": 1}],
        "other": [{"normal": [0, -1], "offset": "0", "label": 2},
                  {"normal": [1, 0], "offset": "2", "label": 1}]}}
    assert run(["diff", "--in", square_file, "--other", square_file]).payload == {
        "equal": True}


def test_diff_refuses_a_region_without_vertex(square_file, tmp_path):
    # two empty regions are one set, but their facets were listed as differing
    files = []
    for k, far in enumerate(("-1", "-2")):
        p = tmp_path / f"empty{k}.json"
        p.write_text(json.dumps({"dim": 2, "facets": [
            {"normal": [1, 0], "offset": "0"}, {"normal": [-1, 0], "offset": far},
            {"normal": [0, 1], "offset": "1"}, {"normal": [0, -1], "offset": "0"}]}))
        files.append(str(p))
    for pair in (files, [square_file, files[0]]):
        out = run(["diff", "--in", pair[0], "--other", pair[1]])
        assert out.exit_code == 2 and out.payload["message"] == (
            "the region is empty: facets 0, 3 have no common point; "
            "diff needs a vertex on each side")


@pytest.mark.parametrize("facets, message", [
    ([([1, 0], "0"), ([-1, 0], "-1"), ([0, 1], "1"), ([0, -1], "0")],
     "the region is empty: facets 0, 3 have no common point; blowup needs a vertex"),
    ([([0, 1], "1"), ([0, -1], "0")],
     "the region has no vertex (it is empty or contains a line); blowup needs a vertex"),
])
def test_blowup_refuses_a_region_without_vertex(tmp_path, facets, message):
    # --vertex-index 0 answered "out of range 0..-1"
    p = tmp_path / "region.json"
    p.write_text(json.dumps({"dim": 2, "facets": [
        {"normal": nrm, "offset": off} for nrm, off in facets]}))
    for pick in (["--vertex-index", "0"], ["--vertex", "0,0"]):
        out = run(["blowup", *pick, "--depth", "1/4", "--in", str(p)])
        assert out.exit_code == 2 and out.payload["message"] == message


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


@pytest.mark.parametrize("samples", ["-3", "0", "1", "100001", "1000000000"])
def test_dh_samples_below_two_refused(d3_file, tmp_path, samples):
    csv = tmp_path / "mu.csv"
    out = run(["dh", "--in", d3_file, "--csv", str(csv), f"--samples={samples}"])
    assert out.exit_code == 1 and out.payload["error"] == "input"
    assert out.payload["message"].startswith("--samples")
    assert "100000" in out.payload["message"]
    assert not csv.exists()


def test_dh_samples_not_an_integer_refused(d3_file):
    out = run(["dh", "--in", d3_file, "--samples", "x"])
    assert out.exit_code == 1
    assert out.payload["message"] == "--samples takes an integer, got 'x'"


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
    out = run(["local-model", "monotone", "--trials", "25", "--seed", "5"])
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


def _src_env() -> dict:
    """The environment of a child interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [x for x in os.environ.get("PYTHONPATH", "").split(os.pathsep) if x]))


def test_closed_stdout_is_no_traceback(tmp_path):
    # `momentcut info ... | head -1`: the reader is gone before the report
    # is written; here it is gone from the start, so the write must fail
    p = tmp_path / "chopped-cube.json"
    p.write_text(dumps(chopped_cube()))
    env = _src_env()
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


# the options each polytope command needs besides --in
_POLYTOPE_COMMANDS = {
    "info": [], "dh": [], "reverse": [], "diff": ["--other", "{p}"],
    "reduce": ["--level", "1/2"], "cut": ["--level", "1/2"],
    "compactify": ["--min", "1/4", "--max", "3/4"],
    "blowup": ["--vertex-index", "0", "--depth", "1/4"],
    "add-fixed-points": ["--eps", "1/4"], "wall-check": ["--wall", "0"],
}


def test_polytope_commands_listed():
    assert set(_POLYTOPE_COMMANDS) == set(_HANDLERS) - {"validate", "local-model"}


@pytest.mark.parametrize("command", list(_POLYTOPE_COMMANDS))
def test_dimension_cap_refused(tmp_path, command):
    n = MAX_DIM + 1
    p = tmp_path / "cube.json"
    p.write_text(dumps(box(*[F(1)] * n)))
    options = [o.format(p=p) for o in _POLYTOPE_COMMANDS[command]]
    out = run([command, *options, "--in", str(p)])
    assert out.exit_code == 2 and out.payload["error"] == "precondition"
    assert out.payload["message"] == run(["validate", "--in", str(p)]).payload["failures"][0]
    assert out.payload["message"] == f"dimension {n} exceeds the supported maximum {MAX_DIM}"


# small JSON values of every kind
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)


@st.composite
def _polytope_json(draw):
    """A box around 0 cut by at most three facets, in dimension 1 to 3,
    with at most one part of its file spoilt."""
    dim = draw(st.integers(1, 3))
    box = [tuple(sign * (i == k) for i in range(dim)) for k in range(dim) for sign in (1, -1)]
    cuts = st.lists(st.integers(-1, 1), min_size=dim, max_size=dim).map(tuple).filter(any)
    facets = []
    for normal in dict.fromkeys(box + draw(st.lists(cuts, max_size=3))):
        lo = F(1, 3) if normal in box else F(-1)
        facets.append({"normal": list(normal),
                       "offset": str(draw(st.fractions(lo, 2, max_denominator=3)))})
        if draw(st.booleans()):
            facets[-1]["label"] = draw(st.integers(1, 3))
    doc = {"dim": dim, "facets": facets}
    spoil = draw(st.sampled_from([None, None, None, "dim", "facets", "normal",
                                  "offset", "label"]))
    if spoil in ("dim", "facets"):
        doc[spoil] = draw(_JSON)
    elif spoil:
        draw(st.sampled_from(facets))[spoil] = draw(_JSON)
    return draw(st.sampled_from([doc, {"polytope": doc}]))


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("docs") / "doc.json"


@settings(max_examples=60, deadline=None)
@given(doc=_polytope_json() | _JSON)
def test_polytope_commands_answer_any_json(doc_path, doc):
    # each command imports its engine names when it runs, so only running
    # every command finds a name that one of them does not import
    doc_path.write_text(json.dumps(doc))
    for command, options in {"validate": [], **_POLYTOPE_COMMANDS}.items():
        out = run([command, *(o.format(p=doc_path) for o in options),
                   "--in", str(doc_path)])
        assert out.exit_code in (0, 1, 2, 3)
        if out.exit_code and not (command == "validate" and out.payload.get("failures")):
            assert out.payload["message"], (command, out.payload)


def test_empty_region_refused_fast_by_name(tmp_path):
    # x1 <= -1 and -x1 <= 0 among 28 random facets in dimension 8; scanning
    # the C(30, 8) = 5 852 925 facet subsets for a vertex ran for minutes
    P = empty_8d_region()
    pair = [k for k, f in enumerate(P.facets) if f.normal[1:] == (0,) * 7]
    p = tmp_path / "empty.json"
    p.write_text(dumps(P))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "momentcut.cli", "info", "--in", str(p)],
                          capture_output=True, text=True, env=_src_env(), timeout=60)
    elapsed = time.perf_counter() - t0
    named = f"facets {pair[0]}, {pair[1]} have no common point"
    assert proc.returncode == 2 and elapsed < 2.0, elapsed
    assert json.loads(proc.stdout)["message"] == (
        f"the region is empty: {named}; info needs a bounded polytope")
    assert run(["validate", "--in", str(p)]).payload["failures"] == [f"empty: {named}"]


def test_non_simple_region_validated_fast(tmp_path):
    # 326 vertices, 15 of them on 9 facets: the recession cone from all
    # C(30, 7) facet subsets ran for 892 s after a walk of 0.3 s
    P = cut_8_cube()
    p = tmp_path / "cut-cube.json"
    p.write_text(dumps(P))
    t0 = time.perf_counter()
    out = run(["validate", "--in", str(p)])
    elapsed = time.perf_counter() - t0
    assert out.exit_code == 1 and elapsed < 1.0, elapsed
    # each names a point of 8 coordinates and its 9 facets
    failures = out.payload["failures"]
    assert len(failures) == 15 and all(
        f.startswith("not simple: vertex (") and f.count(",") == 7 + 8 for f in failures)


def _cross_polytope(n: int) -> dict:
    """|x_1| + ... + |x_n| <= 1: 2n vertices, each on 2^(n-1) facets."""
    return {"dim": n, "facets": [{"normal": list(signs), "offset": "1", "label": 1}
                                 for signs in product((1, -1), repeat=n)]}


def test_not_simple_names_the_vertex(tmp_path):
    p = tmp_path / "cross.json"
    p.write_text(json.dumps(_cross_polytope(3)))
    out = run(["info", "--in", str(p)])
    assert out.exit_code == 1 and out.payload == {
        "error": "input", "message": "vertex (-1, 0, 0) lies on 4 facets"}


@pytest.mark.parametrize("n", [6, 7, 8])
@pytest.mark.parametrize("command", ["validate", "info"])
def test_cross_polytope_refused_fast(tmp_path, command, n):
    # each vertex lies on 2^(n-1) facets: the C(2^(n-1), n-1) facet subsets
    # of one vertex's tangent cone ran for over a minute at n = 6
    p = tmp_path / "cross.json"
    p.write_text(json.dumps(_cross_polytope(n)))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "momentcut.cli", command, "--in", str(p)],
                          capture_output=True, text=True, env=_src_env(), timeout=60)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 1 and elapsed < 2.0, elapsed
    vertex = "(-1" + ", 0" * (n - 1) + ")"
    if command == "info":
        assert json.loads(proc.stdout)["message"] == (
            f"vertex {vertex} lies on {2 ** (n - 1)} facets")
    else:
        failures = json.loads(proc.stdout)["failures"]
        assert len(failures) == 2 * n and failures[0].startswith(
            f"not simple: vertex {vertex} lies on facets [0, 1, 2, ")


_LOADED = """
import json, sys
from momentcut import cli
out = cli.run(sys.argv[1:])
print(json.dumps({"exit": out.exit_code, "numpy": "numpy" in sys.modules,
                  "modules": sorted(m for m in sys.modules if m.startswith("momentcut"))}))
"""

_CLI = ["momentcut", "momentcut.cli", "momentcut.errors", "momentcut.lattice"]
_POLYTOPE = _CLI + ["momentcut.polytope"]
_OPS = _POLYTOPE + ["momentcut.ops", "momentcut.toric"]
_DH = _OPS + ["momentcut.dh", "momentcut.ratpoly"]

# each command's arguments and the momentcut modules it loads
_COMMAND_MODULES = {
    "validate": (["--in", "{d3}"], _POLYTOPE),
    "diff": (["--in", "{d3}", "--other", "{d3}"], _POLYTOPE),
    "info": (["--in", "{d3}", "--xi", "1,0,0"], _POLYTOPE + ["momentcut.toric"]),
    "reduce": (["--in", "{d3}", "--level=-1/2"], _OPS),
    "cut": (["--in", "{d3}", "--level=-1/2", "--out", "{out}"], _OPS),
    "compactify": (["--in", "{d3}", "--min=-1/2", "--max=-1/4"], _OPS),
    "blowup": (["--in", "{square}", "--vertex-index", "0", "--depth", "1/4"], _OPS),
    "add-fixed-points": (["--in", "{wedge}", "--eps", "1/4"], _OPS),
    "reverse": (["--in", "{d3}"], _OPS),
    "dh": (["--in", "{d3}", "--check-log-concavity", "--local-minima"], _DH),
    "wall-check": (["--in", "{d3}", "--wall", "0", "--window", "1/2"], _DH),
    "local-model": (["npm", "--weights=-2,2", "--z", "4,9"],
                    _CLI + ["momentcut.batteries", "momentcut.localmodel"]),
}


def _fresh(code: str, *argv: str) -> dict:
    """The JSON line that `code` prints in a fresh interpreter, which no
    other test has made import anything."""
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("command", list(_HANDLERS))
def test_command_loads_only_its_modules(tmp_path, d3_file, pex2_file, square_file,
                                        command):
    # a command starts with the modules it runs, and only local-model numpy
    argv, modules = _COMMAND_MODULES[command]
    files = dict(d3=d3_file, wedge=pex2_file, square=square_file,
                 out=str(tmp_path / "out.json"))
    got = _fresh(_LOADED, command, *(a.format(**files) for a in argv))
    assert got == {"exit": 0, "numpy": command == "local-model",
                   "modules": sorted(modules)}


_PACKAGE = """
import importlib, json, sys
import momentcut
loaded = sorted(m for m in sys.modules if m.startswith("momentcut"))
homes = {}
for name in momentcut.__all__:
    obj = getattr(momentcut, name)
    home = importlib.import_module(obj.__module__)
    if obj.__name__ == name and vars(home).get(name) is obj:
        homes[name] = obj.__module__
print(json.dumps({"loaded": loaded, "all": momentcut.__all__, "homes": homes}))
"""


def test_package_loads_no_submodule_until_a_name_is_used():
    got = _fresh(_PACKAGE)
    assert got["loaded"] == ["momentcut"]
    # every public name is the object that its own module defines
    assert len(got["all"]) == 54 and set(got["homes"]) == set(got["all"])
    assert {m.split(".")[0] for m in got["homes"].values()} == {"momentcut"}


def test_package_refuses_an_unknown_name():
    import momentcut

    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        momentcut.nothing


@pytest.mark.parametrize("argv", [["run_local_model.py", "--trials", "5"],
                                  ["run_corpus.py"]])
def test_scripts_run(argv):
    script = Path(__file__).resolve().parents[1] / "scripts" / argv[0]
    proc = subprocess.run([sys.executable, str(script), *argv[1:]],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "FAILURES" not in proc.stdout


@pytest.mark.parametrize("argv,option", [
    (["info", "--xi", "1,a"], "--xi"),
    (["info", "--xi", "1,0"], "--xi"),
    (["info", "--xi", "1,0,0,0"], "--xi"),
    (["local-model", "npm", "--weights", "1,a", "--z", "1,2"], "--weights"),
    (["local-model", "npm", "--weights=1,-1", "--z", "1,a"], "--z"),
    (["local-model", "npm", "--weights=1,-1", "--z", "1"], "--z"),
    (["local-model", "solve", "--weights=1,-1", "--z", "1,2,3", "--level", "1"], "--z"),
    (["local-model", "membership", "--weights=1,-1", "--z", "1", "--level", "1"], "--z"),
    (["local-model", "cut-identity", "--weights=1,-1", "--z", "1"], "--z"),
    (["local-model", "cut-identity", "--weights=1,-1", "--z", "1,2"], "--z"),
    (["local-model", "npm", "--weights", "9" * 400, "--z", "1"], "--weights"),
], ids=["xi-not-int", "xi-short", "xi-long", "weights-not-int", "z-not-complex",
        "npm-z-short", "solve-z-long", "membership-z-short", "cut-identity-z-short",
        "cut-identity-z-no-w", "weights-overflow-double"])
def test_option_refused_by_name(d3_file, argv, option):
    if argv[0] == "info":
        argv = argv + ["--in", d3_file]
    out = run(argv)
    assert out.exit_code == 1 and out.payload["error"] == "input"
    assert out.payload["message"].startswith(option)


@pytest.fixture(scope="module")
def d3_module_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cli") / "d3.json"
    p.write_text(dumps(delta3()))
    return str(p)


# short comma-separated strings, most of them malformed
_TEXT = st.text(alphabet=st.sampled_from("0123456789-+.,ej() xa_"), max_size=12)


def _ints_text(size):
    return st.lists(st.integers(-4, 4), min_size=size, max_size=size).map(
        lambda xs: ",".join(map(str, xs)))


def _complexes_text(size):
    return st.lists(st.complex_numbers(max_magnitude=1e6), min_size=size,
                    max_size=size).map(lambda zs: ",".join(map(repr, zs)))


@settings(max_examples=150, deadline=None)
@given(xi=_TEXT | st.integers(1, 4).flatmap(_ints_text))
def test_info_xi_never_escapes(d3_module_file, xi):
    out = run(["info", "--in", d3_module_file, f"--xi={xi}"])
    assert out.exit_code in (0, 1)


@st.composite
def _local_model_argv(draw):
    op = draw(st.sampled_from(["solve", "membership", "npm", "cut-identity"]))
    n = draw(st.integers(1, 4))
    z_len = n + 1 if op == "cut-identity" else n
    weights = draw(_TEXT | _ints_text(n))
    z = draw(_TEXT | _complexes_text(z_len) | st.integers(1, 5).flatmap(_complexes_text))
    argv = ["local-model", op, f"--weights={weights}", f"--z={z}"]
    if op in ("solve", "membership"):
        # --level keeps solve and membership on the single-point path:
        # without it they run a 1000-trial battery; npm and cut-identity
        # refuse it
        argv += ["--level", draw(st.sampled_from(["-1", "0", "0.5", "3"]))]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=_local_model_argv())
def test_local_model_arguments_never_escape(argv):
    assert run(argv).exit_code in (0, 1, 2, 3)


@pytest.mark.parametrize("argv,option", [
    (["membership", "--weights=-1,1", "--z", "1,1", "--level", "nan"], "--level"),
    (["solve", "--weights=-1,1", "--z", "1,1", "--level", "1e400"], "--level"),
    (["convexity", "--weights=-1,1", "--eps", "inf"], "--eps"),
    (["convexity", "--weights=-1,1", "--eps-prime=-inf"], "--eps-prime"),
    (["convexity", "--weights=-1,1", "--delta", "nan"], "--delta"),
    (["psh", "--weights=-1,1", "--t0", "nan"], "--t0"),
    (["npm", "--weights=-1,1", "--z", "inf,1"], "--z"),
    (["npm", "--weights=-1,1", "--z", "1,nanj"], "--z"),
    (["solve", "--weights=-1,1", "--z", "1,1"], "--level"),
    (["membership", "--weights=-1,1", "--z", "1,1"], "--level"),
    (["solve", "--weights=-1,1", "--level", "1"], "--z"),
    (["membership", "--weights=-1,1", "--level", "1"], "--z"),
    (["solve", "--weights=--", "--z=", "--level", "-1"], "--weights"),
    (["npm", "--weights=-1,1", "--z=--"], "--z"),
    (["monotone", "--seed", "-1"], "--seed"),
    (["psh", "--n", "0"], "--n"),
    (["psh", "--n", "-1"], "--n"),
    (["psh", "--n", "1001"], "--n"),
    (["monotone", "--trials", "-3"], "--trials"),
    (["monotone", "--trials", "0"], "--trials"),
    (["convexity", "--weights=-1,1", "--trials", "10001"], "--trials"),
    (["solve", "--trials", "1e3"], "--trials"),
], ids=["level-nan", "level-overflow", "eps-inf", "eps-prime-inf", "delta-nan",
        "t0-nan", "z-inf", "z-nan-imag", "solve-z-without-level",
        "membership-z-without-level", "solve-level-without-z",
        "membership-level-without-z", "weights-dashes", "z-dashes", "seed-negative",
        "n-zero", "n-negative", "n-above-1000", "trials-negative", "trials-zero",
        "trials-above-10000", "trials-not-int"])
def test_local_model_refused_by_name(argv, option):
    out = run(["local-model"] + argv)
    assert out.exit_code == 1 and out.payload["error"] == "input"
    assert out.payload["message"].startswith(option)


@pytest.mark.parametrize("argv,option", [
    (["monotone", "--weights=5,7"], "--weights"),
    (["psh", "--weights=-1,1"], "--weights"),
    (["blowup-potential", "--weights", "1"], "--weights"),
    (["solve", "--weights=-1,1", "--eps", "0.5"], "--eps"),
    (["solve", "--weights=-1,1", "--z", "1,1", "--level", "1", "--tol=1e-3"], "--tol"),
    (["psh", "--z", "1"], "--z"),
    (["npm", "--weights=-1,1", "--level", "1"], "--level"),
    (["convexity", "--weights=-1,1", "--t0", "1"], "--t0"),
    (["cut-identity", "--weights=-1,1", "--bad-region"], "--bad-region"),
    (["convexity", "--weights=-1,1", "--bad", "--trials", "2"], "--bad"),
    (["monotone", "--tri", "2"], "--tri"),
], ids=["monotone-weights", "psh-weights", "blowup-potential-weights", "solve-eps",
        "solve-tol", "psh-z", "npm-level", "convexity-t0", "cut-identity-bad-region",
        "convexity-prefix", "monotone-prefix"])
def test_local_model_unread_option_refused(argv, option):
    # each op declares the options it reads; any other is refused by name
    out = run(["local-model"] + argv)
    assert out.exit_code == 1 and out.payload["error"] == "input"
    assert out.payload["message"].startswith(f"{option}: `momentcut local-model {argv[0]}`")


@pytest.mark.parametrize("argv", [
    ["solve", "--weights=5,7", "--trials", "3"],
    ["membership", "--weights=-1,1"],
    ["npm", "--weights=-1,1", "--trials", "2"],
    ["cut-identity", "--weights=-1,1", "--seed", "4"],
], ids=["solve", "membership", "npm", "cut-identity"])
def test_battery_mode_refuses_weights(argv):
    # without --z the op runs its battery, which draws its own actions
    out = run(["local-model"] + argv)
    assert out.exit_code == 1 and out.payload["error"] == "input"
    assert out.payload["message"].startswith("--weights: the ")


@pytest.mark.parametrize("argv", [
    ["solve", "--z", "1,1", "--level", "1"],
    ["membership", "--z", "1,1", "--level", "1"],
    ["npm", "--z", "1,1"],
    ["cut-identity", "--z", "1,1,1"],
    ["convexity", "--trials", "2"],
], ids=["solve", "membership", "npm", "cut-identity", "convexity"])
def test_point_query_and_probe_need_weights(argv):
    out = run(["local-model"] + argv)
    assert out.exit_code == 1 and out.payload["error"] == "input"
    assert out.payload["message"].startswith("--weights is needed ")


@pytest.mark.parametrize("argv,option", [
    (["convexity", "--weights=-1,1", "--eps-prime", "-inf"], "--eps-prime"),
    (["solve", "--weights=-1,1", "--z", "1,1", "--level", "-nan"], "--level"),
    (["convexity", "--weights=-1,1", "--delta"], "--delta"),
], ids=["eps-prime", "level", "delta-missing"])
def test_dash_value_refusal_suggests_equals_form(argv, option):
    out = run(["local-model"] + argv)
    assert out.exit_code == 1 and out.payload["error"] == "input"
    assert out.payload["message"].startswith(f"{option}: expected one argument")
    assert f"{option}=VALUE" in out.payload["message"]


@pytest.mark.parametrize("argv", [
    ["--weights=-1,1", "--z", "1e4,1e4,1e4"],
    ["--weights=-1", "--z", "1e-308,1e6j"],
], ids=["orth-residual", "pairing-at-1e6"])
def test_cut_identity_large_points_pass(argv):
    out = run(["local-model", "cut-identity"] + argv)
    assert out.exit_code == 0 and out.payload["ok"] is True


@st.composite
def _cut_identity_argv(draw):
    n = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    z = []
    for _ in range(n + 1):
        r = 10.0 ** draw(st.floats(-6, 6))
        phase = draw(st.floats(0, 2 * math.pi))
        z.append(complex(r * math.cos(phase), r * math.sin(phase)))
    return ["local-model", "cut-identity", "--weights=" + ",".join(map(str, weights)),
            "--z=" + ",".join(map(repr, z))]


@settings(max_examples=300, deadline=None)
@given(argv=_cut_identity_argv())
def test_cut_identity_point_never_fails_on_valid_input(argv):
    out = run(argv)
    assert out.exit_code == 0, out.payload


def _refuse_constant(token):
    raise ValueError(f"non-JSON token {token}")


@pytest.mark.parametrize("argv", [
    ["solve", "--weights=-1,1", "--z", "1,1", "--level", "0.5"],
    ["membership", "--weights=-1,1", "--z", "1,1", "--level", "0.5"],
    ["npm", "--weights=-2,2", "--z", "4,9"],
    ["cut-identity", "--weights=-1,1", "--z", "1,1,1"],
    ["solve", "--trials", "3"],
    ["membership", "--trials", "3"],
    ["convexity", "--weights=-1,1", "--trials", "2"],
    ["monotone", "--trials", "3"],
    ["psh", "--trials", "3"],
    ["psh", "--trials", "1", "--n", "1", "--seed", "0"],
    ["blowup-potential", "--trials", "3"],
    ["npm", "--trials", "2"],
    ["cut-identity", "--trials", "2"],
], ids=["solve", "membership", "npm", "cut-identity", "solve-battery",
        "membership-battery", "convexity", "monotone-battery", "psh-battery", "psh-least",
        "blowup-potential-battery", "npm-battery", "cut-identity-battery"])
def test_local_model_stdout_is_strict_json(argv, capsys):
    out = run(["local-model"] + argv)
    assert out.exit_code == 0
    _emit(out.payload)
    payload = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    # with neither --z nor --level, solve and membership run the battery
    assert ("battery" in payload) == ("--trials" in argv and argv[0] != "convexity")
