import dataclasses
import itertools
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from hingekit import cli
from hingekit.cli import (
    Scenario,
    emit_scenario,
    parse_scenario,
    run,
    scenario_chain,
    scenario_cycle_chain,
    scenario_platform,
    sweep,
    sweep_csv,
)
from hingekit import analysis, linkage
from hingekit.chain import Chain, cycle_chain, forward_kinematics
from hingekit.errors import ConsistencyError, GradeError, HingekitError, ScenarioError
from hingekit.geometry import make_axes, make_frame
from hingekit.linkage import cycle_to_linkage
from hingekit.sampling import parallel_axes_chain, random_axis, random_chain, random_cycle, rng_from


def capture(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io, sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def example_text(capsys, name, *flags):
    code, out, _ = capture(capsys, ["example", name, *flags])
    assert code == 0
    return out


# --- parsing --------------------------------------------------------------------


def test_parse_planar_arm_roundtrip(capsys):
    text = example_text(capsys, "planar-arm")
    sc = parse_scenario(text)
    assert sc.kind == "chain" and sc.d == 2
    chain = scenario_chain(sc)
    assert chain.n == 4 and chain.end_frame.k == 0
    assert parse_scenario(emit_scenario(sc)) == sc


def test_parse_orthonormalizes_dirs():
    doc = {
        "kind": "cycle",
        "d": 3,
        "axes": [
            {"origin": [0, 0, 0], "dirs": [[0, 0, 5]]},
            {"origin": [1, 0, 0], "dirs": [[1, 1, 0]]},
            {"origin": [0, 1, 1], "dirs": [[1, 0, 1]]},
        ],
    }
    chain = scenario_cycle_chain(parse_scenario(json.dumps(doc)))
    assert np.allclose(chain.ref_axes[0].dirs, [[0, 0, 1]])


def test_parse_errors_carry_json_paths():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps({"kind": "cycle", "d": 3, "axes": [{"origin": [0, 0]}]}))
    assert "axes[0].origin" in str(err.value)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps({"kind": "chain", "d": 2}))
    assert "axes" in str(err.value)
    with pytest.raises(ScenarioError) as err:
        parse_scenario("{nope")
    assert "line 1" in str(err.value)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps({"kind": "platform", "d": 2, "legs": [{"p": [0, 0], "q": ["x", 0]}]}))
    assert "legs[0].q[0]" in str(err.value)


def test_parse_semantic_errors():
    # two directions spanning rank 1 in a d=4 axis
    doc = {
        "kind": "cycle",
        "d": 4,
        "axes": [
            {"origin": [0, 0, 0, 0], "dirs": [[1, 0, 0, 0], [2, 0, 0, 0]]},
            {"origin": [1, 0, 0, 0], "dirs": [[0, 1, 0, 0], [0, 0, 1, 0]]},
        ],
    }
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc))
    assert "dependent" in str(err.value)
    # end-point sitting on the last axis
    doc = {
        "kind": "chain",
        "d": 3,
        "axes": [{"origin": [0, 0, 0], "dirs": [[0, 0, 1]]}],
        "end_frame": {"origin": [0, 0, 2], "vecs": []},
    }
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc))
    assert "off the last axis" in str(err.value)


def test_rational_strings_survive_roundtrip():
    doc = {
        "kind": "platform",
        "d": 2,
        "legs": [
            {"p": [1, 0], "q": [2, "1/1000"]},
            {"p": [0, 1], "q": [0, 3]},
            {"p": [1, 1], "q": ["5/2", "5/2"]},
        ],
    }
    sc = parse_scenario(json.dumps(doc))
    assert parse_scenario(emit_scenario(sc)) == sc
    platform = scenario_platform(sc)
    assert platform.legs[0][1][1] == pytest.approx(0.001)


# --- commands -------------------------------------------------------------------


def test_twisted_cubic_pipe(capsys, monkeypatch):
    text = example_text(capsys, "twisted-cubic-tangents")
    code, out, _ = capture(capsys, ["analyze-cycle", "-", "--exact"], stdin=text, monkeypatch=monkeypatch)
    assert code == 0
    assert "rank 5" in out and "flexible" in out
    assert "exact (rational) rank 5" in out


def test_analyze_platform_desargues(tmp_path, capsys):
    path = tmp_path / "desargues.json"
    path.write_text(example_text(capsys, "desargues"))
    code, out, _ = capture(capsys, ["analyze-platform", str(path), "--exact"])
    assert code == 0
    assert "flexible (rank 2 < 3)" in out


def test_analyze_chain_planar_arm(tmp_path, capsys):
    path = tmp_path / "arm.json"
    path.write_text(example_text(capsys, "planar-arm"))
    code, out, _ = capture(capsys, ["analyze-chain", str(path)])
    assert code == 0
    assert "SINGULAR" in out and "witness line" in out
    code, out, _ = capture(capsys, ["analyze-chain", str(path), "--json"])
    doc = json.loads(out)
    assert doc["singular"] is True and doc["rank"] == 1


def test_analyze_cycle_json_output(tmp_path, capsys):
    path = tmp_path / "bricard.json"
    path.write_text(example_text(capsys, "bricard-symmetric-six", "--seed", "4"))
    code, out, _ = capture(capsys, ["analyze-cycle", str(path), "--json", "--exact"])
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] <= 5 and doc["mobility"] >= 1
    assert doc["exact"]["rank"] == doc["rank"]


@pytest.mark.parametrize(
    "n, line, flex_code",
    [
        ("7", "Plucker span rank 6 of 6 -> infinitesimally flexible, mobility 1", 0),
        ("5", "Plucker span rank 5 of 6 -> rigid, mobility 0", 3),
    ],
)
def test_analyze_cycle_state_word_follows_the_mobility(capsys, monkeypatch, n, line, flex_code):
    """A full span can still flex and a deficient one can be rigid; JSON "singular" keeps the span."""
    text = example_text(capsys, "generic-cycle", "--n", n)
    code, out, _ = capture(capsys, ["analyze-cycle", "-"], stdin=text, monkeypatch=monkeypatch)
    assert code == 0 and line in out
    code, out, _ = capture(capsys, ["analyze-cycle", "-", "--json"], stdin=text, monkeypatch=monkeypatch)
    assert json.loads(out)["singular"] is (n == "5")
    code, _, err = capture(capsys, ["flex", "-"], stdin=text, monkeypatch=monkeypatch)
    assert code == flex_code
    assert ("the closure differential has no kernel" in err) is (flex_code == 3)


def test_convert_linkage_json_roundtrip(tmp_path, capsys):
    path = tmp_path / "cycle.json"
    path.write_text(example_text(capsys, "generic-cycle", "--n", "6", "--seed", "9"))
    code, out, _ = capture(capsys, ["convert-linkage", str(path), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 3 and doc["n"] == 6
    assert len(doc["vertices"]) == 12 and len(doc["edges"]) == 30
    sc = parse_scenario(path.read_text())
    direct = cycle_to_linkage(cli.scenario_axes(sc))
    assert doc == cli._linkage_json(direct)


def test_flex_command(tmp_path, capsys):
    path = tmp_path / "cycle.json"
    path.write_text(example_text(capsys, "generic-cycle", "--n", "7", "--seed", "10"))
    csv_path = tmp_path / "flex.csv"
    code, out, _ = capture(
        capsys,
        ["flex", str(path), "--steps", "5", "--step-size", "0.01", "--csv", str(csv_path)],
    )
    assert code == 0
    assert "max closure residual" in out
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0].startswith("step,theta_1")
    assert len(rows) == 7  # header + 6 configurations
    assert float(rows[-1].rsplit(",", 1)[1]) <= 1e-8


def test_flex_with_a_huge_step_exits_3_when_step_halving_stalls(tmp_path, capsys):
    path = tmp_path / "cycle.json"
    path.write_text(example_text(capsys, "generic-cycle"))
    code, out, err = capture(capsys, ["flex", str(path), "--step-size", "1e308"])
    assert code == 3 and out == ""
    assert err == "degenerate input: step halving stalled while projecting onto the fiber\n"


def test_cyclohexane_example_is_panel_cycle(capsys):
    text = example_text(capsys, "cyclohexane-panels")
    sc = parse_scenario(text)
    assert sc.panel
    chain = scenario_cycle_chain(sc)
    assert chain.panel and chain.n == 6


def test_exit_codes(tmp_path, capsys):
    code, _, err = capture(capsys, ["analyze-chain", str(tmp_path / "missing.json")])
    assert code == 2 and "error" in err
    # genericity failure: parallel consecutive axes in convert-linkage
    doc = {
        "kind": "cycle",
        "d": 3,
        "axes": [
            {"origin": [0, 0, 0], "dirs": [[1, 0, 0]]},
            {"origin": [0, 1, 0], "dirs": [[1, 0, 0]]},
            {"origin": [0, 0, 1], "dirs": [[0, 1, 0]]},
        ],
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc))
    code, _, err = capture(capsys, ["convert-linkage", str(path)])
    assert code == 3 and "degenerate" in err
    # exact mode rejected for chains
    arm = tmp_path / "arm.json"
    arm.write_text(example_text(capsys, "planar-arm"))
    code, _, _ = capture(capsys, ["analyze-chain", str(arm), "--exact"])
    assert code == 2
    # exact mode needs rational input
    cyc = tmp_path / "cycle.json"
    cyc.write_text(example_text(capsys, "generic-cycle", "--seed", "3"))
    code, _, err = capture(capsys, ["analyze-cycle", str(cyc), "--exact"])
    assert code == 2 and "exact mode" in err


KIND_EXAMPLES = {"chain": "planar-arm", "cycle": "generic-cycle", "platform": "desargues"}
KIND_COMMANDS = {"chain": "analyze-chain", "cycle": "analyze-cycle", "platform": "analyze-platform"}


@pytest.mark.parametrize(
    "kind, extra",
    [
        ("cycle", {"tolerance": 1e-3, "pannel": True, "end_frame": {"origin": [0, 0, 0], "vecs": []}}),
        ("chain", {"legs": []}),
        ("platform", {"panel": False}),
        ("platform", {"axes": [], "end_frame": None}),
    ],
)
def test_unknown_top_level_keys_are_rejected(tmp_path, capsys, kind, extra):
    # unread keys used to be ignored, so a misspelt "tol" ran with the default tolerance
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(dict(json.loads(example_text(capsys, KIND_EXAMPLES[kind])), **extra)))
    code, out, err = capture(capsys, [KIND_COMMANDS[kind], str(path)])
    assert (code, out, err) == (2, "", f"error: top level: unknown keys {sorted(extra)}\n")


def test_consistency_error_exits_4(tmp_path, capsys, monkeypatch):
    def disagree(*args):
        raise ConsistencyError("the witness misses axis 1")

    monkeypatch.setattr(analysis, "_check_witness", disagree)
    path = tmp_path / "arm.json"
    path.write_text(example_text(capsys, "planar-arm"))  # singular at theta = 0, so the witness is checked
    code, out, err = capture(capsys, ["analyze-chain", str(path)])
    assert (code, out, err) == (4, "", "internal consistency failure: the witness misses axis 1\n")


def test_any_other_hingekit_error_exits_3(tmp_path, capsys, monkeypatch):
    def grade_error(*args, **kwargs):
        raise GradeError("grades differ")

    monkeypatch.setattr(analysis, "cycle_mobility", grade_error)
    path = tmp_path / "cycle.json"
    path.write_text(example_text(capsys, "generic-cycle"))
    code, out, err = capture(capsys, ["analyze-cycle", str(path)])
    assert (code, out, err) == (3, "", "degenerate input: grades differ\n")


TWO_AXES = [{"origin": [0, 0, 0], "dirs": [[0, 0, 1]]}, {"origin": [1, 0, 0], "dirs": [[0, 1, 0]]}]


def _cycle(*axes):
    return {"kind": "cycle", "d": 3, "axes": [*axes, *TWO_AXES[len(axes):]]}


def _axis(**fields):
    return dict(TWO_AXES[0], **fields)


@pytest.mark.parametrize(
    "doc, message",
    [
        (_cycle(_axis(origin=[0, True, 0])), "axes[0].origin[1]: expected a number, got a boolean"),
        (_cycle(_axis(origin=[0, None, 0])), "axes[0].origin[1]: expected a number or 'a/b' string"),
        (_cycle(_axis(origin="0,0,0")), "axes[0].origin: expected an array"),
        (_cycle(_axis(dirs="z")), "axes[0].dirs: expected an array of vectors"),
        (_cycle([0, 0, 0]), "axes[0]: expected an object with origin/dirs"),
        (_cycle(_axis(normal=[0, 0, 1])), "axes[0]: unknown keys ['normal']"),
        (_cycle({"dirs": [[0, 0, 1]]}), "axes[0].origin: missing"),
        ([], "top level: expected an object"),
        (dict(_cycle(), kind="loop"), "kind: expected one of 'chain', 'cycle', 'platform'"),
        (dict(_cycle(), d=True), "d: expected an integer >= 2"),
        (dict(_cycle(), panel=1), "panel: expected a boolean"),
        (_cycle(_axis(dirs=[])), "axes[0].dirs: an axis of R^3 needs 1 directions"),
        (dict(_cycle(), axes=TWO_AXES[:1]), "axes: a cycle needs at least two axes"),
        (
            {"kind": "chain", "d": 3, "axes": TWO_AXES[:1],
             "end_frame": {"origin": [1, 1, 1], "vecs": [[1, 0, 0]] * 4}},
            "end_frame.vecs: more vectors than dimensions",
        ),
        ({"kind": "platform", "d": 2, "legs": {}}, "legs: expected an array"),
        ({"kind": "platform", "d": 2, "legs": [[[0, 0], [1, 0]]]}, "legs[0]: expected an object with p and q"),
    ],
)
def test_schema_errors_print_one_line_with_the_json_path(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    command = KIND_COMMANDS.get(doc["kind"] if isinstance(doc, dict) else "cycle", "analyze-cycle")
    code, out, err = capture(capsys, [command, str(path)])
    assert (code, out, err) == (2, "", f"error: {message}\n")


_PLANE = [[0, 1, 0, 0], [0, 0, 1, 0]]
_DEPENDENT = [[1, 0, 0, 0], [2, 0, 0, 0]]
_HUGE = [[1e308] * 4, [1e308, -1e308, 1e308, -1e308]]  # its QR overflows: not orthonormal


def _d4_cycle(*dirs):
    return {"kind": "cycle", "d": 4, "axes": [{"origin": [i, 0, 0, 0], "dirs": rows} for i, rows in enumerate(dirs)]}


@pytest.mark.parametrize(
    "doc, message",
    [
        (_d4_cycle(_PLANE, _DEPENDENT, _PLANE), "axes[1].dirs: axis directions are linearly dependent"),
        # the first bad axis in input order is reported, whichever check it fails
        (_d4_cycle(_HUGE, _DEPENDENT, _PLANE), "axes[0].dirs: axis directions must be orthonormal within 1e-12"),
        (_d4_cycle(_DEPENDENT, _HUGE, _PLANE), "axes[0].dirs: axis directions are linearly dependent"),
        # a chain builds its end frame before its axes
        (
            {"kind": "chain", "d": 3, "axes": [_axis(dirs=[[0, 0, 0]])],
             "end_frame": {"origin": [1, 1, 1], "vecs": [[1, 0, 0], [2, 0, 0]]}},
            "end_frame.vecs: frame vectors are linearly dependent",
        ),
    ],
)
def test_degenerate_directions_are_rejected_with_their_json_path(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = capture(capsys, [KIND_COMMANDS[doc["kind"]], str(path)])
    assert (code, out, err) == (2, "", f"error: semantic error: {message}\n")


def _parallel_neighbours(text):
    """The example cycle with axis 2 parallel to axis 1: it flexes, but has no canonical linkage."""
    doc = json.loads(text)
    doc["axes"][1]["dirs"] = doc["axes"][0]["dirs"]
    return json.dumps(doc)


@pytest.mark.parametrize(
    "argv, code, stderr",
    [
        (["sweep", "-", "--samples", "0"], 2, "error: sweep needs at least one sample\n"),
        (
            ["flex", "PARALLEL", "--steps", "2"],
            0,
            "linkage drift unavailable: configuration 0 of the path: "
            "support lines 1 and 2 are parallel; no canonical feet\n",
        ),
    ],
)
def test_command_stderr_lines(tmp_path, capsys, monkeypatch, argv, code, stderr):
    text = example_text(capsys, "generic-cycle")
    path = tmp_path / "parallel.json"
    path.write_text(_parallel_neighbours(text))
    argv = [str(path) if a == "PARALLEL" else a for a in argv]
    assert capture(capsys, argv, stdin=text, monkeypatch=monkeypatch)[::2] == (code, stderr)


def _frame_k1_singular(tmp_path):
    # five parallel axes and a k = 1 frame: the end-frame map has rank 3 of 5 at theta = 0
    axes = [{"origin": [x, y, 0], "dirs": [[0, 0, 1]]} for x, y in ((0, 0), (1, 0), (0, 1), (2, 1), (1, 2))]
    path = tmp_path / "frame.json"
    frame = {"origin": [3, 3, 1], "vecs": [[1, 0, 0]]}
    path.write_text(json.dumps({"kind": "chain", "d": 3, "axes": axes, "end_frame": frame}))
    return str(path)


def test_output_structure_of_each_command(tmp_path, capsys):
    cycle = tmp_path / "cycle.json"
    cycle.write_text(example_text(capsys, "generic-cycle"))
    platform = tmp_path / "desargues.json"
    platform.write_text(example_text(capsys, "desargues"))

    code, out, _ = capture(capsys, ["analyze-platform", str(platform), "--json"])
    assert code == 0 and set(json.loads(out)) == {"rank", "full_rank", "singular", "sigma_min", "functional"}

    code, out, _ = capture(capsys, ["flex", str(cycle), "--json", "--steps", "2"])
    doc = json.loads(out)
    assert code == 0 and list(doc) == ["steps", "step_size", "residuals", "max_edge_drift", "path"]
    assert len(doc["residuals"]) == len(doc["path"]) == 3 and len(doc["path"][0]) == 6

    code, out, _ = capture(capsys, ["sweep", str(cycle), "--json", "--samples", "3"])
    keys = ["samples", "seed", "singular_count", "sigma_min_min", "sigma_min_mean"]
    assert code == 0 and list(json.loads(out)) == keys

    code, out, _ = capture(capsys, ["sweep", str(cycle), "--samples", "3"])
    lines = out.splitlines()
    assert code == 0 and lines[0].startswith("swept 3 samples (seed 0): 0 singular, sigma_min in [")
    thetas = ",".join(f"theta_{i}" for i in range(1, 7))
    assert lines[1] == f"sample_index,{thetas},rank,sigma_min,singular"
    assert [row.split(",", 1)[0] for row in lines[2:]] == ["0", "1", "2"]

    code, out, _ = capture(capsys, ["convert-linkage", str(cycle)])
    first, note, rest = out.split("\n", 2)
    assert code == 0 and first.startswith("canonical linkage in R^3: 14 vertices, ") and note
    assert list(json.loads(rest)) == ["d", "n", "vertices", "edges"]

    code, out, _ = capture(capsys, ["analyze-chain", _frame_k1_singular(tmp_path)])
    lines = out.splitlines()
    assert code == 0 and lines[0] == "end-frame (k=1) map of a 6-body chain in R^3: rank 3 of 5 -> SINGULAR"
    assert lines[1].startswith("sigma_min = ") and lines[2].startswith("hyperplane functional: [")
    assert len(lines) == 3


def test_each_file_command_prints_one_json_document_and_the_same_csv(tmp_path, capsys):
    files = {}
    for name in ("planar-arm", "twisted-cubic-tangents", "desargues", "generic-cycle"):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(example_text(capsys, name))
    coincident = tmp_path / "coincident.json"
    coincident.write_text(json.dumps({"kind": "cycle", "d": 3, "axes": [{"origin": [0, 0, 0], "dirs": [[0, 0, 1]]}] * 2}))
    runs = [
        ["analyze-chain", files["planar-arm"]],
        ["analyze-cycle", files["twisted-cubic-tangents"], "--exact"],
        ["analyze-platform", files["desargues"], "--exact"],
        ["convert-linkage", files["generic-cycle"]],
        ["flex", files["generic-cycle"], "--steps", "2", "--csv", "{csv}"],
        ["flex", coincident, "--steps", "2", "--csv", "{csv}"],
        ["sweep", files["planar-arm"], "--samples", "4", "--csv", "{csv}"],
    ]
    for argv in runs:
        outputs = []
        for flags in ([], ["--json"]):
            csv = tmp_path / f"{argv[0]}{len(flags)}.csv"
            code, out, err = capture(capsys, [str(a).format(csv=csv) for a in argv] + flags)
            outputs.append((code, out, err, csv.read_text() if "--csv" in argv else None))
        (code, text, err, csv), (json_code, out, json_err, json_csv) = outputs
        assert code == json_code == 0 and err == json_err and csv == json_csv
        assert out == json.dumps(json.loads(out), indent=2) + "\n" != text
        assert text.endswith("\n") and not text.endswith("\n\n")


def test_emit_scenario_keeps_the_tolerance():
    legs = [{"p": [1, 0], "q": [2, 0]}, {"p": [0, 1], "q": [0, 3]}, {"p": [1, 1], "q": ["5/2", "5/2"]}]
    sc = parse_scenario(json.dumps({"kind": "platform", "d": 2, "tol": 1e-6, "legs": legs}))
    text = emit_scenario(sc)
    assert list(json.loads(text)) == ["kind", "d", "legs", "tol"] and json.loads(text)["tol"] == 1e-6
    assert parse_scenario(text) == sc


@pytest.mark.parametrize(
    "command, accepted, refused",
    [
        ("analyze-chain", "chain or cycle", "platform"),
        ("analyze-cycle", "cycle", "chain"),
        ("analyze-cycle", "cycle", "platform"),
        ("convert-linkage", "cycle", "chain"),
        ("convert-linkage", "cycle", "platform"),
        ("flex", "cycle", "chain"),
        ("flex", "cycle", "platform"),
        ("analyze-platform", "platform", "chain"),
        ("analyze-platform", "platform", "cycle"),
        ("sweep", "chain or cycle", "platform"),
    ],
)
def test_commands_refuse_scenario_kinds_they_do_not_take(tmp_path, capsys, command, accepted, refused):
    path = tmp_path / f"{refused}.json"
    path.write_text(example_text(capsys, KIND_EXAMPLES[refused]))
    code, out, err = capture(capsys, [command, str(path)])
    assert (code, out, err) == (2, "", f"error: {command} needs a {accepted} scenario\n")


@pytest.mark.parametrize("d", [4, 5])
def test_convert_linkage_on_a_cycle_too_short_to_partition_exits_3(tmp_path, capsys, d):
    # three axes are too few for the canonical split into free and dependent edges
    path = tmp_path / "short.json"
    path.write_text(example_text(capsys, "generic-cycle", "--d", str(d), "--n", "3"))
    code, out, err = capture(capsys, ["convert-linkage", str(path)])
    assert code == 3 and out == "" and err.startswith("degenerate input: ")


@pytest.mark.parametrize("d, n, least", [(4, 3, 5), (5, 4, 5)])
def test_convert_linkage_json_on_a_short_cycle_names_the_least_axis_count(tmp_path, capsys, d, n, least):
    path = tmp_path / "short.json"
    path.write_text(example_text(capsys, "generic-cycle", "--d", str(d), "--n", str(n)))
    message = f"a cycle in R^{d} needs at least {least} axes for the canonical linkage, got {n}"
    assert capture(capsys, ["convert-linkage", str(path), "--json"]) == (
        3, "", f"degenerate input: {message}\n"
    )


def test_flex_on_a_mobile_short_cycle_reports_drift_unavailable(tmp_path, capsys):
    # two coincident axes in R^3 turn about their common line: a flex, but no linkage
    axis = {"origin": [0, 0, 0], "dirs": [[0, 0, 1]]}
    path = tmp_path / "coincident.json"
    path.write_text(json.dumps({"kind": "cycle", "d": 3, "axes": [axis, axis]}))
    code, out, err = capture(capsys, ["flex", str(path), "--steps", "2"])
    assert code == 0 and out.startswith("flexed a 2-axis cycle")
    assert err == (
        "linkage drift unavailable: configuration 0 of the path: "
        "a cycle in R^3 needs at least 3 axes for the canonical linkage, got 2\n"
    )


def test_sweep_determinism_and_workers(tmp_path, capsys):
    arm_text = example_text(capsys, "planar-arm")
    sc = parse_scenario(arm_text)
    chain = scenario_chain(sc)
    r1 = sweep(chain, samples=40, seed=7)
    r2 = sweep(chain, samples=40, seed=7)
    r4 = sweep(chain, samples=40, seed=7, workers=4)
    assert sweep_csv(r1) == sweep_csv(r2) == sweep_csv(r4)
    different = sweep(chain, samples=40, seed=8)
    assert sweep_csv(different) != sweep_csv(r1)


def test_sweep_command_csv_bytes(tmp_path, capsys):
    path = tmp_path / "arm.json"
    path.write_text(example_text(capsys, "planar-arm"))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code, _, _ = capture(capsys, ["sweep", str(path), "--samples", "10", "--seed", "7", "--csv", str(out1)])
    assert code == 0
    code, _, _ = capture(
        capsys,
        ["sweep", str(path), "--samples", "10", "--seed", "7", "--csv", str(out2), "--workers", "3"],
    )
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "sample_index,theta_1,theta_2,theta_3,rank,sigma_min,singular"


def test_sweep_on_singular_family(capsys):
    # all axes parallel to one direction: every sample is singular
    from hingekit.sampling import parallel_axes_chain

    chain = parallel_axes_chain(rng_from(500), 3, 6)
    report = sweep(chain, samples=25, seed=1)
    assert report.singular_count == 25
    # generic chain: singular samples have measure zero
    sc = parse_scenario(example_text(capsys, "generic-cycle", "--n", "6", "--seed", "2"))
    generic = scenario_cycle_chain(sc)
    report = sweep(generic, samples=25, seed=1)
    assert report.singular_count == 0


# --- the stacked sweep against one verdict per sample -----------------------------


def _sweep_one_sample_at_a_time(chain, samples, seed, tol=1e-10):
    """The reference: ``cli.sweep`` as it ran before it ranked blocks, one verdict call per sample."""
    rows = []
    for index in range(samples):
        theta = rng_from(seed, index).uniform(0.0, 2.0 * np.pi, chain.n - 1)
        verdict = (analysis.frame_singularity if chain.end_frame.k else analysis.endpoint_singularity)(chain, theta, tol)
        sigma_min = float(verdict.certificate.singular_values[-1])
        rows.append(cli.SweepRow(index, tuple(float(t) for t in theta), verdict.rank, sigma_min, verdict.singular))
    sigmas = [r.sigma_min for r in rows]
    singular_count = sum(1 for r in rows if r.singular)
    return cli.SweepReport(samples, seed, singular_count, min(sigmas), sum(sigmas) / len(sigmas), tuple(rows))


def _sweep_outcome(run_sweep, chain, samples, seed, tol):
    """The report and its CSV bytes, or the type and message of the error raised."""
    try:
        report = run_sweep(chain, samples, seed, tol)
    except HingekitError as exc:
        return type(exc), str(exc)
    return report, sweep_csv(report).encode()


@st.composite
def _sweep_chains(draw):
    """Chains of d = 2..6 with any k = 0..d-2, cycles, and chains of parallel axes (always singular)."""
    d = draw(st.integers(2, 6))
    rng = rng_from(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["chain", "cycle", "parallel"] if d > 2 else ["chain", "cycle"]))
    if kind == "cycle":
        return random_cycle(rng, d, draw(st.integers(2, d + 4)))
    if kind == "parallel":
        return parallel_axes_chain(rng, d, draw(st.integers(2, d + 4)))
    return random_chain(rng, d, draw(st.integers(2, d + 4)), k=draw(st.integers(0, d - 2)))


_DEFAULT_BLOCK = linkage._BLOCK


@settings(max_examples=30, deadline=None)
@given(chain=_sweep_chains(), block=st.sampled_from([1, 7, _DEFAULT_BLOCK]), data=st.data())
def test_a_stacked_sweep_equals_one_verdict_per_sample(chain, block, data):
    drawn = data.draw(st.integers(block + 1, 2 * block + 1), label="samples")  # past one block
    seed = data.draw(st.integers(0, 2**20), label="seed")
    # block + 1 samples end in a block of one, placed by forward_kinematics, after a stacked block
    for samples in (drawn, block + 1):
        want = _sweep_outcome(_sweep_one_sample_at_a_time, chain, samples, seed, 1e-10)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linkage, "_BLOCK", block)
            assert _sweep_outcome(sweep, chain, samples, seed, 1e-10) == want


@pytest.mark.parametrize("block", [1, 7, _DEFAULT_BLOCK])
@pytest.mark.parametrize("chain, tol, seed, error", [
    (lambda: scenario_chain(parse_scenario(json.dumps(OVERFLOW_CHAIN))), 1e-10, 0, "overflows float arithmetic"),
    # sample 0 passes, sample 1's finite rows overflow in the SVD, most later ones into inf or NaN rows
    (lambda: scenario_chain(parse_scenario(json.dumps(OVERFLOW_CHAIN))), 1e-10, 3, "overflows float arithmetic"),
    (analysis.planar_arm_chain, 0.5, 3, "cuts every singular value of a 2 x 3 matrix"),
    (lambda: random_cycle(rng_from(7), 3, 7), 0.5, 3, "cuts the end frame's stabilizer: span rank 0 < 1"),
    # samples 2, 3, 7 and 8 cut it first, with span ranks 2, 2, 1 and 2: the first is not the lowest
    (lambda: random_chain(rng_from(41), 6, 8, k=3), 0.03, 3, "cuts the end frame's stabilizer: span rank 2 < 3"),
    (lambda: random_chain(rng_from(40), 6, 8, k=2), 0.01, 3, "cuts the end frame's stabilizer: span rank 5 < 6"),
], ids=["overflow", "overflow-then-cut", "cut-every-value", "cut-stabilizer", "cut-stabilizer-mid-block", "cut-k2"])
def test_a_stacked_sweep_raises_what_the_first_failing_sample_raises(monkeypatch, chain, tol, seed, error, block):
    chain = chain()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow chain overflows on the way
        want = _sweep_outcome(_sweep_one_sample_at_a_time, chain, 20, seed, tol)
        monkeypatch.setattr(linkage, "_BLOCK", block)
        got = _sweep_outcome(sweep, chain, 20, seed, tol)
    assert error in want[1] and got == want


@pytest.mark.parametrize("block", [7, _DEFAULT_BLOCK])
@pytest.mark.parametrize("missed", [1, 9, 19])
def test_every_singular_sample_of_a_block_has_its_witness_checked(monkeypatch, block, missed):
    # every sample of a chain of parallel axes is singular; sample `missed`, never the first of
    # a block, is placed by the stacked kernel with its axis directions' coordinates rolled, so
    # the block's witness pass misses them (the one-sample retry places it unbent, and the
    # block's error is raised)
    chain = parallel_axes_chain(rng_from(500), 4, 8)
    target = rng_from(1, missed).uniform(0.0, 2.0 * np.pi, chain.n - 1)
    place_many = cli._place_many

    def bent(chain, thetas):
        placements = list(place_many(chain, thetas))
        for s in np.flatnonzero((thetas == target).all(axis=1)):
            pl = dataclasses.replace(placements[s])
            pl.__dict__["dirs"] = np.roll(placements[s].dirs, 1, axis=-1)
            placements[s] = pl
        return placements

    monkeypatch.setattr(linkage, "_BLOCK", block)
    assert sweep(chain, 20, 1).singular_count == 20
    monkeypatch.setattr(cli, "_place_many", bent)
    with pytest.raises(ConsistencyError, match="^rank verdict says singular but the witness misses axis"):
        sweep(chain, 20, 1)


def test_example_unknown_name(capsys):
    code, _, err = capture(capsys, ["example", "not-a-scenario"])
    assert code == 2 and "unknown example" in err


@pytest.mark.parametrize(
    "name",
    [
        "twisted-cubic-tangents",
        "bricard-symmetric-six",
        "cyclohexane-panels",
        "desargues",
        "planar-arm",
        "generic-cycle",
    ],
)
def test_example_outputs_match_goldens(name, capsys):
    from pathlib import Path

    golden = Path(__file__).parent / "goldens" / f"{name}.json"
    assert example_text(capsys, name) == golden.read_text()


# --- tolerances and non-finite input ----------------------------------------------


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_analyze_chain_rejects_bad_tolerance(tmp_path, capsys, tol):
    # unchecked, -1 calls the collinear arm regular and nan/inf give rank 0 with
    # a witness line that misses every axis
    path = tmp_path / "arm.json"
    path.write_text(example_text(capsys, "planar-arm"))
    code, out, err = capture(capsys, ["analyze-chain", str(path), "--tol", tol])
    assert code == 2 and out == "" and "tolerance" in err


@pytest.mark.parametrize("command", ["analyze-cycle", "flex", "sweep"])
def test_cycle_commands_reject_negative_tolerance(tmp_path, capsys, command):
    path = tmp_path / "cubic.json"
    path.write_text(example_text(capsys, "twisted-cubic-tangents"))
    code, out, err = capture(capsys, [command, str(path), "--tol", "-1"])
    assert code == 2 and out == "" and "tolerance" in err


@pytest.mark.parametrize("tol", ["NaN", "Infinity", "1e400", "0", "-1", pytest.param("1" + "0" * 400, id="int-1e400")])
def test_scenario_tol_must_be_finite_and_positive(tmp_path, capsys, tol):
    text = example_text(capsys, "twisted-cubic-tangents").replace('"d": 3,', f'"d": 3, "tol": {tol},')
    with pytest.raises(ScenarioError, match="tol"):
        parse_scenario(text)
    path = tmp_path / "cubic.json"
    path.write_text(text)
    code, out, err = capture(capsys, ["analyze-cycle", str(path)])
    assert code == 2 and out == "" and "tol" in err


@pytest.mark.parametrize(
    "value",
    [
        float("nan"),
        float("inf"),
        float("-inf"),
        pytest.param(10**400, id="int-1e400"),
        pytest.param(f"{10**400}/3", id="rational-1e400"),
    ],
)
def test_non_finite_coordinates_are_rejected(tmp_path, capsys, value):
    doc = json.loads(example_text(capsys, "generic-cycle"))
    doc["axes"][0]["origin"][0] = value
    text = json.dumps(doc)  # writes NaN / Infinity, which Python's json reads back
    with pytest.raises(ScenarioError, match=r"axes\[0\]\.origin\[0\]: expected a finite number"):
        parse_scenario(text)
    path = tmp_path / "cycle.json"
    path.write_text(text)
    code, out, err = capture(capsys, ["analyze-cycle", str(path)])
    assert code == 2 and out == "" and "axes[0].origin[0]" in err


# --- bad input ends in exit code 2, never a traceback or a hang ------------------


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["convert-linkage", "CYCLE", "--tol", "nan"], id="convert-linkage-tol-nan"),
        pytest.param(["flex", "CYCLE", "--steps", "-3"], id="flex-steps-negative"),
        pytest.param(["flex", "CYCLE", "--steps", "0", "--tol", "-1"], id="flex-steps-0-tol-negative"),
        pytest.param(["flex", "CYCLE", "--step-size", "nan"], id="flex-step-size-nan"),
        pytest.param(["flex", "CYCLE", "--step-size", "inf"], id="flex-step-size-inf"),
        pytest.param(["analyze-cycle", "DIGITS"], id="analyze-cycle-5001-digit-integer"),
        pytest.param(["example", "generic-cycle", "--d", "1"], id="example-generic-cycle-d-1"),
        pytest.param(["analyze-cycle", "UTF16"], id="analyze-cycle-not-utf8"),
        pytest.param(["example", "generic-cycle", "--n", "0"], id="example-generic-cycle-n-0"),
        pytest.param(["example", "generic-cycle", "--d", "0"], id="example-generic-cycle-d-0"),
        pytest.param(["example", "generic-cycle", "--seed", "-1"], id="example-generic-cycle-seed-negative"),
        pytest.param(["example", "twisted-cubic-tangents", "--t", ""], id="example-t-empty"),
        pytest.param(["example", "planar-arm", "--lengths", ""], id="example-lengths-empty"),
        pytest.param(["example", "planar-arm", "--lengths", "1,x"], id="example-lengths-not-rational"),
        pytest.param(["example", "planar-arm", "--lengths", "1/0"], id="example-lengths-zero-denominator"),
        pytest.param(["example", "planar-arm", "--lengths", "1e400"], id="example-lengths-overflow"),
        pytest.param(["example", "desargues", "--perturb", "x"], id="example-perturb-not-rational"),
        pytest.param(["example", "desargues", "--perturb", "1/0"], id="example-perturb-zero-denominator"),
        pytest.param(["example", "cyclohexane-panels", "--height", "nan"], id="example-height-nan"),
        pytest.param(["example", "cyclohexane-panels", "--height", "inf"], id="example-height-inf"),
        pytest.param(["example", "cyclohexane-panels", "--height", "1e308"], id="example-height-overflows-dirs"),
        pytest.param(["sweep", "CYCLE", "--seed", "-1"], id="sweep-seed-negative"),
        pytest.param(["analyze-cycle", "SEED"], id="scenario-seed-negative"),
    ],
)
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, argv):
    text = example_text(capsys, "generic-cycle")
    doc = json.loads(text)
    doc["axes"][0]["origin"][0] = "BIG"
    # an integer with more digits than Python's int parser accepts by default
    files = {
        "CYCLE": text,
        "DIGITS": json.dumps(doc).replace('"BIG"', "1" + "0" * 5000),
        "UTF16": text.encode("utf-16"),  # starts with the byte-order mark ff fe
        "SEED": json.dumps(dict(doc, seed=-1)).replace('"BIG"', "0"),
    }
    argv = list(argv)
    for i, arg in enumerate(argv):
        if arg in files:
            path = tmp_path / f"{arg}.json"
            data = files[arg]
            path.write_bytes(data) if isinstance(data, bytes) else path.write_text(data)
            argv[i] = str(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from numpy either
        code, out, err = capture(capsys, argv)
    assert code == 2 and out == "" and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["analyze-chain", "CYCLE", "--tol", "0.5"], "tolerance 0.5 cuts the end frame's stabilizer: span rank 0 < 1"),
    (["sweep", "CYCLE", "--samples", "1", "--tol", "1e300"],
     "tolerance 1e+300 cuts the end frame's stabilizer: span rank 0 < 1"),
    (["flex", "CYCLE", "--json", "--steps", "0", "--step-size", "nan"], "a flex step must be a finite number, got nan"),
    (["flex", "CYCLE", "--json", "--steps", "0", "--step-size", "inf"], "a flex step must be a finite number, got inf"),
    (["example", "planar-arm", "--lengths", "1e308,1e308"], "planar arm lengths must have a finite sum, got inf"),
], ids=["analyze-chain-tol-cuts-stabilizer", "sweep-tol-cuts-stabilizer", "flex-0-steps-nan", "flex-0-steps-inf",
        "planar-arm-overflow"])
def test_inputs_once_passed_or_misnamed_exit_2_with_their_own_message(tmp_path, capsys, argv, message):
    # the first two printed a rank of -1 and the flex runs printed "step_size": NaN, all with exit 0;
    # the planar arm overflowed to inf and was refused as an end-point on its last axis
    path = tmp_path / "cycle.json"
    path.write_text(example_text(capsys, "generic-cycle"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = capture(capsys, [str(path) if arg == "CYCLE" else arg for arg in argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_samplers_with_one_body_fail_instead_of_hanging():
    # run in a child process: before the check these calls retried forever
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "hingekit.cli", "example", "generic-cycle", "--n", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2 and proc.stdout == "" and "two axes" in proc.stderr
    code = "from hingekit.sampling import random_chain, rng_from; random_chain(rng_from(0), 3, 1)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 1 and "DefinitionError: a chain needs at least one hinge" in proc.stderr


def test_analyze_cycle_builds_each_axis_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cycle.json"
    path.write_text(example_text(capsys, "generic-cycle"))
    built = []
    make_axes = cli.make_axes
    monkeypatch.setattr(cli, "make_axes", lambda *a: built.append(make_axes(*a)) or built[-1])
    code, _, _ = capture(capsys, ["analyze-cycle", str(path)])
    assert code == 0 and [len(axes) for axes in built] == [7]


# Nine integer axes in R^4 (numpy default_rng(0) draws from [-9, 9]): the Plucker
# span has rank 9 of 10, and its conull has entries up to 4.3e20, past 2^53.
D4N9_AXES = [
    ([7, 3, 0, -4], [[-4, -9, -8, -9], [-6, 6, 3, 8]]),
    ([0, 2, 9, 4], [[3, 1, 1, 8], [-4, 6, 3, -9]]),
    ([-2, 7, 1, -9], [[5, 4, 7, -6], [-8, 7, -9, 1]]),
    ([-8, -4, 0, -1], [[-2, -9, -9, -7], [-9, 3, 0, 3]]),
    ([-5, 2, 5, -2], [[-1, 9, 6, 9], [-2, 4, 9, 3]]),
    ([6, 4, 4, -2], [[7, -7, 1, 4], [7, 0, -2, -4]]),
    ([-1, 0, 4, 7], [[-8, 8, 1, -3], [3, 1, -5, -3]]),
    ([4, 2, 0, -3], [[5, -2, -3, 7], [-4, -5, 4, 2]]),
    ([-9, -8, -2, 6], [[-2, 5, -3, -5], [6, 7, -8, -8]]),
]


def _d4n9_file(tmp_path):
    path = tmp_path / "d4n9.json"
    axes = [{"origin": origin, "dirs": dirs} for origin, dirs in D4N9_AXES]
    path.write_text(json.dumps({"kind": "cycle", "d": 4, "axes": axes}))
    return str(path)


def _plucker_point(origin, dirs):
    """3 x 3 minors of the columns (origin, 1), (dir, 0), (dir, 0), in Fractions."""
    cols = [[Fraction(x) for x in origin + [1]]] + [[Fraction(x) for x in v + [0]] for v in dirs]
    point = []
    for rows in itertools.combinations(range(5), 3):
        (a, b, c), (d, e, f), (g, h, i) = ([col[r] for col in cols] for r in rows)
        point.append(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))
    return point


def test_exact_json_functional_is_integer_and_annihilates(tmp_path, capsys):
    code, out, _ = capture(capsys, ["analyze-cycle", _d4n9_file(tmp_path), "--exact", "--json"])
    assert code == 0
    exact = json.loads(out)["exact"]
    assert exact["rank"] == 9 and exact["singular"] and exact["mobility"] == 0
    functional = exact["functional"]
    assert all(type(x) is int for x in functional)
    assert max(abs(x) for x in functional) > 2**53
    for origin, dirs in D4N9_AXES:
        assert sum(Fraction(f) * p for f, p in zip(functional, _plucker_point(origin, dirs))) == 0


def test_runs_after_an_error_and_help_print_the_same_bytes(tmp_path, capsys):
    argv = ["analyze-cycle", _d4n9_file(tmp_path), "--exact", "--json"]
    first = capture(capsys, argv)
    assert first[0] == 0
    code, out, err = capture(capsys, ["analyze-cycle", str(tmp_path / "missing.json")])
    assert code == 2 and out == "" and err.startswith("error:")
    code, out, _ = capture(capsys, ["--help"])
    assert code == 0 and out.startswith("usage: hingekit")
    assert capture(capsys, argv) == first


# two scenarios of finite numbers whose Plucker points or placements overflow to inf
OVERFLOW_PLATFORM = {
    "kind": "platform",
    "d": 2,
    "legs": [
        {"p": [1e308, 0], "q": [0, 1e308]},
        {"p": [1, 2], "q": [3, 1]},
        {"p": [-1e308, 5], "q": [2, -1e308]},
    ],
}
OVERFLOW_CHAIN = {
    "kind": "chain",
    "d": 3,
    "axes": [
        {"origin": [1e308, 0, 0], "dirs": [[0, 0, 1]]},
        {"origin": [0, 1e308, 0], "dirs": [[1, 0, 0]]},
        {"origin": [1, 2, 3], "dirs": [[1, 1, 0]]},
    ],
    "end_frame": {"origin": [1e308, -1e308, 5], "vecs": [[1, 0, 0]]},
}


def test_overflowing_platform_exits_3_instead_of_hanging(tmp_path):
    # run in a child process: before the check the SVD of the inf matrix never returned
    import os
    import subprocess
    import sys
    from pathlib import Path

    path = tmp_path / "platform.json"
    path.write_text(json.dumps(OVERFLOW_PLATFORM))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    code = "import sys; from hingekit.cli import run; sys.exit(run(sys.argv[1:]))"
    argv = [sys.executable, "-c", code, "analyze-platform", str(path)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 3 and proc.stdout == ""
    # one line: no numpy overflow warning prints before the message
    (line,) = proc.stderr.splitlines()
    assert line.startswith("degenerate input:") and "overflows float arithmetic" in line


def test_overflowing_chain_sweep_exits_3_without_traceback(tmp_path, capsys):
    # at seeds 2 and 3 a sample's frame rows are finite but their singular values overflow: the
    # inf cutoff used to read as a tolerance that cuts the end frame's stabilizer (exit 2)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(OVERFLOW_CHAIN))
    for argv in (["--samples", "3"], ["--samples", "5", "--seed", "2"], ["--samples", "5", "--seed", "3"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            code, out, err = capture(capsys, ["sweep", str(path), *argv])
        assert code == 3 and out == "" and "Traceback" not in err
        assert err.startswith("degenerate input:") and "overflows float arithmetic" in err


# --- the stacked read of a scenario's axes ----------------------------------------


def _per_number_load(text):
    """The route ``_load`` took for every chain and cycle before the type scan, kept as the
    reference: each axis through ``cli._entry``, built from per-value float tuples."""
    doc = json.loads(text)
    d, cycle = doc["d"], doc["kind"] == "cycle"
    axes = []
    for i, a in enumerate(doc["axes"]):
        origin, dirs = cli._entry(a, f"axes[{i}]", d, "dirs")
        if len(dirs) != d - 2:
            raise ScenarioError(f"axes[{i}].dirs: an axis of R^{d} needs {d - 2} directions")
        axes.append((origin, dirs))
    if cycle and len(axes) < 2:
        raise ScenarioError("axes: a cycle needs at least two axes")
    end_frame = None if cycle else cli._entry(doc["end_frame"], "end_frame", d, "vecs")
    sc = Scenario(doc["kind"], d, tuple(axes), end_frame)

    def floats(values):
        return tuple(float(x) for x in values)

    origins = np.array([floats(origin) for origin, _ in sc.axes])
    dirs = np.array([[floats(v) for v in dirs] for _, dirs in sc.axes]).reshape(len(sc.axes), d - 2, d)
    try:
        built = cli._at("axes[{}].dirs", make_axes, d, origins, dirs)
        if cycle:
            return sc, cycle_chain(built)
        frame = cli._at("end_frame.vecs", make_frame, d, floats(end_frame[0]), [floats(v) for v in end_frame[1]])
        return sc, Chain(d, tuple(built), frame)
    except HingekitError as exc:
        raise ScenarioError(f"semantic error: {exc}") from exc


def _per_number_exact(sc):
    """The --exact verdict before the scan: every coordinate walked for a float, then the tuples."""
    for i, (origin, dirs) in enumerate(sc.axes):
        for path, values in [(f"axes[{i}].origin", origin), *((f"axes[{i}].dirs[{j}]", v) for j, v in enumerate(dirs))]:
            for k, x in enumerate(values):
                if isinstance(x, float):
                    raise ScenarioError(f"{path}[{k}]: exact mode needs integers or 'a/b' strings, got a float")
    return analysis.cycle_mobility_exact(list(sc.axes))


def _outcome(fn, *args):
    """fn(*args), or the type and message of the hingekit error it raised."""
    try:
        return fn(*args)
    except HingekitError as exc:
        return type(exc), str(exc)


def _typed(x):
    """Nested tuples of values with each value's type beside it: 1 == 1.0 == True would hide a change."""
    return tuple(map(_typed, x)) if isinstance(x, tuple) else (type(x), x)


def _bits(a):
    return a.dtype, a.shape, a.flags.c_contiguous, a.tobytes()


# every literal the scan must hand to the per-number parser, or read exactly as it would
_ODD_VALUES = ["1/2", "-7/3", "x/0", True, False, None, float("nan"), float("inf"), -float("inf"),
               2**62, -2**63, 2**63, -2**63 - 1, 2**64, 10**400, -0.0, 5e-324]


@st.composite
def _scenario_texts(draw):
    d, n = draw(st.integers(2, 8)), draw(st.integers(2, 5))
    ints = st.integers(-9, 9)
    number = ints if draw(st.booleans()) else st.one_of(ints, st.floats(-9, 9))
    axes = [{"origin": draw(st.lists(number, min_size=d, max_size=d)),
             "dirs": [draw(st.lists(number, min_size=d, max_size=d)) for _ in range(d - 2)]} for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        axis = axes[draw(st.integers(0, n - 1))]
        row = draw(st.sampled_from([axis["origin"], *axis.get("dirs", [])]))
        fault = draw(st.sampled_from(["value", "value", "value", "extra key", "short row", "no dirs"]))
        if fault == "value" and row:  # an earlier fault may have shortened the row
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_ODD_VALUES))
        elif fault == "extra key":
            axis["normal"] = [0] * d
        elif fault == "short row" and row:
            row.pop()
        else:
            axis.pop("dirs", None)
    doc = {"kind": draw(st.sampled_from(["cycle", "chain"])), "d": d, "axes": axes}
    if doc["kind"] == "chain":
        doc["end_frame"] = {"origin": draw(st.lists(ints, min_size=d, max_size=d)), "vecs": []}
    return json.dumps(doc)  # NaN and Infinity as their literals, 10**400 in digits


def _three_axes(odd):
    axes = [{"origin": [0, 0, 0], "dirs": [[0, 0, 1]]}, {"origin": [1, 0, 0], "dirs": [[0, 1, 0]]},
            {"origin": [0, 1, odd], "dirs": [[1, 0, 0]]}]
    return json.dumps({"kind": "cycle", "d": 3, "axes": axes})


@settings(max_examples=200, deadline=None)
@given(_scenario_texts())
@example(_three_axes(2**63)).via("an exact route on Python ints")
@example(_three_axes(-2**63)).via("the int64 stack at its least value")
@example(_three_axes("1/2")).via("an exact route on a Fraction")
@example(_three_axes(0.5)).via("a float refused by --exact")
def test_the_stacked_read_equals_the_per_number_route(text):
    ours, ref = _outcome(cli._load, text), _outcome(_per_number_load, text)
    if not isinstance(ref[0], Scenario):
        assert ours == ref
        return
    (sc, chain), (ref_sc, ref_chain) = ours, ref
    assert sc == ref_sc and _typed(sc.axes) == _typed(ref_sc.axes)
    # every axis, and the end frame of a chain, bit for bit
    for a, b in zip(*([*c.ref_axes, c.closing_axis or c.end_frame] for c in (chain, ref_chain))):
        assert _bits(a.origin) == _bits(b.origin)
        assert _bits(a.vecs if sc.kind == "chain" and a is chain.end_frame else a.dirs) == \
            _bits(b.vecs if sc.kind == "chain" and b is ref_chain.end_frame else b.dirs)
    if sc.kind == "cycle":
        exact, ref_exact = _outcome(cli._exact_cycle, sc), _outcome(_per_number_exact, ref_sc)
        if isinstance(ref_exact, analysis.Verdict):
            assert cli._verdict_json(exact) == cli._verdict_json(ref_exact)
        else:
            assert exact == ref_exact


@pytest.mark.parametrize("floats, path", [
    ([(1, 1, 2), (2, 0, 0)], "axes[1].dirs[0][2]"),
    ([(3, 2, 1), (2, 0, 3)], "axes[2].origin[3]"),
    ([(8, 2, 3)], "axes[8].dirs[1][3]"),
], ids=["dirs-first", "origin-first", "last-entry"])
def test_an_exact_run_names_the_first_float_in_axis_order(tmp_path, capsys, floats, path):
    # (axis, row, k): row 0 is the origin, row r the direction r - 1
    axes = [{"origin": list(origin), "dirs": [list(v) for v in dirs]} for origin, dirs in D4N9_AXES]
    for axis, row, k in floats:
        (axes[axis]["origin"] if row == 0 else axes[axis]["dirs"][row - 1])[k] += 0.5
    file = tmp_path / "cycle.json"
    file.write_text(json.dumps({"kind": "cycle", "d": 4, "axes": axes}))
    assert cli._load(file.read_text())[0]._coords.dtype == np.float64
    for json_flag in ([], ["--json"]):
        code, out, err = capture(capsys, ["analyze-cycle", str(file), "--exact", *json_flag])
        assert (code, out, err) == (2, "", f"error: {path}: exact mode needs integers or 'a/b' strings, got a float\n")


def test_a_replaced_scenario_builds_from_its_own_axes():
    doc = {"kind": "cycle", "d": 4, "axes": [{"origin": o, "dirs": dirs} for o, dirs in D4N9_AXES]}
    sc = parse_scenario(json.dumps(doc))
    assert sc._coords.dtype == np.int64
    moved = dataclasses.replace(sc, axes=tuple((tuple(x + 1 for x in o), dirs) for o, dirs in sc.axes))
    assert moved._coords is None
    assert np.array_equal(scenario_cycle_chain(moved).ref_axes[0].origin, np.array(D4N9_AXES[0][0]) + 1)


# --- tolerances that cut every singular value, and a closed stdout ----------------


@pytest.mark.parametrize("example, argv, message", [
    ("generic-cycle", ["analyze-cycle", "--tol", "0.5"], "tolerance 0.5 cuts every singular value of a 7 x 6 matrix"),
    ("desargues", ["analyze-platform", "--tol", "10"], "tolerance 10.0 cuts every singular value of a 3 x 3 matrix"),
    ("planar-arm", ["analyze-chain", "--tol", "0.5"], "tolerance 0.5 cuts every singular value of a 2 x 3 matrix"),
    ("planar-arm", ["sweep", "--tol", "0.5", "--samples", "2"],
     "tolerance 0.5 cuts every singular value of a 2 x 3 matrix"),
], ids=["analyze-cycle", "analyze-platform", "analyze-chain", "sweep"])
def test_a_tolerance_that_cuts_every_singular_value_exits_2(tmp_path, capsys, example, argv, message):
    # each exited 0 with rank 0: mobility 7, "flexible (rank 0 < 3)", rank 0 of 2, and two singular samples
    path = tmp_path / "scenario.json"
    path.write_text(example_text(capsys, example))
    code, out, err = capture(capsys, [argv[0], str(path), *argv[1:]])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_reader_that_closes_stdout_early_ends_the_run_quietly(tmp_path, capsys):
    # as `hingekit sweep arm.json --samples 2000 | head -1`: the CSV outgrows the pipe's buffer,
    # so the write is still under way when the reader closes its end
    import os
    import subprocess
    import sys
    from pathlib import Path

    path = tmp_path / "arm.json"
    path.write_text(example_text(capsys, "planar-arm"))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "hingekit.cli", "sweep", str(path), "--samples", "2000"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert first.startswith(b"swept 2000 samples") and err == b""
