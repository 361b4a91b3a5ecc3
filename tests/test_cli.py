import json

import numpy as np
import pytest

from hingekit import cli
from hingekit.cli import (
    Scenario,
    emit_scenario,
    linkage_from_json,
    parse_scenario,
    run,
    scenario_chain,
    scenario_cycle_chain,
    scenario_platform,
    sweep,
    sweep_csv,
)
from hingekit.errors import ScenarioError
from hingekit.linkage import cycle_to_linkage
from hingekit.sampling import random_axis, rng_from


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


def test_convert_linkage_json_roundtrip(tmp_path, capsys):
    path = tmp_path / "cycle.json"
    path.write_text(example_text(capsys, "generic-cycle", "--n", "6", "--seed", "9"))
    code, out, _ = capture(capsys, ["convert-linkage", str(path), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 3 and doc["n"] == 6
    assert len(doc["vertices"]) == 12 and len(doc["edges"]) == 30
    rebuilt = linkage_from_json(doc)
    sc = parse_scenario(path.read_text())
    direct = cycle_to_linkage(cli.scenario_axes(sc))
    assert rebuilt == direct


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
        pytest.param(
            ["example", "cyclohexane-panels", "--height", "1e308"],
            id="example-height-overflows-dirs",
            marks=pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning"),
        ),
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
    code, out, err = capture(capsys, argv)
    assert code == 2 and out == "" and err.startswith("error: ") and "Traceback" not in err


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
    calls = []
    make_axis = cli.make_axis
    monkeypatch.setattr(cli, "make_axis", lambda *a: calls.append(a) or make_axis(*a))
    code, _, _ = capture(capsys, ["analyze-cycle", str(path)])
    assert code == 0 and len(calls) == 7
