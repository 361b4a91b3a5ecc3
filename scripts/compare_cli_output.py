#!/usr/bin/env python3
"""Compare hingekit CLI output byte for byte between this checkout and a git revision.

Runs a fixed list of invocations - every ``example`` with and without its
flags, ``analyze-*`` in text, ``--json`` and ``--exact`` form,
``convert-linkage``, ``flex --json/--csv`` and ``sweep`` CSV on end-point,
cycle and k=1 frame chains - once against ``src/`` of this checkout and
once against ``src/`` of REV (extracted with ``git archive``). Each side
feeds the analyses with its own ``example`` output. Exit code, stdout,
stderr and every written CSV file must agree; differences are listed and
the script exits 1. For each difference it says whether only numeric
tokens differ, and if so the largest absolute and relative difference.

    python scripts/compare_cli_output.py HEAD~1
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EXAMPLES = {
    "cubic": ["twisted-cubic-tangents"],
    "cubic-t": ["twisted-cubic-tangents", "--t", "0,1,2,-1,1/2,3,5/3"],
    "bricard": ["bricard-symmetric-six"],
    "bricard-4": ["bricard-symmetric-six", "--seed", "4"],
    "chair": ["cyclohexane-panels"],
    "chair-h": ["cyclohexane-panels", "--height", "0.3"],
    "desargues": ["desargues"],
    "desargues-p": ["desargues", "--perturb", "1/100"],
    "arm": ["planar-arm"],
    "arm-l": ["planar-arm", "--lengths", "1,2,1/2"],
    "cycle": ["generic-cycle"],
    "cycle-5": ["generic-cycle", "--seed", "5"],
    "cycle-d4": ["generic-cycle", "--d", "4", "--n", "11"],
    "cycle-d2": ["generic-cycle", "--d", "2", "--n", "5", "--seed", "1"],
}

# hand-written chains in R^3: a generic end-point chain and a k=1 frame chain
AXES = [
    {"origin": [0.1, -0.4, 0.7], "dirs": [[0.3, 0.9, -0.2]]},
    {"origin": [1.2, 0.5, -0.3], "dirs": [[-0.8, 0.1, 0.6]]},
    {"origin": [-0.6, 1.1, 0.2], "dirs": [[0.2, -0.5, 0.9]]},
    {"origin": [0.4, 0.3, 1.4], "dirs": [[0.7, 0.7, 0.1]]},
    {"origin": [-1.0, -0.2, 0.5], "dirs": [[0.1, 0.4, -0.9]]},
]
CHAINS = {
    "chain-d3": {"kind": "chain", "d": 3, "axes": AXES[:4],
                 "end_frame": {"origin": [1.5, -0.2, 0.9], "vecs": []}},
    "frame-k1": {"kind": "chain", "d": 3, "axes": AXES,
                 "end_frame": {"origin": [1.5, -0.2, 0.9], "vecs": [["3/5", "4/5", 0]]}},
}

RUNS = [
    ["analyze-chain", "{arm}"], ["analyze-chain", "{arm}", "--json"],
    ["analyze-chain", "{arm-l}", "--json"], ["analyze-chain", "{chain-d3}"],
    ["analyze-chain", "{chain-d3}", "--json", "--tol", "1e-6"],
    ["analyze-chain", "{frame-k1}"], ["analyze-chain", "{frame-k1}", "--json"],
    ["analyze-chain", "{chair}"], ["analyze-chain", "{cycle}", "--json"],
    ["analyze-cycle", "{cubic}"], ["analyze-cycle", "{cubic}", "--exact"],
    ["analyze-cycle", "{cubic}", "--json", "--exact"],
    ["analyze-cycle", "{cubic-t}", "--json", "--exact"],
    ["analyze-cycle", "{bricard}", "--exact"], ["analyze-cycle", "{bricard-4}", "--json", "--exact"],
    ["analyze-cycle", "{chair}", "--json"], ["analyze-cycle", "{chair-h}"],
    ["analyze-cycle", "{cycle}"], ["analyze-cycle", "{cycle-d4}", "--json"],
    ["analyze-cycle", "{cycle-d2}", "--json"], ["analyze-cycle", "{cycle}", "--exact"],
    ["analyze-platform", "{desargues}"], ["analyze-platform", "{desargues}", "--exact"],
    ["analyze-platform", "{desargues}", "--json", "--exact"],
    ["analyze-platform", "{desargues-p}", "--json", "--exact"],
    ["convert-linkage", "{cycle}"], ["convert-linkage", "{cycle-d4}", "--json"],
    ["convert-linkage", "{bricard}", "--json"],
    ["flex", "{cycle}", "--json"], ["flex", "{cycle}", "--csv", "{out}/flex-cycle.csv"],
    ["flex", "{cycle-5}", "--steps", "4", "--step-size", "0.05"],
    ["flex", "{cycle-d4}", "--json", "--steps", "3"], ["flex", "{bricard}", "--json", "--steps", "3"],
    ["flex", "{chair}", "--json", "--steps", "3"], ["flex", "{cycle}", "--json", "--steps", "0"],
    ["sweep", "{arm}", "--samples", "20", "--seed", "3", "--csv", "{out}/sweep-arm.csv"],
    ["sweep", "{arm-l}", "--samples", "10", "--json"],
    ["sweep", "{chain-d3}", "--samples", "15", "--seed", "2"],
    ["sweep", "{cycle}", "--samples", "10", "--csv", "{out}/sweep-cycle.csv"],
    ["sweep", "{frame-k1}", "--samples", "10", "--seed", "9", "--csv", "{out}/sweep-frame.csv"],
    ["sweep", "{frame-k1}", "--samples", "6", "--workers", "2"],
]


NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def numeric_gap(a: str, b: str) -> tuple[float, float] | None:
    """Largest (absolute, relative) gap between a and b, or None if more than numbers differ."""
    pa, pb = NUMBER.split(a), NUMBER.split(b)
    if len(pa) != len(pb) or pa[0::2] != pb[0::2]:
        return None
    worst_abs = worst_rel = 0.0
    for x, y in zip(map(float, pa[1::2]), map(float, pb[1::2])):
        gap = abs(x - y)
        worst_abs = max(worst_abs, gap)
        if gap:
            worst_rel = max(worst_rel, gap / max(abs(x), abs(y)))
    return worst_abs, worst_rel


def _describe(theirs, ours) -> str:
    gap = numeric_gap(*(json.dumps(res, sort_keys=True, ensure_ascii=False) for res in (theirs, ours)))
    if gap is None:
        return "text differs, not only numbers"
    return f"only numbers differ: largest absolute {gap[0]:.3g}, largest relative {gap[1]:.3g}"


def _run_one(run, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except Exception as exc:  # a traceback is an outcome worth comparing too
            code = f"raised {type(exc).__name__}: {exc}"
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def worker(work: Path) -> None:
    """Run every invocation with the hingekit found first on sys.path."""
    from hingekit.cli import run

    files = {"out": str(work)}
    results = {}
    for tag, argv in EXAMPLES.items():
        res = results[f"example {' '.join(argv)}"] = _run_one(run, ["example", *argv])
        path = work / f"{tag}.json"
        path.write_text(res["stdout"])
        files[tag] = str(path)
    for tag, doc in CHAINS.items():
        path = work / f"{tag}.json"
        path.write_text(json.dumps(doc))
        files[tag] = str(path)
    for argv in RUNS:
        key = " ".join(argv)
        results[key] = _run_one(run, [a.format(**files) if "{" in a else a for a in argv])
    for csv in sorted(work.glob("*.csv")):
        results[f"file {csv.name}"] = {"bytes": csv.read_text()}
    json.dump(results, sys.stdout)


def _side(src: Path, work: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    work.mkdir()
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", str(work)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="git revision to compare against")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker is not None:
        worker(args.worker)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", args.rev, "src"],
            capture_output=True, check=True,
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "ref", filter="data")
        ours = _side(ROOT / "src", tmp / "ours")
        theirs = _side(tmp / "ref" / "src", tmp / "theirs")
    differ = [key for key in sorted(set(ours) | set(theirs)) if ours.get(key) != theirs.get(key)]
    for key in differ:
        print(
            f"DIFFERS: {key} ({_describe(theirs.get(key), ours.get(key))})\n"
            f"  {args.rev}: {theirs.get(key)!r:.300}\n  here: {ours.get(key)!r:.300}"
        )
    print(f"{len(ours) - len(differ)} of {len(ours)} outputs identical to {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
