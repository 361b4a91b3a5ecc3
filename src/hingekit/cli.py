"""Command line surface: scenario files in, reports/CSV/JSON out.

Scenario schema (JSON object):

    {
      "kind": "chain" | "cycle" | "platform",
      "d": int,
      "axes": [{"origin": [...], "dirs": [[...], ...]}, ...],   # chain, cycle
      "end_frame": {"origin": [...], "vecs": [[...], ...]},     # chain
      "panel": bool,                                            # optional
      "legs": [{"p": [...], "q": [...]}, ...],                  # platform
      "seed": int,                                              # optional
      "tol": float                                              # optional
    }

Coordinates may be numbers or exact rationals written as strings "a/b";
rational values survive parsing untouched, which is what --exact runs on.
Exit codes: 0 success, 2 input error, 3 genericity/degeneracy error,
4 internal consistency error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import analysis, linkage as linkage_mod
from .chain import Chain, cycle_chain, flex_path, frame_residual
from .errors import (
    ConsistencyError,
    DefinitionError,
    DegenerateGeometryError,
    DimensionError,
    GenericityError,
    HingekitError,
    ProjectionError,
    RigidCycleError,
    ScenarioError,
    ToleranceError,
    WrongMapError,
)
from .exterior import check_tolerance
from .geometry import Frame, make_axis, make_frame
from .sampling import rng_from

__all__ = [
    "Scenario",
    "SweepRow",
    "SweepReport",
    "parse_scenario",
    "emit_scenario",
    "sweep",
    "sweep_csv",
    "run",
    "main",
]


# ---------------------------------------------------------------------------
# scenario parsing


@dataclass(frozen=True)
class Scenario:
    """Validated scenario file contents, with raw (possibly rational) numbers."""

    kind: str
    d: int
    axes: tuple[tuple[tuple, tuple[tuple, ...]], ...] | None = None
    end_frame: tuple[tuple, tuple[tuple, ...]] | None = None
    legs: tuple[tuple[tuple, tuple], ...] | None = None
    panel: bool = False
    seed: int | None = None
    tol: float | None = None


def _num(value, path: str):
    if isinstance(value, bool):
        raise ScenarioError(f"{path}: expected a number, got a boolean")
    if isinstance(value, str):
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ScenarioError(f"{path}: {value!r} is not a rational 'a/b' string") from None
    elif not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}: expected a number or 'a/b' string")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ScenarioError(f"{path}: expected a finite number, got one too large for a float") from None
    if not finite:
        raise ScenarioError(f"{path}: expected a finite number, got {value!r}")
    return value


def _vector(value, path: str, length: int) -> tuple:
    if not isinstance(value, list):
        raise ScenarioError(f"{path}: expected an array")
    if len(value) != length:
        raise ScenarioError(f"{path}: expected length {length}, got {len(value)}")
    return tuple(_num(x, f"{path}[{i}]") for i, x in enumerate(value))


def _rows(value, path: str, width: int) -> tuple[tuple, ...]:
    if not isinstance(value, list):
        raise ScenarioError(f"{path}: expected an array of vectors")
    return tuple(_vector(row, f"{path}[{i}]", width) for i, row in enumerate(value))


def _axis_entry(value, path: str, d: int) -> tuple[tuple, tuple[tuple, ...]]:
    if not isinstance(value, dict):
        raise ScenarioError(f"{path}: expected an object with origin/dirs")
    unknown = set(value) - {"origin", "dirs"}
    if unknown:
        raise ScenarioError(f"{path}: unknown keys {sorted(unknown)}")
    if "origin" not in value:
        raise ScenarioError(f"{path}.origin: missing")
    origin = _vector(value["origin"], f"{path}.origin", d)
    dirs = _rows(value.get("dirs", []), f"{path}.dirs", d)
    if len(dirs) != d - 2:
        raise ScenarioError(f"{path}.dirs: an axis of R^{d} needs {d - 2} directions")
    return origin, dirs


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario JSON; errors carry the JSON path."""
    return _load(text)[0]


def _load(text: str) -> tuple[Scenario, Chain | analysis.Platform]:
    """Parse scenario JSON and build its chain, cycle chain or platform once.

    The build is the semantic check; commands use the built object.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:  # e.g. an integer beyond Python's digit limit
        raise ScenarioError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ScenarioError("top level: expected an object")
    kind = doc.get("kind")
    if kind not in ("chain", "cycle", "platform"):
        raise ScenarioError("kind: expected one of 'chain', 'cycle', 'platform'")
    d = doc.get("d")
    if not isinstance(d, int) or isinstance(d, bool) or d < 2:
        raise ScenarioError("d: expected an integer >= 2")
    seed = doc.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool) or seed < 0):
        raise ScenarioError("seed: expected an integer >= 0")
    tol = doc.get("tol")
    if tol is not None:
        if not isinstance(tol, (int, float)) or isinstance(tol, bool) or not 0 < tol <= sys.float_info.max:
            raise ScenarioError("tol: expected a finite number > 0")
        tol = float(tol)
    panel = doc.get("panel", False)
    if not isinstance(panel, bool):
        raise ScenarioError("panel: expected a boolean")

    axes = end_frame = legs = None
    if kind in ("chain", "cycle"):
        if "axes" not in doc or not isinstance(doc["axes"], list) or not doc["axes"]:
            raise ScenarioError("axes: expected a nonempty array")
        axes = tuple(
            _axis_entry(a, f"axes[{i}]", d) for i, a in enumerate(doc["axes"])
        )
        if kind == "cycle" and len(axes) < 2:
            raise ScenarioError("axes: a cycle needs at least two axes")
        if kind == "chain":
            if "end_frame" not in doc or not isinstance(doc["end_frame"], dict):
                raise ScenarioError("end_frame: missing object")
            ef = doc["end_frame"]
            unknown = set(ef) - {"origin", "vecs"}
            if unknown:
                raise ScenarioError(f"end_frame: unknown keys {sorted(unknown)}")
            if "origin" not in ef:
                raise ScenarioError("end_frame.origin: missing")
            origin = _vector(ef["origin"], "end_frame.origin", d)
            vecs = _rows(ef.get("vecs", []), "end_frame.vecs", d)
            if len(vecs) > d:
                raise ScenarioError("end_frame.vecs: more vectors than dimensions")
            end_frame = (origin, vecs)
    else:
        if "legs" not in doc or not isinstance(doc["legs"], list):
            raise ScenarioError("legs: expected an array")
        legs = []
        for i, leg in enumerate(doc["legs"]):
            if not isinstance(leg, dict) or set(leg) - {"p", "q"} or "p" not in leg or "q" not in leg:
                raise ScenarioError(f"legs[{i}]: expected an object with p and q")
            legs.append(
                (_vector(leg["p"], f"legs[{i}].p", d), _vector(leg["q"], f"legs[{i}].q", d))
            )
        legs = tuple(legs)

    scenario = Scenario(kind, d, axes, end_frame, legs, panel, seed, tol)
    build = {"chain": scenario_chain, "cycle": scenario_cycle_chain, "platform": scenario_platform}[kind]
    try:
        return scenario, build(scenario)
    except HingekitError as exc:
        raise ScenarioError(f"semantic error: {exc}") from exc


def _floats(values) -> tuple[float, ...]:
    return tuple(float(x) for x in values)


def scenario_axes(sc: Scenario):
    """Orthonormalized Axis objects for a chain or cycle scenario."""
    return [make_axis(sc.d, _floats(origin), [_floats(v) for v in dirs]) for origin, dirs in sc.axes]


def scenario_chain(sc: Scenario) -> Chain:
    if sc.kind != "chain":
        raise ScenarioError(f"expected a chain scenario, got kind {sc.kind!r}")
    origin, vecs = sc.end_frame
    frame = (
        Frame(sc.d, np.array(_floats(origin)), np.zeros((0, sc.d)))
        if not vecs
        else make_frame(sc.d, _floats(origin), [_floats(v) for v in vecs])
    )
    return Chain(sc.d, tuple(scenario_axes(sc)), frame, panel=sc.panel)


def scenario_cycle_chain(sc: Scenario) -> Chain:
    if sc.kind != "cycle":
        raise ScenarioError(f"expected a cycle scenario, got kind {sc.kind!r}")
    return cycle_chain(scenario_axes(sc), panel=sc.panel)


def scenario_platform(sc: Scenario) -> analysis.Platform:
    if sc.kind != "platform":
        raise ScenarioError(f"expected a platform scenario, got kind {sc.kind!r}")
    return analysis.Platform(sc.d, sc.legs)


def _require_exact(sc: Scenario) -> None:
    """Reject float coordinates before an --exact run; ints and 'a/b' strings pass."""
    vectors = []
    for i, (origin, dirs) in enumerate(sc.axes or ()):
        vectors.append((f"axes[{i}].origin", origin))
        vectors.extend((f"axes[{i}].dirs[{j}]", v) for j, v in enumerate(dirs))
    for i, (p, q) in enumerate(sc.legs or ()):
        vectors += [(f"legs[{i}].p", p), (f"legs[{i}].q", q)]
    for path, values in vectors:
        for k, x in enumerate(values):
            if isinstance(x, float):
                raise ScenarioError(f"{path}[{k}]: exact mode needs integers or 'a/b' strings, got a float")


def _emit_value(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else str(x)
    if isinstance(x, (int, float)):
        return x
    return float(x)


def emit_scenario(sc: Scenario) -> str:
    """Serialize back to schema JSON; parse(emit(sc)) == sc.

    Keys come in the order kind, d, seed, axes, end_frame, legs, panel,
    tol; ``hingekit example`` prints through here, so its goldens pin it.
    """
    doc: dict = {"kind": sc.kind, "d": sc.d}
    if sc.seed is not None:
        doc["seed"] = sc.seed
    if sc.axes is not None:
        doc["axes"] = [
            {"origin": [_emit_value(x) for x in origin], "dirs": [[_emit_value(x) for x in v] for v in dirs]}
            for origin, dirs in sc.axes
        ]
    if sc.end_frame is not None:
        origin, vecs = sc.end_frame
        doc["end_frame"] = {
            "origin": [_emit_value(x) for x in origin],
            "vecs": [[_emit_value(x) for x in v] for v in vecs],
        }
    if sc.legs is not None:
        doc["legs"] = [
            {"p": [_emit_value(x) for x in p], "q": [_emit_value(x) for x in q]}
            for p, q in sc.legs
        ]
    if sc.panel:
        doc["panel"] = True
    if sc.tol is not None:
        doc["tol"] = sc.tol
    try:
        return json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:
        raise ScenarioError("the scenario has a coordinate that is not a finite float") from None


# ---------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class SweepRow:
    index: int
    theta: tuple[float, ...]
    rank: int
    sigma_min: float
    singular: bool


@dataclass(frozen=True)
class SweepReport:
    samples: int
    seed: int
    singular_count: int
    sigma_min_min: float
    sigma_min_mean: float
    rows: tuple[SweepRow, ...]


def _verdict_for(chain: Chain, theta, tol: float):
    if chain.end_frame.k == 0:
        return analysis.endpoint_singularity(chain, theta, tol=tol)
    return analysis.frame_singularity(chain, theta, tol=tol)


def sweep(chain: Chain, samples: int, seed: int, tol: float = 1e-10, workers: int = 1) -> SweepReport:
    """Seeded uniform scan of the configuration torus.

    Sample i draws its angles from the dedicated PCG64 stream (seed, i),
    so each row depends only on (seed, i). Samples run in order in the
    calling thread; ``workers`` is accepted and has no effect.
    """
    if samples < 1:
        raise ScenarioError("sweep needs at least one sample")
    rows = []
    for index in range(samples):
        theta = rng_from(seed, index).uniform(0.0, 2.0 * np.pi, chain.n - 1)
        verdict = _verdict_for(chain, theta, tol)
        sig = verdict.certificate.singular_values
        sigma_min = float(sig[-1]) if sig.size else 0.0
        rows.append(SweepRow(index, tuple(float(t) for t in theta), verdict.rank, sigma_min, verdict.singular))
    sigmas = [r.sigma_min for r in rows]
    singular_count = sum(1 for r in rows if r.singular)
    return SweepReport(samples, seed, singular_count, min(sigmas), sum(sigmas) / len(sigmas), tuple(rows))


def sweep_csv(report: SweepReport) -> str:
    n_angles = len(report.rows[0].theta)
    header = (
        "sample_index,"
        + ",".join(f"theta_{i + 1}" for i in range(n_angles))
        + ",rank,sigma_min,singular"
    )
    lines = [header]
    for row in report.rows:
        lines.append(
            f"{row.index},"
            + ",".join(repr(t) for t in row.theta)
            + f",{row.rank},{repr(row.sigma_min)},{'true' if row.singular else 'false'}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reports


def _fmt_vec(v) -> str:
    return "[" + ", ".join(f"{float(x):.6g}" for x in v) + "]"


def _verdict_json(verdict) -> dict:
    sig = verdict.certificate.singular_values
    out = {
        "rank": verdict.rank,
        "full_rank": verdict.full_rank,
        "singular": verdict.singular,
        "sigma_min": float(sig[-1]) if sig.size else None,
    }
    if verdict.mobility is not None:
        out["mobility"] = verdict.mobility
    if isinstance(verdict.witness, analysis.WitnessLine):
        out["witness"] = {
            "point": [float(x) for x in verdict.witness.point],
            "direction": [float(x) for x in verdict.witness.direction],
        }
    elif verdict.witness is not None:
        out["functional"] = [float(x) for x in verdict.witness]
    return out


def _print_chain_report(chain: Chain, verdict, out) -> None:
    kind = "end-point" if chain.end_frame.k == 0 else f"end-frame (k={chain.end_frame.k})"
    state = "SINGULAR" if verdict.singular else "regular"
    print(
        f"{kind} map of a {chain.n}-body chain in R^{chain.d}: "
        f"rank {verdict.rank} of {verdict.full_rank} -> {state}",
        file=out,
    )
    sig = verdict.certificate.singular_values
    if sig.size:
        print(f"sigma_min = {sig[-1]:.6e}", file=out)
    if isinstance(verdict.witness, analysis.WitnessLine):
        print(
            f"witness line through {_fmt_vec(verdict.witness.point)} "
            f"with direction {_fmt_vec(verdict.witness.direction)}",
            file=out,
        )
    elif verdict.witness is not None:
        print(f"hyperplane functional: {_fmt_vec(verdict.witness)}", file=out)


# ---------------------------------------------------------------------------
# commands


def _tolerance(args, sc: Scenario) -> float:
    """--tol, else the scenario's "tol", else 1e-10; --tol is checked here, before the command runs."""
    if args.tol is not None:
        return check_tolerance(args.tol)
    return sc.tol if sc.tol is not None else 1e-10


def _read_input(path: str) -> str:
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        name = "stdin" if path == "-" else path
        raise ScenarioError(f"{name}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _cmd_analyze_chain(args) -> int:
    sc, chain = _load(_read_input(args.file))
    if args.exact:
        raise ScenarioError("--exact is not available for chains (placement needs trigonometry)")
    if sc.kind == "platform":
        raise ScenarioError(f"expected a chain scenario, got kind {sc.kind!r}")
    tol = _tolerance(args, sc)
    verdict = _verdict_for(chain, np.zeros(chain.n - 1), tol)
    if args.json:
        print(json.dumps(_verdict_json(verdict), indent=2))
    else:
        _print_chain_report(chain, verdict, sys.stdout)
    return 0


def _cmd_analyze_cycle(args) -> int:
    sc, chain = _load(_read_input(args.file))
    if sc.kind != "cycle":
        raise ScenarioError("analyze-cycle needs a cycle scenario")
    tol = _tolerance(args, sc)
    verdict = analysis.cycle_mobility([*chain.ref_axes, chain.closing_axis], tol=tol)
    exact_verdict = None
    if args.exact:
        _require_exact(sc)
        exact_verdict = analysis.cycle_mobility_exact(list(sc.axes))
    if args.json:
        doc = _verdict_json(verdict)
        if exact_verdict is not None:
            doc["exact"] = _verdict_json(exact_verdict)
        print(json.dumps(doc, indent=2))
        return 0
    n = len(sc.axes)
    state = "infinitesimally flexible" if verdict.singular else "rigid"
    print(
        f"cycle of {n} axes in R^{sc.d}: Plucker span rank {verdict.rank} of "
        f"{verdict.full_rank} -> {state}, mobility {verdict.mobility}"
    )
    if verdict.witness is not None:
        print(f"hyperplane functional: {_fmt_vec(verdict.witness)}")
    if exact_verdict is not None:
        print(
            f"exact (rational) rank {exact_verdict.rank}, mobility {exact_verdict.mobility}"
        )
        if exact_verdict.witness is not None:
            print(
                "exact functional: ["
                + ", ".join(str(x) for x in exact_verdict.witness)
                + "]"
            )
    return 0


def _cmd_analyze_platform(args) -> int:
    sc, platform = _load(_read_input(args.file))
    if sc.kind != "platform":
        raise ScenarioError("analyze-platform needs a platform scenario")
    tol = _tolerance(args, sc)
    verdict = analysis.platform_flexibility(platform, tol=tol)
    exact_verdict = None
    if args.exact:
        _require_exact(sc)
        exact_verdict = analysis.platform_flexibility(platform, exact=True)
    if args.json:
        doc = _verdict_json(verdict)
        if exact_verdict is not None:
            doc["exact"] = _verdict_json(exact_verdict)
        print(json.dumps(doc, indent=2))
        return 0
    state = "flexible" if verdict.singular else "rigid"
    print(
        f"platform in R^{sc.d} with {len(sc.legs)} legs: {state} "
        f"(rank {verdict.rank} {'<' if verdict.singular else '='} {verdict.full_rank})"
    )
    if verdict.witness is not None:
        print(f"hyperplane functional: {_fmt_vec(verdict.witness)}")
    if exact_verdict is not None:
        state = "flexible" if exact_verdict.singular else "rigid"
        print(f"exact (rational) rank {exact_verdict.rank} -> {state}")
    return 0


def _linkage_json(lk: linkage_mod.Linkage) -> dict:
    return {
        "d": lk.d,
        "n": lk.n,
        "vertices": [
            {"label": label, "coords": list(coords)} for label, coords in lk.vertices
        ],
        "edges": [{"a": a, "b": b, "length": length} for a, b, length in lk.edges],
    }


def linkage_from_json(doc: dict) -> linkage_mod.Linkage:
    return linkage_mod.Linkage(
        doc["d"],
        doc["n"],
        tuple((v["label"], tuple(float(x) for x in v["coords"])) for v in doc["vertices"]),
        tuple((e["a"], e["b"], float(e["length"])) for e in doc["edges"]),
    )


def _cmd_convert_linkage(args) -> int:
    sc, chain = _load(_read_input(args.file))
    if sc.kind != "cycle":
        raise ScenarioError("convert-linkage needs a cycle scenario")
    _tolerance(args, sc)
    lk = linkage_mod.cycle_to_linkage([*chain.ref_axes, chain.closing_axis])
    if args.json:
        print(json.dumps(_linkage_json(lk), indent=2))
        return 0
    split = linkage_mod.moduli_invariants(lk)
    print(
        f"canonical linkage in R^{lk.d}: {len(lk.vertices)} vertices, "
        f"{len(lk.edges)} edges ({len(split.independent)} free invariants "
        f"+ {len(split.dependent)} dependent)"
    )
    print(split.note)
    print(json.dumps(_linkage_json(lk), indent=2))
    return 0


def _cmd_flex(args) -> int:
    sc, chain = _load(_read_input(args.file))
    if sc.kind != "cycle":
        raise ScenarioError("flex needs a cycle scenario")
    tol = _tolerance(args, sc)
    path = flex_path(chain, args.steps, args.step_size, tol=tol)
    residuals = [float(np.linalg.norm(frame_residual(chain, theta))) for theta in path]
    drift = None
    try:
        drift = linkage_mod.check_linkage_invariance(chain, path)
    except (GenericityError, DegenerateGeometryError) as exc:
        print(f"linkage drift unavailable: {exc}", file=sys.stderr)
    if args.csv:
        lines = ["step," + ",".join(f"theta_{i + 1}" for i in range(chain.n - 1)) + ",residual"]
        for i, (t, r) in enumerate(zip(path, residuals)):
            lines.append(f"{i}," + ",".join(repr(float(x)) for x in t) + f",{repr(r)}")
        Path(args.csv).write_text("\n".join(lines) + "\n")
    if args.json:
        doc = {
            "steps": args.steps,
            "step_size": args.step_size,
            "residuals": residuals,
            "max_edge_drift": drift,
            "path": [[float(x) for x in t] for t in path],
        }
        print(json.dumps(doc, indent=2))
        return 0
    print(
        f"flexed a {chain.n}-axis cycle for {args.steps} steps of {args.step_size}: "
        f"max closure residual {max(residuals):.3e}"
    )
    if drift is not None:
        print(f"max canonical edge-length drift along the path: {drift:.3e}")
    return 0


def _cmd_sweep(args) -> int:
    sc, chain = _load(_read_input(args.file))
    if sc.kind == "platform":
        raise ScenarioError("sweep needs a chain or cycle scenario")
    tol = _tolerance(args, sc)
    seed = args.seed if args.seed is not None else (sc.seed or 0)
    report = sweep(chain, args.samples, seed, tol=tol, workers=args.workers)
    csv_text = sweep_csv(report)
    if args.csv:
        Path(args.csv).write_text(csv_text)
    if args.json:
        doc = {
            "samples": report.samples,
            "seed": report.seed,
            "singular_count": report.singular_count,
            "sigma_min_min": report.sigma_min_min,
            "sigma_min_mean": report.sigma_min_mean,
        }
        print(json.dumps(doc, indent=2))
        return 0
    print(
        f"swept {report.samples} samples (seed {report.seed}): "
        f"{report.singular_count} singular, sigma_min in "
        f"[{report.sigma_min_min:.3e}, mean {report.sigma_min_mean:.3e}]"
    )
    if not args.csv:
        sys.stdout.write(csv_text)
    return 0


def _rationals(flag: str, text: str) -> tuple:
    """Comma-separated finite rationals given to an ``example`` flag."""
    return tuple(_num(part, f"{flag}[{i}]") for i, part in enumerate(text.split(",")))


def _axes_data(axes) -> tuple:
    return tuple((_floats(a.origin), tuple(_floats(v) for v in a.dirs)) for a in axes)


def _line_axes(lines) -> tuple:
    """Axes of R^3 from (point, direction) pairs, numbers kept as given."""
    return tuple((tuple(p), (tuple(u),)) for p, u in lines)


def _example_scenario(args) -> Scenario:
    """The named fixture; a flag that is given is used as given, never replaced by its default."""
    name = args.name
    seed = 0 if args.seed is None else args.seed
    if name == "twisted-cubic-tangents":
        ts = (0, 1, -1, 2, -2, 3) if args.t is None else _rationals("--t", args.t)
        return Scenario("cycle", 3, axes=_line_axes(analysis.twisted_cubic_data(ts)))
    if name == "bricard-symmetric-six":
        lines = analysis.bricard_symmetric_lines(seed)
        return Scenario("cycle", 3, axes=_line_axes(lines), seed=seed)
    if name == "cyclohexane-panels":
        pts = analysis.chair_hexagon_points(_num(args.height, "--height"))
        axes = tuple((_floats(pts[i]), (_floats(pts[(i + 1) % 6] - pts[i]),)) for i in range(6))
        return Scenario("cycle", 3, axes=axes, panel=True)
    if name == "desargues":
        perturb = 0 if args.perturb is None else _num(args.perturb, "--perturb")
        return Scenario("platform", 2, legs=tuple(analysis.desargues_legs(perturb)))
    if name == "planar-arm":
        lengths = (1.0, 1.0, 1.0) if args.lengths is None else _rationals("--lengths", args.lengths)
        chain = analysis.planar_arm_chain(lengths)
        return Scenario(
            "chain", 2, axes=_axes_data(chain.ref_axes), end_frame=(_floats(chain.end_frame.origin), ())
        )
    if name == "generic-cycle":
        d = 3 if args.d is None else args.d
        n = 7 if args.n is None else args.n
        chain = analysis.classical_scenario("generic-cycle", d=d, n=n, seed=seed)
        axes = _axes_data(list(chain.ref_axes) + [chain.closing_axis])
        return Scenario("cycle", chain.d, axes=axes, seed=seed)
    raise ScenarioError(
        f"unknown example {name!r}; choose one of {', '.join(analysis.SCENARIO_NAMES)}"
    )


def _cmd_example(args) -> int:
    print(emit_scenario(_example_scenario(args)))
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hingekit",
        description="Analyze hinged chains, cycles, linkages and platforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_arg(p):
        p.add_argument("file", help="scenario JSON file, or - for stdin")

    def common(p, exact=False, csv=False):
        p.add_argument("--tol", type=float, default=None, help="relative rank tolerance")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if exact:
            p.add_argument(
                "--exact",
                action="store_true",
                help="also run exact rational arithmetic (inputs must be ints or 'a/b')",
            )
        if csv:
            p.add_argument("--csv", default=None, help="write CSV rows to this path")

    p = sub.add_parser("analyze-chain", help="rank/witness verdict of the end map at theta = 0")
    scenario_arg(p)
    common(p)
    p.add_argument("--exact", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(fn=_cmd_analyze_chain)

    p = sub.add_parser("analyze-cycle", help="Plucker span rank and mobility of a cycle")
    scenario_arg(p)
    common(p, exact=True)
    p.set_defaults(fn=_cmd_analyze_cycle)

    p = sub.add_parser("analyze-platform", help="infinitesimal flexibility of a bar platform")
    scenario_arg(p)
    common(p, exact=True)
    p.set_defaults(fn=_cmd_analyze_platform)

    p = sub.add_parser("convert-linkage", help="canonical bar-joint linkage of a cycle")
    scenario_arg(p)
    common(p)
    p.set_defaults(fn=_cmd_convert_linkage)

    p = sub.add_parser("flex", help="track the closure fiber of a cycle")
    scenario_arg(p)
    common(p, csv=True)
    p.add_argument("--steps", type=int, default=10, help="number of fiber steps")
    p.add_argument("--step-size", type=float, default=1e-2, help="tangent step length")
    p.set_defaults(fn=_cmd_flex)

    p = sub.add_parser("sweep", help="seeded Monte Carlo scan of the configuration torus")
    scenario_arg(p)
    common(p, csv=True)
    p.add_argument("--samples", type=int, default=100, help="number of torus samples")
    p.add_argument("--seed", type=int, default=None, help="stream seed (default: scenario seed or 0)")
    p.add_argument("--workers", type=int, default=1, help="accepted for compatibility; has no effect")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("example", help="emit a classical scenario as JSON")
    p.add_argument("name", help="|".join(analysis.SCENARIO_NAMES))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--t", default=None, help="comma-separated tangency parameters")
    p.add_argument("--lengths", default=None, help="comma-separated bar lengths")
    p.add_argument("--height", type=float, default=0.5, help="chair pucker height")
    p.add_argument("--perturb", default=None, help="rational off-perspective perturbation")
    p.set_defaults(fn=_cmd_example)

    return parser


def run(argv=None) -> int:
    """Dispatch a CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ScenarioError, DefinitionError, DimensionError, WrongMapError, ToleranceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GenericityError, DegenerateGeometryError, RigidCycleError, ProjectionError) as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
