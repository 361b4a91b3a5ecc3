"""Command line surface: scenario files in, reports/CSV/JSON out.

Scenario schema (JSON object):

    {
      "kind": "chain" | "cycle" | "platform",
      "d": int,
      "axes": [{"origin": [...], "dirs": [[...], ...]}, ...],   # chain, cycle
      "end_frame": {"origin": [...], "vecs": [[...], ...]},     # chain
      "panel": bool,                                            # chain, cycle; optional
      "legs": [{"p": [...], "q": [...]}, ...],                  # platform
      "seed": int,                                              # optional
      "tol": float                                              # optional
    }

Coordinates may be numbers or exact rationals written as strings "a/b";
rational values survive parsing untouched, which is what --exact runs on.
The axes of a chain or cycle whose coordinates are all plain ints and
floats are read with one type scan straight into one stacked array; any
other axes, and every other coordinate, go through the per-number parser,
which is also the source of every schema message.

A top-level key that the scenario's kind does not read is rejected.

Every command but ``example`` reads one scenario file. ``run`` loads and
builds it once, checks its kind against the ``kinds`` the command declares
in the parser, and settles the tolerance (--tol, checked, else the
scenario's "tol", else 1e-10) before the command runs. The command writes
its CSV file, if it has one, and returns its --json document and its text
report; ``run`` prints one of them, the one write to stdout. Warnings go to stderr.

Exit codes: 0 success, 2 input error, 4 internal consistency error, 3 any
other hingekit error (genericity, degeneracy, provenance, ...), 1 when the
reader closes stdout before the output is written (a broken pipe).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import analysis, linkage as linkage_mod, sampling
from .chain import Chain, _place_many, _stacked, cycle_chain, flex_path, forward_kinematics, frame_residual
from .errors import (
    ConsistencyError,
    DefinitionError,
    DegenerateAxisError,
    DimensionError,
    GenericityError,
    HingekitError,
    ScenarioError,
    ToleranceError,
    WrongMapError,
)
from .exterior import check_tolerance
from .geometry import make_axes, make_frame

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
    # the (n, d-1, d) stack of ``_scan_axes`` when ``_load``'s scan read the axes; not an
    # init field, so a ``dataclasses.replace`` copy rebuilds its stack from ``axes``
    _coords: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)


def _num(value, path: str, index: int | None = None):
    """A finite number or rational; an error names ``path``, or ``path[index]``, built only then."""
    problem = None
    if isinstance(value, bool):
        problem = "expected a number, got a boolean"
    elif isinstance(value, str):
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError):
            problem = f"{value!r} is not a rational 'a/b' string"
    elif not isinstance(value, (int, float)):
        problem = "expected a number or 'a/b' string"
    if problem is None:
        try:
            if math.isfinite(value):
                return value
            problem = f"expected a finite number, got {value!r}"
        except OverflowError:
            problem = "expected a finite number, got one too large for a float"
    raise ScenarioError(f"{path if index is None else f'{path}[{index}]'}: {problem}")


def _vector(value, path: str, length: int) -> tuple:
    if not isinstance(value, list):
        raise ScenarioError(f"{path}: expected an array")
    if len(value) != length:
        raise ScenarioError(f"{path}: expected length {length}, got {len(value)}")
    return tuple(_num(x, path, i) for i, x in enumerate(value))


def _rows(value, path: str, width: int) -> tuple[tuple, ...]:
    if not isinstance(value, list):
        raise ScenarioError(f"{path}: expected an array of vectors")
    return tuple(_vector(row, f"{path}[{i}]", width) for i, row in enumerate(value))


def _entry(value, path: str, d: int, key: str) -> tuple[tuple, tuple[tuple, ...]]:
    """An {"origin": point, key: [vector, ...]} object (an axis or an end frame)."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{path}: expected an object with origin/{key}")
    unknown = set(value) - {"origin", key}
    if unknown:
        raise ScenarioError(f"{path}: unknown keys {sorted(unknown)}")
    if "origin" not in value:
        raise ScenarioError(f"{path}.origin: missing")
    origin = _vector(value["origin"], f"{path}.origin", d)
    return origin, _rows(value.get(key, []), f"{path}.{key}", d)


def _scan_axes(axes: list, d: int) -> np.ndarray | None:
    """The axes' coordinates as one (n, d-1, d) stack, each origin then its directions: int64 when
    every coordinate is an int that fits, float64 when each is an int or a finite float, else None,
    for the per-number parser to read or refuse by name. Python types, scanned before any array is
    built, pick int or float: numpy types [1, 2**63] as float64 and [True, 1] as int64.
    """
    rows = []
    for a in axes:
        if type(a) is not dict or "origin" not in a or len(a) != 1 + ("dirs" in a):
            return None
        dirs = a.get("dirs", [])
        if type(dirs) is not list or len(dirs) != d - 2:
            return None
        rows += [a["origin"], *dirs]
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {d}:
        return None
    flat = list(itertools.chain.from_iterable(rows))
    types = set(map(type, flat))
    try:
        if types == {int}:
            return np.array(flat, dtype=np.int64).reshape(len(axes), d - 1, d)
        if types <= {int, float}:
            stack = np.array(flat, dtype=float).reshape(len(axes), d - 1, d)
            return stack if np.isfinite(stack).all() else None
    except OverflowError:
        pass
    return None


_KIND_KEYS = {
    "chain": {"kind", "d", "axes", "end_frame", "panel", "seed", "tol"},
    "cycle": {"kind", "d", "axes", "panel", "seed", "tol"},
    "platform": {"kind", "d", "legs", "seed", "tol"},
}


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
    if kind not in _KIND_KEYS:
        raise ScenarioError("kind: expected one of 'chain', 'cycle', 'platform'")
    unknown = set(doc) - _KIND_KEYS[kind]
    if unknown:
        raise ScenarioError(f"top level: unknown keys {sorted(unknown)}")
    d = doc.get("d")
    if not isinstance(d, int) or isinstance(d, bool) or d < 2:
        raise ScenarioError("d: expected an integer >= 2")
    seed = doc.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool) or seed < 0):
        raise ScenarioError("seed: expected an integer >= 0")
    tol = doc.get("tol")
    if tol is not None:
        try:  # anything but an int or a float fails as NaN; an int past a float overflows
            tol = check_tolerance(float(tol) if type(tol) in (int, float) else math.nan)
        except (ToleranceError, OverflowError):
            raise ScenarioError("tol: expected a finite number > 0") from None
    panel = doc.get("panel", False)
    if not isinstance(panel, bool):
        raise ScenarioError("panel: expected a boolean")

    axes = end_frame = legs = coords = None
    if kind in ("chain", "cycle"):
        if "axes" not in doc or not isinstance(doc["axes"], list) or not doc["axes"]:
            raise ScenarioError("axes: expected a nonempty array")
        coords = _scan_axes(doc["axes"], d)
        if coords is not None:
            axes = tuple((tuple(a["origin"]), tuple(map(tuple, a.get("dirs", [])))) for a in doc["axes"])
        else:
            axes = []
            for i, a in enumerate(doc["axes"]):
                origin, dirs = _entry(a, f"axes[{i}]", d, "dirs")
                if len(dirs) != d - 2:
                    raise ScenarioError(f"axes[{i}].dirs: an axis of R^{d} needs {d - 2} directions")
                axes.append((origin, dirs))
            axes = tuple(axes)
        if kind == "cycle" and len(axes) < 2:
            raise ScenarioError("axes: a cycle needs at least two axes")
        if kind == "chain":
            end_frame = _entry(doc.get("end_frame"), "end_frame", d, "vecs")
            if len(end_frame[1]) > d:
                raise ScenarioError("end_frame.vecs: more vectors than dimensions")
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
    object.__setattr__(scenario, "_coords", coords)
    build = {"chain": scenario_chain, "cycle": scenario_cycle_chain, "platform": scenario_platform}[kind]
    try:
        return scenario, build(scenario)
    except HingekitError as exc:
        raise ScenarioError(f"semantic error: {exc}") from exc


def _at(path: str, build, *args):
    """build(*args), with the JSON path of a bad axis or end frame in front of its error."""
    try:
        return build(*args)
    except DegenerateAxisError as exc:
        raise DegenerateAxisError(f"{path.format(exc.index)}: {exc}") from None


def scenario_axes(sc: Scenario):
    """Orthonormalized Axis objects for a chain or cycle scenario, built in one stacked pass."""
    if sc._coords is not None:
        coords = sc._coords.astype(float)
    else:  # numpy reads an int or a Fraction by float(), as the scan does
        coords = np.array([[origin, *dirs] for origin, dirs in sc.axes], dtype=float)
    origins, dirs = np.ascontiguousarray(coords[:, 0]), np.ascontiguousarray(coords[:, 1:])
    return _at("axes[{}].dirs", make_axes, sc.d, origins, dirs)


def scenario_chain(sc: Scenario) -> Chain:
    origin, vecs = sc.end_frame
    frame = _at("end_frame.vecs", make_frame, sc.d, origin, vecs)  # numpy reads an int or a Fraction by float()
    return Chain(sc.d, tuple(scenario_axes(sc)), frame, panel=sc.panel)


def scenario_cycle_chain(sc: Scenario) -> Chain:
    return cycle_chain(scenario_axes(sc), panel=sc.panel)


def scenario_platform(sc: Scenario) -> analysis.Platform:
    return analysis.Platform(sc.d, sc.legs)


def _require_exact(sc: Scenario) -> None:
    """Reject float coordinates before an --exact run; ints and 'a/b' strings pass.

    Axes the scan read as int64 pass on that dtype; any others are walked for the first float.
    """
    if sc._coords is not None and sc._coords.dtype == np.int64:
        return
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


def _exact_cycle(sc: Scenario) -> analysis.Verdict:
    """The --exact verdict of a cycle scenario, on the scan's int64 stack when it has one."""
    _require_exact(sc)
    return analysis.cycle_mobility_exact(sc.axes if sc._coords is None else sc._coords)


def _emit(x):
    """JSON form of parsed values: a tuple becomes a list, a Fraction an int or an 'a/b' string. A number the parser
    would refuse, one that is not a finite float (an int or Fraction past the float range too), raises ScenarioError."""
    if isinstance(x, tuple):
        return [_emit(v) for v in x]
    try:
        finite = math.isfinite(x)
    except OverflowError:
        finite = False
    if not finite:
        raise ScenarioError("the scenario has a coordinate that is not a finite float")
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else str(x)
    return x


def emit_scenario(sc: Scenario) -> str:
    """Serialize back to schema JSON; parse(emit(sc)) == sc, so a number the parser would refuse raises ScenarioError.

    Keys come in the order kind, d, seed, axes, end_frame, legs, panel,
    tol; ``hingekit example`` prints through here, so its goldens pin it.
    """
    doc: dict = {"kind": sc.kind, "d": sc.d}
    if sc.seed is not None:
        doc["seed"] = sc.seed
    if sc.axes is not None:
        doc["axes"] = [{"origin": _emit(origin), "dirs": _emit(dirs)} for origin, dirs in sc.axes]
    if sc.end_frame is not None:
        doc["end_frame"] = {"origin": _emit(sc.end_frame[0]), "vecs": _emit(sc.end_frame[1])}
    if sc.legs is not None:
        doc["legs"] = [{"p": _emit(p), "q": _emit(q)} for p, q in sc.legs]
    if sc.panel:
        doc["panel"] = True
    if sc.tol is not None:
        doc["tol"] = _emit(sc.tol)
    return json.dumps(doc, indent=2, allow_nan=False)


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


def sweep(chain: Chain, samples: int, seed: int, tol: float = 1e-10, workers: int = 1) -> SweepReport:
    """Seeded uniform scan of the configuration torus.

    Sample i draws its angles from the dedicated PCG64 stream (seed, i), so each row depends
    only on (seed, i). ``sampling._uniform_block`` draws a block's streams in one vectorized pass,
    byte for byte what ``rng_from(seed, i).uniform`` draws. Blocks of ``linkage._BLOCK`` samples
    are placed by ``chain._place_many`` as arrays, no ``Placement`` built (a block of one by
    ``forward_kinematics``, as a stack of one), and ranked by one stacked SVD in the kernel of the
    one-sample verdicts, witness checks included, so rows equal theirs bit for bit and memory is
    bounded per block. A failing block is placed and ranked again one sample at a time, so the
    first failing sample raises. ``workers`` has no effect.
    """
    if samples < 1:
        raise ScenarioError("sweep needs at least one sample")
    rows, frame = [], chain.end_frame.k > 0
    for start in range(0, samples, linkage_mod._BLOCK):
        block = range(start, min(start + linkage_mod._BLOCK, samples))
        thetas = sampling._uniform_block(seed, block.start, block.stop, chain.n - 1)
        try:
            stacks = _place_many(chain, thetas) if len(block) > 1 else _stacked(forward_kinematics(chain, thetas[0]))
            rank, full, sig, _ = analysis._end_map_ranks(chain, stacks, tol, frame)
        except HingekitError:
            for theta in thetas:  # one sample at a time, the first failing one raises
                analysis._end_map_ranks(chain, _stacked(forward_kinematics(chain, theta)), tol, frame)
            raise
        rows += map(SweepRow, block, map(tuple, thetas.tolist()), rank.tolist(), sig[:, -1].tolist(),
                    (rank < full).tolist())
    sigmas = [r.sigma_min for r in rows]
    singular_count = sum(r.singular for r in rows)
    return SweepReport(samples, seed, singular_count, min(sigmas), sum(sigmas) / len(sigmas), tuple(rows))


def _csv(index: str, tail: str, rows: list) -> str:
    """CSV text: the header ``index,theta_1,...,theta_m,tail``, then one line per (i, angles, tail)."""
    lines = [",".join([index, *(f"theta_{i + 1}" for i in range(len(rows[0][1]))), tail])]
    lines += (",".join([str(i), *(repr(float(t)) for t in angles), rest]) for i, angles, rest in rows)
    return "\n".join(lines) + "\n"


def sweep_csv(report: SweepReport) -> str:
    rows = [(r.index, r.theta, f"{r.rank},{r.sigma_min!r},{'true' if r.singular else 'false'}") for r in report.rows]
    return _csv("sample_index", "rank,sigma_min,singular", rows)


# ---------------------------------------------------------------------------
# reports


def _verdict_json(verdict, exact_verdict=None) -> dict:
    """JSON fields of a verdict; an --exact verdict, when given, goes under "exact"."""
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
        # an exact functional is a coprime integer vector of any size, not a scenario coordinate; a float would round it
        out["functional"] = [int(x) if isinstance(x, Fraction) else x for x in verdict.witness]
    if exact_verdict is not None:
        out["exact"] = _verdict_json(exact_verdict)
    return out


def _witness_lines(doc: dict) -> list[str]:
    """The text line of the witness that a ``_verdict_json`` document carries, if it carries one."""
    def vec(v) -> str:
        return "[" + ", ".join(f"{float(x):.6g}" for x in v) + "]"
    if "witness" in doc:
        line = doc["witness"]
        return [f"witness line through {vec(line['point'])} with direction {vec(line['direction'])}"]
    return [f"hyperplane functional: {vec(doc['functional'])}"] if "functional" in doc else []


# ---------------------------------------------------------------------------
# commands


def _read_input(path: str) -> str:
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        name = "stdin" if path == "-" else path
        raise ScenarioError(f"{name}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _cmd_analyze_chain(args, sc: Scenario, chain: Chain, tol: float) -> tuple[dict, str]:
    if args.exact:
        raise ScenarioError("--exact is not available for chains (placement needs trigonometry)")
    verdict = (analysis.frame_singularity if chain.end_frame.k else analysis.endpoint_singularity)(
        chain, np.zeros(chain.n - 1), tol=tol)
    doc = _verdict_json(verdict)
    kind = "end-point" if chain.end_frame.k == 0 else f"end-frame (k={chain.end_frame.k})"
    state = "SINGULAR" if verdict.singular else "regular"
    lines = [
        f"{kind} map of a {chain.n}-body chain in R^{chain.d}: "
        f"rank {verdict.rank} of {verdict.full_rank} -> {state}",
        f"sigma_min = {verdict.certificate.singular_values[-1]:.6e}",
        *_witness_lines(doc),
    ]
    return doc, "\n".join(lines)


def _cmd_analyze_cycle(args, sc: Scenario, chain: Chain, tol: float) -> tuple[dict, str]:
    verdict = analysis.cycle_mobility([*chain.ref_axes, chain.closing_axis], tol=tol)
    exact_verdict = _exact_cycle(sc) if args.exact else None
    doc = _verdict_json(verdict, exact_verdict)
    # the state word follows the mobility; JSON "singular" says the span misses a hyperplane
    state = "infinitesimally flexible" if verdict.mobility > 0 else "rigid"
    lines = [
        f"cycle of {len(sc.axes)} axes in R^{sc.d}: Plucker span rank {verdict.rank} of "
        f"{verdict.full_rank} -> {state}, mobility {verdict.mobility}",
        *_witness_lines(doc),
    ]
    if exact_verdict is not None:
        lines.append(f"exact (rational) rank {exact_verdict.rank}, mobility {exact_verdict.mobility}")
        if exact_verdict.witness is not None:
            lines.append("exact functional: [" + ", ".join(str(x) for x in exact_verdict.witness) + "]")
    return doc, "\n".join(lines)


def _cmd_analyze_platform(args, sc: Scenario, platform: analysis.Platform, tol: float) -> tuple[dict, str]:
    verdict = analysis.platform_flexibility(platform, tol=tol)
    exact_verdict = None
    if args.exact:
        _require_exact(sc)
        exact_verdict = analysis.platform_flexibility(platform, exact=True)
    doc = _verdict_json(verdict, exact_verdict)
    state = "flexible" if verdict.singular else "rigid"
    lines = [
        f"platform in R^{sc.d} with {len(sc.legs)} legs: {state} "
        f"(rank {verdict.rank} {'<' if verdict.singular else '='} {verdict.full_rank})",
        *_witness_lines(doc),
    ]
    if exact_verdict is not None:
        state = "flexible" if exact_verdict.singular else "rigid"
        lines.append(f"exact (rational) rank {exact_verdict.rank} -> {state}")
    return doc, "\n".join(lines)


def _linkage_json(lk: linkage_mod.Linkage) -> dict:
    return {
        "d": lk.d,
        "n": lk.n,
        "vertices": [
            {"label": label, "coords": list(coords)} for label, coords in lk.vertices
        ],
        "edges": [{"a": a, "b": b, "length": length} for a, b, length in lk.edges],
    }


def _cmd_convert_linkage(args, sc: Scenario, chain: Chain, tol: float) -> tuple[dict, str | None]:
    lk = linkage_mod.cycle_to_linkage([*chain.ref_axes, chain.closing_axis])
    doc = _linkage_json(lk)
    if args.json:  # the invariant split is text-only work
        return doc, None
    split = linkage_mod.moduli_invariants(lk)
    return doc, (
        f"canonical linkage in R^{lk.d}: {len(lk.vertices)} vertices, "
        f"{len(lk.edges)} edges ({len(split.independent)} free invariants "
        f"+ {len(split.dependent)} dependent)\n{split.note}\n{json.dumps(doc, indent=2)}"
    )


def _cmd_flex(args, sc: Scenario, chain: Chain, tol: float) -> tuple[dict, str]:
    path = flex_path(chain, args.steps, args.step_size, tol=tol)
    residuals = [float(np.linalg.norm(frame_residual(chain, theta))) for theta in path]
    drift = None
    try:
        drift = linkage_mod.check_linkage_invariance(chain, path)
    except GenericityError as exc:  # check_linkage_invariance re-raises every build failure as this
        print(f"linkage drift unavailable: {exc}", file=sys.stderr)
    if args.csv:
        rows = [(i, t, repr(r)) for i, (t, r) in enumerate(zip(path, residuals))]
        Path(args.csv).write_text(_csv("step", "residual", rows))
    doc = {
        "steps": args.steps,
        "step_size": args.step_size,
        "residuals": residuals,
        "max_edge_drift": drift,
        "path": [[float(x) for x in t] for t in path],
    }
    text = (
        f"flexed a {chain.n}-axis cycle for {args.steps} steps of {args.step_size}: "
        f"max closure residual {max(residuals):.3e}"
    )
    if drift is not None:
        text += f"\nmax canonical edge-length drift along the path: {drift:.3e}"
    return doc, text


def _cmd_sweep(args, sc: Scenario, chain: Chain, tol: float) -> tuple[dict, str]:
    seed = args.seed if args.seed is not None else (sc.seed or 0)
    report = sweep(chain, args.samples, seed, tol=tol, workers=args.workers)
    csv_text = sweep_csv(report)
    if args.csv:
        Path(args.csv).write_text(csv_text)
    doc = {key: value for key, value in vars(report).items() if key != "rows"}  # the summary fields, in order
    text = (
        f"swept {report.samples} samples (seed {report.seed}): "
        f"{report.singular_count} singular, sigma_min in "
        f"[{report.sigma_min_min:.3e}, mean {report.sigma_min_mean:.3e}]"
    )
    return doc, text if args.csv else f"{text}\n{csv_text[:-1]}"


def _rationals(text: str, flag: str) -> tuple:
    """Comma-separated finite rationals given to an ``example`` flag."""
    return tuple(_num(part, flag, i) for i, part in enumerate(text.split(",")))


# each fixture flag of ``example`` -> (the one fixture that reads it, its parameter, its reader)
_FIXTURE_FLAGS = {
    "t": ("twisted-cubic-tangents", "ts", _rationals),
    "height": ("cyclohexane-panels", "height", _num),
    "perturb": ("desargues", "perturb", _num),
    "lengths": ("planar-arm", "lengths", _rationals),
}


def _example_scenario(args) -> Scenario:
    """The named fixture of ``analysis._fixture_fields``; a fixture flag is read, as given, only for its fixture."""
    if args.name not in analysis.SCENARIO_NAMES:
        raise ScenarioError(f"unknown example {args.name!r}; choose one of {', '.join(analysis.SCENARIO_NAMES)}")
    params = {key: getattr(args, key) for key in ("seed", "d", "n") if getattr(args, key) is not None}
    for flag, (name, key, read) in _FIXTURE_FLAGS.items():
        if name == args.name and getattr(args, flag) is not None:
            params[key] = read(getattr(args, flag), f"--{flag}")
    kind, d, fields, _ = analysis._fixture_fields(args.name, **params)
    return Scenario(kind, d, **fields)


# ---------------------------------------------------------------------------
# argument parsing and dispatch


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hingekit",
        description="Analyze hinged chains, cycles, linkages and platforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def file_command(p, exact=False, csv=False):
        p.add_argument("file", help="scenario JSON file, or - for stdin")
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
    file_command(p)
    p.add_argument("--exact", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(fn=_cmd_analyze_chain, kinds=("chain", "cycle"))

    p = sub.add_parser("analyze-cycle", help="Plucker span rank and mobility of a cycle")
    file_command(p, exact=True)
    p.set_defaults(fn=_cmd_analyze_cycle, kinds=("cycle",))

    p = sub.add_parser("analyze-platform", help="infinitesimal flexibility of a bar platform")
    file_command(p, exact=True)
    p.set_defaults(fn=_cmd_analyze_platform, kinds=("platform",))

    p = sub.add_parser("convert-linkage", help="canonical bar-joint linkage of a cycle")
    file_command(p)
    p.set_defaults(fn=_cmd_convert_linkage, kinds=("cycle",))

    p = sub.add_parser("flex", help="track the closure fiber of a cycle")
    file_command(p, csv=True)
    p.add_argument("--steps", type=int, default=10, help="number of fiber steps")
    p.add_argument("--step-size", type=float, default=1e-2, help="tangent step length")
    p.set_defaults(fn=_cmd_flex, kinds=("cycle",))

    p = sub.add_parser("sweep", help="seeded Monte Carlo scan of the configuration torus")
    file_command(p, csv=True)
    p.add_argument("--samples", type=int, default=100, help="number of torus samples")
    p.add_argument("--seed", type=int, default=None, help="stream seed (default: scenario seed or 0)")
    p.add_argument("--workers", type=int, default=1, help="accepted for compatibility; has no effect")
    p.set_defaults(fn=_cmd_sweep, kinds=("chain", "cycle"))

    p = sub.add_parser("example", help="emit a classical scenario as JSON")
    p.add_argument("name", help="|".join(analysis.SCENARIO_NAMES))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--t", default=None, help="comma-separated tangency parameters")
    p.add_argument("--lengths", default=None, help="comma-separated bar lengths")
    p.add_argument("--height", type=float, default=None, help="chair pucker height")
    p.add_argument("--perturb", default=None, help="rational off-perspective perturbation")

    return parser


def run(argv=None) -> int:
    """Dispatch a CLI invocation; returns the process exit code.

    A file command is called as ``fn(args, scenario, built, tol)`` and returns ``(doc, text)``.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # overflow to inf or NaN is reported once, by numeric_rank's finiteness check
        with np.errstate(over="ignore", invalid="ignore"):
            if args.command == "example":
                text = emit_scenario(_example_scenario(args))
            else:
                sc, built = _load(_read_input(args.file))
                if sc.kind not in args.kinds:
                    raise ScenarioError(f"{args.command} needs a {' or '.join(args.kinds)} scenario")
                tol = sc.tol if sc.tol is not None else 1e-10
                if args.tol is not None:
                    tol = check_tolerance(args.tol)
                doc, text = args.fn(args, sc, built, tol)
                if args.json:
                    text = json.dumps(doc, indent=2)
        try:
            print(text, flush=True)  # so a closed pipe shows here, not at interpreter exit
        except BrokenPipeError:
            # the recipe of the signal module's "Note on SIGPIPE": later flushes go to devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 1
        return 0
    except (ScenarioError, DefinitionError, DimensionError, WrongMapError, ToleranceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 4
    except HingekitError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
