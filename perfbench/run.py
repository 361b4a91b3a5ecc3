"""hingekit benchmark: one closed-loop client per workload, answers checked.

    python3 perfbench/run.py --workload sweep|flex|exact --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it imports hingekit from the
checkout's ``src/`` and refuses any other copy. One process, one thread,
BLAS pinned to one thread, ``sweep(..., workers=1)``.

``--trace 0`` times whole rounds of calls until ``--seconds`` have passed
and reports the end-to-end metrics. ``--trace 1`` first runs the tracer
self-test, then spends half of ``--seconds`` untraced and half with every
public hingekit function wrapped (see ``tracer.py``), and reports the
per-layer metrics and the tracing overhead. Either way the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Problems with the answers go to standard error and make ``correct`` false.

Times are in reference seconds. The CPU speed of a shared host drifts by
20% and more within a minute (a fixed loop ran 81 to 141 times per second
over 40 seconds), which would swamp any useful bound. So each call is
followed by ``speed_kernel``, a fixed piece of work, and the call's wall
time is scaled by REF_KERNEL_S over the median kernel time of the
KERNEL_WINDOW calls around it: a time is what the call would take on a
host where the kernel takes exactly 1 ms. The plain wall-clock figures
are printed beside them, under ``wall_clock`` in the ``env`` line.

Scenario files and span dumps are written under ``perfbench/out/``.
"""

import time

_T0 = time.perf_counter()  # before numpy and hingekit are imported

import argparse  # noqa: E402
import collections  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
MODULES = ("cli", "analysis", "chain", "geometry", "exterior", "linkage", "sampling", "errors", "__init__")
# Set-up is repeated in fresh processes so its median does not hang on one import.
SETUP_REPEATS = 3
# Spans whose calls and self time are reported, per unit of work.
TRACKED = (
    "geometry.Isometry", "geometry.rotation_generator", "geometry.rotate_about",
    "geometry.apply", "geometry.compose", "geometry.axis_plucker", "geometry.line_plucker",
    "geometry.make_axis", "geometry.affine_intersection", "geometry.common_perpendicular",
    "geometry.project_affine",
    "chain.forward_kinematics", "chain.frame_map_jacobian", "chain.frame_residual",
    "chain.fiber_tangent_basis", "chain.flex_cycle", "chain.flex_path", "chain.cycle_axes_at",
    "chain.frame_columns",
    "analysis.endpoint_singularity", "analysis.frame_singularity", "analysis.stabilizer_pluckers",
    "analysis.cycle_mobility", "analysis.cycle_mobility_exact", "analysis.platform_flexibility",
    "analysis.axis_plucker_exact",
    "exterior.wedge.float", "exterior.wedge.exact", "exterior.rank_of_span.float",
    "exterior.rank_of_span.exact", "exterior.top_pairing",
    "linkage.check_linkage_invariance", "linkage.linkage_at", "linkage.cycle_to_linkage",
    "linkage.simplex_orientations",
    "sampling.rng_from",
    "cli.run", "cli.parse_scenario", "cli.sweep", "cli.sweep_csv",
)
# Never change these two: every recorded time is expressed through them.
REF_KERNEL_S = 1e-3
KERNEL_WINDOW = 7
SELFTEST_FLEX_FK_CALLS = 81
SELFTEST_SAMPLE_ISOMETRIES = 15


def prepare() -> None:
    """Pin BLAS to one thread and put this checkout's ``src/`` first on the path."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    if not (SRC / "hingekit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hingekit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hingekit

    if Path(hingekit.__file__).resolve().parent != (SRC / "hingekit").resolve():
        raise SystemExit(f"perfbench: imported hingekit from {hingekit.__file__}, not {SRC}")


def make_speed_kernel():
    """Fixed reference work in three parts of about equal time, like the
    workloads: numpy calls on tiny arrays, Fraction arithmetic and a plain
    Python loop. Of several candidates timed between workload calls over
    four minutes, this mix tracked the host's drifting speed best on all
    three workloads; a kernel of 6x6 SVDs tracked it worst."""
    from fractions import Fraction

    import numpy as np

    b = np.random.default_rng(0).standard_normal((4, 4))
    v = np.ones(4)

    def speed_kernel() -> float:
        start = time.perf_counter()
        for _ in range(15):
            c = b @ b
            d = np.array([np.linalg.norm(c @ v), 1.0, 2.0])
            np.hstack([d, np.cross(d, d)])
        for i in range(8):
            q = Fraction(i + 1, 7)
            for j in range(10):
                q = q * Fraction(3, 5) + Fraction(j, 11)
        total = 0
        for i in range(6000):
            total += (i * 7) % 13
        return time.perf_counter() - start

    return speed_kernel


def reference_seconds(wall_s: float, kernel_s: list[float]) -> float:
    return wall_s * REF_KERNEL_S / statistics.median(kernel_s)


@dataclass
class Record:
    item: object
    seconds: float
    kernel_s: float
    ok: bool
    units: int = 0
    result: object = None
    error: BaseException | None = None
    ref_seconds: float = 0.0


def set_up(name: str, seed: int, tick):
    """Seeded inputs, scenario files, and one warm-up call per kind of call.

    ``tick`` runs after each piece of set-up work, to sample the host's speed.
    """
    import workloads

    out_dir = OUT / f"{name}-{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, out_dir, tick)
    seen = set()
    for item in wl.pool:
        if item.kind not in seen:
            seen.add(item.kind)
            try:
                wl.call(item)
            except Exception:  # counted when the timed phase reaches it
                pass
            tick()
    return wl


def run_rounds(wl, seconds: float, kernel) -> tuple[list[Record], float]:
    """Closed loop: whole rounds of the pool, one call at a time, until ``seconds`` pass."""
    records = []
    clock = time.perf_counter
    start = clock()
    while True:
        for item in wl.pool:
            t0 = clock()
            try:
                result, units = wl.call(item)
                ok, error = True, None
            except Exception as exc:  # a failed call is counted, never fatal
                result, units, ok, error = None, 0, False, exc
            wall = clock() - t0
            kernel_s = kernel()
            if ok:
                result = wl.keep(item, result)
            records.append(Record(item, wall, kernel_s, ok, units, result, error))
        elapsed = clock() - start
        if elapsed >= seconds:
            break
    half = KERNEL_WINDOW // 2
    for i, rec in enumerate(records):
        window = [r.kernel_s for r in records[max(0, i - half): i + half + 1]]
        rec.ref_seconds = reference_seconds(rec.seconds, window)
    return records, elapsed


def percentile_ms(records: list[Record], q: float, field: str = "ref_seconds") -> float:
    """Nearest-rank percentile of the completed calls; failures are counted apart."""
    done = sorted(getattr(r, field) for r in records if r.ok)
    if not done:
        raise SystemExit("perfbench: no call completed")
    return done[math.ceil(q * len(done)) - 1] * 1e3


def work_rate(records: list[Record]) -> float:
    """Units of work completed per reference second spent in calls."""
    return sum(r.units for r in records) / sum(r.ref_seconds for r in records)


def raising_layer(exc: BaseException) -> str:
    """hingekit module of the innermost frame that raised ``exc`` or its first cause."""
    layer = getattr(exc, "layer", None)
    while exc.__cause__ or exc.__context__:
        exc = exc.__cause__ or exc.__context__
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = Path(frame.f_code.co_filename)
        if path.parent.name == "hingekit" and path.stem in MODULES:
            layer = path.stem
    return layer or "benchmark"


def source_lines() -> dict[str, int]:
    return {
        m: len((SRC / "hingekit" / f"{m}.py").read_text().splitlines()) for m in MODULES
    }


def environment(args, wl) -> dict:
    import numpy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        sha = lines[1] if top.returncode == 0 and Path(lines[0]).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "hingekit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "unit": wl.unit,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "source_lines": source_lines(),
    }


def setup_repeats(args) -> list[dict]:
    """Set-up times of fresh processes running only the set-up."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=150, check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times


def self_test() -> dict[str, int]:
    """Count calls made inside the package, which only an outside-in tracer can see."""
    import hingekit.analysis
    import hingekit.chain
    import hingekit.cli
    import hingekit.linkage
    import hingekit.sampling
    from tracer import Tracer

    cycle = hingekit.analysis.classical_scenario("generic-cycle", d=3, n=7, seed=0)
    with Tracer() as tr:
        path = hingekit.chain.flex_path(cycle, 10, 1e-2)
        hingekit.linkage.check_linkage_invariance(cycle, path)
    fk = tr.summary()["chain.forward_kinematics"]["calls"]
    chain = hingekit.sampling.random_chain(hingekit.sampling.rng_from(0), 3, 8)
    with Tracer() as tr:
        hingekit.cli.sweep(chain, 1, 0)
    iso = tr.summary()["geometry.Isometry"]["calls"]
    return {"flex_fk_calls": fk, "sweep_sample_isometries": iso}


def layer_metrics(tr, units: int, scale: float) -> dict[str, tuple[float, str]]:
    """Per-unit calls and self times; ``scale`` turns wall seconds into reference seconds."""
    from tracer import LAYERS

    summary = tr.summary()
    out = {}
    for name in TRACKED:
        row = summary.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls_per_unit"] = (row["calls"] / units, "count")
        out[f"{name}.self_us_per_unit"] = (row["self_s"] * scale * 1e6 / units, "us")
    for layer in LAYERS:
        total = sum(r["self_s"] for n, r in summary.items() if n.split(".")[0] == layer)
        out[f"{layer}.self_us_per_unit"] = (total * scale * 1e6 / units, "us")
        out[f"{layer}.errors"] = (tr.errors.get(layer, 0), "count")
    accepted = trials = 0
    for kids in tr.children_of("chain.flex_cycle"):
        if not kids["_failed"]:
            # entry check + predictor, then one Jacobian per accepted Gauss-Newton step
            accepted += kids.get("chain.frame_map_jacobian", 0)
            trials += kids.get("chain.frame_residual", 0) - 2
    out["chain.gn_accept_ratio"] = (accepted / trials if trials else 0.0, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "flex", "exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    prepare()
    import numpy as np

    kernel = make_speed_kernel()
    # Set-up lasts seconds, over which the host's speed drifts: it is scaled
    # by the kernel sampled all through it, not only at its end.
    kernel_s: list[float] = []
    wl = set_up(args.workload, args.seed, lambda: kernel_s.append(kernel()))
    setup_wall = time.perf_counter() - _T0
    kernel_s += [kernel() for _ in range(KERNEL_WINDOW)]
    setup = {"setup_s": reference_seconds(setup_wall, kernel_s), "wall_s": setup_wall}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    metrics: dict[str, tuple[float, str]] = {}
    problems: list[str] = []
    if args.trace:
        from tracer import Tracer

        counts = self_test()
        expected = {"flex_fk_calls": SELFTEST_FLEX_FK_CALLS,
                    "sweep_sample_isometries": SELFTEST_SAMPLE_ISOMETRIES}
        for key, want in expected.items():
            metrics[f"selftest.{key}"] = (counts[key], "count")
            if counts[key] != want:
                problems.append(f"tracer self-test: {key} = {counts[key]}, expected {want}")
        plain, _ = run_rounds(wl, args.seconds / 2, kernel)
        with Tracer() as tr:
            traced, _ = run_rounds(wl, args.seconds / 2, kernel)
        scale = REF_KERNEL_S / statistics.median(r.kernel_s for r in traced)
        metrics.update(layer_metrics(tr, max(sum(r.units for r in traced), 1), scale))
        metrics["trace.overhead_pct"] = ((work_rate(plain) / work_rate(traced) - 1.0) * 100.0, "%")
        for module, lines in source_lines().items():
            metrics[f"{module.strip('_')}.source_lines"] = (lines, "lines")
        records = plain + traced
    else:
        records, elapsed = run_rounds(wl, args.seconds, kernel)
        metrics["work_per_s"] = (work_rate(records), "units/s")
        metrics["call_p50_ms"] = (percentile_ms(records, 0.50), "ms")
        metrics["call_p90_ms"] = (percentile_ms(records, 0.90), "ms")
        setups = [setup] + setup_repeats(args)
        metrics["setup_s"] = (statistics.median(s["setup_s"] for s in setups), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        wall_clock = {
            "work_per_s": sum(r.units for r in records) / elapsed,
            "call_p50_ms": percentile_ms(records, 0.50, "seconds"),
            "call_p90_ms": percentile_ms(records, 0.90, "seconds"),
            "setup_s": statistics.median(s["wall_s"] for s in setups),
            "kernel_ms": statistics.median(r.kernel_s for r in records) * 1e3,
        }

    problems += wl.check(records, np.random.default_rng([args.seed, 99]))
    failed = [r for r in records if not r.ok]
    env = environment(args, wl)
    env["calls"] = len(records)
    if not args.trace:
        env["wall_clock"] = wall_clock
    env["median_ms_by_kind"] = {
        kind: round(statistics.median(r.ref_seconds for r in records if r.item.kind == kind) * 1e3, 3)
        for kind in dict.fromkeys(item.kind for item in wl.pool)
    }
    env["failed_ratio"] = len(failed) / len(records)
    env["failures"] = {}
    for r in failed:
        key = f"{raising_layer(r.error)}: {type(r.error).__name__}: {r.error}"
        env["failures"][key] = env["failures"].get(key, 0) + 1
    if args.workload == "flex":
        env["known_defect"] = wl.defect_report()
        env["failures_known_defect"] = sum(wl.known_failure(r.error) for r in failed)
    if args.workload == "sweep":
        env["oracle_rows_skipped_as_ambiguous"] = wl.skipped
    if args.trace:
        span_file = OUT / f"trace-{args.workload}.jsonl"
        tr.write_jsonl(span_file)
        env["span_file"] = str(span_file.relative_to(ROOT))
        env["spans"] = len(tr.start)

    for problem, count in collections.Counter(problems).items():
        print(f"perfbench: WRONG ANSWER ({count}x): {problem}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    if not args.trace:
        print(f"failed_ratio = {env['failed_ratio']:.4g} (of {len(records)} calls)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
