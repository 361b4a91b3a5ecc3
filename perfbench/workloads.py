"""The three benchmark workloads: seeded inputs, the timed call, the checks.

Every input is drawn from ``numpy.random.default_rng([seed, ...])`` in
this file and handed to hingekit as a scenario file, the program's own
input format, so a change to hingekit's random fixtures cannot change a
workload. A workload's ``pool`` is one round of calls; the runner repeats
whole rounds, so the mix of call kinds is the same in every run. After
each call, outside its timing, ``keep`` checks the answer and returns the
little that the final ``check`` still needs, so memory does not grow with
the number of calls a fast host manages. A workload calls ``tick`` after
each piece of set-up work, so the runner can sample the host's speed
throughout set-up.

Call the functions here only after ``run.prepare()`` has put ``src/`` on
the import path.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np

import hingekit.analysis
import hingekit.chain
import hingekit.cli
import hingekit.linkage

import exactref

TWO_PI = 2.0 * np.pi


@dataclass
class Item:
    """One call of a round: a label for its kind and the input it runs on."""

    kind: str
    data: object
    meta: dict = field(default_factory=dict)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


def _floats(a) -> list[float]:
    return [float(x) for x in np.asarray(a).ravel()]


def _axis_doc(origin, dirs) -> dict:
    return {"origin": list(origin), "dirs": [list(v) for v in dirs]}


def _write(out_dir: Path, name: str, doc: dict) -> Path:
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# sweep


class Sweep:
    """Closed-loop ``cli.sweep`` calls of SAMPLES torus samples each.

    Kinds: generic end-point chains (d=3, n=8); chains whose axes all share
    one direction, so every sample is singular and builds and checks a
    witness (d=4, n=8); frame chains with k=1 (d=4, n=10), which take the
    Plucker-span-plus-stabilizer path. The unit of work is one sample.
    """

    unit = "torus sample"
    SAMPLES = 20
    PER_KIND = 4
    KINDS = (("generic", 3, 8, 0), ("parallel", 4, 8, 0), ("frame", 4, 10, 1))
    KEEP = 48  # reports kept for the sampled oracles: the first four rounds

    def __init__(self, seed: int, out_dir: Path, tick=lambda: None):
        self.seed = seed
        self.calls = 0
        self.kept = 0
        self.skipped = 0
        self.problems: list[str] = []
        self.pool: list[Item] = []
        for tag, (kind, d, n, k) in enumerate(self.KINDS):
            for j in range(self.PER_KIND):
                doc = self._chain_doc(_rng(seed, 1, tag, j), kind, d, n, k)
                path = _write(out_dir, f"{kind}-{j}", doc)
                sc = hingekit.cli.parse_scenario(path.read_text())
                self.pool.append(Item(kind, hingekit.cli.scenario_chain(sc)))
                tick()

    @staticmethod
    def _chain_doc(rng, kind: str, d: int, n: int, k: int) -> dict:
        axes = []
        if kind == "parallel":
            w = rng.standard_normal(d)
            w /= np.linalg.norm(w)
            for _ in range(n - 1):
                dirs = np.vstack([w[None, :], rng.standard_normal((d - 3, d))])
                axes.append(_axis_doc(_floats(rng.uniform(-1.0, 1.0, d)), [_floats(v) for v in dirs]))
        else:
            for _ in range(n - 1):
                axes.append(
                    _axis_doc(_floats(rng.uniform(-1.5, 1.5, d)),
                              [_floats(v) for v in rng.standard_normal((d - 2, d))])
                )
        end = {"origin": _floats(rng.uniform(-1.5, 1.5, d)),
               "vecs": [_floats(v) for v in rng.standard_normal((k, d))]}
        return {"kind": "chain", "d": d, "axes": axes, "end_frame": end}

    def call(self, item: Item):
        stream_seed = (self.seed << 24) + self.calls
        self.calls += 1
        report = hingekit.cli.sweep(item.data, self.SAMPLES, stream_seed, workers=1)
        return (stream_seed, report, hingekit.cli.sweep_csv(report)), self.SAMPLES

    def keep(self, item: Item, result):
        """Shape of every report; keeps the first KEEP for ``check``."""
        stream_seed, report, csv = result
        if len(report.rows) != self.SAMPLES or [r.index for r in report.rows] != list(range(self.SAMPLES)):
            self.problems.append(f"sweep {item.kind}: rows are not 0..{self.SAMPLES - 1}")
        if len(csv.splitlines()) != self.SAMPLES + 1:
            self.problems.append(f"sweep {item.kind}: CSV has {len(csv.splitlines())} lines")
        if report.singular_count != sum(r.singular for r in report.rows):
            self.problems.append(f"sweep {item.kind}: singular_count disagrees with the rows")
        if item.kind == "parallel" and not all(r.singular for r in report.rows):
            self.problems.append("sweep parallel: a sample of an always-singular chain is regular")
        if self.kept == self.KEEP:
            return None
        self.kept += 1
        return stream_seed, report

    def check(self, records, check_rng: np.random.Generator) -> list[str]:
        """Stream contract, Jacobian and witness oracles on a seeded subsample."""
        problems = list(self.problems)
        done = [(rec.item, rec.result) for rec in records if rec.result is not None]
        for item, (stream_seed, report) in done[:: max(1, len(done) // 24)]:
            row = report.rows[int(check_rng.integers(self.SAMPLES))]
            want = _rng(stream_seed, row.index).uniform(0.0, TWO_PI, item.data.n - 1)
            if tuple(float(t) for t in want) != row.theta:
                problems.append(f"sweep {item.kind}: sample {row.index} left its (seed, i) stream")
        per_kind = {kind: [x for x in done if x[0].kind == kind] for kind, *_ in self.KINDS}
        for kind, entries in per_kind.items():
            if not entries:
                continue
            for _ in range(8):
                item, (_, report) = entries[int(check_rng.integers(len(entries)))]
                row = report.rows[int(check_rng.integers(self.SAMPLES))]
                problems += self._oracle(item, row)
        return problems

    def _oracle(self, item: Item, row) -> list[str]:
        chain = item.data
        d, k = chain.d, chain.end_frame.k
        theta = np.array(row.theta)

        def coords(t):
            f = hingekit.chain.forward_kinematics(chain, t).frame_at
            return np.concatenate([f.origin, f.vecs.ravel()])

        sig = np.linalg.svd(hingekit.chain.numerical_jacobian(coords, theta, 1e-5), compute_uv=False)
        rel = sig / sig[0]
        if np.any((rel > 1e-8) & (rel < 1e-4)):
            self.skipped += 1  # finite differences cannot tell the rank apart here
            return []
        fd_rank = int(np.sum(rel > 1e-6))
        full = d if k == 0 else comb(d + 1, 2) - comb(d - k, 2)
        problems = []
        if fd_rank != row.rank or row.singular != (fd_rank < full):
            problems.append(
                f"sweep {item.kind}: rank {row.rank} (singular={row.singular}) but the "
                f"central-difference Jacobian has rank {fd_rank} of {full}"
            )
        if item.kind == "parallel":
            problems += self._witness(chain, theta)
        return problems

    @staticmethod
    def _witness(chain, theta) -> list[str]:
        verdict = hingekit.analysis.endpoint_singularity(chain, theta)
        if verdict.witness is None:
            return ["sweep parallel: no witness line for an always-singular chain"]
        placed = hingekit.chain.forward_kinematics(chain, theta)
        p, v = verdict.witness.point, verdict.witness.direction
        for axis in placed.axes_at:
            # the line meets the axis projectively iff these d+1 lifts are dependent
            rows = np.vstack([np.append(p, 1.0), np.append(v, 0.0), np.append(axis.origin, 1.0),
                              np.hstack([axis.dirs, np.zeros((axis.dirs.shape[0], 1))])])
            scale = np.prod(np.linalg.norm(rows, axis=1))
            if abs(np.linalg.det(rows)) > 1e-8 * scale:
                return ["sweep parallel: witness line misses a placed axis"]
        return []


# ---------------------------------------------------------------------------
# flex


class Flex:
    """Per seeded generic cycle, one 10-step ``flex_path`` and its linkage drift.

    Kinds: d=3 cycles of 7, 8 and 9 axes and d=4 cycles of 11 axes, which
    take the ``affine_intersection``/``project_affine`` branch of the
    linkage conversion. The d=4 calls, the slowest, are a fifth of a round,
    so p90 falls inside them. Latency differs a lot from cycle to cycle; a
    round of 76 cycles keeps the percentiles and the work rate from swinging
    much between seeds. The unit of work is one fiber step.

    About 7% of seeded d=4 cycles hit KNOWN_DEFECT. Set-up runs every d=4
    cycle once; one that raises KNOWN_DEFECT is set aside, its scenario file
    kept as ``defect-*.json``, and the next cycle of the same seeded stream
    takes its place. The timed loop thus has no failing call, whose count
    would hang on how many rounds a run completes, and ``defect_report``
    states how many cycles the defect took out. Any other exception keeps
    its cycle in the pool, where each of its calls counts as failed.
    """

    unit = "fiber step"
    STEPS = 10
    STEP_SIZE = 1e-2
    TOL = 1e-10
    KINDS = ((3, 7, 20), (3, 8, 20), (3, 9, 20), (4, 11, 16))  # d, n, cycles per round
    # The one failure known at the benchmark's introduction: simplex_orientations
    # compares a determinant against 1e-10 * scale**d with the farthest vertex's
    # scale, which flags well-conditioned d=4 simplices as collapsed.
    KNOWN_DEFECT = "a body simplex has collapsed"

    def __init__(self, seed: int, out_dir: Path, tick=lambda: None):
        self.first: dict[int, tuple] = {}
        self.problems: list[str] = []
        self.pool: list[Item] = []
        self.drawn = self.set_aside = 0
        for tag, (d, n, count) in enumerate(self.KINDS):
            for j in range(count):
                rng = _rng(seed, 2, tag, j)
                for attempt in range(100):
                    axes = [
                        _axis_doc(_floats(rng.uniform(-1.5, 1.5, d)),
                                  [_floats(v) for v in rng.standard_normal((d - 2, d))])
                        for _ in range(n)
                    ]
                    doc = {"kind": "cycle", "d": d, "axes": axes}
                    path = _write(out_dir, f"cycle-d{d}n{n}-{j}", doc)
                    sc = hingekit.cli.parse_scenario(path.read_text())
                    item = Item(f"d{d}n{n}", hingekit.cli.scenario_cycle_chain(sc))
                    hit = d >= 4 and self._hits_defect(item)
                    tick()
                    if not hit:
                        break
                    _write(out_dir, f"defect-d{d}n{n}-{j}-{attempt}", doc)
                else:
                    raise RuntimeError(f"flex: 100 cycles in a row hit {self.KNOWN_DEFECT!r}")
                self.pool.append(item)

    def _hits_defect(self, item: Item) -> bool:
        self.drawn += 1
        try:
            self.call(item)
        except Exception as exc:  # any other failure stays in the pool and is counted there
            if self.known_failure(exc):
                self.set_aside += 1
                return True
        return False

    def defect_report(self) -> dict:
        return {"defect": self.KNOWN_DEFECT, "d4_cycles_run_in_setup": self.drawn,
                "d4_cycles_set_aside": self.set_aside}

    def call(self, item: Item):
        path = hingekit.chain.flex_path(item.data, self.STEPS, self.STEP_SIZE, tol=self.TOL)
        drift = hingekit.linkage.check_linkage_invariance(item.data, path)
        return (path, drift), self.STEPS

    def keep(self, item: Item, result):
        """Keeps a cycle's first path; later calls must repeat it exactly."""
        first = self.first.get(id(item))
        if first is None:
            self.first[id(item)] = result
            return result
        if not (np.array_equal(result[0], first[0]) and result[1] == first[1]):
            self.problems.append(f"flex {item.kind}: repeated call gave a different path")
        return None

    def check(self, records, check_rng) -> list[str]:
        """Closure residual of every visited configuration, drift, determinism."""
        problems = list(self.problems)
        completed = {}
        for rec in records:
            if completed.setdefault(id(rec.item), rec.ok) != rec.ok:
                problems.append(f"flex {rec.item.kind}: one cycle both failed and completed")
            if rec.result is not None:
                problems += self._check_path(rec.item, *rec.result)
        return problems

    def _check_path(self, item: Item, path: np.ndarray, drift: float) -> list[str]:
        chain = item.data
        if path.shape != (self.STEPS + 1, chain.n - 1) or np.any(path[0] != 0.0):
            return [f"flex {item.kind}: path has shape {path.shape} or does not start at 0"]
        problems = []
        for theta in path:
            res = np.linalg.norm(hingekit.chain.frame_residual(chain, theta))
            if not res <= self.TOL:
                problems.append(f"flex {item.kind}: closure residual {res:.2e} > {self.TOL:.0e}")
                break
        moves = np.linalg.norm(np.diff(path, axis=0), axis=1)
        if np.any(moves < 0.5 * self.STEP_SIZE) or np.any(moves > 1.5 * self.STEP_SIZE):
            problems.append(f"flex {item.kind}: a step moved {moves.min():.2e}..{moves.max():.2e}")
        if not drift <= 1e-6:
            problems.append(f"flex {item.kind}: linkage edge drift {drift:.2e} > 1e-6")
        return problems

    def known_failure(self, exc: BaseException) -> bool:
        return self.KNOWN_DEFECT in str(exc)


# ---------------------------------------------------------------------------
# exact


class CliExit(RuntimeError):
    """``cli.run`` caught an error and returned a nonzero exit code."""

    layer = "cli"


def _q(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class Exact:
    """In-process ``hingekit.cli.run`` of ``analyze-* --exact --json`` on scenario files.

    One round holds, in this order of cost: a Desargues platform, another
    one pushed off perspective, six twisted-cubic tangents, four
    integer cycles at d=4 n=10, one at d=5 n=15 and two at d=6 n=21. The
    weights put the median inside the d=4 calls and p90 inside the d=6
    calls, away from the jumps between kinds. The unit of work is one
    exact verdict.
    """

    unit = "exact verdict"
    ROUND = (("desargues", 1), ("desargues-perturbed", 1), ("twisted-cubic", 1),
             ("d4n10", 4), ("d5n15", 1), ("d6n21", 2))

    def __init__(self, seed: int, out_dir: Path, tick=lambda: None):
        self.first: dict[int, str] = {}
        self.problems: list[str] = []
        self.pool: list[Item] = []
        for tag, (kind, count) in enumerate(self.ROUND):
            for j in range(count):
                rng = _rng(seed, 3, tag, j)
                if kind.startswith("desargues"):
                    doc, meta = self._desargues(rng, kind.endswith("perturbed"))
                    command = "analyze-platform"
                elif kind == "twisted-cubic":
                    doc, meta = self._twisted_cubic(rng)
                    command = "analyze-cycle"
                else:
                    d, n = int(kind[1]), int(kind[3:])
                    doc, meta = self._integer_cycle(rng, d, n)
                    command = "analyze-cycle"
                path = _write(out_dir, f"{kind}-{j}", doc)
                self.pool.append(Item(kind, [command, str(path), "--exact", "--json"], meta))
                tick()

    @staticmethod
    def _integer_cycle(rng, d: int, n: int):
        """Integer axes whose Plucker points have full rank mod a prime, hence over Q."""
        full = comb(d + 1, 2)
        while True:
            axes = [(rng.integers(-9, 10, d).tolist(), rng.integers(-9, 10, (d - 2, d)).tolist())
                    for _ in range(n)]
            if any(exactref.rank_mod_p(dirs) < d - 2 for _, dirs in axes):
                continue
            points = [exactref.integer_axis_plucker(o, dirs) for o, dirs in axes]
            if exactref.rank_mod_p(points) == min(n, full):
                break
        doc = {"kind": "cycle", "d": d, "axes": [_axis_doc(o, dirs) for o, dirs in axes]}
        return doc, {"rank": min(n, full), "full": full, "n": n, "points": None}

    @staticmethod
    def _twisted_cubic(rng):
        """Tangents of t -> (t, t^2, t^3) at six distinct rational t: exact rank 5."""
        ts: list[Fraction] = []
        while len(ts) < 6:
            t = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
            if t not in ts:
                ts.append(t)
        axes, points = [], []
        for t in ts:
            p, u = [t, t * t, t * t * t], [Fraction(1), 2 * t, 3 * t * t]
            axes.append(_axis_doc([_q(x) for x in p], [[_q(x) for x in u]]))
            points.append(exactref.wedge_fraction([p + [Fraction(1)], u + [Fraction(0)]]))
        doc = {"kind": "cycle", "d": 3, "axes": axes}
        return doc, {"rank": 5, "full": 6, "n": 6, "points": points}

    @staticmethod
    def _desargues(rng, perturbed: bool):
        """Two triangles in perspective from a point: rank 2; pushed off perspective: rank 3."""
        center = [Fraction(int(x)) for x in rng.integers(-3, 4, 2)]
        rays: list[tuple[int, int]] = []
        while len(rays) < 3:
            r = tuple(int(x) for x in rng.integers(-4, 5, 2))
            if r != (0, 0) and all(r[0] * s[1] - r[1] * s[0] != 0 for s in rays):
                rays.append(r)
        legs, points = [], []
        for idx, (rx, ry) in enumerate(rays):
            inner = Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 4)))
            outer = inner + Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 4)))
            p = [center[0] + inner * rx, center[1] + inner * ry]
            q = [center[0] + outer * rx, center[1] + outer * ry]
            if perturbed and idx == 0:
                delta = Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 4)))
                q = [q[0] - delta * ry, q[1] + delta * rx]  # off the ray through the center
            legs.append({"p": [_q(x) for x in p], "q": [_q(x) for x in q]})
            points.append(exactref.wedge_fraction([p + [Fraction(1)], q + [Fraction(1)]]))
        doc = {"kind": "platform", "d": 2, "legs": legs}
        return doc, {"rank": 3 if perturbed else 2, "full": 3, "n": None, "points": points}

    def call(self, item: Item):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = hingekit.cli.run(item.data)
        if code != 0:
            raise CliExit(f"hingekit {item.data[0]} exited with code {code}")
        return buffer.getvalue(), 1

    def keep(self, item: Item, result):
        """Keeps a fixture's first output; later calls must print the same bytes."""
        first = self.first.get(id(item))
        if first is None:
            self.first[id(item)] = result
            return result
        if result != first:
            self.problems.append(f"exact {item.kind}: repeated call printed different JSON")
        return None

    def check(self, records, check_rng) -> list[str]:
        """Known ranks and exact annihilation in Fractions."""
        problems = list(self.problems)
        for rec in records:
            if rec.result is not None:
                problems += self._check_doc(rec.item, json.loads(rec.result))
        return problems

    @staticmethod
    def _check_doc(item: Item, doc: dict) -> list[str]:
        meta = item.meta
        want_rank, full = meta["rank"], meta["full"]
        problems = []
        for label, verdict in (("float", doc), ("exact", doc.get("exact"))):
            if verdict is None:
                return [f"exact {item.kind}: no exact verdict in the output"]
            if verdict["rank"] != want_rank or verdict["singular"] != (want_rank < full):
                problems.append(
                    f"exact {item.kind}: {label} rank {verdict['rank']} (singular="
                    f"{verdict['singular']}), known rank {want_rank} of {full}"
                )
            if meta["n"] is not None and verdict.get("mobility") != meta["n"] - want_rank:
                problems.append(f"exact {item.kind}: {label} mobility {verdict.get('mobility')}")
        exact = doc["exact"]
        if want_rank < full:
            values = exact.get("functional")
            if values is None or not all(float(v).is_integer() for v in values):
                return problems + [f"exact {item.kind}: deficient but no integer functional"]
            functional = [Fraction(int(v)) for v in values]
            if not any(functional):
                problems.append(f"exact {item.kind}: the functional is zero")
            elif not all(exactref.annihilates(functional, pt) for pt in meta["points"]):
                problems.append(f"exact {item.kind}: the exact functional misses a Plucker point")
        elif "functional" in exact:
            problems.append(f"exact {item.kind}: full rank but a functional was reported")
        return problems


WORKLOADS = {"sweep": Sweep, "flex": Flex, "exact": Exact}
