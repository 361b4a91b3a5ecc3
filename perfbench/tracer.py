"""Outside-in span tracer for the hingekit layers.

The tracer edits nothing under ``src/``. While it is installed, every
callable named in a layer module's ``__all__`` is replaced by a timing
wrapper at *every* binding inside the ``hingekit`` package, so calls that
one module makes into another (``chain`` calling its own imported copy of
``rotate_about``) are intercepted as well as calls from outside. The
constructor of ``geometry.Isometry`` is wrapped on the class itself.

Each span records a name, a start, an end and its parent span. Spans stay
in memory in flat arrays; ``summary`` aggregates them and ``write_jsonl``
writes them out once the run is over.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "analysis", "chain", "geometry", "exterior", "linkage", "sampling")

# Functions whose span name carries the arithmetic mode, because the float
# and exact paths of one function cost orders of magnitude apart.
_MODE_SPLIT = ("exterior.wedge", "exterior.rank_of_span")

_LAYER_TAG = "_perfbench_layer"


def _wedge_mode(args, kwargs):
    exact = kwargs.get("exact", args[2] if len(args) > 2 else False)
    return ("exact" if exact else "float"), args


def _rank_mode(args, kwargs):
    """Exact when every input vector is; a one-shot iterable is read into a list first."""
    if args:
        args = (list(args[0]),) + args[1:]
        vectors = args[0]
    else:
        vectors = kwargs["vectors"] = list(kwargs["vectors"])
    return ("exact" if vectors and all(v.exact for v in vectors) else "float"), args


def failure_layer(exc: BaseException) -> str | None:
    """Layer a traced span attributed ``exc`` (or an exception it chains from) to."""
    seen = set()
    while exc is not None and id(exc) not in seen:
        seen.add(id(exc))
        layer = getattr(exc, _LAYER_TAG, None)
        if layer is not None:
            return layer
        exc = exc.__cause__ or exc.__context__
    return None


class Tracer:
    """Context manager that wraps the hingekit layers while it is entered."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.errors: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        import hingekit  # noqa: F401  (the package must be importable here)

        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "hingekit" or name.startswith("hingekit.")
        }
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"hingekit.{layer}"]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if callable(obj) and not isinstance(obj, type):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", layer, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                replacement = wrapped.get(id(obj))
                if replacement is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, replacement)
        iso = sys.modules["hingekit.geometry"].Isometry
        self._restore.append((iso, "__init__", iso.__init__))
        iso.__init__ = self._wrap("geometry.Isometry", "geometry", iso.__init__)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name: str, layer: str, fn):
        name_id, parent, start, end, failed = (
            self.name_id, self.parent, self.start, self.end, self.failed
        )
        stack = self._stack
        clock = time.perf_counter
        errors = self.errors
        if name in _MODE_SPLIT:
            mode_of = _wedge_mode if name == "exterior.wedge" else _rank_mode
            ids = {m: self._id(f"{name}.{m}") for m in ("float", "exact")}
        else:
            mode_of = None
            fixed = self._id(name)

        def traced(*args, **kwargs):
            if mode_of is None:
                nid = fixed
            else:
                mode, args = mode_of(args, kwargs)
                nid = ids[mode]
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            failed.append(0)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                failed[sid] = 1
                if failure_layer(exc) is None:
                    try:
                        setattr(exc, _LAYER_TAG, layer)
                    except AttributeError:
                        pass
                    errors[layer] += 1
                raise
            finally:
                end[sid] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    # -- aggregation ------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, total and self seconds."""
        count = len(self.start)
        child = [0.0] * count
        parent, start, end = self.parent, self.start, self.end
        for sid in range(count):
            p = parent[sid]
            if p >= 0:
                child[p] += end[sid] - start[sid]
        out: dict[str, dict[str, float]] = {
            n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names
        }
        for sid in range(count):
            row = out[self.names[self.name_id[sid]]]
            dur = end[sid] - start[sid]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[sid]
        return out

    def children_of(self, name: str) -> list[dict[str, int]]:
        """Direct-child call counts, one dict per span called ``name``."""
        target = self._name_ids.get(name)
        if target is None:
            return []
        rows: dict[int, dict[str, int]] = {}
        for sid in range(len(self.start)):
            if self.name_id[sid] == target:
                rows[sid] = defaultdict(int)
        for sid in range(len(self.start)):
            p = self.parent[sid]
            if p in rows:
                rows[p][self.names[self.name_id[sid]]] += 1
        return [dict(rows[sid], _failed=self.failed[sid]) for sid in sorted(rows)]

    def write_jsonl(self, path: Path) -> None:
        """One header line with the span names, then [name, start_us, end_us, parent, failed]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if len(self.start) else 0.0
        with path.open("w") as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["name", "start_us", "end_us", "parent", "failed"]}) + "\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"[{self.name_id[sid]},{(self.start[sid] - origin) * 1e6:.3f},"
                    f"{(self.end[sid] - origin) * 1e6:.3f},{self.parent[sid]},{self.failed[sid]}]\n"
                )
