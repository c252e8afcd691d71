"""Span recording around sparselvq's layer boundaries, from outside the program.

`Tracer.wrap` replaces a module or class attribute that the program looks
up at call time with a recorder and keeps the original; `restore` (or
leaving the `with` block) puts every original back. A span has a name,
start, end, parent and run id. Spans live in flat arrays, because a traced
path run records millions of them, and `dump` writes them out at the end.
Counters (`count`, `count_calls`) are charged to the innermost open span.
"""

from __future__ import annotations

import time
from array import array
from typing import Any, Callable

import numpy as np

_MISSING = object()


class Tracer:
    """Records nested spans; not thread-safe (the program is single-threaded)."""

    def __init__(self, run_id: int = 0, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end_ = array("d")
        self.parent = array("i")
        self.counts: dict[str, array] = {}
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []  # names `wrap`/`count_calls` found absent

    def __len__(self) -> int:
        return len(self.start)

    # -- spans ---------------------------------------------------------
    def begin(self, name: str, **attrs) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end_.append(float("nan"))
        for arr in self.counts.values():
            arr.append(0)
        if attrs:
            self.attrs[idx] = attrs
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def end(self, idx: int) -> None:
        """Close span `idx` and any span still open inside it, at one instant."""
        now = self.clock()
        while self._stack:
            top = self._stack.pop()
            self.end_[top] = now
            if top == idx:
                return
        raise RuntimeError(f"span {idx} is not open")

    def top(self) -> int:
        """Index of the innermost open span, -1 if none."""
        return self._stack[-1] if self._stack else -1

    def name(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    def count(self, key: str, n: int = 1) -> None:
        """Add `n` to counter `key` on the innermost open span."""
        if not self._stack:
            return
        arr = self.counts.get(key)
        if arr is None:
            arr = self.counts[key] = array("q", bytes(8 * len(self.start)))
        arr[self._stack[-1]] += n

    # -- attribute replacement -----------------------------------------
    def replace(self, owner, attr: str, new) -> None:
        """Set `owner.attr` to `new`; `restore` undoes it."""
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, new)

    def wrap(self, owner, attr: str, name: str,
             before: Callable[["Tracer"], None] | None = None,
             attrs: Callable[[tuple, dict], dict] | None = None,
             note: Callable[["Tracer", int, tuple, dict, Any], None] | None = None,
             ) -> None:
        """Record span `name` around every call of `owner.attr`.

        `before(tracer)` runs ahead of the span, `attrs(args, kwargs)` gives
        the span's attributes, and `note(tracer, idx, args, kwargs, result)`
        runs after the call. A name the program no longer has is skipped and
        listed in `missing`, so the metrics that need it read as not run.
        """
        original = self._original(owner, attr)
        if original is None:
            return
        tracer = self

        def recorder(*args, **kwargs):
            if before is not None:
                before(tracer)
            idx = tracer.begin(name, **(attrs(args, kwargs) if attrs is not None else {}))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(idx)
            if note is not None:
                note(tracer, idx, args, kwargs, result)
            return result

        self.replace(owner, attr, recorder)

    def count_calls(self, owner, attr: str, key: str) -> None:
        """Count calls of `owner.attr` on the innermost open span, without a span."""
        original = self._original(owner, attr)
        if original is None:
            return
        tracer = self

        def counter(*args, **kwargs):
            tracer.count(key)
            return original(*args, **kwargs)

        self.replace(owner, attr, counter)

    def _original(self, owner, attr: str):
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
        return original

    def restore(self) -> None:
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- export ----------------------------------------------------------
    def id_of(self, name: str) -> int:
        """Name id used in the `name_id` column, -1 for a name never recorded."""
        return self._name_ids.get(name, -1)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy columns: name_id, start, end, duration, parent, counters."""
        start = np.frombuffer(self.start, dtype=float).copy()
        end = np.frombuffer(self.end_, dtype=float).copy()
        out = {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64),
            "start": start,
            "end": end,
            "duration": end - start,
            "parent": np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
        }
        for key, arr in self.counts.items():
            out["count." + key] = np.frombuffer(arr, dtype=np.int64).copy()
        return out

    def dump(self, path) -> None:
        """Write every span (name, start, end, parent, run id, counters) to an .npz file."""
        cols = self.arrays()
        cols["names"] = np.array(self.names, dtype=str)
        cols["run_id"] = np.full(len(self), self.run_id, dtype=np.int64)
        del cols["duration"]
        np.savez(path, **cols)


def self_times(duration: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time covered by its direct children."""
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=duration.size)
    return duration - covered


def ancestor_of(parent: np.ndarray, is_target: np.ndarray) -> np.ndarray:
    """Index of the nearest span (itself included) with `is_target`, -1 if none."""
    anc = np.where(is_target, np.arange(parent.size), -1)
    cur = parent.copy()
    while True:
        open_ = (anc < 0) & (cur >= 0)
        if not open_.any():
            return anc
        hit = open_.copy()
        hit[open_] = is_target[cur[open_]]
        anc[hit] = cur[hit]
        cur = np.where(open_ & ~hit, parent[np.maximum(cur, 0)], -1)
