"""In-memory spans recorded by the benchmark around its calls into homcount.

A span is (id, parent, op, name, start, end, raised): `name` is
`<layer>.<function>` for a call into a homcount module and `harness.op` for
the benchmark's own loop body around one op; `raised` is true when the call
ended in an exception. Spans stay in memory during a pass and are written
out when it ends. Only the benchmark's files create spans; nothing inside
the program is instrumented.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from types import SimpleNamespace

class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float, bool]] = []
        self._stack: list[int] = [-1]
        self.op = -1

    def begin(self, name: str) -> tuple[int, int, str, float]:
        sid = len(self.spans)
        self.spans.append((sid, self._stack[-1], self.op, name, 0.0, 0.0, False))
        self._stack.append(sid)
        return sid, self._stack[-2], name, time.perf_counter()

    def end(self, token: tuple[int, int, str, float], raised: bool = False) -> None:
        end = time.perf_counter()
        sid, parent, name, start = token
        self._stack.pop()
        self.spans[sid] = (sid, parent, self.op, name, start, end, raised)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(token, raised=True)
                raise
            self.end(token)
            return result

        return traced

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["id", "parent", "op", "name", "start", "end", "raised"], "spans": self.spans}, fh
            )


def bind(module, names, layer: str, tracer: Tracer | None) -> SimpleNamespace:
    """The module's functions, looked up now (so a test's monkeypatch is seen),
    each wrapped in a span named `<layer>.<function>` when tracing."""
    fns = {n: getattr(module, n) for n in names}
    if tracer is not None:
        fns = {n: tracer.wrap(f"{layer}.{n}", f) for n, f in fns.items()}
    return SimpleNamespace(**fns)


def self_times(spans) -> tuple[list[float], list[str]]:
    """Each span's duration minus the part covered by its children.

    Also returns the nesting problems found: a child outside its parent's
    interval or overlapping a sibling would make self times meaningless.
    """
    selfs = [end - start for (_, _, _, _, start, end, _) in spans]
    last_child_end: dict[int, float] = {}
    problems = []
    for sid, parent, _, name, start, end, _ in spans:
        if parent < 0:
            continue
        p = spans[parent]
        if start < p[4] or end > p[5]:
            problems.append(f"span {sid} {name} lies outside its parent {p[3]}")
        if start < last_child_end.get(parent, start):
            problems.append(f"span {sid} {name} overlaps a sibling")
        last_child_end[parent] = end
        selfs[parent] -= end - start
    return selfs, problems
