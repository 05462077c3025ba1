"""Per-layer timing from outside the program.

:func:`traced` wraps public functions of the ``repro`` layers (and the
``multiprocessing`` calls the procs backend makes) with counting, timing
wrappers, and puts every original back on exit.  The program itself is
unchanged: nothing under ``src/`` knows it is being measured.

A wrapped call pushes a frame; on return its duration is added to the
calls, total time and *self time* (duration minus the time of wrapped
calls nested inside it) of its seam.  Coarse seams also keep a span
``(id, name, start, end, parent id)`` in memory; the hot predicates
(``fits_with``, ``accepts``, ``violates``, kernel calls) keep counters only,
because a span per call would be too many.

Under ``fork`` the procs workers inherit the wrappers, but what they record
stays in the worker, so the procs figures here are parent-side only.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from multiprocessing.reduction import ForkingPickler

__all__ = ["Recorder", "SEAMS", "traced", "patch_targets"]


class Recorder:
    """Counters, total and self time per seam, and coarse spans."""

    def __init__(self) -> None:
        #: seam -> [calls, passes, total_s, self_s, bytes]
        self.stats: dict[str, list] = {}
        #: (id, name, start, end, parent id or None)
        self.spans: list[tuple] = []
        # Open frames: [start, time of nested wrapped calls, span id].
        self._stack: list[list] = []
        self._next_id = 0

    def call(self, name, fn, args, kwargs, span=False, passes=False,
             nbytes=0):
        stack = self._stack
        own = stack[-1][2] if stack else None
        parent = own
        if span:
            own = self._next_id
            self._next_id += 1
        frame = [time.perf_counter(), 0.0, own]
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame[0]
            entry = self.stats.get(name)
            if entry is None:
                entry = self.stats[name] = [0, 0, 0.0, 0.0, 0]
            entry[0] += 1
            entry[2] += duration
            entry[3] += duration - frame[1]
            entry[4] += nbytes
            if stack:
                stack[-1][1] += duration
            if span:
                self.spans.append((own, name, frame[0], end, parent))
        if passes and result:
            entry[1] += 1
        return result

    def run(self, name, fn, *args):
        """Time a whole engine run as the root span."""
        return self.call(name, fn, args, {}, span=True)

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def pass_ratio(self, name: str) -> float:
        calls = self.calls(name)
        return self.stats[name][1] / calls if calls else 0.0

    def self_s(self, name: str) -> float:
        return self.stats[name][3] if name in self.stats else 0.0

    def total_s(self, name: str) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def nbytes(self, name: str) -> int:
        return self.stats[name][4] if name in self.stats else 0


def _agent_label(args) -> str:
    """Name agent seams by the kind of work item (event / match / guard)."""
    item = args[1]
    if isinstance(item, list):
        item = item[0]
    kind = item.kind.value
    return "agent_event" if kind == "event2" else f"agent_{kind}"


_AGENT_SEAMS = (
    ("process", _agent_label, True),
    ("process_batch", _agent_label, True),
    ("maintenance", "maintenance", True),
    ("flush", "maintenance", True),
)

#: (module, class or None for a function, attribute, seam name or a
#: labeller of the call's arguments, keeps spans, counts truthy results)
SEAMS: tuple[tuple, ...] = (
    ("repro.core.nfa", "Stage", "accepts", "accepts", False, True),
    ("repro.core.nfa", "NegationGuard", "violates", "violates", False, True),
    ("repro.core.matches", "PartialMatch", "fits_with", "fits_with",
     False, True),
    ("repro.core.matches", "PartialMatch", "extended", "extend", False, False),
    ("repro.core.matches", "PartialMatch", "extended_kleene", "extend",
     False, False),
    ("repro.core.vectorized", "StageKernel", "accepts_over_matches",
     "kernel", False, False),
    ("repro.core.vectorized", "StageKernel", "accepts_over_events",
     "kernel", False, False),
    ("repro.core.policies", None, "resolve_matches", "resolve", True, False),
    ("repro.engine.sequential", "SequentialEngine", "process", "process",
     False, False),
    ("repro.hypersonic.splitter", "Splitter", "route", "route", True, False),
    ("repro.hypersonic.workers", "WorkerPolicy", "select", "select",
     True, False),
    ("repro.hypersonic.buffers", "FragmentedBuffer", "replace_fragment",
     "purge", False, False),
    ("repro.hypersonic.buffers", "FragmentedBuffer", "purge_fragment",
     "purge", False, False),
    *(("repro.hypersonic.agent", "AgentCore", attr, name, span, False)
      for attr, name, span in _AGENT_SEAMS),
    *(("repro.hypersonic.fusion", "FusedAgentCore", attr, name, span, False)
      for attr, name, span in _AGENT_SEAMS),
    ("multiprocessing.queues", "Queue", "put", "put", True, False),
    ("multiprocessing.process", "BaseProcess", "start", "start", True, False),
)


def _owners(module_name: str, class_name: str | None, attr: str):
    """The original of one seam and every namespace that holds it.

    A class method lives on its class.  A module-level function also lives
    in every loaded module that imported it by value, and each of those
    bindings has to be replaced.
    """
    module = importlib.import_module(module_name)
    if class_name is not None:
        owner = getattr(module, class_name)
        return vars(owner)[attr], [owner]
    original = vars(module)[attr]
    holders = [
        loaded for loaded in list(sys.modules.values())
        if getattr(loaded, "__dict__", {}).get(attr) is original
    ]
    return original, holders


def patch_targets() -> list[tuple[object, str, object]]:
    """Every ``(owner, attribute, original)`` that :func:`traced` replaces."""
    targets = []
    for module_name, class_name, attr, *_ in SEAMS:
        original, owners = _owners(module_name, class_name, attr)
        targets.extend((owner, attr, original) for owner in owners)
    return targets


def _wrapper(recorder: Recorder, name, fn, span: bool, passes: bool):
    if callable(name):
        def labelled(*args, **kwargs):
            return recorder.call(name(args), fn, args, kwargs, span, passes)
        return labelled
    if name == "put":
        def put(self, obj, *args, **kwargs):
            # Sizes the message only: the queue's feeder thread does the
            # real pickling later, outside the timed put.
            size = len(ForkingPickler.dumps(obj))
            return recorder.call(name, fn, (self, obj, *args), kwargs,
                                 span, passes, size)
        return put

    def wrapped(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, span, passes)
    return wrapped


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Install the wrappers for the duration of the block."""
    installed = []
    try:
        for module_name, class_name, attr, name, span, passes in SEAMS:
            original, owners = _owners(module_name, class_name, attr)
            wrapped = _wrapper(recorder, name, original, span, passes)
            for owner in owners:
                installed.append((owner, attr, original))
                setattr(owner, attr, wrapped)
        yield recorder
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)
