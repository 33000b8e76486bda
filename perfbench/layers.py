"""Per-layer tracing from outside the program.

The program gets no tracing of its own: :class:`Tracer` replaces a
layer's public functions and methods with timing wrappers for the
length of one operation and puts the originals back afterwards.  Each
wrapper keeps a stack of child times, so a layer's self time (its time
minus the wrapped calls it made) and the operation's unattributed time
(what no wrapped layer covers) fall out of one pass.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: (metric name, module, attribute path) of every wrapped entry point.
#: ``persist`` is the whole of ResilientRunReport.persist, which is
#: ResultsDirectory.save_campaign_dict + save_dmesg + failures.json.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("harness.session", "repro.harness.session", "BeamSession.run"),
    ("injection.expose", "repro.injection.injector", "BeamInjector.expose"),
    ("injection.sample_failures", "repro.injection.propagation",
     "OutcomeModel.sample_failures"),
    ("soc.poll_health", "repro.soc.slimpro", "SlimPro.poll_health"),
    ("io.encode", "repro.io.json_store", "session_to_dict"),
    ("io.decode", "repro.io.json_store", "campaign_from_dict"),
    ("io.persist", "repro.resilient.runner", "ResilientRunReport.persist"),
    ("resilient.journal_append", "repro.resilient.journal",
     "CampaignJournal.append_unit"),
    ("resilient.journal_load", "repro.resilient.journal",
     "CampaignJournal.load"),
    ("scheduler.drain", "repro.scheduler.broker", "Broker.drain"),
    ("scheduler.lease", "repro.scheduler.broker", "Broker.lease"),
    ("scheduler.commit", "repro.scheduler.store", "DirectoryStore.try_commit"),
    ("codecs.run_cell", "repro.codecs.sweep", "run_cell"),
    ("codecs.assemble", "repro.codecs.sweep", "assemble_pareto"),
)


class Tracer:
    """Inclusive time, self time and per-call durations per layer."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.root_self = 0.0
        self._stack: List[float] = []
        self._undo: List[Callable[[], None]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = stack.pop()
                self.total[name] += elapsed
                self.self_time[name] += elapsed - children
                self.durations[name].append(elapsed)
                if stack:
                    stack[-1] += elapsed

        return traced

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS`."""
        for name, module_name, path in LAYERS:
            module = importlib.import_module(module_name)
            if "." in path:
                self._wrap_method(name, module, path)
            else:
                self._wrap_function(name, getattr(module, path))

    def _wrap_method(self, name: str, module, path: str) -> None:
        class_name, attr = path.split(".")
        owner = getattr(module, class_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self._wrap(name, raw.__func__))
        else:
            replacement = self._wrap(name, raw)
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def _wrap_function(self, name: str, fn: Callable) -> None:
        # Modules that imported the function by name hold their own
        # reference; replace it wherever it sits.
        traced = self._wrap(name, fn)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace or not getattr(
                module, "__name__", ""
            ).startswith("repro"):
                continue
            for key, value in list(namespace.items()):
                if value is fn:
                    namespace[key] = traced
                    self._undo.append(
                        functools.partial(namespace.__setitem__, key, fn)
                    )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def run(self, fn: Callable, *args):
        """Call *fn* as the root span; its self time is unattributed."""
        self._stack.append(0.0)
        started = time.perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = time.perf_counter() - started
            self.root_self += elapsed - self._stack.pop()
