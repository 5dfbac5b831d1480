"""Outside-in span tracer for the benchmark's traced runs.

The tracer times the program's layers from outside: it replaces each
layer's public callable, at the place the caller looks it up, with a
wrapper that records a span ``[name, start, end, parent]``.  Nothing
in the program changes.  Spans stay in memory and are written out when
the run ends.

A span's self time is its duration minus the durations of its direct
children.  Spans nest per thread, so a lane or pool thread never
becomes the parent of another thread's span.
"""

import functools
import importlib
import json
import threading
import time
from contextlib import contextmanager

#: (module, attribute path, span name).  Functions are patched where the
#: caller looks them up: ``repro.engines.aco`` binds ``update_trails``,
#: ``update_merits`` and ``legalize_components`` at import time, so the
#: wrapper must sit in that module, not only in the defining one.
LAYERS = (
    ("repro.core.flow", "optimize", "ir.optimize"),
    ("repro.core.flow", "ISEDesignFlow.profile_blocks", "flow.profile"),
    ("repro.core.flow", "build_dfg", "graph.build_dfg"),
    ("repro.graph.bitset", "BitsetDFG.__init__", "graph.bitset_build"),
    ("repro.engines.aco", "AcoEngine.explore", "aco.explore"),
    ("repro.core.state", "ExplorationState.cp_weights_batch",
     "aco.weights"),
    ("repro.core.batch", "BatchedAntRunner.run", "aco.construct"),
    ("repro.core.iteration", "IterationSchedule.schedule_hardware",
     "aco.cluster_join"),
    ("repro.engines.aco", "update_trails", "aco.trail"),
    ("repro.engines.aco", "update_merits", "aco.merit"),
    ("repro.core.merit", "hardware_grouping", "aco.grouping"),
    ("repro.engines.aco", "legalize_components", "aco.legalize"),
    ("repro.engines.base", "contract_dfg", "aco.evaluate"),
    ("repro.engines.base", "list_schedule", "aco.evaluate"),
    ("repro.core.flow", "ISEDesignFlow.evaluate", "select.evaluate"),
    ("repro.core.flow", "merge_candidates", "select.merge"),
    ("repro.core.flow", "select_ises", "select.select"),
    ("repro.core.flow", "replace_and_schedule", "select.replace"),
)

#: The ACO round's children: together they should cover ``aco.explore``.
ROUND_CHILDREN = ("aco.weights", "aco.construct", "aco.cluster_join",
                  "aco.trail", "aco.merit", "aco.grouping", "aco.legalize",
                  "aco.evaluate")


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent span or None]
        self._local = threading.local()
        self._patches = []         # (owner, attribute, original, name)

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name):
        """Record the enclosed block as one span."""
        stack = self._stack()
        record = [name, time.perf_counter(), None,
                  stack[-1] if stack else None]
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            stack.pop()
            record[2] = time.perf_counter()

    def add(self, name, start, end):
        """Record a span measured elsewhere (a hook's start/end pair)."""
        stack = self._stack()
        self.spans.append([name, start, end, stack[-1] if stack else None])

    def wrap(self, func, name):
        """``func`` wrapped so every call records a span ``name``.

        The body is the inlined form of :meth:`span`: the wrapped
        callables run up to a few hundred thousand times per run.
        """
        spans = self.spans
        stacks = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = stacks()
            record = [name, clock(), None, stack[-1] if stack else None]
            spans.append(record)
            stack.append(record)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, layers=LAYERS):
        """Wrap every ``(module, attribute path, span name)`` layer."""
        for module_name, path, name in layers:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            # A class attribute is read from the class's own namespace,
            # so restoring it never shadows an inherited definition.
            original = (owner.__dict__[attribute] if isinstance(owner, type)
                        else getattr(owner, attribute))
            self._patches.append((owner, attribute, original, name))
            setattr(owner, attribute, self.wrap(original, name))

    def uninstall(self):
        """Restore every patched attribute (idempotent)."""
        while self._patches:
            owner, attribute, original, __ = self._patches.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def suspended(self):
        """Run the block with every patch removed, then re-install.

        Used around a pool fork, so forked workers inherit clean code.
        """
        patches = list(self._patches)
        self.uninstall()
        try:
            yield
        finally:
            for owner, attribute, original, name in patches:
                self._patches.append((owner, attribute, original, name))
                setattr(owner, attribute, self.wrap(original, name))

    # -- analysis ----------------------------------------------------------

    def totals(self):
        """``{name: (count, total seconds, self seconds)}`` over spans."""
        child_time = {}
        for record in self.spans:
            parent = record[3]
            if parent is not None:
                child_time[id(parent)] = (child_time.get(id(parent), 0.0)
                                          + record[2] - record[1])
        totals = {}
        for record in self.spans:
            name, start, end = record[0], record[1], record[2]
            count, total, own = totals.get(name, (0, 0.0, 0.0))
            duration = end - start
            totals[name] = (count + 1, total + duration,
                            own + duration - child_time.get(id(record), 0.0))
        return totals

    def covered(self, names, within):
        """Seconds of ``within`` spans covered by spans named ``names``.

        A span counts only when no ancestor below ``within`` is also in
        ``names``, so nested layers are not counted twice.
        """
        names = set(names)
        seconds = 0.0
        for record in self.spans:
            if record[0] not in names:
                continue
            parent = record[3]
            while parent is not None and parent[0] != within:
                if parent[0] in names:
                    break
                parent = parent[3]
            else:
                if parent is not None:
                    seconds += record[2] - record[1]
        return seconds

    def top_level(self, names):
        """Seconds of spans in ``names`` that have no ancestor in it."""
        names = set(names)
        seconds = 0.0
        for record in self.spans:
            if record[0] not in names:
                continue
            parent = record[3]
            while parent is not None and parent[0] not in names:
                parent = parent[3]
            if parent is None:
                seconds += record[2] - record[1]
        return seconds

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent index."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        with open(path, "w") as handle:
            for i, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": None if parent is None
                    else index[id(parent)]}) + "\n")

