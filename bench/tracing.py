"""Spans around the library calls each CLI command reaches.

The tracer replaces module attributes with timing wrappers, so nothing in
the package itself changes; ``restore`` puts the originals back.  A span is
(id, name, start, end, parent id).  A name's self time is its duration
minus the time of the spans nested directly inside it.

Calls made per tick or per trial (``intervals.*`` and ``bounds.*``) run
millions of times in one benchmark run, so for those only the call count,
total and self time are kept, not one record per call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        #: name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self._stack: list[list] = []  # [span id, seconds of child spans]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, record: bool = True, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            took = end - start
            st = self.stats[name]
            st[0] += 1
            st[1] += took
            st[2] += took - frame[1]
            if self._stack:
                self._stack[-1][1] += took
            if record:
                self.spans.append((sid, name, start, end, parent))

    def patch(self, owner, attr: str, name: str, record: bool = True) -> None:
        """Replace ``owner.attr`` by a wrapper that traces it as ``name``;
        a name the package no longer has is skipped."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, record=record, **kwargs)

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


#: Functions of the package's own modules that the CLI commands call, as
#: (module, attribute, span name, keep one record per call).  ``cli``
#: imports most names directly, so those are patched in ``ndlab.cli``.
CLI_LAYER = (
    ("ndlab.cli", "load_protocol", "schedule.load_protocol", True),
    ("ndlab.cli", "protocol_from_json", "schedule.protocol_from_json", True),
    ("ndlab.cli", "build_coverage_map", "coverage.build_coverage_map", True),
    ("ndlab.cli", "analyze", "coverage.analyze", True),
    ("ndlab.cli", "worst_case_latency_oracle", "coverage.oracle", True),
    ("ndlab.cli", "simulate_multi", "simulator.simulate_multi", True),
)
INTERVALS = ("normalize", "measure", "union", "intersect", "subtract", "complement",
             "contains", "shift_mod", "reflect_mod")
BOUNDS = ("bound_unidirectional", "bound_symmetric", "bound_symmetric_approx",
          "bound_channel_constrained", "bound_asymmetric", "bound_mutual_exclusive",
          "collision_probability", "bound_relaxed", "bound_slotted_full_duplex",
          "bound_slotted_two_beacon", "bound_slotted_channel")
GENERATORS = ("gen_optimal_unidirectional", "gen_pi0m", "gen_disco",
              "gen_searchlight_striped", "gen_uconnect", "gen_diffcode")


def patch_layers(tracer: Tracer) -> None:
    """Wrap every layer the CLI commands reach."""
    import sys

    for module, attr, name, record in CLI_LAYER:
        tracer.patch(sys.modules[module], attr, name, record)
    patch_intervals(tracer)
    bounds = sys.modules["ndlab.bounds"]
    for fn in BOUNDS:
        tracer.patch(bounds, fn, f"bounds.{fn}", record=False)


def patch_intervals(tracer: Tracer) -> None:
    import sys

    intervals = sys.modules["ndlab.intervals"]
    for fn in INTERVALS:
        tracer.patch(intervals, fn, f"intervals.{fn}", record=False)


def patch_generators(tracer: Tracer) -> None:
    import sys

    protocols = sys.modules["ndlab.protocols"]
    for fn in GENERATORS:
        tracer.patch(protocols, fn, "protocols.generate", record=False)
