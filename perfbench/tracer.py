"""In-memory span tracer that instruments airnav from outside.

Each traced function is replaced, on the object its caller looks it up on,
by a wrapper that records a span: name, start, end, parent span and Monte
Carlo run index.  Nothing under ``src/`` changes, and :meth:`Tracer.restore`
puts the originals back.  A target that no longer exists is listed in
:attr:`Tracer.absent` instead of failing.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

# (object path, attribute, span label, mode).  The object is where the
# caller looks the name up: harness imports the sensor functions by name,
# cli imports load_config by name, the rest are module or class attributes.
#   span    record a span
#   count   count calls only (cheap; the time stays in the caller's self time)
#   run     record a span and tag everything inside with the run index
#   update  record a span labelled by the sensor subset of the C argument
TARGETS = (
    ("airnav.cli", "load_config", "config.load_config", "span"),
    ("airnav.harness", "run_single", "harness.run_single", "run"),
    ("airnav.harness", "init_estimates", "harness.init_estimates", "span"),
    ("airnav.harness", "summarize", "harness.summarize", "span"),
    ("airnav.harness", "write_trace_csv", "harness.write_trace_csv", "span"),
    ("airnav.harness", "write_summary_csv", "harness.write_summary_csv",
     "span"),
    ("airnav.harness", "write_observability_csv",
     "harness.write_observability_csv", "span"),
    ("airnav.harness", "make_schedule", "sensors.make_schedule", "span"),
    ("airnav.harness", "substream", "sensors.substream", "count"),
    ("airnav.harness", "sample_imu", "sensors.sample_imu", "span"),
    ("airnav.harness", "sample_pitot", "sensors.sample_pitot", "span"),
    ("airnav.harness", "sample_mag", "sensors.sample_mag", "span"),
    ("airnav.harness", "sample_baro", "sensors.sample_baro", "span"),
    ("airnav.dynamics", "attitude_batch", "dynamics.attitude_batch", "span"),
    ("airnav.dynamics", "inertial_specific_force",
     "dynamics.inertial_specific_force", "span"),
    ("airnav.geometry", "exp_so3", "geometry.exp_so3", "count"),
    ("airnav.geometry", "project_to_so3", "geometry.project_to_so3", "count"),
    ("airnav.observer.AirDataObserver", "tick", "observer.tick", "span"),
    ("airnav.observer", "state_matrix_dt", "observer.state_matrix_dt", "span"),
    ("airnav.observer", "riccati_predict", "observer.riccati_predict", "span"),
    ("airnav.observer", "riccati_update", "observer.riccati_update", "update"),
    ("airnav.observer", "output_matrix", "observer.output_matrix", "span"),
    ("airnav.observer", "residual", "observer.residual", "span"),
    ("airnav.observer", "innovation_from_gain",
     "observer.innovation_from_gain", "span"),
    ("airnav.observer", "observer_step_state", "observer.observer_step_state",
     "span"),
    ("airnav.observability", "observability_verdict",
     "observability.observability_verdict", "span"),
    ("airnav.observability", "gramian", "observability.gramian", "span"),
    ("airnav.observability", "pe_margins", "observability.pe_margins", "span"),
)


def _resolve(path: str):
    """Import the longest module prefix of ``path``, then walk attributes."""
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for part in parts[i:]:
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj
    return None


def update_kind(c) -> str:
    """Sensor subset of a riccati_update call, read from its output matrix.

    Rows come in the order Pitot, mag, baro: a baro row has a 1 in column 6,
    Pitot rows are the only ones with nonzero velocity columns.
    """
    if c[0, 6]:
        return "baro"
    if c[-1, 6]:
        return "stacked"
    return "pitot" if (c[0, 3] or c[0, 4] or c[0, 5]) else "mag"


class Tracer:
    """Spans kept in flat arrays; the open-span stack gives each its parent."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.counts: dict[str, int] = {}
        self.rows: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._run_index = -1
        self._patches: list[tuple[object, str, object]] = []

    def _label_id(self, label: str) -> int:
        nid = self._ids.get(label)
        if nid is None:
            nid = self._ids[label] = len(self.names)
            self.names.append(label)
        return nid

    def call(self, label: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``label``."""
        idx = len(self.end)
        self.name.append(self._label_id(label))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self._run_index)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()

    def _wrapper(self, fn, label: str, mode: str):
        tracer = self
        if mode == "count":
            tracer.counts.setdefault(label, 0)

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.counts[label] += 1
                return fn(*args, **kwargs)
            return counted
        if mode == "run":
            @functools.wraps(fn)
            def run_wrapper(*args, **kwargs):
                outer = tracer._run_index
                tracer._run_index = int(args[1] if len(args) > 1
                                        else kwargs.get("run_index", 0))
                try:
                    return tracer.call(label, fn, *args, **kwargs)
                finally:
                    tracer._run_index = outer
            return run_wrapper
        if mode == "update":
            @functools.wraps(fn)
            def update_wrapper(*args, **kwargs):
                c = args[1] if len(args) > 1 else kwargs["C"]
                sub = f"{label}.{update_kind(c)}"
                tracer.rows[sub] = c.shape[0]
                return tracer.call(sub, fn, *args, **kwargs)
            return update_wrapper

        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            return tracer.call(label, fn, *args, **kwargs)
        return span_wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; missing ones are listed in ``absent``."""
        for path, attr, label, mode in targets:
            owner = _resolve(path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                if f"{path}.{attr}" not in self.absent:
                    self.absent.append(f"{path}.{attr}")
                continue
            setattr(owner, attr, self._wrapper(fn, label, mode))
            self._patches.append((owner, attr, fn))

    def restore(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "run": np.array(self.run, dtype=np.int64),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per label: call count, total time and self time in seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, so that is the uncovered part.
        """
        a = self.arrays()
        n_labels = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        calls = np.bincount(a["name"], minlength=n_labels)
        total = np.bincount(a["name"], weights=dur, minlength=n_labels)
        own = np.bincount(a["name"], weights=self_time, minlength=n_labels)
        return {label: {"calls": int(calls[i]), "total_s": float(total[i]),
                        "self_s": float(own[i])}
                for i, label in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
