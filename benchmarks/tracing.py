"""In-memory span tracing of the library's layers, installed from outside.

A ``Tracer`` replaces public functions and methods at the attribute their
callers look up (``bevtrack.tracker.iou``, ``LinearizedHomography.bev_to_px``
and so on) with wrappers that record one span per call: name, start, end and
the span that was open when the call began. Spans live in typed arrays so
millions of scalar calls stay compact; ``restore`` puts every original back.
Nothing under ``src/`` knows about the tracer.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

import bevtrack.evaluation as evaluation
import bevtrack.experiments as experiments
import bevtrack.linearized as linearized
import bevtrack.mot_io as mot_io
import bevtrack.simulator as simulator
import bevtrack.tracker as tracker
from bevtrack.errors import OutOfDomain
from bevtrack.linearized import LinearizedHomography


def _n_points(args, kwargs) -> int:
    """Points in a bev_to_px / px_to_bev call: one (2,) point or an (N, 2) array."""
    pts = np.asarray(args[1])
    return 1 if pts.ndim == 1 else len(pts)


def _n_cells(args, kwargs) -> int:
    return len(args[0]) * len(args[1])


# (owner, attribute, span name, optional per-call count hook). Each owner is
# where the caller looks the name up: Tracker.step finds iou, prune_forecasts,
# build_cost_matrix, assign, preprocess, forecast and predicted_box in the
# tracker module; calibrate_from_cloud finds the plane and homography fits in
# the experiments module; evaluate_sim finds evaluate_tracking there too.
WRAPPED = (
    (simulator, "generate", "simulator.generate", None),
    (simulator, "covered_fraction", "simulator.covered_fraction", None),
    (simulator, "build_scene_model", "simulator.build_scene_model", None),
    (experiments, "fit_ground_plane", "plane.fit_ground_plane", None),
    (experiments, "estimate_homography", "homography.estimate_homography", None),
    (linearized, "linearize", "linearized.linearize", None),
    (LinearizedHomography, "bev_to_px", "linearized.bev_to_px", _n_points),
    (LinearizedHomography, "px_to_bev", "linearized.px_to_bev", _n_points),
    (tracker, "preprocess", "forecast.preprocess", None),
    (tracker, "forecast", "forecast.forecast", None),
    (tracker, "predicted_box", "forecast.predicted_box", None),
    (tracker.Tracker, "step", "tracker.step", None),
    (tracker, "iou", "tracker.iou", None),
    (tracker, "prune_forecasts", "tracker.prune_forecasts", None),
    (tracker, "build_cost_matrix", "tracker.build_cost_matrix", _n_cells),
    (tracker, "assign", "tracker.assign", None),
    (experiments, "evaluate_tracking", "evaluation.evaluate_tracking", None),
    (evaluation, "match_frames", "evaluation.match_frames", None),
    (evaluation, "iou", "evaluation.iou", None),
    (evaluation, "occlusion_components", "evaluation.occlusion_components", None),
    (evaluation, "id_recall", "evaluation.id_recall", None),
    (mot_io, "write_detections", "mot_io.write_detections", None),
    (mot_io, "write_events", "mot_io.write_events", None),
    (evaluation.EvalReport, "write_json", "mot_io.write_report", None),
)


class Tracer:
    """Records spans and counts while installed; see ``WRAPPED`` for the sites."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts: Counter = Counter()  # "<name>.units", "<name>.out_of_domain"
        self._stack: list[int] = []
        self._originals: list = []

    def install(self) -> None:
        for owner, attr, name, count in WRAPPED:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, count):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        span_names, parents = self.span_name, self.span_parent
        starts, ends, stack, counts = self.span_start, self.span_end, self._stack, self.counts
        clock = time.perf_counter_ns
        count_key = name + ".units"
        raised_key = name + ".out_of_domain"

        def traced(*args, **kwargs):
            if count is not None:
                counts[count_key] += count(args, kwargs)
            idx = len(span_names)
            span_names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except OutOfDomain:
                counts[raised_key] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- reduction ---------------------------------------------------------------

    def arrays(self) -> dict:
        """The spans as numpy arrays (times in seconds from the first span)."""
        start = np.frombuffer(self.span_start, dtype=np.int64)
        t0 = start.min() if len(start) else 0
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": (start - t0) * 1e-9,
            "end": (np.frombuffer(self.span_end, dtype=np.int64) - t0) * 1e-9,
        }

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, which never overlap because the program is single-threaded.
        """
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(name)
        )
        self_time = dur - child_time
        out = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            out[label] = {
                "calls": int(sel.sum()),
                "s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
            }
        return out

    def calls_under(self, label: str, ancestor: str) -> int:
        """Calls of ``label`` with a span named ``ancestor`` open around them."""
        if label not in self._name_ids or ancestor not in self._name_ids:
            return 0
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        target = self._name_ids[ancestor]
        cur = parent[name == self._name_ids[label]]
        found = np.zeros(len(cur), dtype=bool)
        while True:
            live = cur >= 0
            if not live.any():
                break
            found[live] |= name[cur[live]] == target
            cur = np.where(live & ~found, parent[np.maximum(cur, 0)], -1)
        return int(found.sum())

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
