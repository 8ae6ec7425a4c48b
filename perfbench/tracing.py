"""Span tracer that wraps beltrack's public functions from outside the package.

Every wrapped call records one span: name, start, end and the span open
when it began. Spans stay in memory (compact arrays) until ``save`` writes
them. A name the package no longer defines is skipped, so its metrics read
zero instead of failing the run.

The wrapper replaces the name in every ``beltrack`` module that holds it,
which catches ``from .kalman import kf_predict`` in ``tracker`` as well as
the defining module itself.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

from beltrack.tracker import TrackerConfig

#: Span name -> (module, attribute); "Class.method" wraps a method.
SPANNED = {
    "io.ingest_detections": ("beltrack.io", "ingest_detections"),
    "kalman.predict": ("beltrack.kalman", "kf_predict"),
    "kalman.update": ("beltrack.kalman", "kf_update"),
    "kalman.state_to_box": ("beltrack.kalman", "state_to_box"),
    "kalman.initiate": ("beltrack.kalman", "kf_initiate"),
    "model.iou_matrix": ("beltrack.model", "iou_matrix"),
    "assignment.cost_matrix": ("beltrack.assignment", "build_cost_matrix"),
    "assignment.solve": ("beltrack.assignment", "solve_assignment"),
    "tracker.step": ("beltrack.tracker", "ByteTracker.step"),
    "tracker.finalize": ("beltrack.tracker", "ByteTracker.finalize"),
    "aggregation.vote": ("beltrack.aggregation", "majority_vote"),
    "metrics.detection_map": ("beltrack.metrics", "detection_map"),
    "metrics.id_switches": ("beltrack.metrics", "count_id_switches"),
    "metrics.stability_report": ("beltrack.metrics", "stability_report"),
    "pipeline.run_pipeline": ("beltrack.pipeline", "run_pipeline"),
    "pipeline.run_stream": ("beltrack.pipeline", "run_stream"),
    "pipeline.evaluate": ("beltrack.pipeline", "evaluate_against_truth"),
    "pipeline.write_verdicts": ("beltrack.pipeline", "write_verdicts"),
    "pipeline.write_summary": ("beltrack.pipeline", "write_summary"),
}
#: Called millions of times per pass: counted, not timed.
COUNTED = {"model.iou": ("beltrack.model", "iou")}

#: Cost gate of the second, low-confidence association round.
ROUND2_MAX_COST = TrackerConfig().match_threshold_second


def _count_cells(counts, args, result):
    counts["assignment.cost_cells"] += int(np.size(result))


def _count_solve(counts, args, result):
    costs = np.asarray(args[0])
    if costs.size == 0:
        counts["assignment.solve_empty_calls"] += 1
        return
    matches = len(result.matches)
    counts["assignment.proposed_pairs"] += min(costs.shape)
    counts["assignment.accepted_pairs"] += matches
    round_name = "round2" if args[1] == ROUND2_MAX_COST else "round1"
    counts[f"assignment.{round_name}_matches"] += matches


def _count_step(counts, args, result):
    counts["tracker.active_track_frames"] += len(getattr(result, "active_tracks", ()))
    counts["tracker.removed_tracks"] += len(getattr(result, "newly_removed_track_ids", ()))


def _count_labeled(counts, args, result):
    counts["tracker.labeled_tracks"] += sum(1 for t in result if getattr(t, "predictions", None))


HOOKS = {
    "assignment.cost_matrix": _count_cells,
    "assignment.solve": _count_solve,
    "tracker.step": _count_step,
    "tracker.finalize": _count_labeled,
}


class Tracer:
    """Installs the wrappers on ``__enter__`` and restores the originals on ``__exit__``."""

    def __init__(self):
        self.span_names = list(SPANNED)
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self._open = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for name_id, (name, (module, attribute)) in enumerate(SPANNED.items()):
            original = _resolve(module, attribute)
            if original is not None:
                self._patch(module, attribute, original, self._spanning(name_id, original, HOOKS.get(name)))
        for name, (module, attribute) in COUNTED.items():
            original = _resolve(module, attribute)
            if original is not None:
                self._patch(module, attribute, original, self._counting(name, original))
        return self

    def __exit__(self, *exc_info):
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _patch(self, module: str, attribute: str, original, wrapper):
        owner_name, _, attr = attribute.rpartition(".")
        if owner_name:
            owners = [getattr(sys.modules[module], owner_name)]
        else:
            owners = [
                mod for key, mod in list(sys.modules.items())
                if key.split(".")[0] == "beltrack" and getattr(mod, attr, None) is original
            ]
        for owner in owners:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def _spanning(self, name_id: int, fn, hook):
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        open_spans, counts, clock = self._open, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(open_spans[-1])
            starts.append(0.0)
            ends.append(0.0)
            open_spans.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = start
                open_spans.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def _counting(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def spans(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds, and the
        durations in call order."""
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        durations = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        nested = parents >= 0
        child_time = np.bincount(parents[nested], weights=durations[nested], minlength=len(ids))
        self_time = durations - child_time
        table = {}
        for name_id, name in enumerate(self.span_names):
            mine = ids == name_id
            table[name] = {
                "calls": int(mine.sum()),
                "total_s": float(durations[mine].sum()),
                "self_s": float(self_time[mine].sum()),
                "durations": durations[mine],
            }
        return table

    def save(self, path):
        """Write every span (name, start, end, parent index) as a NumPy archive."""
        np.savez(
            path,
            names=np.array(self.span_names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            start=np.frombuffer(self.starts),
            end=np.frombuffer(self.ends),
        )


def _resolve(module: str, attribute: str):
    try:
        target = importlib.import_module(module)
    except ImportError:
        return None
    for part in attribute.split("."):
        target = getattr(target, part, None)
        if target is None:
            return None
    return target
