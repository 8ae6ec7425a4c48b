"""The benchmark's tracer (``perfbench/tracing.py``) finds what it wraps.

The tracer looks each wrapped function up by module and name, and skips a
name it cannot resolve, so a rename would silently set that layer's metrics
to zero. Its hooks read return values too: the labeled-track count iterates
what ``ByteTracker.finalize`` returns. These tests load the tracer as the
benchmark does and run it on a tiny pipeline call.
"""

import importlib.util
from pathlib import Path

import numpy as np

import beltrack.pipeline as pipeline
from beltrack import DetectionTable, SimConfig
from beltrack.io import write_detections
from beltrack.simulate import generate_scene

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

#: The names the tracer still lists though the package has replaced them:
#: ``state_to_box`` by ``decode_boxes``, ``count_id_switches`` by
#: ``covering_tracks`` and the scalar ``iou`` by ``pair_iou``. They are left
#: for the next change to the benchmark to repoint.
REPLACED = {"kalman.state_to_box", "metrics.id_switches", "model.iou"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def test_every_wrapped_name_resolves():
    wrapped = {**tracing.SPANNED, **tracing.COUNTED}
    missing = {
        name for name, (module, attribute) in wrapped.items()
        if tracing._resolve(module, attribute) is None
    }
    assert missing <= REPLACED


def test_traced_run_counts_labeled_tracks_and_one_vote(tmp_path):
    # Lane 0's detections carry no labels, so some tracks get no verdict.
    _, frames = generate_scene(SimConfig(
        seed=3, n_lanes=2, n_objects_per_lane=5, label_flip_prob=0.2, false_positive_rate=0.5
    ))
    path = tmp_path / "dets.jsonl"
    categories = np.where(frames.boxes[:, 1] < 80.0, -1, frames.categories)
    write_detections(DetectionTable(frames.frames, frames.boxes, frames.scores, categories), path)
    with tracing.Tracer() as tracer:
        result = pipeline.run_pipeline(pipeline.PipelineRun(input_path=path))
    spans = tracer.spans()
    assert len(result.tracks) > len(result.verdicts)
    assert tracer.counts["tracker.labeled_tracks"] == len(result.verdicts) > 0
    assert spans["tracker.finalize"]["calls"] == 1
    assert spans["aggregation.vote"]["calls"] == 1
