"""Self-test of the interaction table: a delay planted in the
`events.addition_only_forward` wrapper must move `eval_event_samples_per_s`
on infer-wide, where the event kernel does the work, and leave
`train_samples_per_s` on cycle-mlp, which never calls it while training,
within its bound. The values checked are the ones a run reports, scaled to
the nominal host speed; a last test checks that scaling.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import time

import pytest

import run
import spans
import workloads as W

DELAY_S = 2e-3
TARGET = "events.addition_only_forward"


def _bound(name):
    return next(m["bound"] for m in run.SPEC["end_to_end"] if m["name"] == name)


def _planted_delay():
    def make(fn, name):
        if name != TARGET:
            return None

        def delayed(*args, **kwargs):
            time.sleep(DELAY_S)
            return fn(*args, **kwargs)

        return delayed

    return spans.Patch(make)


def _values(workload, metric, tmp_path, seconds):
    """The value the benchmark reports for `metric`, without and with the delay."""
    s = W.setup(workload, 0, run.ROOT, tmp_path)
    plain = run.cycle_metrics(s, seconds, tmp_path)[0][metric]["value"]
    with _planted_delay():
        delayed = run.cycle_metrics(s, seconds, tmp_path)[0][metric]["value"]
    return plain, delayed


def test_delay_moves_event_throughput_on_infer_wide(tmp_path):
    plain, delayed = _values("infer-wide", "eval_event_samples_per_s", tmp_path, seconds=2)
    assert (plain - delayed) / plain > _bound("eval_event_samples_per_s")


def test_delay_leaves_training_throughput_on_cycle_mlp(tmp_path):
    plain, delayed = _values("cycle-mlp", "train_samples_per_s", tmp_path, seconds=6)
    assert abs(plain - delayed) / plain <= _bound("train_samples_per_s")


def test_timings_are_scaled_by_the_reference(tmp_path, monkeypatch):
    # A host on which the reference takes twice its nominal time runs at half
    # speed: rates double and times halve on the way to nominal speed.
    monkeypatch.setattr(W, "reference_s", lambda: 2 * W.REF_S)
    s = W.setup("infer-wide", 0, run.ROOT, tmp_path)
    metrics, _, info = run.cycle_metrics(s, 0.1, tmp_path)
    assert info["host_slowdown"] == 2
    m = metrics["eval_event_samples_per_s"]
    assert m["value"] == pytest.approx(2 * m["measured"])
    m = metrics["ckpt_save_ms"]
    assert m["value"] == pytest.approx(m["measured"] / 2)
