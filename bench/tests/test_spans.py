"""Self-time arithmetic on hand-built span trees, and wrapper hygiene."""

import pytest

from bench.layers import TraceView
from bench.spans import Instrument, Span, SpanRecorder, exclusive_times


def span(sid, name, layer, start, end, parent=None, trace=1, thread=1):
    return Span(sid, name, layer, start, end, parent, trace, thread)


def test_nested_children_are_subtracted_from_the_parent():
    spans = [
        span(0, "root", "bench", 0.0, 10.0),
        span(1, "plan", "service", 1.0, 7.0, parent=0),
        span(2, "dp", "core", 2.0, 5.0, parent=1),
        span(3, "price", "cloud", 8.0, 9.0, parent=0),
    ]
    self_time = exclusive_times(spans, 0.0, 10.0)
    assert self_time == pytest.approx({0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0})
    assert TraceView(spans, 0.0, 10.0).layer_seconds() == pytest.approx(
        {"bench": 3.0, "service": 3.0, "core": 3.0, "cloud": 1.0}
    )


def test_overlapping_thread_children_are_counted_once():
    # Two pool workers plan at the same time under one burst span.
    spans = [
        span(0, "burst", "service", 0.0, 10.0),
        span(1, "plan_many", "core", 1.0, 6.0, parent=0, thread=2),
        span(2, "plan_many", "core", 4.0, 9.0, parent=0, thread=3),
    ]
    self_time = exclusive_times(spans, 0.0, 10.0)
    # The parent keeps only what no child covers: [0,1) and [9,10).
    assert self_time[0] == pytest.approx(2.0)
    # The overlap [4,6) goes to the span that started last, once.
    assert self_time[1] == pytest.approx(3.0)
    assert self_time[2] == pytest.approx(5.0)
    assert sum(self_time.values()) == pytest.approx(10.0)


def test_window_clips_setup_spans_out_of_the_table():
    spans = [
        span(0, "setup", "bench", 0.0, 5.0),
        span(1, "build", "partitioning", 1.0, 4.0, parent=0),
        span(2, "run", "bench", 5.0, 8.0),
        span(3, "step", "engine", 6.0, 9.5, parent=2),
    ]
    view = TraceView(spans, 5.0, 8.0)
    assert view.layer_seconds() == pytest.approx({"bench": 1.0, "engine": 2.0})
    assert view.total_s("build") == pytest.approx(3.0)  # durations survive
    assert view.self_s("build") == 0.0


def test_recorder_links_parents_traces_and_ambient_spans():
    recorder = SpanRecorder()
    with recorder.span("run", "bench", new_trace=True) as run:
        with recorder.span("job", "core", new_trace=True) as job:
            with recorder.span("dp", "core") as dp:
                pass
    assert dp.parent == job.id and job.parent == run.id
    assert dp.trace == job.trace != run.trace
    burst = recorder.add("burst", "service", 0.0, 1.0)
    recorder.ambient = burst
    with recorder.span("plan_many", "service") as orphan:  # empty stack
        pass
    assert orphan.parent == burst.id and orphan.trace == burst.trace


def test_wrappers_restore_the_original_callables():
    class Base:
        def inherited(self):
            return "base"

    class Target(Base):
        def own(self, x):
            return x + 1

    own_before = Target.__dict__["own"]
    recorder = SpanRecorder()
    rows = [
        (Target, "own", "t.own", "core", {"after": lambda s, obj, r, tok: s.attrs.update(r=r)}),
        (Target, "inherited", "t.inherited", "core", {}),
    ]
    with Instrument(recorder, rows):
        assert Target().own(1) == 2
        assert Target().inherited() == "base"
        assert Target.__dict__["own"] is not own_before
    assert Target.__dict__["own"] is own_before
    assert "inherited" not in Target.__dict__  # uncovered, not copied down
    assert [s.name for s in recorder.spans] == ["t.own", "t.inherited"]
    assert recorder.spans[0].attrs == {"r": 2}


def test_the_real_targets_are_restored_after_a_traced_run():
    from bench.layers import wrap_targets

    rows = wrap_targets()
    before = [owner.__dict__.get(attr) for owner, attr, *_ in rows]
    with Instrument(SpanRecorder(), rows):
        during = [owner.__dict__.get(attr) for owner, attr, *_ in rows]
    after = [owner.__dict__.get(attr) for owner, attr, *_ in rows]
    assert after == before
    assert all(d is not b for d, b in zip(during, before))
