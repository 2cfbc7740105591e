"""Span tracer: nesting, ring bound, timestamps."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.spans import SpanTracer


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_span_records_wall_and_sim_time():
    sim = FakeClock()
    wall = FakeClock()
    tracer = SpanTracer(sim_time_fn=sim, wall_time_fn=wall)
    sim.t, wall.t = 5.0, 100.0
    with tracer.span("governor.update", domain="a57"):
        wall.t = 100.25
    (span,) = tracer.spans()
    assert span.start_sim_s == 5.0
    assert span.duration_s == pytest.approx(0.25)
    assert span.attrs == {"domain": "a57"}


def test_nesting_sets_parent_ids():
    tracer = SpanTracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            pass
    inner_span = tracer.spans("inner")[0]
    assert inner_span.parent_id == outer.span.span_id
    assert tracer.spans("outer")[0].parent_id is None
    assert tracer.children_of(outer.span.span_id) == [inner_span]


def test_set_attrs_chainable():
    tracer = SpanTracer()
    with tracer.span("x") as h:
        h.set(a=1).set(b=2)
    assert tracer.spans("x")[0].attrs == {"a": 1, "b": 2}


def test_instant_spans_have_zero_duration():
    tracer = SpanTracer()
    span = tracer.instant("thermal.trip", zone="soc")
    assert span.duration_s == 0.0
    assert tracer.spans("thermal.trip") == [span]


def test_ring_buffer_drops_oldest():
    tracer = SpanTracer(capacity=2)
    for i in range(5):
        tracer.instant(f"e{i}")
    assert len(tracer) == 2
    assert tracer.dropped == 3
    assert [s.name for s in tracer.spans()] == ["e3", "e4"]
    assert "# 3 spans dropped" in tracer.render()


def test_render_limit_keeps_newest():
    tracer = SpanTracer()
    for i in range(5):
        tracer.instant(f"e{i}")
    text = tracer.render(limit=2)
    assert "e4" in text and "e3" in text and "e2" not in text
    assert tracer.render(limit=0) == ""


def test_by_prefix():
    tracer = SpanTracer()
    tracer.instant("thermal.trip")
    tracer.instant("thermal.cooling_state")
    tracer.instant("sched.migrate")
    assert len(tracer.by_prefix("thermal.")) == 2


def test_exception_unwinds_nesting():
    tracer = SpanTracer()
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise RuntimeError("boom")
    # Both spans closed despite the exception; next span has no parent.
    assert len(tracer) == 2
    tracer.instant("after")
    assert tracer.spans("after")[0].parent_id is None


def test_to_dicts_round_trip_shape():
    tracer = SpanTracer()
    with tracer.span("x", k="v"):
        pass
    (d,) = list(tracer.to_dicts())
    assert d["kind"] == "span"
    assert d["name"] == "x"
    assert d["attrs"] == {"k": "v"}
    assert d["wall_duration_s"] >= 0.0


def test_clear_resets():
    tracer = SpanTracer(capacity=1)
    tracer.instant("a")
    tracer.instant("b")
    tracer.clear()
    assert len(tracer) == 0
    assert tracer.dropped == 0


def test_capacity_validation():
    with pytest.raises(ConfigurationError):
        SpanTracer(capacity=0)


def test_stock_throttled_run_keeps_every_span():
    """Table I's 140 s stock-throttled amazon run fits the span ring.

    Only evaluations that changed a frequency leave a ``governor.update``
    span, so the first thermal trip is still there at the end of the run.
    """
    from repro.experiments.nexus import run_app

    sim = run_app("amazon", True).sim

    def total(name):
        return sum(child.value for child in sim.metrics.children(name))

    assert sim.spans.dropped == 0
    trips = sim.spans.spans("thermal.trip")
    assert trips
    assert len(trips) == total("repro_thermal_trips_total")
    updates = sim.spans.spans("governor.update")
    assert all(
        s.attrs["freq_before_hz"] != s.attrs["freq_after_hz"] for s in updates
    )
    assert len(updates) == total("repro_governor_freq_changes_total")
