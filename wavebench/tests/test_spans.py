import sys
import threading
import types

import numpy as np

from wavebench.spans import Hooks, Span, Tracer, parse_importtime, self_seconds


def _span(i, start, end, parent=None):
    return Span(i, f"s{i}", start, end, parent, None)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 3.0, parent=1),
        _span(3, 2.0, 5.0, parent=1),  # overlaps span 2: covered once
        _span(4, 8.0, 12.0, parent=1),  # runs past the parent: clipped at 10
        _span(5, 2.5, 2.75, parent=3),  # grandchild: counts against span 3 only
    ]
    selfs = self_seconds(spans)
    assert selfs[1] == 10.0 - (4.0 + 2.0)
    assert selfs[3] == 3.0 - 0.25
    assert selfs[2] == 2.0 and selfs[4] == 4.0 and selfs[5] == 0.25


def test_spans_from_a_pool_thread_take_the_open_span_of_the_tracing_thread():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: [t.start() or t.join() for t in
                                          [threading.Thread(target=inner)]])
    tracer.active = True
    with tracer.request_span(7):
        outer()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent == by_name["request"].id
    assert {s.request for s in tracer.spans} == {7}


def test_inactive_tracer_records_nothing_and_a_failing_count_records_missing():
    tracer = Tracer()
    f = tracer.wrap("f", lambda x: x + 1, count=lambda a, k, r: {"n": a[5]})
    assert f(1) == 2 and tracer.spans == []
    tracer.active = True
    assert f(1) == 2
    assert tracer.spans[0].attrs == {"count_missing": True}


def test_every_traced_run_hook_is_restored_even_after_an_error():
    import wavehop
    from wavebench import worker

    modules = {"wavehop._kernels": wavehop._kernels, "wavehop.wavelet": wavehop.wavelet}
    hooked = [(m, a) for m, a, _, _ in worker.CALL_TIME_NAMES]
    before = {(m, a): getattr(modules[m], a) for m, a in hooked}

    tracer = Tracer()
    try:
        with Hooks(tracer) as hooks:
            worker.install_hooks(hooks)
            assert all(getattr(modules[m], a) is not before[m, a] for m, a in hooked)
            tracer.active = True
            signal = wavehop.SignalBuffer(np.random.default_rng(0).standard_normal(4000), 16000)
            grid = wavehop.make_scale_grid(100.0, 4000.0, 4, 16000)
            worker.traced_ops(tracer).cwth_strided(signal, grid, hop=32)
            raise RuntimeError("mid-run failure")
    except RuntimeError:
        pass
    assert hooks.absent == []
    assert all(getattr(modules[m], a) is before[m, a] for m, a in hooked)

    layers = worker.layer_metrics(tracer.spans, hooks.absent)
    assert layers["wavelet.rows"] == 4
    assert layers["wavelet.rows_direct"] + layers["wavelet.rows_dense"] == 4
    assert layers["kernels.calls"] == layers["wavelet.rows_direct"]
    assert layers["wavelet.taps"] > 0


def test_a_missing_hook_target_is_reported_absent_and_its_metrics_dropped():
    from wavebench import worker

    sys.modules["wavebench_fake_module"] = types.ModuleType("wavebench_fake_module")
    try:
        with Hooks(Tracer()) as hooks:
            assert not hooks.rebind("wavebench_fake_module", "gone", "x")
    finally:
        del sys.modules["wavebench_fake_module"]
    assert hooks.absent == ["wavebench_fake_module.gone"]
    layers = worker.layer_metrics([], ["wavehop._kernels.strided_correlate"])
    assert "kernels.macs" not in layers and "wavelet.rows_direct" not in layers
    assert layers["wavelet.cwth_strided.ms"] == 0.0


def test_parse_importtime_reads_cumulative_microseconds():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |        120 |   _io\n"
        "import time:       300 |     950000 |     scipy.signal\n"
        "import time:      1000 |    1300000 | wavehop\n"
    )
    assert parse_importtime(text) == {"_io": 0.12, "scipy.signal": 950.0, "wavehop": 1300.0}
