import numpy as np
import pytest

from tracer import Tracer, layer_totals, self_times


def test_self_times_on_a_synthetic_nested_span_set():
    # root [0, 100) holds a [10, 40) and b [50, 90); a holds c [15, 25) and d [30, 35);
    # b holds c [60, 70).
    names = ["root", "a", "b", "c", "d"]
    spans = [  # (name, parent index, start, end)
        ("root", -1, 0, 100),
        ("a", 0, 10, 40),
        ("c", 1, 15, 25),
        ("d", 1, 30, 35),
        ("b", 0, 50, 90),
        ("c", 4, 60, 70),
    ]
    name_id = [names.index(s[0]) for s in spans]
    parent, start, end = ([s[i] for s in spans] for i in (1, 2, 3))

    assert list(self_times(parent, start, end)) == [30, 15, 10, 5, 30, 10]

    totals = layer_totals(names, name_id, parent, start, end)
    assert {k: v["calls"] for k, v in totals.items()} == {"root": 1, "a": 1, "b": 1, "c": 2, "d": 1}
    assert totals["c"]["self_s"] == pytest.approx(20e-9)
    assert sum(v["self_s"] for v in totals.values()) == pytest.approx(100e-9)


def test_wrapped_calls_nest_and_self_times_sum_to_the_root():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap("leaf", leaf, count=lambda counts, args, result: counts.update(seen=result))
    mid = tracer.wrap("mid", lambda n: [traced_leaf(i) for i in range(n)])
    tracer.begin("root")
    mid(3)
    mid(2)
    tracer.finish()

    names = np.array(tracer.names)
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    start = np.frombuffer(tracer.start, dtype=np.int64)
    end = np.frombuffer(tracer.end, dtype=np.int64)
    assert [names[i] for i in name_id] == ["root", "mid", "leaf", "leaf", "leaf", "mid", "leaf", "leaf"]
    assert list(parent) == [-1, 0, 1, 1, 1, 0, 5, 5]
    assert tracer.counts["seen"] == 1 + 2 + 3 + 1 + 2
    own = self_times(parent, start, end)
    assert (own >= 0).all()
    assert own.sum() == end[0] - start[0]


def test_a_raising_call_still_closes_its_span():
    tracer = Tracer()

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.end[0] >= tracer.start[0] > 0
    assert tracer._stack == [-1]
