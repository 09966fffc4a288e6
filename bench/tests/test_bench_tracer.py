import threading

import pytest

from tracer import Tracer, self_times, summarize

MAIN, WORKER_1, WORKER_2 = 1, 2, 3


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, 0, "root", MAIN, 0.0, 10.0),
        (2, 1, "child", MAIN, 1.0, 3.0),
        (3, 2, "grandchild", MAIN, 1.5, 2.5),
        # children on other threads overlap each other and the main-thread child
        (4, 1, "task", WORKER_1, 2.0, 6.0),
        (5, 1, "task", WORKER_2, 5.0, 8.0),
        # a child running past its parent's end is clipped
        (6, 1, "late", WORKER_1, 9.5, 11.0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (7.0 + 0.5))
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(4.0)
    table = summarize(spans)
    assert table["task"]["calls"] == 2
    assert table["task"]["self_s"] == pytest.approx(7.0)
    assert table["task"]["total_s"] == pytest.approx(7.0)


def test_patched_calls_nest_and_pool_tasks_link_to_the_submitter():
    # defined here, so the patches die with the test
    class Layer:
        @staticmethod
        def outer(x):
            return Layer.inner(x) + 1

        @staticmethod
        def inner(x):
            return x * 2

    tracer = Tracer()
    tracer.patch(Layer, "outer", "layer.outer")
    tracer.patch(Layer, "inner", "layer.inner", on_result=lambda a, k, r: tracer.count("n", r))
    pool_cls = tracer.traced_pool("layer.task")
    assert Layer.outer(3) == 7
    with pool_cls(max_workers=2) as pool:
        assert tracer.call("layer.submit", lambda: list(pool.map(Layer.inner, [1, 2])), (), {}) == [2, 4]
    by_id = {s[0]: s for s in tracer.spans}
    names = {s[0]: s[2] for s in tracer.spans}
    inner_parents = sorted(names[by_id[s[0]][1]] for s in tracer.spans if s[2] == "layer.inner")
    assert inner_parents == ["layer.outer", "layer.task", "layer.task"]
    submit = next(s for s in tracer.spans if s[2] == "layer.submit")
    tasks = [s for s in tracer.spans if s[2] == "layer.task"]
    assert len(tasks) == 2 and all(t[1] == submit[0] for t in tasks)
    assert all(t[3] != threading.get_ident() for t in tasks)
    assert tracer.counters["n"] == 6 + 2 + 4
