"""Self time, span nesting and binding wrappers of the benchmark tracer."""

import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Binding, Span, Tracer, merged_length, self_time, walk  # noqa: E402


def span(name, start, end, *children):
    s = Span(name, start, end, None, "run")
    for c in children:
        c.parent = s
        s.children.append(c)
    return s


def test_merged_length_counts_each_instant_once():
    assert merged_length([]) == 0.0
    assert merged_length([(0, 1), (2, 3)]) == 2.0
    assert merged_length([(0, 2), (1, 3)]) == 3.0
    assert merged_length([(0, 5), (1, 2), (3, 4)]) == 5.0
    assert merged_length([(2, 3), (0, 1), (1, 2)]) == 3.0


def test_self_time_of_nested_children():
    inner = span("c", 2.0, 3.0)
    child = span("b", 1.0, 4.0, inner)
    root = span("a", 0.0, 10.0, child, span("d", 6.0, 7.0))
    assert self_time(root) == pytest.approx(6.0)
    assert self_time(child) == pytest.approx(2.0)
    assert self_time(inner) == pytest.approx(1.0)


def test_self_time_of_partly_overlapping_children():
    root = span("a", 0.0, 10.0, span("b", 1.0, 5.0), span("c", 4.0, 8.0),
                span("d", 9.0, 12.0))
    # children cover [1, 8] and [9, 10] inside the parent; [10, 12] lies outside
    assert self_time(root) == pytest.approx(10.0 - 7.0 - 1.0)


def test_self_times_of_a_tree_add_up_to_the_root():
    root = span("a", 0.0, 10.0,
                span("b", 1.0, 4.0, span("e", 3.0, 3.5), span("f", 3.5, 3.9)),
                span("c", 5.0, 9.0, span("g", 5.5, 6.0)))
    assert sum(self_time(s) for s in walk(root)) == pytest.approx(root.duration)
    # siblings that overlap would count an interval twice, and the sum shows it
    clash = span("a", 0.0, 10.0, span("b", 1.0, 4.0), span("c", 3.0, 5.0))
    assert sum(self_time(s) for s in walk(clash)) == pytest.approx(11.0)


@pytest.fixture
def toy_modules(monkeypatch):
    """toy_a defines work(); toy_b imports it by name, as uban.train does."""
    a = types.ModuleType("toy_a")

    def work(x):
        return x + 1

    def pairs(n):
        yield from range(n)

    a.work, a.pairs = work, pairs
    b = types.ModuleType("toy_b")
    b.work = a.work

    def caller():
        return a.work(1) + b.work(2)

    b.caller = caller
    monkeypatch.setitem(sys.modules, "toy_a", a)
    monkeypatch.setitem(sys.modules, "toy_b", b)
    return a, b


def test_each_binding_of_an_imported_name_is_wrapped(toy_modules):
    a, b = toy_modules
    everywhere = frozenset({"w"})
    only_a = Tracer([Binding("toy", "toy_a", "work", everywhere)])
    only_a.install()
    try:
        b.caller()
    finally:
        only_a.uninstall()
    assert only_a.calls == {"toy_a.work": 1}      # the call through toy_b is missed

    both = Tracer([Binding("toy", "toy_a", "work", everywhere),
                   Binding("toy", "toy_b", "work", everywhere),
                   Binding("toy", "toy_b", "caller", everywhere)])
    both.install()
    try:
        assert b.caller() == 5
    finally:
        both.uninstall()
    assert both.calls == {"toy_a.work": 1, "toy_b.work": 1, "toy_b.caller": 1}
    (root,) = both.spans
    assert [c.name for c in root.children] == ["toy_a.work", "toy_b.work"]
    assert all(c.parent is root for c in root.children)
    assert b.work is a.work and not hasattr(a.work, "__wrapped__")   # restored


def test_generator_binding_times_each_item(toy_modules):
    a, _ = toy_modules
    tracer = Tracer([Binding("toy", "toy_a", "pairs", frozenset(), kind="generator")])
    tracer.install()
    try:
        with tracer.span("outer"):
            assert list(a.pairs(3)) == [0, 1, 2]
    finally:
        tracer.uninstall()
    (outer,) = tracer.spans
    assert tracer.calls["toy_a.pairs"] == 1
    assert [c.name for c in outer.children] == ["toy_a.pairs"] * 4   # 3 items + the end


def test_excluded_time_falls_in_no_span():
    tracer = Tracer([])
    with tracer.span("outer") as outer:
        with tracer.excluded():
            time.sleep(0.05)
    assert outer.duration < 0.04
