import pytest

from perfbench.spans import OP_SPAN, Span, SpanRecorder, self_time_by_name, self_times


def tree():
    """op [0,10] > a [1,6] > b [2,3], c [4,5.5];  op > d [7,9]."""
    return [
        Span(0, OP_SPAN, 0.0, 10.0, None, 1),
        Span(1, "a", 1.0, 6.0, 0, 1),
        Span(2, "b", 2.0, 3.0, 1, 1),
        Span(3, "c", 4.0, 5.5, 1, 1),
        Span(4, "d", 7.0, 9.0, 0, 1),
    ]


def test_self_time_is_span_minus_children():
    own = self_times(tree())
    assert own == {0: 3.0, 1: 2.5, 2: 1.0, 3: 1.5, 4: 2.0}


def test_self_times_add_up_to_the_op():
    by_name = self_time_by_name(tree())
    assert sum(by_name.values()) == pytest.approx(10.0)
    assert by_name[OP_SPAN] == 3.0  # the unattributed remainder


def test_overlapping_children_are_counted_once():
    spans = [
        Span(0, "p", 0.0, 10.0, None, 1),
        Span(1, "x", 1.0, 5.0, 0, 1),
        Span(2, "y", 4.0, 12.0, 0, 1),  # overlaps x and sticks out of p
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_wrap_records_only_inside_an_op():
    rec = SpanRecorder()
    calls = []
    traced = rec.wrap("layer.f", lambda x: calls.append(x) or x * 2,
                      lambda args, kwargs, result: rec.count("n", result))
    assert traced(1) == 2
    assert rec.spans == []
    root = rec.begin_op(7, 0.0)
    assert traced(3) == 6
    rec.end_op(root, 1e9)
    assert [(s.name, s.parent, s.op) for s in rec.spans] == [
        (OP_SPAN, None, 7), ("layer.f", root.id, 7)
    ]
    assert rec.counts[7]["n"] == 6
    assert calls == [1, 3]


def test_wrap_closes_the_span_when_the_call_raises():
    rec = SpanRecorder()

    def boom():
        raise KeyError("x")

    traced = rec.wrap("layer.boom", boom)
    root = rec.begin_op(0, 0.0)
    with pytest.raises(KeyError):
        traced()
    rec.end_op(root, 1e9)
    assert rec.current is None
    assert rec.spans[1].end >= rec.spans[1].start


def test_export_adopt_round_trip():
    child = SpanRecorder()
    root = child.begin_op(0, 0.0)
    outer = child.begin("outer", 1.0)
    inner = child.begin("inner", 2.0)
    child.end(inner, 3.0)
    child.end(outer, 4.0)
    child.end_op(root, 5.0)
    records = child.export([s for s in child.spans if s is not root])

    parent = SpanRecorder()
    op = parent.begin_op(3, 0.0)
    parent.adopt(records, op)
    parent.end_op(op, 6.0)
    names = {s.name: s for s in parent.spans}
    assert names["outer"].parent == op.id
    assert names["inner"].parent == names["outer"].id
    assert {s.op for s in parent.spans} == {3}
    assert self_time_by_name(parent.spans) == {OP_SPAN: 3.0, "outer": 2.0, "inner": 1.0}
