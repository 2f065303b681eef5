"""Properties of the layout algebra: ``concat``, ``sublayout``, ``positions``
and ``fresh_label`` on random layouts."""

from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privsq import LayoutError, SystemLayout, fresh_label

PROPERTIES = settings(derandomize=True, database=None, deadline=None, max_examples=60)
LABELS = st.text(alphabet="ABEp01", min_size=1, max_size=3)


@st.composite
def layouts(draw, min_size=0, max_size=4):
    labels = draw(st.lists(LABELS, min_size=min_size, max_size=max_size, unique=True))
    return SystemLayout((lbl, draw(st.integers(1, 4))) for lbl in labels)


@PROPERTIES
@given(a=layouts(), b=layouts())
def test_concat_lists_both_layouts_in_order_or_refuses_a_collision(a, b):
    if set(a.labels) & set(b.labels):
        with pytest.raises(LayoutError, match="collision"):
            a.concat(b)
        return
    ab = a.concat(b)
    assert ab.systems == a.systems + b.systems
    assert len(ab) == len(a) + len(b)
    assert ab.total_dim == a.total_dim * b.total_dim
    assert ab.sublayout(a.labels) == a and ab.sublayout(b.labels) == b


@PROPERTIES
@given(layout=layouts(min_size=1), data=st.data())
def test_sublayout_and_positions_keep_the_listed_order(layout, data):
    chosen = data.draw(st.lists(st.sampled_from(layout.labels), unique=True), label="chosen")
    pos = layout.positions(chosen)
    assert pos == tuple(sorted(layout.position(lbl) for lbl in chosen))
    sub = layout.sublayout(chosen)
    assert sub.labels == tuple(layout.labels[p] for p in pos)
    assert sub.dims == tuple(layout.dim_of(lbl) for lbl in sub.labels)
    assert sub.total_dim == prod(sub.dims)
    # the chosen systems and the rest, concatenated, are the layout reordered
    rest = layout.sublayout([lbl for lbl in layout.labels if lbl not in chosen])
    assert sorted(sub.concat(rest).systems) == sorted(layout.systems)
    assert layout.sublayout(layout.labels) == layout


@PROPERTIES
@given(layout=layouts(min_size=1), label=LABELS)
def test_positions_take_a_bare_label_and_refuse_unknown_ones(layout, label):
    if label in layout.labels:
        assert layout.positions(label) == (layout.position(label),)
    else:
        with pytest.raises(LayoutError, match="unknown system label"):
            layout.positions(layout.labels[:1] + (label,))


@PROPERTIES
@given(taken=st.lists(LABELS, max_size=12), base=LABELS)
def test_fresh_label_avoids_every_taken_label(taken, base):
    label = fresh_label(taken, base)
    assert label not in taken and label.startswith(base)
    assert (label == base) == (base not in taken)
    assert fresh_label(taken, base) == label
    assert fresh_label(taken + [label], base) not in taken + [label]
