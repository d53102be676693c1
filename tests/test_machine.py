import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from mapforge.machine import (
    Merge, ProcIndex, ProcessorSpace, SpaceError, default_machine,
    machine_space,
)


def base(n0, n1, kind="GPU"):
    return ProcessorSpace(kind, (n0, n1), (n0, n1))


def all_indices(dims):
    return list(itertools.product(*(range(e) for e in dims)))


def lookup_table(space):
    return {idx: space.lookup(idx) for idx in all_indices(space.dims)}


# -- worked examples ---------------------------------------------------------


def test_machine_space_dims(machine, single_node_machine):
    assert machine_space(machine, "GPU").dims == (2, 4)
    assert machine_space(single_node_machine, "GPU").dims == (1, 4)
    assert machine_space(base_model_8x8(), "GPU").dims == (8, 8)


def base_model_8x8():
    return default_machine(nodes=8, gpus=8)


def test_machine_without_kind_errors():
    model = default_machine()
    model.proc_counts["OMP"] = 0
    with pytest.raises(SpaceError, match="no processors of kind"):
        machine_space(model, "OMP")


def test_split_dims_and_lookup():
    s = base(8, 8).split(0, 2)
    assert s.dims == (2, 4, 8)
    assert s.lookup((1, 3, 5)) == ProcIndex(7, 5)  # 1 + 3*2 = 7


def test_full_extent_split():
    s = base(4, 4).split(1, 4)
    assert s.dims == (4, 4, 1)


def test_split_requires_divisor():
    with pytest.raises(SpaceError, match="does not divide extent"):
        base(8, 8).split(0, 3)


def test_merge_dims_and_step_rule():
    s = base(8, 8).split(0, 2)
    m = s.merge(0, 1)
    assert m.dims == (8, 8)
    # The merge step itself sends (5, 3) to (5 % 2, 5 / 2, 3) = (1, 2, 3)
    # in the pre-merge space.
    step = m.chain[-1]
    assert isinstance(step, Merge)
    assert step.to_parent_array(np.array([[5, 3]])).tolist() == [[1, 2, 3]]


def test_merge_requires_ordered_dims():
    with pytest.raises(SpaceError, match="requires p < q"):
        base(8, 8).split(0, 2).merge(1, 0)


def test_merge_of_2x2_brute_force():
    s = base(2, 2).merge(0, 1)
    assert s.dims == (4,)
    assert s.lookup((3,)) == ProcIndex(1, 1)
    # every merged index maps back to a distinct base pair
    assert sorted(lookup_table(s).values(),
                  key=lambda p: (p.node, p.local)) == [
        ProcIndex(0, 0), ProcIndex(0, 1), ProcIndex(1, 0), ProcIndex(1, 1)]


def test_split_then_merge_is_identity():
    s = base(8, 8).split(0, 2).merge(0, 1)
    for idx in all_indices((8, 8)):
        assert s.lookup(idx) == ProcIndex(*idx)


def test_swap_exchanges_extents_and_indices():
    s = base(2, 4).swap(0, 1)
    assert s.dims == (4, 2)
    assert s.lookup((3, 1)) == ProcIndex(1, 3)


def test_swap_twice_is_identity():
    s = base(2, 4).swap(0, 1).swap(0, 1)
    for idx in all_indices((2, 4)):
        assert s.lookup(idx) == ProcIndex(*idx)


def test_slice_extent_and_shift():
    s = base(8, 8).slice(0, 2, 5)
    assert s.dims == (4, 8)
    for j in range(8):
        assert s.lookup((0, j)) == ProcIndex(2, j)


def test_full_slice_is_identity():
    s = base(8, 8).slice(0, 0, 7)
    for idx in all_indices((8, 8)):
        assert s.lookup(idx) == ProcIndex(*idx)


def test_slice_bounds_checked():
    with pytest.raises(SpaceError, match="slice bounds out of range"):
        base(8, 8).slice(0, 3, 8)


def test_out_of_bound_lookup_message():
    with pytest.raises(SpaceError, match="Slice processor index out of bound"):
        base(8, 8).lookup((8, 0))


def test_decompose_even_shapes():
    s = base(8, 8).decompose(0, (2, 2, 2))
    assert s.dims == (2, 2, 2, 8)
    # decompose is a chain of splits, so index semantics follow split rules
    assert s.lookup((1, 1, 1, 0)) == ProcIndex(1 + 1 * 2 + 1 * 4, 0)


def test_decompose_uneven_rejected():
    with pytest.raises(SpaceError, match="does not evenly divide"):
        base(2, 4).decompose(0, (1, 1, 1))


def test_index_of_inverts_lookup():
    for s in (base(8, 8).split(0, 2).swap(1, 2),
              base(8, 8).merge(0, 1).slice(0, 5, 40),
              base(8, 4).split(1, 2).merge(0, 2).slice(0, 3, 12).swap(0, 1)):
        for idx in all_indices(s.dims):
            assert s.index_of(s.lookup(idx)) == idx


def test_index_of_outside_slice_errors():
    s = base(8, 8).slice(0, 2, 5)
    with pytest.raises(SpaceError, match="outside the slice"):
        s.index_of(ProcIndex(0, 0))


def test_lookup_all_matches_scalar_lookup():
    s = base(8, 4).split(1, 2).merge(0, 2).swap(0, 1)
    indices = np.array(all_indices(s.dims))
    bulk = s.lookup_all(indices)
    for row, idx in zip(bulk, all_indices(s.dims)):
        assert ProcIndex(int(row[0]), int(row[1])) == s.lookup(idx)


# -- properties over random chains -------------------------------------------

EXTENTS = (1, 2, 4, 8)


def _apply_random_ops(space, rng_choices):
    for pick in rng_choices:
        ops = _valid_ops(space.dims)
        kind, args = ops[pick % len(ops)]
        space = getattr(space, kind)(*args)
    return space


def _valid_ops(dims):
    ops = []
    for i, e in enumerate(dims):
        for d in (1, 2, 4, 8):
            if e % d == 0:
                ops.append(("split", (i, d)))
    for p in range(len(dims)):
        for q in range(p + 1, len(dims)):
            ops.append(("merge", (p, q)))
            ops.append(("swap", (p, q)))
    return ops


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(EXTENTS), st.sampled_from(EXTENTS),
       st.lists(st.integers(0, 10 ** 6), max_size=4))
def test_bijection_over_split_merge_swap_chains(n0, n1, picks):
    space = _apply_random_ops(base(n0, n1), picks)
    assert math.prod(space.dims) == n0 * n1  # processor-count conservation
    seen = {space.lookup(idx) for idx in all_indices(space.dims)}
    assert len(seen) == n0 * n1
    assert seen == {ProcIndex(a, b) for a in range(n0) for b in range(n1)}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(EXTENTS), st.sampled_from(EXTENTS),
       st.data())
def test_slice_is_injective_with_exact_image(n0, n1, data):
    space = base(n0, n1)
    dim = data.draw(st.integers(0, 1))
    low = data.draw(st.integers(0, space.dims[dim] - 1))
    high = data.draw(st.integers(low, space.dims[dim] - 1))
    sliced = space.slice(dim, low, high)
    values = [sliced.lookup(idx) for idx in all_indices(sliced.dims)]
    assert len(set(values)) == len(values)
    image = {(p.node, p.local) for p in values}
    expected = {idx for idx in all_indices((n0, n1)) if low <= idx[dim] <= high}
    assert image == expected


def test_split_merge_inverse_for_all_factor_choices():
    for n0, n1 in itertools.product(EXTENTS, EXTENTS):
        for i in (0, 1):
            extent = (n0, n1)[i]
            for d in (x for x in EXTENTS if extent % x == 0):
                chain = base(n0, n1).split(i, d).merge(i, i + 1)
                assert all(chain.lookup(idx) == ProcIndex(*idx)
                           for idx in all_indices((n0, n1)))
