import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdlp.config import load_canonical_model
from cdlp.errors import DimensionError, FormatError
from cdlp.model import LAYOUT_COLUMNS, LAYOUT_ROWS, LayerSpec, LayerWeights, ModelSpec, WeightStore
from cdlp.planner import THIN_ROWS, plan_branched, plan_layered, plan_sublayer
from cdlp.weights import (
    HEADER_BYTES,
    layer_blob,
    load_weights,
    partition_weights,
    serialize_weights,
    split_weights,
)

from support import merge_blobs, random_case, random_weight_store

CAP = 7 * 2**20


def test_empty_model_serializes_to_header_only():
    data = serialize_weights(WeightStore([]))
    assert len(data) == HEADER_BYTES == 16
    model = ModelSpec([], (1, 1, 1))
    assert load_weights(data, model).layers == []


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_round_trip_is_bitwise(seed):
    model, store, _ = random_case(seed)
    loaded = load_weights(serialize_weights(store), model)
    for a, b in zip(store.layers, loaded.layers):
        if a is None:
            assert b is None
            continue
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.biases.tobytes() == b.biases.tobytes()


def test_layer_weights_are_stored_column_major():
    rng = np.random.default_rng(9)
    c_order = rng.standard_normal((5, 7)).astype(np.float32)
    lw = LayerWeights(c_order, np.zeros(5, np.float32))
    assert lw.weights.flags.f_contiguous
    assert np.array_equal(lw.weights, c_order)
    model, store, _ = random_case(9)
    loaded = load_weights(serialize_weights(store), model)
    assert all(lw is None or lw.weights.flags.f_contiguous for lw in loaded.layers)


def test_weights_file_stays_row_major():
    """The file is unchanged by the column-major memory layout."""
    model = ModelSpec(
        [LayerSpec.connected(3, "relu"), LayerSpec.connected(2, "linear")], (4, 1, 1)
    )
    rng = np.random.default_rng(10)
    arrays = [
        (rng.standard_normal((3, 4)).astype(np.float32), rng.standard_normal(3).astype(np.float32)),
        (rng.standard_normal((2, 3)).astype(np.float32), rng.standard_normal(2).astype(np.float32)),
    ]
    expect = struct.pack("<4I", 0, 2, 0, 0)
    for w, b in arrays:
        assert w.flags.c_contiguous
        expect += b.tobytes() + w.tobytes()
    store = WeightStore([LayerWeights(w, b) for w, b in arrays])
    assert serialize_weights(store) == expect
    assert serialize_weights(load_weights(expect, model)) == expect


def test_truncated_by_one_byte():
    model, store, _ = random_case(1)
    data = serialize_weights(store)
    with pytest.raises(FormatError, match="truncated"):
        load_weights(data[:-1], model)


def test_trailing_bytes():
    model, store, _ = random_case(2)
    with pytest.raises(FormatError, match="trailing"):
        load_weights(serialize_weights(store) + b"\x00", model)


def test_bad_version():
    model, store, _ = random_case(3)
    data = bytearray(serialize_weights(store))
    data[4] = 9
    with pytest.raises(FormatError, match="version"):
        load_weights(bytes(data), model)


def test_single_partition_blob_equals_layer_section():
    """A whole-layer blob is the layer's biases, then its weights column by
    column, or row by row, as the file holds them, for a thin connected layer."""
    for rows, layout in ((THIN_ROWS + 1, LAYOUT_COLUMNS), (3, LAYOUT_ROWS)):
        model = ModelSpec([LayerSpec.connected(rows, "linear")], (4, 1, 1))
        store = random_weight_store(model, np.random.default_rng(4))
        plan = plan_layered(model, CAP)
        blobs = split_weights(store, plan)
        assert len(blobs) == 1 and plan.partitions[0].layout == layout
        lw = store.layers[0]
        weights = lw.weights if layout == LAYOUT_ROWS else lw.weights.T
        assert blobs[0] == lw.biases.tobytes() + weights.tobytes()
        if layout == LAYOUT_ROWS:
            assert blobs[0] == serialize_weights(store)[HEADER_BYTES:]


def test_sublayer_blobs_are_disjoint_row_ranges():
    model = ModelSpec([LayerSpec.connected(4, "linear")], (3, 1, 1))
    store = random_weight_store(model, np.random.default_rng(5))
    plan = plan_sublayer(model, CAP, subset_size=2)
    blobs = split_weights(store, plan)
    assert len(blobs) == 2
    assert blobs[0] != blobs[1]
    merged = merge_blobs(model, plan, dict(zip((p.id for p in plan.partitions), blobs)))
    assert merged.layers[0].weights.tobytes() == store.layers[0].weights.tobytes()
    assert merged.layers[0].biases.tobytes() == store.layers[0].biases.tobytes()


@given(seed=st.integers(0, 10_000), scheme=st.sampled_from(["layered", "sublayer", "branched"]))
@settings(max_examples=40, deadline=None)
def test_split_is_an_exact_cover(seed, scheme):
    model, store, _ = random_case(seed)
    if scheme == "layered":
        plan = plan_layered(model, CAP)
    elif scheme == "sublayer":
        plan = plan_sublayer(model, CAP, subset_size={i: max(1, model.units(i) // 3)
                                                      for i in range(len(model.layers))
                                                      if model.is_parameterized(i)})
    else:
        plan = plan_branched(model, CAP)
    blobs = split_weights(store, plan)
    total = sum(len(b) for b in blobs)
    assert total == len(serialize_weights(store)) - HEADER_BYTES
    merged = merge_blobs(model, plan, dict(zip((p.id for p in plan.partitions), blobs)))
    for a, b in zip(store.layers, merged.layers):
        if a is None:
            assert b is None
        else:
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.biases.tobytes() == b.biases.tobytes()


def test_branched_blobs_hold_single_branch_rows():
    model, store, _ = random_case(6)
    plan = plan_branched(model, CAP)
    k = model.branch.branch_count
    first_branched = model.branch.branch_layer_index
    parts = [p for p in plan.partitions if p.layer_index == first_branched]
    assert len(parts) == k
    blobs = split_weights(store, plan)
    for p in parts:
        assert blobs[p.id] == layer_blob(store, first_branched, p.start, p.end, p.layout)


def test_canonical_model_weights_round_trip():
    model = load_canonical_model()
    store = random_weight_store(model, np.random.default_rng(7))
    loaded = load_weights(serialize_weights(store), model)
    assert serialize_weights(loaded) == serialize_weights(store)


def test_partition_weights_are_read_only_views_of_the_blob():
    model, store, _ = random_case(8)
    plan = plan_sublayer(model, CAP, subset_size={i: max(1, model.units(i) // 3)
                                                  for i in range(len(model.layers))
                                                  if model.is_parameterized(i)})
    assert {p.layout for p in plan.partitions} == {LAYOUT_ROWS, LAYOUT_COLUMNS}
    blobs = split_weights(store, plan)
    for p, blob in zip(plan.partitions, blobs):
        if not model.is_parameterized(p.layer_index):
            continue
        for source in (blob, bytearray(blob)):  # normal-world bytes, or a mutable buffer
            rows = partition_weights(model, p.layer_index, p.start, p.end, source, p.layout)
            raw = np.frombuffer(source, np.uint8)
            assert rows.layout == p.layout
            if p.layout == LAYOUT_ROWS:
                assert rows.weights.flags.c_contiguous
            else:
                assert rows.weights.flags.f_contiguous
            for array in (rows.weights, rows.biases):
                assert np.shares_memory(array, raw)
                assert not array.flags.writeable
    # merging copies the views into a fresh, writable store equal to the original
    merged = merge_blobs(model, plan, dict(zip((p.id for p in plan.partitions), blobs)))
    for original, lw in zip(store.layers, merged.layers):
        if original is None:
            continue
        assert lw.weights.flags.writeable and lw.biases.flags.writeable
        assert lw.weights.tobytes() == original.weights.tobytes()
        assert lw.biases.tobytes() == original.biases.tobytes()


# --- every weights-file and blob error no other test reaches, with its message ---

FC_SOFTMAX = ModelSpec([LayerSpec.connected(2, "linear"), LayerSpec.softmax()], (3, 1, 1))
FC_SOFTMAX_STORE = WeightStore([LayerWeights(np.zeros((2, 3)), np.zeros(2)), None])
WEIGHTS_ERRORS = {
    "short-file": (FormatError, lambda: load_weights(bytes(15), FC_SOFTMAX),
                   "weights file of 15 bytes has no header"),
    "blob-rows-outside": (DimensionError, lambda: layer_blob(FC_SOFTMAX_STORE, 0, 1, 3),
                          "rows [1, 3) outside layer of 2 rows"),
    "weightless-partition": (DimensionError, lambda: partition_weights(FC_SOFTMAX, 1, 0, 2, b""),
                             "layer 1 takes no weights"),
    "blob-length": (FormatError, lambda: partition_weights(FC_SOFTMAX, 0, 0, 2, bytes(31)),
                    "partition blob of 31 bytes, expected 32 for 2 rows of layer 0"),
}


@pytest.mark.parametrize("case", sorted(WEIGHTS_ERRORS))
def test_each_weights_error_has_its_message(case):
    error, call, message = WEIGHTS_ERRORS[case]
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
