"""Kernel tests against independently coded scalar oracles."""

import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdlp import nn
from cdlp.errors import DimensionError, RangeError
from cdlp.model import LAYOUT_COLUMNS, LAYOUT_ROWS, BranchTopology, LayerSpec, LayerWeights
from cdlp.model import ModelSpec, Tensor, WeightStore
from cdlp.nn import (
    DenseAccumulator,
    connected_forward_rows,
    conv_forward_subset,
    maxpool_forward,
    reference_forward,
    softmax_forward,
)

from cdlp.weights import layer_blob, partition_weights

from support import random_case, random_tensor, random_weight_store

f32 = np.float32


# --- naive oracles, written without reference to cdlp.nn internals ---

def dense_oracle(x, w, b, activation):
    """Scalar triple loop: ascending-index accumulation, bias, activation."""
    n_out, n_in = w.shape
    out = np.empty(n_out, f32)
    for j in range(n_out):
        acc = f32(0.0)
        for i in range(n_in):
            acc = f32(acc + f32(w[j, i] * x[i]))
        v = f32(acc + b[j])
        if activation == "relu":
            v = v if v > f32(0.0) else f32(0.0)
        out[j] = v
    return out


def conv_oracle(x3, w, b, kernel, stride, pad, activation):
    """Six nested loops over an explicitly padded input."""
    c, h, wd = x3.shape
    filters = w.shape[0]
    padded = np.zeros((c, h + 2 * pad, wd + 2 * pad), f32)
    padded[:, pad : pad + h, pad : pad + wd] = x3
    oh = (h + 2 * pad - kernel) // stride + 1
    ow = (wd + 2 * pad - kernel) // stride + 1
    out = np.empty((filters, oh, ow), f32)
    for f in range(filters):
        for oy in range(oh):
            for ox in range(ow):
                acc = f32(0.0)
                col = 0
                for ci in range(c):
                    for ky in range(kernel):
                        for kx in range(kernel):
                            acc = f32(acc + f32(w[f, col] * padded[ci, oy * stride + ky, ox * stride + kx]))
                            col += 1
                v = f32(acc + b[f])
                if activation == "relu":
                    v = v if v > f32(0.0) else f32(0.0)
                out[f, oy, ox] = v
    return out


def grouped_oracle(x, w, b, groups, activation):
    """dense_oracle per branch group: group g's rows read x's g-th slice."""
    rows, cols = w.shape[0] // groups, w.shape[1]
    return np.concatenate([
        dense_oracle(x[g * cols : (g + 1) * cols], w[g * rows : (g + 1) * rows],
                     b[g * rows : (g + 1) * rows], activation)
        for g in range(groups)
    ])


def pool_oracle(x3, size, stride):
    c, h, w = x3.shape
    oh = (h - size) // stride + 1
    ow = (w - size) // stride + 1
    out = np.empty((c, oh, ow), f32)
    for ci in range(c):
        for oy in range(oh):
            for ox in range(ow):
                best = x3[ci, oy * stride, ox * stride]
                for ky in range(size):
                    for kx in range(size):
                        v = x3[ci, oy * stride + ky, ox * stride + kx]
                        if v > best:
                            best = v
                out[ci, oy, ox] = best
    return out


def bitwise_equal(a: Tensor, b: Tensor) -> bool:
    return a.dims == b.dims and a.data.tobytes() == b.data.tobytes()


def rows_of(w: LayerWeights, start: int, count: int) -> LayerWeights:
    """The row slice [start, start+count) of a layer's weights."""
    return LayerWeights(w.weights[start : start + count], w.biases[start : start + count])


# --- connected ---

def test_connected_identity_weights():
    spec = LayerSpec.connected(2, "linear")
    w = LayerWeights(np.eye(2, dtype=f32), np.zeros(2, f32))
    out = connected_forward_rows(Tensor((2,), [1, 2]), w, spec)
    assert out.data.tolist() == [1.0, 2.0]


def test_connected_zero_weights_expose_bias():
    spec = LayerSpec.connected(1, "linear")
    w = LayerWeights(np.zeros((1, 3), f32), np.array([5], f32))
    out = connected_forward_rows(Tensor((3,), [1, 1, 1]), w, spec)
    assert out.data.tolist() == [5.0]


def test_connected_matches_scalar_oracle_bitwise():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(7).astype(f32)
    w = rng.standard_normal((3, 7)).astype(f32)
    b = rng.standard_normal(3).astype(f32)
    spec = LayerSpec.connected(3, "relu")
    got = connected_forward_rows(Tensor((7,), x), LayerWeights(w, b), spec)
    assert got.data.tobytes() == dense_oracle(x, w, b, "relu").tobytes()


def test_connected_shape_mismatch():
    spec = LayerSpec.connected(2, "linear")
    w = LayerWeights(np.zeros((2, 3), f32), np.zeros(2, f32))
    with pytest.raises(DimensionError):
        connected_forward_rows(Tensor((4,), np.zeros(4, f32)), w, spec)


def test_subset_full_range_equals_whole():
    rng = np.random.default_rng(8)
    spec = LayerSpec.connected(5, "relu")
    w = LayerWeights(rng.standard_normal((5, 6)).astype(f32), rng.standard_normal(5).astype(f32))
    x = random_tensor(rng, (6,))
    assert bitwise_equal(
        connected_forward_rows(x, rows_of(w, 0, 5), spec, 0), connected_forward_rows(x, w, spec)
    )


def test_subset_halves_concatenate_to_whole():
    rng = np.random.default_rng(9)
    spec = LayerSpec.connected(4, "linear")
    w = LayerWeights(rng.standard_normal((4, 5)).astype(f32), rng.standard_normal(4).astype(f32))
    x = random_tensor(rng, (5,))
    lo = connected_forward_rows(x, rows_of(w, 0, 2), spec, 0)
    hi = connected_forward_rows(x, rows_of(w, 2, 2), spec, 2)
    whole = connected_forward_rows(x, w, spec)
    assert np.concatenate([lo.data, hi.data]).tobytes() == whole.data.tobytes()


def test_subset_empty_is_allowed():
    spec = LayerSpec.connected(3, "linear")
    w = LayerWeights(np.zeros((3, 2), f32), np.zeros(3, f32))
    out = connected_forward_rows(Tensor((2,), [1, 2]), rows_of(w, 1, 0), spec, 1)
    assert out.size == 0


def test_subset_out_of_range():
    spec = LayerSpec.connected(3, "linear")
    w = LayerWeights(np.zeros((3, 2), f32), np.zeros(3, f32))
    with pytest.raises(RangeError):
        connected_forward_rows(Tensor((2,), [1, 2]), rows_of(w, 0, 2), spec, 2)


def test_weight_rows_past_the_layer_are_out_of_range():
    """The kernel reads the layer's size from its spec: three weight rows
    reach past a two-neuron layer."""
    spec = LayerSpec.connected(2, "linear")
    w = LayerWeights(np.zeros((3, 2), f32), np.zeros(3, f32))
    with pytest.raises(RangeError, match=r"subset \[0, 3\) outside 2 neurons"):
        connected_forward_rows(Tensor((2,), [1, 2]), w, spec)
    with pytest.raises(RangeError, match=r"subset \[1, 3\) outside 2 neurons"):
        DenseAccumulator(rows_of(w, 0, 2), spec, 1)


@given(
    seed=st.integers(0, 10_000),
    n_in=st.integers(1, 24),
    n_out=st.integers(1, 24),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_subset_decomposition_property(seed, n_in, n_out, data):
    """Any contiguous partition of the neuron range concatenates bitwise."""
    cut_count = data.draw(st.integers(0, min(4, n_out - 1)))
    cuts = sorted(data.draw(st.sets(st.integers(1, n_out - 1), min_size=cut_count, max_size=cut_count))) if n_out > 1 else []
    bounds = [0, *cuts, n_out]
    rng = np.random.default_rng(seed)
    spec = LayerSpec.connected(n_out, "relu")
    w = LayerWeights(rng.standard_normal((n_out, n_in)).astype(f32), rng.standard_normal(n_out).astype(f32))
    x = random_tensor(rng, (n_in,))
    pieces = [
        connected_forward_rows(x, rows_of(w, a, b - a), spec, a).data
        for a, b in zip(bounds, bounds[1:])
    ]
    assert np.concatenate(pieces).tobytes() == connected_forward_rows(x, w, spec).data.tobytes()


def test_streaming_accumulator_matches_resident():
    rng = np.random.default_rng(10)
    spec = LayerSpec.connected(6, "relu")
    w = LayerWeights(rng.standard_normal((6, 11)).astype(f32), rng.standard_normal(6).astype(f32))
    x = random_tensor(rng, (11,))
    acc = DenseAccumulator(rows_of(w, 1, 4), spec, 1)
    acc.feed(x.data[0:5], 0)
    acc.feed(x.data[5:9], 5)
    acc.feed(x.data[9:11], 9)
    assert bitwise_equal(acc.finish(), connected_forward_rows(x, rows_of(w, 1, 4), spec, 1))


def test_streaming_accumulator_rejects_gaps():
    spec = LayerSpec.connected(2, "linear")
    w = LayerWeights(np.zeros((2, 4), f32), np.zeros(2, f32))
    acc = DenseAccumulator(w, spec)
    with pytest.raises(DimensionError):
        acc.feed(np.zeros(2, f32), 1)


def test_branched_layer_streaming_matches_resident():
    rng = np.random.default_rng(11)
    spec = LayerSpec.connected(8, "relu")
    w = LayerWeights(rng.standard_normal((8, 3)).astype(f32), rng.standard_normal(8).astype(f32))
    x = random_tensor(rng, (6,))  # 2 groups of 3 inputs
    whole = connected_forward_rows(x, w, spec, groups=2)
    acc = DenseAccumulator(rows_of(w, 2, 5), spec, 2, groups=2)  # subset spans both groups
    acc.feed(x.data[0:4], 0)
    acc.feed(x.data[4:6], 4)
    assert acc.finish().data.tobytes() == whole.data[2:7].tobytes()


def test_single_neuron_subset_matches_oracle():
    # a reduce over one value per row would sum pairwise, not in order
    rng = np.random.default_rng(20)
    spec = LayerSpec.connected(3, "linear")
    w = rng.standard_normal((3, 500)).astype(f32)
    b = rng.standard_normal(3).astype(f32)
    x = rng.standard_normal(500).astype(f32)
    expect = dense_oracle(x, w, b, "linear")
    got = connected_forward_rows(Tensor((500,), x), rows_of(LayerWeights(w, b), 1, 1), spec, 1)
    assert got.data.tobytes() == expect[1:2].tobytes()
    acc = DenseAccumulator(rows_of(LayerWeights(w, b), 2, 1), spec, 2)
    acc.feed(x[:333], 0)
    acc.feed(x[333:], 333)
    assert acc.finish().data.tobytes() == expect[2:3].tobytes()


def test_empty_subsets_yield_empty_outputs():
    spec = LayerSpec.connected(3, "relu")
    w = LayerWeights(np.ones((3, 4), f32), np.ones(3, f32))
    acc = DenseAccumulator(rows_of(w, 3, 0), spec, 3)
    acc.feed(np.ones(4, f32), 0)
    assert acc.finish().size == 0
    conv = LayerSpec.convolutional(2, 3, 1, 1, "relu")
    cw = LayerWeights(np.ones((2, 9), f32), np.ones(2, f32))
    out = conv_forward_subset(Tensor((1, 4, 4), np.ones(16, f32)), rows_of(cw, 1, 0), conv)
    assert out.dims == (0, 4, 4) and out.size == 0


def test_negative_zero_products_keep_the_oracle_sign():
    spec = LayerSpec.connected(2, "linear")
    w = np.array([[-0.0, 0.0, -0.0], [-0.0, -0.0, -0.0]], f32)
    x = np.array([1.0, -2.0, 3.0], f32)
    b = np.zeros(2, f32)
    expect = dense_oracle(x, w, b, "linear")
    got = connected_forward_rows(Tensor((3,), x), LayerWeights(w, b), spec)
    assert got.data.tobytes() == expect.tobytes()
    acc = DenseAccumulator(LayerWeights(w, b), spec)
    acc.feed(x, 0)
    assert acc.finish().data.tobytes() == expect.tobytes()
    x3 = np.array([[[1.0, -0.0], [-3.0, 0.0]]], f32)
    cw = np.array([[-0.0, -0.0, -0.0, -0.0]], f32)
    conv = LayerSpec.convolutional(1, 2, 1, 0, "linear")
    got = conv_forward_subset(
        Tensor((1, 2, 2), x3.reshape(-1)), LayerWeights(cw, np.zeros(1, f32)), conv
    )
    assert got.data.tobytes() == conv_oracle(x3, cw, np.zeros(1, f32), 2, 1, 0, "linear").tobytes()


def test_group_count_must_divide_the_layer():
    spec = LayerSpec.connected(3, "linear")
    w = LayerWeights(np.ones((3, 2), f32), np.zeros(3, f32))
    with pytest.raises(DimensionError):
        DenseAccumulator(w, spec, 0, groups=2)
    with pytest.raises(DimensionError):
        connected_forward_rows(Tensor((4,), np.ones(4, f32)), w, spec, 0, groups=2)


@given(
    seed=st.integers(0, 10_000),
    groups=st.integers(2, 4),
    cols=st.integers(1, 9),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_grouped_streaming_chunks_match_oracle(seed, groups, cols, data):
    """Chunks of any length, straddling group boundaries or not."""
    per_group = data.draw(st.integers(1, 4))
    total = per_group * groups
    start = data.draw(st.integers(0, total - 1))
    count = data.draw(st.integers(0, total - start))
    rng = np.random.default_rng(seed)
    spec = LayerSpec.connected(total, "relu")
    w = rng.standard_normal((total, cols)).astype(f32)
    b = rng.standard_normal(total).astype(f32)
    x = rng.standard_normal(cols * groups).astype(f32)
    acc = DenseAccumulator(rows_of(LayerWeights(w, b), start, count), spec, start, groups=groups)
    base = 0
    while base < x.size:
        step = data.draw(st.integers(1, x.size - base))
        acc.feed(x[base : base + step], base)
        base += step
    expect = grouped_oracle(x, w, b, groups, "relu")[start : start + count]
    assert acc.finish().data.tobytes() == expect.tobytes()


@pytest.mark.parametrize(
    "rows, cols",
    [(1, nn._BLOCK_FLOATS + 7), (2, nn._BLOCK_FLOATS // 2 + 7), (nn._BLOCK_FLOATS + 3, 2)],
)
def test_layers_beyond_one_scratch_block_match_oracle(rows, cols):
    rng = np.random.default_rng(rows + cols)
    spec = LayerSpec.connected(rows, "linear")
    w = rng.standard_normal((rows, cols)).astype(f32)
    b = rng.standard_normal(rows).astype(f32)
    x = rng.standard_normal(cols).astype(f32)
    got = connected_forward_rows(Tensor((cols,), x), LayerWeights(w, b), spec)
    assert got.data.tobytes() == dense_oracle(x, w, b, "linear").tobytes()


# --- long weight rows: column-major storage keeps each term block contiguous ---

@functools.cache
def long_rows_case():
    """A 256x2048 layer (8 KiB rows), its input and its oracle output."""
    rng = np.random.default_rng(2048)
    w = rng.standard_normal((256, 2048)).astype(f32)
    b = rng.standard_normal(256).astype(f32)
    x = rng.standard_normal(2048).astype(f32)
    rows = LayerWeights(w, b)
    assert rows.layout == LAYOUT_COLUMNS and rows.weights.flags.f_contiguous
    return rows, x, dense_oracle(x, w, b, "relu")


@pytest.mark.parametrize("start, count", [(0, 256), (0, 65), (3, 130)])
def test_long_rows_match_oracle(start, count):
    w, x, expect = long_rows_case()
    spec = LayerSpec.connected(256, "relu")
    got = connected_forward_rows(Tensor((2048,), x), rows_of(w, start, count), spec, start)
    assert got.data.tobytes() == expect[start : start + count].tobytes()


def test_long_rows_streamed_across_tile_and_block_edges():
    w, x, expect = long_rows_case()
    spec = LayerSpec.connected(256, "relu")
    start, count = 31, 130
    block = nn._BLOCK_FLOATS // count - 1
    acc = DenseAccumulator(rows_of(w, start, count), spec, start)
    # chunks of 1 value, cut one before and one after block edges, and a tail
    cuts = [0, 1, block - 1, block + 1, 2 * block + 1, 1500, 2047, 2048]
    for lo, hi in zip(cuts, cuts[1:]):
        acc.feed(x[lo:hi], lo)
    assert acc.finish().data.tobytes() == expect[start : start + count].tobytes()


def test_grouped_long_rows_match_oracle():
    rng = np.random.default_rng(1100)
    groups, total, cols = 2, 80, 1100
    spec = LayerSpec.connected(total, "relu")
    w = rng.standard_normal((total, cols)).astype(f32)
    b = rng.standard_normal(total).astype(f32)
    x = rng.standard_normal(cols * groups).astype(f32)
    rows = LayerWeights(w, b)
    assert rows.layout == LAYOUT_COLUMNS and rows.weights.flags.f_contiguous
    expect = grouped_oracle(x, w, b, groups, "relu")
    whole = connected_forward_rows(Tensor((x.size,), x), rows, spec, groups=groups)
    assert whole.data.tobytes() == expect.tobytes()
    # rows 25..64 span both groups; chunks straddle the group edge at 1100
    acc = DenseAccumulator(rows_of(rows, 25, 40), spec, 25, groups=groups)
    for lo, hi in zip([0, 700, 1101, 1600], [700, 1101, 1600, 2200]):
        acc.feed(x[lo:hi], lo)
    assert acc.finish().data.tobytes() == expect[25:65].tobytes()


@pytest.mark.parametrize(
    "shape, rows, cols, rest",
    [
        ((256, 2048), slice(None), slice(None), ()),
        ((80, 1100), slice(25, 40), slice(300, 1100), ()),  # one group's rows and inputs
        ((16, 150), slice(None), slice(None), (100,)),  # im2col patch rows
    ],
    ids=["connected", "grouped", "conv"],
)
def test_accumulate_gives_the_same_bits_for_c_and_f_ordered_weights(shape, rows, cols, rest):
    rng = np.random.default_rng(sum(shape))
    w = rng.standard_normal(shape).astype(f32)
    c_order = np.ascontiguousarray(w)[rows, cols]
    f_order = np.asfortranarray(w)[rows, cols]
    x = rng.standard_normal((c_order.shape[1], *rest)).astype(f32)
    acc = rng.standard_normal((c_order.shape[0], *rest)).astype(f32)
    got_c = nn._accumulate(acc.copy(), c_order, x)
    got_f = nn._accumulate(acc.copy(), f_order, x)
    assert got_c.tobytes() == got_f.tobytes()


def accumulate_oracle(acc, w, x):
    """Scalar loop: each element of ``acc`` adds w[r, i] * x[i, q] for i ascending."""
    rows, n = w.shape
    xs = x.reshape(n, -1)
    out = acc.reshape(rows, -1).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(rows):
            for q in range(out.shape[1]):
                v = out[r, q]
                for i in range(n):
                    v = f32(v + f32(w[r, i] * xs[i, q]))
                out[r, q] = v
    return out.reshape(acc.shape)


def special_terms(kind, rows, n, rest):
    """``acc``, ``w`` and ``x`` whose terms hold signed zeros, inf * 0 or
    overflowing products in some rows, with finite terms in the others."""
    rng = np.random.default_rng(rows * n)
    w = rng.standard_normal((rows, n)).astype(f32)
    x = rng.standard_normal((n, *rest)).astype(f32)
    acc = rng.standard_normal((rows, *rest)).astype(f32)
    flat = x.reshape(n, -1)
    if kind == "signed-zero":  # even rows: +0.0, where every kernel starts, plus -0.0 products
        acc[0::2] = 0.0
        w[0::2] = -0.0
        np.abs(x, out=x)
        flat[::3] = 0.0
    elif kind == "negative-zero":  # an acc of -0.0 and every term -0.0: each sum stays -0.0
        acc[...] = -0.0
        w[...] = -0.0
        np.abs(x, out=x)
    elif kind == "inf-times-zero":  # even rows turn NaN at the zero inputs
        flat[0, 0::2] = 0.0
        flat[0, 1::2] = -0.0
        w[0::2, 0] = np.inf
        w[0::4, -1] = -np.inf
        flat[-1] = -0.0
    else:  # products past float32's range: +inf, -inf, and inf - inf in later rows
        flat[n // 2] = 1e3
        w[0::3, n // 2] = 3e38
        w[1::3, n // 2] = -3e38
        w[0::3, -1] = -3e38
    return acc, w, x


_EDGE = nn._BLOCK_FLOATS // 2


@pytest.mark.parametrize("kind", ["signed-zero", "negative-zero", "inf-times-zero", "overflow"])
@pytest.mark.parametrize(
    "rows, n, rest",
    [
        (4, 12, (6,)),  # a conv's filters over its output pixels: m > rows
        (6, 20, ()),  # a connected layer's rows
        (1, 30, ()),  # one sum: m == 1
        (1, 9, (1,)),  # one filter, one output pixel: m == 1
        (2, 5, (_EDGE // 4,)),  # blocks of 3 terms
        (2, _EDGE + 2, ()),  # blocks of _EDGE - 1 terms
        (1, nn._BLOCK_FLOATS + 1, ()),  # blocks of _BLOCK_FLOATS - 1 terms
        (16, 1024, ()),  # spill-stream's streamed block: 16 rows over a 1 024-value chunk
    ],
    ids=["conv", "connected", "one-sum", "one-pixel", "conv-edge", "connected-edge", "one-sum-edge",
         "spill-block"],
)
def test_accumulate_matches_scalar_loop_on_special_values(kind, rows, n, rest):
    acc, w, x = special_terms(kind, rows, n, rest)
    expect = accumulate_oracle(acc, w, x).tobytes()
    # column-major weights; a connected layer's row-major ones too
    layouts = [np.asfortranarray(w)] + ([] if rest else [np.ascontiguousarray(w)])
    for weights in layouts:
        with np.errstate(over="ignore", invalid="ignore"):
            got = nn._accumulate(acc.copy(), weights, x)
        assert got.tobytes() == expect


# --- row-major weights: a thin partition's block reduces along its rows ---

def row_major_rows(w, b):
    """A thin partition's weights as the executor sees them: views of its
    row-major blob."""
    model = ModelSpec([LayerSpec.connected(len(b), "linear")], (w.shape[1], 1, 1))
    store = WeightStore([LayerWeights(w, b)])
    blob = layer_blob(store, 0, 0, len(b), LAYOUT_ROWS)
    rows = partition_weights(model, 0, 0, len(b), blob, LAYOUT_ROWS)
    assert rows.layout == LAYOUT_ROWS and rows.weights.flags.c_contiguous
    assert np.shares_memory(rows.weights, np.frombuffer(blob, np.uint8))
    return rows


def test_row_major_reduce_adds_in_order_where_pairwise_would_not():
    """A trap for a reassociated reduce: one row whose sum in order is 2**24,
    as every later 1 rounds away, while numpy's pairwise float32 sum of the
    same terms keeps some of the ones."""
    n = 200
    x = np.ones(n, f32)
    x[0] = 2.0**24
    w = np.ones((1, n), f32)
    rows = row_major_rows(w, np.zeros(1, f32))
    assert f32(np.sum(w[0] * x)) != f32(2.0**24)  # the pairwise sum differs
    got = connected_forward_rows(Tensor((n,), x), rows, LayerSpec.connected(1, "linear"))
    assert got.data.tolist() == [2.0**24]
    assert got.data.tobytes() == dense_oracle(x, w, np.zeros(1, f32), "linear").tobytes()


def test_row_major_accumulator_streamed_across_block_edges():
    rng = np.random.default_rng(16)
    count = 16
    block = nn._BLOCK_FLOATS // count - 1
    n = 2 * block + 50
    w = rng.standard_normal((count, n)).astype(f32)
    b = rng.standard_normal(count).astype(f32)
    x = rng.standard_normal(n).astype(f32)
    x[::7] = 0.0
    x[3::7] = -0.0
    spec = LayerSpec.connected(count, "relu")
    rows = row_major_rows(w, b)
    expect = dense_oracle(x, w, b, "relu").tobytes()
    assert connected_forward_rows(Tensor((n,), x), rows, spec).data.tobytes() == expect
    acc = DenseAccumulator(rows, spec)
    # chunks cut one before and one after each block edge, and a tail
    cuts = [0, 1, block - 1, block + 1, 2 * block - 1, 2 * block + 1, n]
    for lo, hi in zip(cuts, cuts[1:]):
        acc.feed(x[lo:hi], lo)
    assert acc.finish().data.tobytes() == expect


@pytest.mark.parametrize("count, n", [(1, 30), (10, 24), (16, 1024), (3, nn._BLOCK_FLOATS + 5)])
def test_row_major_reduce_keeps_the_sign_of_zero_and_negative_zero_inputs(count, n):
    """Zero and -0.0 inputs, and rows whose every product is -0.0: both
    layouts and the scalar loop give the same bits."""
    rng = np.random.default_rng(count * n)
    w = rng.standard_normal((count, n)).astype(f32)
    w[0] = -np.abs(w[0])  # row 0: every product with a +0.0 input is -0.0
    x = np.abs(rng.standard_normal(n)).astype(f32)
    x[::2] = 0.0
    x[1::4] = -0.0
    acc = np.zeros(count, f32)
    acc[1::2] = -0.0
    row_major = nn._accumulate(acc.copy(), np.ascontiguousarray(w), x)
    column_major = nn._accumulate(acc.copy(), np.asfortranarray(w), x)
    assert row_major.tobytes() == column_major.tobytes() == accumulate_oracle(acc, w, x).tobytes()


def test_nan_weight_and_input_give_the_whole_layer_bits_in_pieces():
    """NaN bits are not fixed against the scalar oracle, but a layer split
    into row subsets or fed in chunks runs the same kernel as the whole."""
    rng = np.random.default_rng(26)
    nan_weight = np.array([0xFFC01234], np.uint32).view(f32)[0]  # negative, with a payload
    nan_input = np.array([0x7FC00042], np.uint32).view(f32)[0]
    spec = LayerSpec.connected(6, "linear")
    w = LayerWeights(rng.standard_normal((6, 40)).astype(f32), rng.standard_normal(6).astype(f32))
    w.weights[1, 2] = nan_weight
    x = random_tensor(rng, (40,))
    x.data[29] = nan_input
    whole = connected_forward_rows(x, w, spec).data
    assert np.isnan(whole).all()
    pieces = [connected_forward_rows(x, rows_of(w, lo, n), spec, lo).data
              for lo, n in ((0, 1), (1, 3), (4, 2))]
    assert np.concatenate(pieces).tobytes() == whole.tobytes()
    acc = DenseAccumulator(w, spec)
    for lo in range(0, 40, 10):
        acc.feed(x.data[lo : lo + 10], lo)
    assert acc.finish().data.tobytes() == whole.tobytes()

    conv = LayerSpec.convolutional(4, 3, 1, 1, "linear")
    cw = LayerWeights(rng.standard_normal((4, 18)).astype(f32), rng.standard_normal(4).astype(f32))
    cw.weights[2, 7] = nan_weight
    cx = random_tensor(rng, (2, 5, 5))
    cx.data[31] = nan_input
    whole = conv_forward_subset(cx, cw, conv).data
    assert np.isnan(whole).any() and not np.isnan(whole).all()
    pieces = [conv_forward_subset(cx, rows_of(cw, lo, n), conv).data for lo, n in ((0, 1), (1, 3))]
    assert np.concatenate(pieces).tobytes() == whole.tobytes()


# --- convolutional ---

def test_conv_identity_1x1_kernel():
    spec = LayerSpec.convolutional(1, 1, 1, 0, "linear")
    w = LayerWeights(np.ones((1, 1), f32), np.zeros(1, f32))
    x = Tensor((1, 3, 3), np.ones(9, f32))
    out = conv_forward_subset(x, w, spec)
    assert out.dims == (1, 3, 3)
    assert out.data.tolist() == [1.0] * 9


def test_conv_single_window_is_dot_product():
    rng = np.random.default_rng(12)
    spec = LayerSpec.convolutional(1, 2, 1, 0, "linear")
    x = random_tensor(rng, (1, 2, 2))
    w = LayerWeights(rng.standard_normal((1, 4)).astype(f32), np.array([0.25], f32))
    out = conv_forward_subset(x, w, spec)
    expect = dense_oracle(x.data, w.weights, w.biases, "linear")
    assert out.dims == (1, 1, 1)
    assert out.data.tobytes() == expect.tobytes()


def test_conv_matches_naive_loop_oracle_bitwise():
    rng = np.random.default_rng(13)
    x = random_tensor(rng, (3, 8, 8))
    w = rng.standard_normal((4, 3 * 3 * 3)).astype(f32)
    b = rng.standard_normal(4).astype(f32)
    spec = LayerSpec.convolutional(4, 3, 1, 1, "relu")
    got = conv_forward_subset(x, LayerWeights(w, b), spec)
    expect = conv_oracle(x.as_map(), w, b, 3, 1, 1, "relu")
    assert got.dims == (4, 8, 8)
    assert got.data.tobytes() == expect.tobytes()


def test_conv_strided_matches_oracle():
    rng = np.random.default_rng(14)
    x = random_tensor(rng, (2, 7, 7))
    w = rng.standard_normal((3, 2 * 3 * 3)).astype(f32)
    b = rng.standard_normal(3).astype(f32)
    spec = LayerSpec.convolutional(3, 3, 2, 0, "linear")
    got = conv_forward_subset(x, LayerWeights(w, b), spec)
    expect = conv_oracle(x.as_map(), w, b, 3, 2, 0, "linear")
    assert got.dims == expect.shape
    assert got.data.tobytes() == expect.tobytes()


def test_one_filter_conv_with_one_output_pixel_matches_oracle():
    # one filter, 1x1 output: a single row to sum, the pairwise trap
    spec = LayerSpec.convolutional(1, 5, 1, 0, "linear")
    for seed in range(21, 27):
        rng = np.random.default_rng(seed)
        x = random_tensor(rng, (4, 5, 5))
        w = rng.standard_normal((1, 4 * 5 * 5)).astype(f32)
        b = rng.standard_normal(1).astype(f32)
        got = conv_forward_subset(x, LayerWeights(w, b), spec)
        assert got.dims == (1, 1, 1)
        assert got.data.tobytes() == conv_oracle(x.as_map(), w, b, 5, 1, 0, "linear").tobytes()


def test_conv_filter_subsets_concatenate_to_whole():
    rng = np.random.default_rng(15)
    x = random_tensor(rng, (2, 5, 5))
    spec = LayerSpec.convolutional(5, 3, 1, 1, "relu")
    w = LayerWeights(rng.standard_normal((5, 18)).astype(f32), rng.standard_normal(5).astype(f32))
    whole = conv_forward_subset(x, w, spec)
    parts = [conv_forward_subset(x, rows_of(w, lo, n), spec) for lo, n in ((0, 2), (2, 3))]
    assert np.concatenate([p.data for p in parts]).tobytes() == whole.data.tobytes()


@given(
    c=st.integers(1, 4),
    h=st.integers(1, 9),
    wd=st.integers(1, 9),
    k=st.integers(1, 5),
    s=st.integers(1, 3),
    p=st.integers(0, 2),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_conv_geometry_matches_oracle_and_leaves_the_input(c, h, wd, k, s, p, data):
    """Any valid geometry and filter subset, on inputs with signed zeros;
    with no padding the kernel's window view aliases the input."""
    assume(h + 2 * p >= k and wd + 2 * p >= k)
    filters = data.draw(st.integers(1, 5))
    start = data.draw(st.integers(0, filters - 1))
    count = data.draw(st.integers(0, filters - start))
    activation = data.draw(st.sampled_from(["linear", "relu"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    x3 = rng.standard_normal((c, h, wd)).astype(f32)
    x3[rng.random(x3.shape) < 0.2] = 0.0
    x3[rng.random(x3.shape) < 0.2] = -0.0
    w = rng.standard_normal((filters, c * k * k)).astype(f32)
    w[rng.random(w.shape) < 0.1] = -0.0
    b = rng.standard_normal(filters).astype(f32)
    b[rng.random(filters) < 0.3] = -0.0
    x = Tensor((c, h, wd), x3.reshape(-1))
    before = x.data.tobytes()
    spec = LayerSpec.convolutional(filters, k, s, p, activation)
    got = conv_forward_subset(x, rows_of(LayerWeights(w, b), start, count), spec)
    expect = conv_oracle(x3, w, b, k, s, p, activation)[start : start + count]
    assert got.dims == expect.shape
    assert got.data.tobytes() == expect.tobytes()
    assert x.data.tobytes() == before


def test_conv_geometry_mismatch():
    spec = LayerSpec.convolutional(1, 5, 1, 0, "linear")
    w = LayerWeights(np.zeros((1, 25), f32), np.zeros(1, f32))
    with pytest.raises(DimensionError):
        conv_forward_subset(Tensor((1, 3, 3), np.zeros(9, f32)), w, spec)


# --- maxpool ---

def test_maxpool_constant_input():
    spec = LayerSpec.maxpool(2, 2)
    out = maxpool_forward(Tensor((1, 4, 4), np.full(16, 2.5, f32)), spec)
    assert out.dims == (1, 2, 2)
    assert out.data.tolist() == [2.5] * 4


def test_maxpool_single_window():
    spec = LayerSpec.maxpool(2, 2)
    out = maxpool_forward(Tensor((1, 2, 2), [1, 2, 3, 4]), spec)
    assert out.data.tolist() == [4.0]


def test_maxpool_matches_naive_oracle():
    rng = np.random.default_rng(16)
    x = random_tensor(rng, (2, 4, 4))
    spec = LayerSpec.maxpool(2, 2)
    got = maxpool_forward(x, spec)
    assert got.data.tobytes() == pool_oracle(x.as_map(), 2, 2).tobytes()


def test_maxpool_rejects_partial_windows():
    spec = LayerSpec.maxpool(2, 2)
    with pytest.raises(DimensionError):
        maxpool_forward(Tensor((1, 5, 5), np.zeros(25, f32)), spec)


# --- softmax ---

def test_softmax_symmetry():
    out = softmax_forward(Tensor((2,), [0, 0]))
    assert out.data.tolist() == [0.5, 0.5]


def test_softmax_large_values_do_not_overflow():
    out = softmax_forward(Tensor((2,), [1000, 0]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == pytest.approx(1.0)
    assert out.data[1] == pytest.approx(0.0, abs=1e-30)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_softmax_normalization_property(seed):
    rng = np.random.default_rng(seed)
    out = softmax_forward(random_tensor(rng, (10,)))
    assert abs(float(np.sum(out.data)) - 1.0) <= 1e-6


def test_softmax_empty_input():
    with pytest.raises(DimensionError):
        softmax_forward(Tensor((0,), np.zeros(0, f32)))


def test_softmax_leaves_its_input():
    values = np.array([3, -1, 0.5, 2], f32)
    out = softmax_forward(Tensor((4,), values))
    assert values.tolist() == [3, -1, 0.5, 2]
    assert not np.shares_memory(out.data, values)


# --- reference forward ---

def test_zero_layer_model_is_identity():
    model = ModelSpec([], (1, 2, 2))
    x = Tensor((1, 2, 2), [1, 2, 3, 4])
    out = reference_forward(model, WeightStore([]), x)
    assert bitwise_equal(out, x)


def test_reference_equals_manual_composition():
    rng = np.random.default_rng(17)
    model = ModelSpec(
        [LayerSpec.connected(5, "relu"), LayerSpec.connected(3, "linear")], (4, 1, 1)
    )
    store = random_weight_store(model, rng)
    x = random_tensor(rng, (4, 1, 1))
    manual = connected_forward_rows(
        connected_forward_rows(x, store.layers[0], model.layers[0]), store.layers[1], model.layers[1]
    )
    assert bitwise_equal(reference_forward(model, store, x), manual)


def test_branched_model_equals_isolated_subnetworks():
    rng = np.random.default_rng(18)
    model = ModelSpec(
        [LayerSpec.connected(8, "relu"), LayerSpec.connected(6, "relu"), LayerSpec.connected(4, "linear")],
        (4, 1, 1),
        BranchTopology(1, 2),
    )
    store = random_weight_store(model, rng)
    x = random_tensor(rng, (4, 1, 1))
    full = reference_forward(model, store, x)

    # run each branch as its own little network over its input slice
    first = connected_forward_rows(x, store.layers[0], model.layers[0])
    for g in range(2):
        part = Tensor((4,), first.data[g * 4 : (g + 1) * 4])
        for i in (1, 2):
            lw = store.layers[i]
            rows = lw.rows // 2
            sub = type(lw)(lw.weights[g * rows : (g + 1) * rows], lw.biases[g * rows : (g + 1) * rows])
            part = connected_forward_rows(part, sub, model.layers[i])
        m = model.layers[2].outputs // 2
        assert part.data.tobytes() == full.data[g * m : (g + 1) * m].tobytes()


def test_branch_independence_zeroing_other_branch():
    rng = np.random.default_rng(19)
    spec = LayerSpec.connected(6, "relu")
    w = LayerWeights(rng.standard_normal((6, 4)).astype(f32), rng.standard_normal(6).astype(f32))
    x = random_tensor(rng, (8,))  # 2 groups of 4
    base = connected_forward_rows(x, w, spec, groups=2)
    zeroed = x.data.copy()
    zeroed[4:] = 0
    other = connected_forward_rows(Tensor((8,), zeroed), w, spec, groups=2)
    assert base.data[:3].tobytes() == other.data[:3].tobytes()


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_forward_outputs_stay_finite(seed):
    model, store, x = random_case(seed)
    out = reference_forward(model, store, x)
    assert np.all(np.isfinite(out.data))


def test_branch_count_below_two_rejected():
    with pytest.raises(DimensionError):
        BranchTopology(0, 1)


# --- every kernel error no other test reaches, with its message ---

CONV_SPEC = LayerSpec.convolutional(1, 3, 1, 0, "linear")
FC_SPEC = LayerSpec.connected(2, "linear")
MAP = Tensor((1, 4, 4), np.zeros(16, f32))


def _unfed_accumulator():
    DenseAccumulator(LayerWeights(np.zeros((2, 8), f32), np.zeros(2, f32)), FC_SPEC).finish()


KERNEL_ERRORS = {
    "accumulator-on-a-conv": (
        lambda: DenseAccumulator(LayerWeights(np.zeros((1, 9)), np.zeros(1)), CONV_SPEC),
        "connected kernel got a convolutional layer",
    ),
    "finish-before-all-input": (_unfed_accumulator, "connected input has 0 values, expected 8"),
    "conv-on-a-connected": (
        lambda: conv_forward_subset(MAP, LayerWeights(np.zeros((2, 16)), np.zeros(2)), FC_SPEC),
        "convolutional kernel got a connected layer",
    ),
    "conv-row-width": (
        lambda: conv_forward_subset(MAP, LayerWeights(np.zeros((1, 5)), np.zeros(1)), CONV_SPEC),
        "weight rows of 5 values, expected 1*3*3",
    ),
    "maxpool-on-a-conv": (
        lambda: maxpool_forward(MAP, CONV_SPEC),
        "maxpool kernel got a convolutional layer",
    ),
    "reference-input-dims": (
        lambda: reference_forward(
            ModelSpec([LayerSpec.maxpool(2, 2)], (1, 4, 4)), WeightStore([None]),
            Tensor((1, 2, 2), np.zeros(4, f32)),
        ),
        "input dims (1, 2, 2) do not match model (1, 4, 4)",
    ),
}


@pytest.mark.parametrize("case", sorted(KERNEL_ERRORS))
def test_each_kernel_error_has_its_message(case):
    call, message = KERNEL_ERRORS[case]
    with pytest.raises(DimensionError) as err:
        call()
    assert str(err.value) == message
