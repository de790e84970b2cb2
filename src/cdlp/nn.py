"""From-scratch CNN forward pass.

Each layer kind has one kernel, and it runs on a row slice the caller has
already cut: ``connected_forward_rows`` and ``conv_forward_subset`` take the
weights of rows (neurons or filters) [start, start+len), while the weightless
``maxpool_forward`` and ``softmax_forward`` always run whole. ``layer_forward``
is the one dispatch for the partitioned executor and for ``reference_forward``,
which is its whole-row case. A resident connected layer is a single
``DenseAccumulator.feed`` of its whole input; a spilled one feeds the same
accumulator chunk by chunk; it works out the branch groups its rows reach
once, when it is made.

Every kernel fixes its accumulation order so that computing a layer in
pieces (neuron subsets, filter subsets, branch groups, streamed input
chunks) is bitwise identical to computing it whole:

* connected: each output neuron sums w[j][i] * a[i] for i ascending, then
  adds the bias, then applies the activation;
* convolutional: each output pixel accumulates channel-major, then kernel
  row, then kernel column (the flat weight-row order).

The per-element float32 operations never get reassociated, which makes the
partitioned executor's outputs comparable to the reference with ==, not a
tolerance. All three weighted kernels sum through ``_accumulate``: it lays
the running sums and a block of negated product terms side by side in one
array and reduces the terms' axis into the sums with ``np.subtract.reduce``.
Subtraction does not associate, so numpy never sums it pairwise: it runs term
after term at every shape and along either axis, and ``s - (-t)`` is
``s + t`` bit for bit (IEEE 754).
No kernel uses ``matmul``, ``dot`` or ``einsum``: BLAS reorders the sums.

Weights come in the layout their partition names (see ``LayerWeights``), and
the term block follows it. Column-major weights, as a weight store and every
convolution and wide connected partition hold them, give a block laid out as
(terms, rows, *pixels), the transposed weight block times the inputs, stacked
under the running sums and reduced along its outer axis; the transposed block
is contiguous, where row-major a long connected row would put every row of a
weight column into one cache set. Such a block is filled by a broadcast copy
of one operand and one multiply in place by the other, never by a multiply
with a stride-0 inner axis, which numpy runs 2-3 times slower. Row-major
weights, as a thin connected partition holds them (at most
``planner.THIN_ROWS`` rows), give a block laid out as (rows, terms + 1): column
0 holds the running sums, one multiply of the weight block by the negated
inputs fills the rest, the broadcast running along the outer axis, and the
reduce runs along each contiguous row. A column-major block of 16 rows by
1 024 inputs reduces 1 025 term rows of 16 floats each, and numpy's cost per
term row, not the arithmetic, sets its time; the row-major block takes about
0.6 times as long. At 24 to 32 rows the two run within about 10% of each
other, so row-major stops paying there. Both reduce in ascending order from
the running sums, so the layouts give the same bits.

Kernel scratch is not charged to the secure arena. It is the convolution's
zero-padded input, made only when the padding is above 0 (unpadded, the im2col
windows view the input, which no kernel writes); its im2col patch matrix
(channels * kernel_size**2 * out_h * out_w values); the negated copy of the
operand a block spreads (n * rows values for a convolution with more than one
output pixel, else n, for n terms: the inputs, whatever the layout); and one
block of product terms: at most ``_BLOCK_FLOATS`` values, or two output rows
when a layer subset's output alone is larger. A row-major block holds the
same count, (rows, terms + 1) where a column-major one holds
(terms + 1, rows).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, RangeError
from .model import FLOAT, LayerSpec, LayerWeights, ModelSpec, Tensor, WeightStore
from .model import output_dims, validate_weights

_ZERO = np.float32(0.0)
_BLOCK_FLOATS = 1 << 16  # float32 values in one block of accumulation terms


def _activate(values: np.ndarray, activation: str | None) -> np.ndarray:
    """Apply ``activation`` in place to a kernel's own output array."""
    if activation == "relu":
        np.maximum(values, _ZERO, out=values)
    return values


def _accumulate(acc: np.ndarray, weights: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """``acc + t[0] + t[1] + ... + t[n-1]``, added strictly in ascending i.

    ``t[i] = weights[:, i] * inputs[i]``, broadcast to ``acc``'s shape: input i is
    a scalar for connected layers and an im2col patch row for convolutions.
    ``acc`` is (rows, *rest), ``weights`` (rows, n) and ``inputs`` (n, *rest); the
    sums are written into ``acc``, which the caller owns.

    A 1-D ``acc`` whose weights run along contiguous rows (a row-major
    partition's) sums a block of terms laid out as (rows, terms), column 0
    holding the running sums, along its rows: one multiply of the weight block
    by the negated inputs, broadcast along the outer axis. Otherwise a block
    of terms is (terms, rows, *rest), row 0 holding the running sums, reduced
    along its outer axis: a broadcast copy of one operand times the other,
    whose inner axis is contiguous: the weights times the patch rows when a
    row has more than one value (a convolution's pixels), else the inputs
    times the weight block. Either way the spread operand is negated once, so
    each block holds -t[i] (exact, as ``(-s) * f == -(s * f)``) and the reduce
    subtracts it.
    """
    m = acc.size
    if m == 0:
        return acc
    shape = acc.shape
    n, rows = len(inputs), shape[0]
    if acc.ndim == 1 and weights.strides[1] == FLOAT.itemsize:
        spread = np.negative(inputs)
        block = max(1, min(n, _BLOCK_FLOATS // rows - 1))
        terms = np.empty((rows, block + 1), dtype=FLOAT)  # column 0, then a block of terms
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            part = terms[:, : hi - lo + 1]
            part[:, 0] = acc
            np.multiply(weights[:, lo:hi], spread[lo:hi], out=part[:, 1:])
            np.subtract.reduce(part, axis=1, out=acc)
        return acc
    # the terms' operands as (n, rows, *rest) arrays; column-major weights
    # make the transposed weights contiguous
    w = weights.T
    if len(shape) > 1:
        w = w.reshape(n, rows, *(1,) * (len(shape) - 1))
    x = inputs.reshape(n, 1, *shape[1:])
    spread, factor = (w, x) if m > rows else (x, w)
    spread = np.negative(spread)
    block = max(1, min(n, _BLOCK_FLOATS // m - 1))
    terms = np.empty((block + 1, *shape), dtype=FLOAT)  # row 0, then a block of terms
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        part = terms[: hi - lo + 1]
        part[0] = acc  # row 0 carries the running sums into the block
        fill = part[1:]
        fill[...] = spread[lo:hi]
        np.multiply(fill, factor[lo:hi], out=fill)  # one product per term: IEEE multiply commutes
        np.subtract.reduce(part, axis=0, out=acc)
    return acc


class DenseAccumulator:
    """Ascending-order partial sums of a connected layer's row slice, fed
    its input in consecutive chunks.

    ``rows`` holds the weights of neurons [abs_start, abs_start+len), a slice
    of the layer ``spec``, which has ``spec.outputs`` neurons in all; a slice
    that reaches past them raises RangeError. Their sums are one array,
    written in place. The absolute position only matters for branched
    layers, where it decides which input slice each neuron reads: the branch
    groups the rows reach are worked out once, when the accumulator is made,
    each sums into its view of the one array, and each chunk feeds only
    those. Any chunking of the input gives, bit for bit, the same result:
    every neuron sees the same products in the same order.
    """

    def __init__(
        self,
        rows: LayerWeights,
        spec: LayerSpec,
        abs_start: int = 0,
        *,
        groups: int = 1,
    ):
        if spec.kind != "connected":
            raise DimensionError(f"connected kernel got a {spec.kind} layer")
        count, cols = rows.weights.shape
        neurons = spec.outputs
        if abs_start < 0 or abs_start + count > neurons:
            raise RangeError(f"subset [{abs_start}, {abs_start + count}) outside {neurons} neurons")
        if neurons % groups:
            raise DimensionError(f"{neurons} neurons not divisible into {groups} groups")
        self._biases = rows.biases
        self._activation = spec.activation
        self._next = 0
        self._cols = cols
        self._total = cols * groups
        self._sums = np.zeros(count, FLOAT)
        # each branch group the rows reach, in order: (first input, weights, view of the sums)
        self._groups = []
        if count:
            per_group = neurons // groups
            end = abs_start + count
            for g in range(abs_start // per_group, -(-end // per_group)):
                lo = max(abs_start, g * per_group) - abs_start
                hi = min(end, (g + 1) * per_group) - abs_start
                self._groups.append((g * cols, rows.weights[lo:hi], self._sums[lo:hi]))

    def feed(self, values: np.ndarray, base: int) -> None:
        end = base + values.size
        if base != self._next:
            raise DimensionError(f"chunk starts at {base}, expected {self._next}")
        if end > self._total:
            raise DimensionError(
                f"connected input runs to {end} values, expected {self._total}"
            )
        cols = self._cols
        for first, weights, sums in self._groups:  # each group reads its own inputs only
            lo, hi = max(base, first), min(end, first + cols)
            if lo < hi:
                w = weights[:, lo - first : hi - first]
                _accumulate(sums, w, values[lo - base : hi - base])
        self._next = end

    def finish(self) -> Tensor:
        if self._next != self._total:
            raise DimensionError(f"connected input has {self._next} values, expected {self._total}")
        out = _activate(np.add(self._sums, self._biases), self._activation)
        return Tensor((out.size,), out)


def connected_forward_rows(
    x: Tensor,
    rows: LayerWeights,
    spec: LayerSpec,
    abs_start: int = 0,
    *,
    groups: int = 1,
) -> Tensor:
    """Connected-layer outputs for an already-sliced row range: the whole
    input fed to one DenseAccumulator (same arguments) at once."""
    accumulator = DenseAccumulator(rows, spec, abs_start, groups=groups)
    accumulator.feed(x.data, 0)
    return accumulator.finish()


def conv_forward_subset(x: Tensor, rows: LayerWeights, spec: LayerSpec) -> Tensor:
    """Cross-correlation with zero padding for an already-sliced filter range."""
    if spec.kind != "convolutional":
        raise DimensionError(f"convolutional kernel got a {spec.kind} layer")
    _, oh, ow = output_dims(spec, x.dims)
    c, h, wd = x.dims
    k, s, p = spec.kernel_size, spec.stride, spec.padding
    count, cols = rows.weights.shape
    if cols != c * k * k:
        raise DimensionError(f"weight rows of {cols} values, expected {c}*{k}*{k}")

    padded = x.as_map()  # a view of the input, never written
    if p:
        padded = np.zeros((c, h + 2 * p, wd + 2 * p), dtype=FLOAT)
        padded[:, p : p + h, p : p + wd] = x.as_map()

    # im2col: row (ci, ky, kx) holds that tap's input for every output pixel, in the flat
    # weight-row order the accumulation must follow; numpy checks the view's extent
    cs, rs, es = padded.strides
    windows = np.ndarray((c, k, k, oh, ow), FLOAT, padded, strides=(cs, rs, es, rs * s, es * s))
    patches = windows.reshape(c * k * k, oh * ow)
    acc = _accumulate(np.zeros((count, oh * ow), dtype=FLOAT), rows.weights, patches)
    np.add(acc, rows.biases[:, None], out=acc)
    return Tensor((count, oh, ow), _activate(acc, spec.activation).reshape(-1))


def maxpool_forward(x: Tensor, spec: LayerSpec) -> Tensor:
    """Per-window maximum; windows must tile the input exactly."""
    if spec.kind != "maxpool":
        raise DimensionError(f"maxpool kernel got a {spec.kind} layer")
    c, oh, ow = output_dims(spec, x.dims)
    k, s = spec.size, spec.stride
    m = x.as_map()
    out = np.full((c, oh, ow), -np.inf, dtype=FLOAT)
    for ky in range(k):
        for kx in range(k):
            np.maximum(out, m[:, ky : ky + oh * s : s, kx : kx + ow * s : s], out=out)
    return Tensor((c, oh, ow), out.reshape(-1))


def softmax_forward(x: Tensor) -> Tensor:
    """Max-subtracted softmax over the flattened input; output sums to ~1."""
    if x.size == 0:
        raise DimensionError("softmax on an empty input")
    e = np.exp(x.data - np.max(x.data))  # a new array: x.data may be shared or the caller's
    return Tensor((x.size,), np.divide(e, np.sum(e), out=e))


def layer_forward(
    model: ModelSpec, layer_index: int, x: Tensor, rows: LayerWeights | None, start: int = 0
) -> Tensor:
    """Apply rows [start, start+len) of layer ``layer_index``, honoring the
    branch topology; ``rows`` is None for a weightless layer, which always
    runs whole."""
    layer = model.layers[layer_index]
    if layer.kind == "connected":
        groups = model.geometry[layer_index].groups
        return connected_forward_rows(x, rows, layer, start, groups=groups)
    if layer.kind == "convolutional":
        return conv_forward_subset(x, rows, layer)
    if layer.kind == "maxpool":
        return maxpool_forward(x, layer)
    return softmax_forward(x)


def reference_forward(model: ModelSpec, weights: WeightStore, x: Tensor) -> Tensor:
    """Sequential whole-layer forward pass: ``layer_forward`` on every
    layer's full rows.

    The equivalence oracle for every partitioned execution: those must
    reproduce this output bitwise.
    """
    validate_weights(model, weights)
    if x.dims != model.input_dims:
        raise DimensionError(f"input dims {x.dims} do not match model {model.input_dims}")
    for i in range(len(model.layers)):
        x = layer_forward(model, i, x, weights.layers[i])
    return x
