"""From-scratch CNN forward pass.

Each layer kind has one kernel, and it runs on a row slice the caller has
already cut: ``connected_forward_rows`` and ``conv_forward_subset`` take the
weights of rows (neurons or filters) [start, start+len), while the weightless
``maxpool_forward`` and ``softmax_forward`` always run whole. ``layer_forward``
is the one dispatch for the partitioned executor and for ``reference_forward``,
which is its whole-row case. A resident connected layer is a single
``DenseAccumulator.feed`` of its whole input; a spilled one feeds the same
accumulator chunk by chunk.

Every kernel fixes its accumulation order so that computing a layer in
pieces (neuron subsets, filter subsets, branch groups, streamed input
chunks) is bitwise identical to computing it whole:

* connected: each output neuron sums w[j][i] * a[i] for i ascending, then
  adds the bias, then applies the activation;
* convolutional: each output pixel accumulates channel-major, then kernel
  row, then kernel column (the flat weight-row order).

The per-element float32 operations never get reassociated, which makes the
partitioned executor's outputs comparable to the reference with ==, not a
tolerance. All three weighted kernels sum through ``_accumulate``: it stacks
the running sums and a block of product terms as the rows of one array and
reduces over that outer axis, which numpy does row after row, element by
element. A reduce whose rows hold a single value would be summed pairwise
instead, so that case runs ``np.add.accumulate``, which is always sequential.
No kernel uses ``matmul``, ``dot`` or ``einsum``: BLAS reorders the sums.

A term block is the weight block transposed, times the inputs. Weights are
stored column-major (see ``LayerWeights``), so the transposed weight block is
contiguous; stored row-major, a long connected row would put every row of a
weight column into one cache set. A block is filled by a broadcast copy of
one operand and one multiply in place by the other, never by a multiply with
a stride-0 inner axis, which numpy runs 2-3 times slower.

Kernel scratch is not charged to the secure arena. It is the convolution's
zero-padded input, made only when the padding is above 0 (unpadded, the
im2col windows view the input, which no kernel writes), its im2col patch
matrix (channels * kernel_size**2 * out_h * out_w values), which grow with
the layer's input, and one block of product terms, which holds at most
``_BLOCK_FLOATS`` values, or two output rows when a layer subset's output
alone is larger than that.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, RangeError
from .model import FLOAT, LayerSpec, LayerWeights, ModelSpec, Tensor, WeightStore
from .model import output_dims, validate_weights

_ZERO = np.float32(0.0)
_NEG_ZERO = np.float32(-0.0)
_BLOCK_FLOATS = 1 << 16  # float32 values in one block of accumulation terms


def _activate(values: np.ndarray, activation: str | None) -> np.ndarray:
    if activation == "relu":
        return np.maximum(values, _ZERO)
    return values


def _accumulate(acc: np.ndarray, weights: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """``acc + t[0] + t[1] + ... + t[n-1]``, added strictly in ascending i.

    ``t[i] = weights[:, i] * inputs[i]``, broadcast to ``acc``'s shape: input
    i is a scalar for connected layers and an im2col patch row for
    convolutions. ``acc`` is (rows, *rest), ``weights`` (rows, n) and
    ``inputs`` (n, *rest).

    A block of terms is a broadcast copy of one operand times the other, whose
    inner axis is contiguous: the weights times the patch rows when a row has
    more than one value (a convolution's pixels), else the inputs times the
    weight block. The reduce starts from -0.0, the identity of IEEE addition
    (``-0.0 + x == x`` bit for bit), so a -0.0 in ``acc`` stays -0.0.
    """
    m = acc.size
    if m == 0:
        return acc
    rows, n = weights.shape
    rest = inputs.shape[1:]
    unit = (1,) * len(rest)
    block = max(1, min(n, _BLOCK_FLOATS // m - 1))
    terms = np.empty((block + 1, m), dtype=FLOAT)
    total = acc.reshape(m)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        part = terms[: hi - lo + 1]
        part[0] = total  # row 0 carries the running sums into the block
        w = weights[:, lo:hi].T.reshape(hi - lo, rows, *unit)
        x = inputs[lo:hi].reshape(hi - lo, 1, *rest)
        spread, factor = (w, x) if m > rows else (x, w)
        fill = part[1:].reshape(hi - lo, rows, *rest)
        np.copyto(fill, spread)
        np.multiply(fill, factor, out=fill)  # one product per term: IEEE multiply commutes
        if m == 1:
            total = np.add.accumulate(part[:, 0])[-1:]
        else:
            total = np.add.reduce(part, axis=0, initial=_NEG_ZERO)
    return total.reshape(acc.shape)


def _group_rows(g: int, abs_start: int, count: int, per_group: int) -> slice | None:
    """The local rows of neurons [abs_start, abs_start+count) in branch group g."""
    lo = max(abs_start, g * per_group)
    hi = min(abs_start + count, (g + 1) * per_group)
    return slice(lo - abs_start, hi - abs_start) if lo < hi else None


class DenseAccumulator:
    """Ascending-order partial sums of a connected layer's row slice, fed
    its input in consecutive chunks.

    ``rows`` holds the weights of neurons [abs_start, abs_start+len) of a
    layer with ``total_rows`` neurons in all (default: the rows are the
    whole layer). The absolute position only matters for branched layers,
    where it decides which input slice each neuron reads. Any chunking of
    the input gives, bit for bit, the same result: every neuron sees the
    same products in the same order.
    """

    def __init__(
        self,
        rows: LayerWeights,
        spec: LayerSpec,
        abs_start: int = 0,
        total_rows: int | None = None,
        groups: int = 1,
    ):
        if spec.kind != "connected":
            raise DimensionError(f"connected kernel got a {spec.kind} layer")
        total_rows = rows.rows if total_rows is None else total_rows
        if abs_start < 0 or abs_start + rows.rows > total_rows:
            raise RangeError(
                f"subset [{abs_start}, {abs_start + rows.rows}) outside {total_rows} neurons"
            )
        if total_rows % groups:
            raise DimensionError(f"{total_rows} neurons not divisible into {groups} groups")
        self._rows = rows
        self._spec = spec
        self._abs_start = abs_start
        self._groups = groups
        self._per_group = total_rows // groups
        self._acc = np.zeros(rows.rows, dtype=FLOAT)
        self._next = 0
        self._total = rows.cols * groups

    def feed(self, values: np.ndarray, base: int) -> None:
        if base != self._next:
            raise DimensionError(f"chunk starts at {base}, expected {self._next}")
        if base + values.size > self._total:
            raise DimensionError(
                f"connected input runs to {base + values.size} values, expected {self._total}"
            )
        w = self._rows.weights
        cols = self._rows.cols
        end = base + values.size
        if self._groups == 1:
            self._acc = _accumulate(self._acc, w[:, base:end], values)
        else:
            # split the chunk at group boundaries; each piece feeds one group's rows
            i = base
            while i < end:
                g, col = divmod(i, cols)
                stop = min(end, (g + 1) * cols)
                seg = _group_rows(g, self._abs_start, self._rows.rows, self._per_group)
                if seg is not None:
                    self._acc[seg] = _accumulate(
                        self._acc[seg], w[seg, col : col + stop - i], values[i - base : stop - base]
                    )
                i = stop
        self._next = end

    def finish(self) -> Tensor:
        if self._next != self._total:
            raise DimensionError(f"connected input has {self._next} values, expected {self._total}")
        out = _activate(self._acc + self._rows.biases, self._spec.activation)
        return Tensor((self._rows.rows,), out)


def connected_forward_rows(
    x: Tensor,
    rows: LayerWeights,
    spec: LayerSpec,
    abs_start: int = 0,
    total_rows: int | None = None,
    groups: int = 1,
) -> Tensor:
    """Connected-layer outputs for an already-sliced row range: the whole
    input fed to one DenseAccumulator (same arguments) at once."""
    accumulator = DenseAccumulator(rows, spec, abs_start, total_rows, groups)
    accumulator.feed(x.data, 0)
    return accumulator.finish()


def conv_forward_subset(x: Tensor, rows: LayerWeights, spec: LayerSpec) -> Tensor:
    """Cross-correlation with zero padding for an already-sliced filter range."""
    if spec.kind != "convolutional":
        raise DimensionError(f"convolutional kernel got a {spec.kind} layer")
    _, oh, ow = output_dims(spec, x.dims)
    c, h, wd = x.dims
    k, s, p = spec.kernel_size, spec.stride, spec.padding
    if rows.cols != c * k * k:
        raise DimensionError(f"weight rows of {rows.cols} values, expected {c}*{k}*{k}")

    padded = x.as_map()  # a view of the input, never written
    if p:
        padded = np.zeros((c, h + 2 * p, wd + 2 * p), dtype=FLOAT)
        padded[:, p : p + h, p : p + wd] = x.as_map()

    # im2col: row (ci, ky, kx) holds that tap's input for every output pixel, in the flat
    # weight-row order the accumulation must follow; numpy checks the view's extent
    cs, rs, es = padded.strides
    windows = np.ndarray((c, k, k, oh, ow), FLOAT, padded, strides=(cs, rs, es, rs * s, es * s))
    patches = windows.reshape(c * k * k, oh * ow)
    acc = np.zeros((rows.rows, oh * ow), dtype=FLOAT)
    acc = _accumulate(acc, rows.weights, patches)
    out = _activate(acc + rows.biases[:, None], spec.activation)
    return Tensor((rows.rows, oh, ow), out.reshape(-1))


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
    shifted = x.data - np.max(x.data)
    e = np.exp(shifted)
    return Tensor((x.size,), e / np.sum(e))


def layer_forward(
    model: ModelSpec, layer_index: int, x: Tensor, rows: LayerWeights | None, start: int = 0
) -> Tensor:
    """Apply rows [start, start+len) of layer ``layer_index``, honoring the
    branch topology; ``rows`` is None for a weightless layer, which always
    runs whole."""
    layer = model.layers[layer_index]
    if layer.kind == "connected":
        return connected_forward_rows(
            x, rows, layer, start, model.units(layer_index), model.branch_groups(layer_index)
        )
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
    if model.layers and x.dims != model.input_dims:
        raise DimensionError(f"input dims {x.dims} do not match model {model.input_dims}")
    for i in range(len(model.layers)):
        x = layer_forward(model, i, x, weights.layers[i])
    return x
