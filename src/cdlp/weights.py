"""Binary weights file and per-partition weight blobs.

File layout, all little-endian:

    header   4 x u32: version triple (0, 2, 0) and an images-seen counter (0)
    per layer, in layer order, weightless layers contributing nothing:
        biases   rows x float32
        weights  rows x cols x float32, row-major

The file stays row-major whatever the memory layout (``tobytes()`` writes
logical order). A partition blob has no header: the biases of the partition's
rows, then its weights column by column, the order ``LayerWeights`` holds them
in. The blobs of one layer hold each of its values once, but do not
concatenate to its section in the file.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DimensionError, FormatError
from .model import FLOAT, FLOAT_BYTES, LayerWeights, ModelSpec, WeightStore, validate_weights

_HEADER = struct.Struct("<4I")
HEADER_BYTES = _HEADER.size
_VERSION = (0, 2, 0)


def serialize_weights(store: WeightStore) -> bytes:
    out = [_HEADER.pack(*_VERSION, 0)]
    for lw in store.layers:
        if lw is None:
            continue
        out.append(lw.biases.astype(FLOAT, copy=False).tobytes())
        out.append(lw.weights.astype(FLOAT, copy=False).tobytes())
    return b"".join(out)


def load_weights(data: bytes, model: ModelSpec) -> WeightStore:
    """Parse a weights file against the model's layer shapes.

    Round-trips serialize_weights bitwise; truncation or trailing bytes
    raise FormatError.
    """
    if len(data) < HEADER_BYTES:
        raise FormatError(f"weights file of {len(data)} bytes has no header")
    major, minor, patch, _seen = _HEADER.unpack_from(data)
    if (major, minor, patch) != _VERSION:
        raise FormatError(f"unsupported weights version {major}.{minor}.{patch}")
    offset = HEADER_BYTES
    layers: list[LayerWeights | None] = []
    for i in range(len(model.layers)):
        shape = model.param_shape(i)
        if shape is None:
            layers.append(None)
            continue
        rows, cols = shape
        need = FLOAT_BYTES * rows * (1 + cols)
        if offset + need > len(data):
            raise FormatError(
                f"weights file truncated in layer {i}: need {need} bytes at offset {offset}"
            )
        biases = np.frombuffer(data, FLOAT, count=rows, offset=offset).copy()
        offset += FLOAT_BYTES * rows
        weights = (
            np.frombuffer(data, FLOAT, count=rows * cols, offset=offset)
            .reshape(rows, cols)
            .copy(order="F")
        )
        offset += FLOAT_BYTES * rows * cols
        layers.append(LayerWeights(weights, biases))
    if offset != len(data):
        raise FormatError(f"{len(data) - offset} trailing bytes after the last layer")
    store = WeightStore(layers)
    validate_weights(model, store)
    return store


def layer_blob(store: WeightStore, layer_index: int, start: int, end: int) -> bytes:
    """Biases, then column-major weights, of rows [start, end) of one layer."""
    lw = store.layers[layer_index]
    if lw is None:
        return b""
    if not 0 <= start <= end <= lw.rows:
        raise DimensionError(f"rows [{start}, {end}) outside layer of {lw.rows} rows")
    return lw.biases[start:end].tobytes() + lw.weights[start:end].T.tobytes()


def split_weights(store: WeightStore, plan) -> list[bytes]:
    """One blob per plan partition, in plan order; together the blobs of a
    layer cover its rows exactly once."""
    return [layer_blob(store, p.layer_index, p.start, p.end) for p in plan.partitions]


def partition_weights(
    model: ModelSpec, layer_index: int, start: int, end: int, blob: bytes
) -> LayerWeights:
    """Parse a partition blob back into the row slice it serializes.

    Both arrays are read-only views of ``blob`` (the weights a column-major
    one), not copies, so they take no memory beyond the blob: a decrypted
    blob is its arena allocation's ``data``, freed only after the kernel that
    reads the views has returned, and a normal-world blob is immutable ``bytes``.
    Each view is laid over the blob as one array in the layout
    ``LayerWeights`` keeps, so it keeps both as they are.
    """
    shape = model.param_shape(layer_index)
    if shape is None:
        raise DimensionError(f"layer {layer_index} takes no weights")
    rows, cols = end - start, shape[1]
    expect = FLOAT_BYTES * rows * (1 + cols)
    if len(blob) != expect:
        raise FormatError(
            f"partition blob of {len(blob)} bytes, expected {expect} "
            f"for {rows} rows of layer {layer_index}"
        )
    if type(blob) is not bytes:  # a bytearray blob would give writable views
        blob = memoryview(blob).toreadonly()
    return LayerWeights(
        np.ndarray((rows, cols), FLOAT, blob, FLOAT_BYTES * rows, order="F"),
        np.ndarray(rows, FLOAT, blob),
    )
