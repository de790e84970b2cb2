"""Partition planning: layered, sub-layer, and branched schemes.

The three planners are calls of one loop, ``_plan``. It gives each layer
a world, normal before the branch point and secure after it, and a
subset size: the whole layer, one branch, a requested size, or the
largest size that fits the budget. It prices every secure partition with
``partition_footprint`` and rejects a fixed size that does not fit.

A secure partition's footprint is the executor's peak arena use while it
runs, at 4 bytes per float. ``partition_footprint`` is the one formula;
the planning loop and ``validate_plan`` use it. The executor holds at once:

* input: the layer's whole input, if it is resident in the arena. A
  public input costs nothing: the model input, or a normal-world layer's
  output, which the trusted app reads from shared memory;
* output: the layer's whole output buffer, allocated at the first subset,
  unless the next layer is spilled;
* weights: rows x (cols + 1) floats, the partition's weight rows and
  biases; nothing for maxpool or softmax;
* chunk: one ``SPILL_CHUNK_BYTES`` chunk, capped at the data it carries,
  when the layer streams a spilled input or spills its own output. The
  producer cuts its chunks per partition, so a streamed chunk is capped
  at the output of the producer's largest partition.

A layer whose input cannot stay resident next to even a single-row
subset, or whose producer cannot hold that input next to even its own
smallest partition, gets its spill flag set: the producer encrypts the
activations into shared memory and every subset streams them back one
chunk at a time. The producer then takes no larger subsets than a
single row of the spilled layer can stream back, so a cap that plans a
model still plans it with more budget.

A weightless (maxpool or softmax) layer always runs as one partition.
Normal-world partitions never touch the arena; they record the footprint of
the whole layer with its input resident and no spill. Kernel scratch lies
outside the arena and outside every footprint (see ``nn``).
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field, replace
from typing import AbstractSet, Callable, Mapping

from .errors import LayerTooLargeError, PlanError, PlanInfeasibleError
from .model import FLOAT_BYTES, ModelSpec

SCHEME_LAYERED = "layered"
SCHEME_SUBLAYER = "sublayer"
SCHEME_BRANCHED = "branched"
SCHEMES = (SCHEME_LAYERED, SCHEME_SUBLAYER, SCHEME_BRANCHED)

WORLD_SECURE = "secure"
WORLD_NORMAL = "normal"

SPILL_CHUNK_BYTES = 4096


@dataclass(frozen=True)
class Partition:
    """One executable unit: a row range of one layer, bound to a world."""

    id: int
    layer_index: int
    start: int
    end: int
    world: str
    footprint_bytes: int

    @property
    def encrypted(self) -> bool:
        """Secure partitions ship as containers, normal-world ones as plaintext."""
        return self.world == WORLD_SECURE


@dataclass(frozen=True)
class SubsetParams:
    subset_size: int
    subset_count: int


@dataclass
class PartitionPlan:
    scheme: str
    partitions: list[Partition]
    spill: frozenset[int] = field(default_factory=frozenset)

    @property
    def sublayer(self) -> dict[int, SubsetParams]:
        """Layers split into more than one partition: the first subset's
        rows and the partition count."""
        by_layer: dict[int, list[Partition]] = {}
        for p in self.partitions:
            by_layer.setdefault(p.layer_index, []).append(p)
        return {
            i: SubsetParams(parts[0].end - parts[0].start, len(parts))
            for i, parts in sorted(by_layer.items())
            if len(parts) > 1
        }

    def with_spill(self, *layer_indices: int) -> "PartitionPlan":
        """Copy of the plan with extra layers marked for activation spill.

        The recorded footprints stay upper bounds, because spilling layer j
        only lowers the footprints of layers j - 1 (its output leaves a chunk
        at a time) and j (its input streams back a chunk at a time);
        ``validate_plan`` accepts them for that reason.
        """
        return replace(self, spill=self.spill | frozenset(layer_indices))

    def secure_partitions(self) -> list[Partition]:
        return [p for p in self.partitions if p.world == WORLD_SECURE]


def partition_footprint(
    model: ModelSpec,
    layer_index: int,
    rows: int,
    spill: AbstractSet[int] = frozenset(),
    public_input: bool = False,
    producer_rows: int | None = None,
) -> int:
    """Peak arena bytes of a secure partition running ``rows`` rows of the
    layer under the ``spill`` flags: input, output, weights and chunk, as
    the module docstring lists them. ``producer_rows`` is the row count of
    the previous layer's largest partition, which sizes a streamed chunk;
    None means the whole previous layer."""
    shape = model.param_shape(layer_index)
    floats = rows * (shape[1] + 1) if shape else 0
    chunk = 0
    if layer_index in spill:
        streamed = model.in_elems(layer_index)
        if producer_rows is not None:
            streamed = producer_rows * model.output_units_per_row(layer_index - 1)
        chunk = min(SPILL_CHUNK_BYTES, FLOAT_BYTES * streamed)
    elif not public_input:
        floats += model.in_elems(layer_index)
    if layer_index + 1 in spill:
        produced = FLOAT_BYTES * rows * model.output_units_per_row(layer_index)
        chunk = max(chunk, min(SPILL_CHUNK_BYTES, produced))
    else:
        floats += model.out_elems(layer_index)
    return FLOAT_BYTES * floats + chunk


def plan_layered(model: ModelSpec, cap: int) -> PartitionPlan:
    """One secure, encrypted partition per layer, in layer order."""
    return _plan(model, cap, SCHEME_LAYERED, model.units)


def plan_sublayer(
    model: ModelSpec, cap: int, subset_size: int | Mapping[int, int] | None = None
) -> PartitionPlan:
    """Split oversized layers into contiguous subsets that fit the budget.

    With ``subset_size`` unset, the planner keeps fitting layers whole and
    picks the largest subset for the rest (fewest partitions, hence fewest
    context switches). An explicit size (one int, or a per-layer mapping)
    overrides the choice and must fit the budget; degenerate full-size
    subsets reproduce the layered plan exactly. Layers whose inputs cannot
    stay resident stream them from encrypted spill. A mapping that names a
    layer the model lacks, or a weightless layer, raises PlanError.
    """
    if isinstance(subset_size, Mapping):
        for i in subset_size:
            if not (0 <= i < len(model.layers) and model.is_parameterized(i)):
                raise PlanError(
                    f"subset size given for layer {i}, which has no weight rows to split"
                )

    def size_of(i: int) -> int | None:
        if not model.is_parameterized(i):
            return model.units(i)
        return subset_size.get(i) if isinstance(subset_size, Mapping) else subset_size

    return _plan(model, cap, SCHEME_SUBLAYER, size_of, spill=True)


def plan_branched(model: ModelSpec, cap: int) -> PartitionPlan:
    """Unbranched prefix in the normal world, one secure partition per branch.

    The early layers run with plaintext weights outside the arena; every
    layer at or after the branch point becomes k encrypted partitions, one
    per mutually independent group.
    """
    if model.branch is None:
        raise PlanError("model has no branch topology")
    return _plan(
        model, cap, SCHEME_BRANCHED, lambda i: model.units(i) // model.branch_groups(i),
        secure_from=model.branch.branch_layer_index,
    )


def _plan(
    model: ModelSpec,
    cap: int,
    scheme: str,
    size_of: Callable[[int], int | None],
    secure_from: int = 0,
    spill: bool = False,
) -> PartitionPlan:
    """The one planning loop. Layers before ``secure_from`` run whole in the
    normal world; every later layer i runs in the secure world in subsets of
    ``size_of(i)`` rows, or of the largest size that fits ``cap`` where that
    is None. With ``spill``, layers whose inputs cannot stay resident
    stream them from encrypted spill."""
    if cap <= 0:
        raise ValueError(f"memory budget must be positive, got {cap}")
    flags = frozenset(_spill_layers(model, cap) if spill else ())
    partitions: list[Partition] = []
    producer_rows = None  # the previous secure layer's subset size
    for i in range(len(model.layers)):
        units, kind = model.units(i), model.layers[i].kind
        if i < secure_from:
            footprint_bytes = partition_footprint(model, i, units)
            partitions.append(Partition(len(partitions), i, 0, units, WORLD_NORMAL, footprint_bytes))
            continue

        def footprint(rows: int, i: int = i) -> int:
            return partition_footprint(
                model, i, rows, flags, public_input=i == secure_from, producer_rows=producer_rows
            )

        def need(rows: int, i: int = i) -> int:
            """The footprint of ``rows`` rows and, if layer i + 1 streams
            their output, that of its single-row partition, if larger."""
            if i + 1 not in flags:
                return footprint(rows)
            streamed = partition_footprint(model, i + 1, 1, flags, producer_rows=rows)
            return max(footprint(rows), streamed)

        size = size_of(i)
        if size is None:
            if footprint(1) > cap:
                raise PlanInfeasibleError(
                    f"layer {i} ({kind}) needs {footprint(1)} bytes "
                    f"for a single row, budget is {cap}"
                )
            # the largest subset that fits and whose output chunks the next
            # layer can stream; both footprints grow with the rows. If even
            # one row's chunks are too large, layer i + 1 raises.
            size = max(1, bisect.bisect_right(range(1, units + 1), cap, key=need))
        elif not 1 <= size <= units:
            raise PlanError(f"subset size {size} outside [1, {units}] for layer {i}")
        elif footprint(size) > cap:
            raise LayerTooLargeError(
                f"layer {i} ({kind}) in partitions of {size} of its {units} rows "
                f"needs {footprint(size)} bytes, budget is {cap}"
            )
        for start in range(0, units, size):
            end = min(start + size, units)
            partitions.append(
                Partition(len(partitions), i, start, end, WORLD_SECURE, footprint(end - start))
            )
        producer_rows = size
    return PartitionPlan(scheme, partitions, flags)


def validate_plan(plan: PartitionPlan, model: ModelSpec, cap: int | None) -> list[str]:
    """All violations (not just the first); empty list means the plan is sound.

    One pass over the partitions checks each on its own and groups them by
    layer; one pass over the layers then checks coverage and footprints,
    carrying what a layer's footprint needs of its producer (whether it ran
    in the secure world, and its widest partition) from the layer before.
    """
    problems: list[str] = []
    if plan.scheme not in SCHEMES:
        problems.append(f"unknown scheme {plan.scheme!r}")
    partitions = plan.partitions
    if len({p.id for p in partitions}) != len(partitions):
        problems.append("duplicate partition ids")

    layers = len(model.layers)
    by_layer: list[list[Partition]] = [[] for _ in range(layers)]
    previous_layer = 0
    seen_secure = False
    for p in partitions:
        i = p.layer_index
        if i < previous_layer:
            problems.append(f"partition {p.id} breaks layer execution order")
        else:
            previous_layer = i
        if not 0 <= i < layers:
            problems.append(f"partition {p.id} names layer {i} of {layers}")
            continue
        if p.world == WORLD_SECURE:
            seen_secure = True
            if cap is not None and p.footprint_bytes > cap:
                problems.append(
                    f"partition {p.id} footprint {p.footprint_bytes} exceeds budget {cap}"
                )
        elif p.world == WORLD_NORMAL:
            if seen_secure:
                problems.append(
                    f"partition {p.id} runs in the normal world after a secure partition"
                )
        else:
            problems.append(f"partition {p.id} has unknown world {p.world!r}")
        by_layer[i].append(p)

    spill: set[int] = set()  # the sound flags, the only ones footprints are priced with
    for j in sorted(plan.spill):
        if not 1 <= j < layers:
            problems.append(f"spill flag on layer {j} is out of range")
            continue
        before = len(problems)
        if model.layers[j].kind != "connected":
            problems.append(f"spill flag on layer {j} ({model.layers[j].kind}); only connected layers stream")
        if any(p.world != WORLD_SECURE for p in by_layer[j - 1]):
            problems.append(f"spill flag on layer {j} but layer {j - 1} runs in the normal world")
        if len(problems) == before:
            spill.add(j)

    public_input, producer_rows = True, None  # the model input is public
    for i, parts in enumerate(by_layer):
        if not parts:
            problems.append(f"layer {i} is not covered by any partition")
            public_input, producer_rows = False, None
            continue
        units = model.units(i)
        cursor, widest = 0, parts[0].end - parts[0].start
        worlds = set()
        for p in parts:  # plan order within the layer
            start, end = p.start, p.end
            if start != cursor:
                problems.append(
                    f"layer {i} rows [{cursor}, {start}) "
                    + ("overlap" if start < cursor else "are uncovered")
                )
            if not 0 <= start <= end <= units:
                problems.append(f"partition {p.id} range [{start}, {end}) outside {units} units")
            elif p.world == WORLD_SECURE:
                need = partition_footprint(model, i, end - start, spill, public_input, producer_rows)
                if p.footprint_bytes < need:
                    problems.append(
                        f"partition {p.id} records {p.footprint_bytes} bytes but needs {need}"
                    )
            if end > cursor:
                cursor = end
            if end - start > widest:
                widest = end - start
            worlds.add(p.world)
        if cursor != units:
            problems.append(f"layer {i} covered up to row {cursor} of {units}")
        if len(worlds) > 1:
            problems.append(f"layer {i} mixes worlds {sorted(worlds)}")
        if len(parts) > 1 and not model.is_parameterized(i):
            problems.append(f"{model.layers[i].kind} layer {i} cannot be split")
        public_input, producer_rows = worlds != {WORLD_SECURE}, widest

    return problems


def render_manifest(plan: PartitionPlan) -> str:
    """Line-oriented plan manifest; parse_manifest round-trips it."""
    lines = [f"scheme {plan.scheme}"]
    for i in sorted(plan.spill):
        lines.append(f"spill {i}")
    for p in plan.partitions:
        lines.append(
            f"partition {p.id} layer {p.layer_index} range {p.start}..{p.end} "
            f"world {p.world} bytes {p.footprint_bytes}"
        )
    return "\n".join(lines) + "\n"


_PARTITION_RE = re.compile(
    r"^partition (\d+) layer (\d+) range (\d+)\.\.(\d+) world (secure|normal) bytes (\d+)$"
)
_SPILL_RE = re.compile(r"^spill (\d+)$")


def parse_manifest(text: str) -> PartitionPlan:
    scheme = None
    partitions = []
    spill: set[int] = set()
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("scheme "):
            scheme = line.split(" ", 1)[1]
            continue
        m = _SPILL_RE.match(line)
        if m:
            spill.add(int(m.group(1)))
            continue
        m = _PARTITION_RE.match(line)
        if not m:
            raise PlanError(f"manifest line {number}: unrecognized entry {line!r}")
        pid, layer, start, end, world, footprint = m.groups()
        partitions.append(
            Partition(int(pid), int(layer), int(start), int(end), world, int(footprint))
        )
    if scheme is None:
        raise PlanError("manifest has no scheme line")
    if scheme not in SCHEMES:
        raise PlanError(f"manifest names unknown scheme {scheme!r}")
    return PartitionPlan(scheme, partitions, frozenset(spill))


def _spill_layers(model: ModelSpec, cap: int) -> set[int]:
    """Layers whose inputs will stream from encrypted spill: those whose
    input cannot stay resident next to even a single-row subset, and those
    whose producer cannot hold them next to even its own smallest
    partition. Decided from the last layer back, because spilling layer
    i + 1 frees layer i's output."""
    spill: set[int] = set()
    for i in reversed(range(1, len(model.layers))):
        if not model.is_parameterized(i):
            continue
        if partition_footprint(model, i, 1, spill) > cap:
            if model.layers[i].kind != "connected":
                raise PlanInfeasibleError(
                    f"layer {i} ({model.layers[i].kind}) cannot stream its inputs "
                    f"and does not fit {cap} bytes"
                )
            spill.add(i)
        elif model.layers[i].kind == "connected" and _least_footprint(model, i - 1, spill) > cap:
            spill.add(i)
    return spill


def _least_footprint(model: ModelSpec, i: int, spill: AbstractSet[int]) -> int:
    """Layer i's smallest footprint under the later layers' spill flags: one
    row (a weightless layer runs whole), its input streamed if it can be,
    in chunks of one row of its own producer."""
    rows = model.units(i) if not model.is_parameterized(i) else 1
    if i == 0 or model.layers[i].kind != "connected":
        return partition_footprint(model, i, rows, spill, public_input=i == 0)
    producer_rows = 1 if model.is_parameterized(i - 1) else None
    return partition_footprint(model, i, rows, spill | {i}, producer_rows=producer_rows)
