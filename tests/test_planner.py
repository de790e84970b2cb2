import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdlp.config import load_canonical_model
from cdlp.errors import LayerTooLargeError, PlanError, PlanInfeasibleError
from cdlp.executor import prepare_partition_data, run_partitioned
from cdlp.model import LAYOUT_COLUMNS, LAYOUT_ROWS, BranchTopology, LayerSpec, ModelSpec, Tensor
from cdlp.model import WeightStore
from cdlp.planner import (
    SCHEME_LAYERED,
    THIN_ROWS,
    PartitionPlan,
    SubsetParams,
    parse_manifest,
    partition_footprint,
    plan_branched,
    plan_layered,
    plan_sublayer,
    render_manifest,
    validate_plan,
)
from cdlp.tee import SecureArena

from support import random_model
import numpy as np

CAP = 7 * 2**20


def square_connected(n: int, layers: int = 1) -> ModelSpec:
    return ModelSpec([LayerSpec.connected(n, "linear")] * layers, (n, 1, 1))


def sublayer_sizes(model):
    return {i: model.units(i) for i in range(len(model.layers)) if model.is_parameterized(i)}


# --- footprints ---

def test_square_connected_footprint():
    model = square_connected(100, layers=2)
    # layer 1 holds its secure producer's output; layer 0 reads the public input
    assert partition_footprint(model, 1, 100, frozenset(), 100) == 4 * (100 + 100 + 100 * 100 + 100) == 41200
    assert partition_footprint(model, 0, 100, frozenset(), None) == 4 * (100 + 100 * 100 + 100) == 40800


def test_maxpool_footprint():
    model = ModelSpec([LayerSpec.convolutional(1, 1), LayerSpec.maxpool(2, 2)], (1, 4, 4))
    assert partition_footprint(model, 1, model.units(1), frozenset(), 1) == 4 * (16 + 4) == 80


def test_footprint_monotone_in_outputs():
    values = []
    for n_out in range(1, 60, 3):
        model = ModelSpec([LayerSpec.connected(n_out, "linear")], (32, 1, 1))
        values.append(partition_footprint(model, 0, model.units(0), frozenset(), None))
    assert values == sorted(values)
    assert len(set(values)) == len(values)


# --- layered ---

def test_canonical_model_layered_gives_eleven_partitions():
    plan = plan_layered(load_canonical_model(), CAP)
    assert len(plan.partitions) == 11
    assert all(p.world == "secure" for p in plan.partitions)
    assert validate_plan(plan, load_canonical_model(), CAP) == []


def test_single_layer_model_gives_one_partition():
    plan = plan_layered(square_connected(8), CAP)
    assert len(plan.partitions) == 1
    assert (plan.partitions[0].start, plan.partitions[0].end) == (0, 8)


def test_layered_rejects_oversized_layer():
    model = square_connected(2000)  # ~16 MB of weights
    with pytest.raises(LayerTooLargeError, match="layer 0"):
        plan_layered(model, CAP)


# --- sublayer ---

def test_degenerate_subsets_reduce_to_layered():
    model = load_canonical_model()
    layered = plan_layered(model, CAP)
    sub = plan_sublayer(model, CAP, subset_size=sublayer_sizes(model))
    assert sub.partitions == layered.partitions


def test_auto_selection_solves_the_budget_inequality():
    model = square_connected(2000)
    plan = plan_sublayer(model, CAP)
    params = plan.sublayer[0]
    # the model input is public; the arena holds the whole 2000-float output
    # buffer and s rows of 2000 weights plus a bias:
    # 4*(2000 + 2001s) <= 7 MiB picks s=916, hence 3 subsets
    assert params.subset_size == 916
    assert params.subset_count == 3
    assert [p.end - p.start for p in plan.partitions] == [916, 916, 168]
    assert validate_plan(plan, model, CAP) == []


def test_single_neuron_subsets():
    model = square_connected(16)
    plan = plan_sublayer(model, CAP, subset_size=1)
    assert plan.sublayer[0].subset_count == 16
    # public input; the 16-float output buffer, 16 weights and a bias
    assert all(p.footprint_bytes == 4 * (16 + 17) for p in plan.partitions)


def test_fitting_layers_stay_whole():
    model = load_canonical_model()
    plan = plan_sublayer(model, 100_000)
    # only the third convolution (index 4) is over the 100 kB budget
    split = {i for i, params in plan.sublayer.items() if params.subset_count > 1}
    assert split == {4}
    assert len(plan.partitions) == 12
    assert validate_plan(plan, model, 100_000) == []


@pytest.mark.parametrize("sizes", [0, -3, {5: 0}], ids=["zero", "negative", "mapping"])
def test_a_subset_size_below_one_is_a_bad_value(sizes):
    """A size below 1 is wrong for every model, so it fails as a value
    before any planning; a size above a layer's rows stays a PlanError."""
    with pytest.raises(ValueError, match="subset size must be >= 1"):
        plan_sublayer(load_canonical_model(), CAP, sizes)


@pytest.mark.parametrize(
    "sizes, layer",
    [({99: 3, 1: 2}, 99), ({-1: 3}, -1), ({0: 2, 1: 2}, 1)],  # layer 1 is a maxpool
)
def test_subset_size_for_a_layer_without_weight_rows_is_rejected(sizes, layer):
    with pytest.raises(PlanError, match=f"for layer {layer},"):
        plan_sublayer(load_canonical_model(), CAP, sizes)


def test_explicit_subset_size_over_budget_is_infeasible():
    model = load_canonical_model()
    # 84-row subsets of layer 5 need 41472 bytes
    with pytest.raises(PlanInfeasibleError, match="41472 bytes, budget is 30000"):
        plan_sublayer(model, 30_000, subset_size={5: 84})
    fitting = plan_sublayer(model, 30_000, subset_size={5: 42})
    assert validate_plan(fitting, model, 30_000) == []


def test_spill_flag_set_when_inputs_cannot_stay_resident():
    # inputs 20000 floats: even s=1 needs 4*(20000+20000+2) bytes resident
    model = ModelSpec(
        [LayerSpec.connected(20000, "linear"), LayerSpec.connected(8, "linear")],
        (4, 1, 1),
    )
    cap = 100_000
    plan = plan_sublayer(model, cap)
    assert plan.spill == frozenset({1})
    assert validate_plan(plan, model, cap) == []
    assert all(p.footprint_bytes <= cap for p in plan.partitions)


def test_spill_on_first_layer_is_infeasible():
    model = ModelSpec([LayerSpec.connected(4, "linear")], (20000, 1, 1))
    with pytest.raises(PlanInfeasibleError):
        plan_sublayer(model, 50_000)


WIDE = ModelSpec([LayerSpec.connected(2000)], (2000, 1, 1))

PLAN_REFUSALS = {
    # the planner's own size, a single row, does not fit
    "chosen-size": (
        (WIDE, 6000), PlanInfeasibleError,
        "layer 0 (connected) in partitions of 1 of its 2000 rows needs 16004 bytes, "
        "budget is 6000",
    ),
    "requested-size": (
        (WIDE, 6000, 3), LayerTooLargeError,
        "layer 0 (connected) in partitions of 3 of its 2000 rows needs 32012 bytes, "
        "budget is 6000",
    ),
    "size-above-the-rows": (
        (WIDE, 6000, 2001), PlanError, "subset size 2001 outside [1, 2000] for layer 0",
    ),
    "conv-cannot-stream": (
        (ModelSpec([LayerSpec.convolutional(1, 1)] * 2, (1, 64, 64)), 20_000),
        PlanInfeasibleError,
        "layer 1 (convolutional) cannot stream its inputs and does not fit 20000 bytes",
    ),
}


@pytest.mark.parametrize("refusal", sorted(PLAN_REFUSALS))
def test_each_planner_refusal_has_its_class_and_message(refusal):
    args, error, message = PLAN_REFUSALS[refusal]
    with pytest.raises(PlanError) as raised:
        plan_sublayer(*args)
    assert type(raised.value) is error
    assert str(raised.value) == message


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_every_scheme_covers_every_layer_exactly(seed):
    model = random_model(np.random.default_rng(seed))
    for plan in (
        plan_layered(model, CAP),
        plan_sublayer(model, CAP, subset_size={i: max(1, model.units(i) // 3)
                                               for i in range(len(model.layers))
                                               if model.is_parameterized(i)}),
        plan_branched(model, CAP),
    ):
        assert validate_plan(plan, model, CAP) == []


@given(seed=st.integers(0, 10_000), caps=st.tuples(st.integers(0, 4000), st.integers(0, 4000)))
@settings(max_examples=40, deadline=None)
def test_more_budget_never_means_more_partitions(seed, caps):
    model = square_connected(24, layers=2)
    # layer 1 holds its resident 24-float input, its 24-float output buffer and
    # one row of 24 weights plus a bias: 292 bytes. Below that its input
    # spills. Layer 0 then holds r rows of 24 weights plus a bias and an
    # r-float output chunk (104r bytes), and layer 1 streams those r floats
    # back next to its output buffer and a row: 4 * (24 + 25 + r) bytes. With
    # r = 1 that is 200 bytes, the floor.
    floor = 4 * (24 + 25 + 1)
    with pytest.raises(PlanInfeasibleError):
        plan_sublayer(model, floor - 1)
    for cap in (floor, 4 * (24 + 24 + 25) - 1):
        spilled = plan_sublayer(model, cap)
        assert spilled.spill == frozenset({1})
        assert validate_plan(spilled, model, cap) == []
    # With resident inputs (292 bytes and up) the partition count only falls.
    # The 291-byte plan spills and runs layer 0 in pairs of rows (36
    # partitions), which the greedy planner gives up at 292 bytes (48).
    small = 4 * (24 + 24 + 25) + caps[0]  # always feasible: one-neuron subsets fit
    large = small + caps[1]
    a = plan_sublayer(model, small)
    b = plan_sublayer(model, large)
    assert len(b.partitions) <= len(a.partitions)


@pytest.mark.parametrize("outputs", [(64, 42, 62, 4), (64, 64, 56, 36)])
def test_a_cap_that_plans_still_plans_with_more_budget(outputs):
    # With (64, 42, 62, 4) at 260 bytes layer 2's input could stay resident,
    # but layer 1 cannot hold it next to even one row of its own, so layer 2
    # streams it. With (64, 64, 56, 36) at 392 bytes layer 0 picks the
    # largest subsets whose chunks a single row of layer 1 can stream back.
    model = ModelSpec(
        [LayerSpec.connected(n, "relu") for n in outputs], (1, 6, 6), BranchTopology(1, 2)
    )

    def plans(cap):
        try:
            plan = plan_sublayer(model, cap)
        except PlanInfeasibleError:
            return False
        assert validate_plan(plan, model, cap) == []
        return True

    floor = next(cap for cap in range(1, 1000) if plans(cap))
    assert all(plans(cap) for cap in range(floor, 1000))


# --- branched ---

def branched_model() -> ModelSpec:
    return ModelSpec(
        [
            LayerSpec.convolutional(2, 3, 1, 1, "relu"),
            LayerSpec.connected(8, "relu"),
            LayerSpec.connected(8, "relu"),
            LayerSpec.connected(4, "linear"),
        ],
        (1, 4, 4),
        BranchTopology(2, 2),
    )


def test_branched_partition_counts():
    plan = plan_branched(branched_model(), CAP)
    normals = [p for p in plan.partitions if p.world == "normal"]
    secures = [p for p in plan.partitions if p.world == "secure"]
    assert len(normals) == 2
    assert len(secures) == 4
    assert secures == plan.secure_partitions()
    assert validate_plan(plan, branched_model(), CAP) == []


def test_branched_plan_lists_its_split_layers():
    plan = plan_branched(branched_model(), CAP)
    # layers 2 and 3 run as two branches each; the normal-world prefix runs whole
    assert plan.sublayer == {2: SubsetParams(4, 2), 3: SubsetParams(2, 2)}


def test_branched_requires_topology():
    with pytest.raises(PlanError, match="branch topology"):
        plan_branched(square_connected(8), CAP)


def test_branch_weight_footprint_is_inverse_square_in_branches():
    n, k = 64, 4
    model = ModelSpec(
        [LayerSpec.connected(n, "linear"), LayerSpec.connected(n, "linear")],
        (n, 1, 1),
        BranchTopology(0, k),
    )
    plan = plan_branched(model, CAP)
    per_branch = plan.partitions[0].footprint_bytes
    # public input, the whole n-float output buffer, the branch's n/k biases
    weight_term = per_branch - 4 * (n + n // k)
    assert weight_term == 4 * (n * n) // (k * k)


def test_branched_rejects_oversized_branch():
    model = ModelSpec(
        [LayerSpec.connected(2000, "linear"), LayerSpec.connected(2000, "linear")],
        (2000, 1, 1),
        BranchTopology(0, 2),
    )
    with pytest.raises(LayerTooLargeError):
        plan_branched(model, 100_000)


# --- validation ---

def test_validation_catches_overlap_and_budget():
    model = square_connected(8)
    plan = plan_layered(model, CAP)
    first = plan.partitions[0]
    overlapping = dataclasses.replace(plan, partitions=[
        dataclasses.replace(first, end=6),
        dataclasses.replace(first, id=1, start=4),
    ])
    problems = validate_plan(overlapping, model, CAP)
    assert any("overlap" in p for p in problems)

    over_budget = dataclasses.replace(plan, partitions=[
        dataclasses.replace(first, footprint_bytes=CAP + 1)
    ])
    problems = validate_plan(over_budget, model, CAP)
    assert any("exceeds budget" in p for p in problems)


def test_validation_catches_understated_footprints():
    model = branched_model()
    plan = plan_branched(model, CAP)
    first = plan.secure_partitions()[0]
    # layer 2 reads its 8-float input from shared memory and holds the whole
    # 8-float output buffer and 4 rows of 8/2 weights plus a bias
    assert first.footprint_bytes == 4 * (8 + 4 * 5) == 112
    lowered = dataclasses.replace(plan, partitions=[
        dataclasses.replace(p, footprint_bytes=108) if p == first else p for p in plan.partitions
    ])
    assert validate_plan(lowered, model, CAP) == [
        f"partition {first.id} records 108 bytes but needs 112"
    ]


def test_validation_reports_an_unknown_world():
    model = square_connected(8)
    plan = plan_layered(model, CAP)
    broken = dataclasses.replace(plan, partitions=[
        dataclasses.replace(plan.partitions[0], world="enclave")
    ])
    assert validate_plan(broken, model, CAP) == ["partition 0 has unknown world 'enclave'"]


def test_validation_catches_gaps():
    model = square_connected(8)
    plan = plan_layered(model, CAP)
    gappy = dataclasses.replace(plan, partitions=[
        dataclasses.replace(plan.partitions[0], end=5)
    ])
    problems = validate_plan(gappy, model, CAP)
    assert any("covered up to row 5" in p for p in problems)


def test_validation_refuses_a_partition_that_covers_no_rows():
    """An empty partition would cost a session, and re-decrypt a spilled
    input, for no rows."""
    model = square_connected(8, layers=2)
    plan = plan_layered(model, CAP).with_spill(1)
    last = plan.partitions[-1]
    empty = dataclasses.replace(
        plan, partitions=plan.partitions + [dataclasses.replace(last, id=2, start=8, end=8)]
    )
    assert validate_plan(empty, model, CAP) == ["partition 2 covers no rows"]
    x = Tensor((8, 1, 1), np.zeros(8, np.float32))
    with pytest.raises(PlanError, match="partition 2 covers no rows"):
        run_partitioned(model, {}, empty, x, SecureArena(CAP), bytes(16))


def test_validation_checks_spill_flags():
    model = square_connected(8, layers=2)
    plan = plan_layered(model, CAP)
    assert validate_plan(plan.with_spill(1), model, CAP) == []
    problems = validate_plan(plan.with_spill(0), model, CAP)
    assert any("spill" in p for p in problems)


def test_validation_rejects_split_weightless_layers():
    model = ModelSpec([LayerSpec.maxpool(2, 2), LayerSpec.softmax()], (1, 4, 4))
    pool, soft = plan_layered(model, CAP).partitions
    split = PartitionPlan(SCHEME_LAYERED, [
        dataclasses.replace(pool, end=2),
        dataclasses.replace(pool, id=1, start=2),
        dataclasses.replace(soft, id=2, end=1),
        dataclasses.replace(soft, id=3, start=1),
    ])
    assert validate_plan(split, model, CAP) == [
        "maxpool layer 0 cannot be split",
        "softmax layer 1 cannot be split",
    ]
    key = bytes(16)
    data = prepare_partition_data(WeightStore([None, None]), split, key)
    x = Tensor((1, 4, 4), np.arange(16, dtype=np.float32))
    with pytest.raises(PlanError, match="invalid plan: maxpool layer 0 cannot be split"):
        run_partitioned(model, data, split, x, SecureArena(CAP), key)


def _canonical_manifest(edit):
    """The canonical layered manifest, edited as text, and its model."""
    def build():
        model = load_canonical_model()
        lines = render_manifest(plan_layered(model, CAP)).splitlines()
        return model, parse_manifest("\n".join(edit(lines)))
    return build


def _swapped(lines, a, b):
    lines[a], lines[b] = lines[b], lines[a]
    return lines


def _branched_layer_1_in_two_worlds():
    model = branched_model()
    text = render_manifest(plan_branched(model, CAP)).replace(
        "partition 1 layer 1 range 0..8 world normal bytes 0",
        "partition 1 layer 1 range 0..4 world normal bytes 0\n"
        "partition 6 layer 1 range 4..8 world secure bytes 1216",
    )
    return model, parse_manifest(text)


def _diagonal_scheme():
    model = load_canonical_model()
    return model, dataclasses.replace(plan_layered(model, CAP), scheme="diagonal")


def _diagonal_layout():
    model = square_connected(8)
    plan = plan_layered(model, CAP)
    plan.partitions[0] = dataclasses.replace(plan.partitions[0], layout="diagonal")
    return model, plan


PLAN_VIOLATIONS = {
    "duplicate-id": (
        _canonical_manifest(lambda ls: [*ls, ls[-1].replace("partition 10", "partition 9")]),
        "duplicate partition ids",
    ),
    "swapped-lines": (
        _canonical_manifest(lambda ls: _swapped(ls, 5, 6)),
        "partition 4 breaks layer execution order",
    ),
    "layer-11": (
        _canonical_manifest(lambda ls: [*ls[:-1], ls[-1].replace("layer 10", "layer 11")]),
        "partition 10 names layer 11 of 11",
    ),
    "spill-on-a-maxpool": (
        _canonical_manifest(lambda ls: [ls[0], "spill 1", *ls[1:]]),
        "spill flag on layer 1 (maxpool); only connected layers stream",
    ),
    "layer-3-dropped": (
        _canonical_manifest(lambda ls: [line for line in ls if " layer 3 " not in line]),
        "layer 3 is not covered by any partition",
    ),
    "range-past-the-units": (
        _canonical_manifest(lambda ls: [line.replace("range 0..10 world secure bytes 1136",
                                                     "range 0..12 world secure bytes 1136")
                                        for line in ls]),
        "partition 9 range [0, 12) outside 10 units",
    ),
    "mixed-worlds": (_branched_layer_1_in_two_worlds, "layer 1 mixes worlds ['normal', 'secure']"),
    "unknown-scheme": (_diagonal_scheme, "unknown scheme 'diagonal'"),
    "row-major-conv": (
        _canonical_manifest(lambda ls: [ls[0], ls[1] + " layout rows", *ls[2:]]),
        "partition 0 is marked row-major but layer 0 is convolutional",
    ),
    "unknown-layout": (_diagonal_layout, "partition 0 has unknown layout 'diagonal'"),
}


@pytest.mark.parametrize("violation", sorted(PLAN_VIOLATIONS))
def test_validation_reports_each_violation(violation):
    build, message = PLAN_VIOLATIONS[violation]
    model, plan = build()
    assert message in validate_plan(plan, model, CAP)


# --- manifest ---

def test_manifest_round_trip():
    model = load_canonical_model()
    for plan in (
        plan_layered(model, CAP),
        plan_sublayer(model, 100_000),
        plan_sublayer(model, 100_000).with_spill(9),
        plan_branched(branched_model(), CAP),
    ):
        text = render_manifest(plan)
        assert not any(line.startswith("sublayer ") for line in text.splitlines())
        again = parse_manifest(text)
        assert again == plan
        assert again.sublayer == plan.sublayer


def test_manifest_round_trip_with_spill():
    model = ModelSpec(
        [LayerSpec.connected(20000, "linear"), LayerSpec.connected(8, "linear")],
        (4, 1, 1),
    )
    plan = plan_sublayer(model, 100_000)
    assert plan.spill
    assert parse_manifest(render_manifest(plan)) == plan


def test_manifest_blank_lines_are_skipped():
    plan = plan_layered(square_connected(8), CAP)
    text = render_manifest(plan).replace("\n", "\n\n  \n")
    assert parse_manifest("\n" + text) == plan


def test_manifest_rejects_an_unknown_scheme():
    with pytest.raises(PlanError) as err:
        parse_manifest("scheme diagonal\n")
    assert str(err.value) == "manifest names unknown scheme 'diagonal'"


def test_manifest_partition_line_format():
    plan = plan_layered(square_connected(8), CAP)
    line = render_manifest(plan).splitlines()[1]
    assert line == (
        f"partition 0 layer 0 range 0..8 world secure bytes {plan.partitions[0].footprint_bytes}"
        " layout rows"
    )
    plan = plan_layered(square_connected(THIN_ROWS + 1), CAP)  # column-major: no layout token
    line = render_manifest(plan).splitlines()[1]
    assert line == f"partition 0 layer 0 range 0..17 world secure bytes {plan.partitions[0].footprint_bytes}"


def test_thin_connected_partitions_are_row_major_in_both_worlds():
    model = ModelSpec(
        [
            LayerSpec.convolutional(2, 3, 1, 1, "relu"),
            LayerSpec.connected(THIN_ROWS, "relu"),
            LayerSpec.connected(2 * (THIN_ROWS + 1), "relu"),
            LayerSpec.connected(4, "linear"),
        ],
        (1, 4, 4),
        BranchTopology(2, 2),
    )
    plans = [plan_layered(model, CAP), plan_branched(model, CAP)]
    plans += [plan_sublayer(model, CAP, subset_size={2: size}) for size in (THIN_ROWS, THIN_ROWS + 1)]
    for plan in plans:
        for p in plan.partitions:
            thin = model.layers[p.layer_index].kind == "connected" and p.end - p.start <= THIN_ROWS
            assert p.layout == (LAYOUT_ROWS if thin else LAYOUT_COLUMNS)
        assert validate_plan(plan, model, CAP) == []
    assert [p.layout for p in plans[1].partitions] == ["columns", "rows", "columns", "columns", "rows", "rows"]
    assert [p.world for p in plans[1].partitions][:2] == ["normal", "normal"]


def test_a_manifest_without_layout_tokens_reads_column_major():
    """Every manifest written before partitions named a layout reads back
    column-major, and renders to the same text, so to the same plan digest."""
    model = square_connected(8, layers=2)
    text = (
        "scheme sublayer\n"
        "partition 0 layer 0 range 0..4 world secure bytes 176\n"
        "partition 1 layer 0 range 4..8 world secure bytes 176\n"
        "partition 2 layer 1 range 0..8 world secure bytes 352\n"
    )
    plan = parse_manifest(text)
    assert [p.layout for p in plan.partitions] == [LAYOUT_COLUMNS] * 3
    assert render_manifest(plan) == text
    assert validate_plan(plan, model, CAP) == []
    # the same plan made now marks its thin partitions row-major: another manifest
    made = plan_sublayer(model, CAP, subset_size={0: 4, 1: 8})
    assert [dataclasses.replace(p, layout=LAYOUT_COLUMNS) for p in made.partitions] == plan.partitions
    assert render_manifest(made).replace(" layout rows", "") == text


@pytest.mark.parametrize("token", ["layout diagonal", "layout", "layout rows rows", "layout ROWS"])
def test_manifest_rejects_an_unknown_layout_token(token):
    text = f"scheme layered\npartition 0 layer 0 range 0..8 world secure bytes 1 {token}\n"
    with pytest.raises(PlanError, match="line 2: "):
        parse_manifest(text)


def test_manifest_rejects_a_sublayer_line():
    # subset sizes follow from the partition lines, so a manifest does not state them
    text = "scheme sublayer\nsublayer 4 s 10 p 3\n"
    with pytest.raises(PlanError, match="line 2: unrecognized entry 'sublayer 4 s 10 p 3'"):
        parse_manifest(text)


@pytest.mark.parametrize("line", ["spill x", "spill 1 2", "spill -1"])
def test_manifest_rejects_a_malformed_spill_line(line):
    text = f"scheme layered\n{line}\n"
    with pytest.raises(PlanError, match=f"line 2: unrecognized entry '{line}'"):
        parse_manifest(text)


def test_manifest_rejects_a_second_scheme_line():
    text = "scheme layered\nscheme sublayer\npartition 0 layer 0 range 0..8 world secure bytes 1\n"
    with pytest.raises(PlanError, match="line 2: a second scheme line"):
        parse_manifest(text)


def test_manifest_rejects_garbage():
    with pytest.raises(PlanError):
        parse_manifest("scheme layered\npartition zero\n")
    with pytest.raises(PlanError):
        parse_manifest("partition 0 layer 0 range 0..8 world secure bytes 1\n")
