import bisect
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdlp import container, executor
from cdlp.config import load_canonical_model
from cdlp.container import HEADER_BYTES, MAGIC, aead
from cdlp.errors import FormatError, IntegrityError, PlanError, SecureMemoryError
from cdlp.executor import (
    SpilledActivations,
    compare_runs,
    prepare_partition_data,
    run_partitioned,
    run_reference,
    spill_activations,
    stream_spilled,
)
from cdlp.model import FLOAT_BYTES, LayerSpec, ModelSpec, Tensor
from cdlp.nn import layer_forward
from cdlp.planner import (
    SPILL_CHUNK_BYTES,
    partition_footprint,
    plan_branched,
    plan_layered,
    plan_sublayer,
    validate_plan,
)
from cdlp.tee import (
    CostLedger,
    SecureArena,
    SharedBuffer,
    TaintTag,
    find_plaintext_leak,
    ledger_decrypt,
)
from cdlp.weights import split_weights

from support import random_case, random_tensor, random_weight_store, spilled_secrets

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
CIPHER = aead(KEY)
SPILL_CONTEXT = b"spill" + bytes(64)  # a spill context: tag, plan digest, run nonce, layer
CAP = 7 * 2**20


def run_plan(model, store, plan, x, cap=CAP):
    data = prepare_partition_data(store, plan, KEY)
    arena = SecureArena(cap)
    return run_partitioned(model, data, plan, x, arena, KEY)


def canonical_case(seed=42):
    model = load_canonical_model()
    rng = np.random.default_rng(seed)
    return model, random_weight_store(model, rng), random_tensor(rng, model.input_dims)


def sublayer_thirds(model):
    return {
        i: max(1, model.units(i) // 3)
        for i in range(len(model.layers))
        if model.is_parameterized(i)
    }


# --- core equivalence ---

def test_layered_run_matches_reference_bitwise():
    from cdlp.tee import estimate_overhead, ledger_overhead

    model, store, x = canonical_case()
    plan = plan_layered(model, CAP)
    result = run_plan(model, store, plan, x)
    reference = run_reference(model, store, x)
    report = compare_runs(result.output, reference.output)
    assert report.bitwise_equal
    assert result.ledger.context_switches == 2 * 11
    assert result.ledger.decrypted_bytes == sum(len(b) for b in split_weights(store, plan))
    # the ledger's own counters and the closed-form estimate agree exactly
    assert ledger_overhead(result.ledger) == estimate_overhead(
        len(plan.partitions), result.ledger.decrypted_bytes
    )


def test_sublayer_run_matches_reference_and_counts_plaintext():
    model, store, x = canonical_case(7)
    plan = plan_sublayer(model, CAP, subset_size=sublayer_thirds(model))
    assert any(p.subset_count > 1 for p in plan.sublayer.values())
    result = run_plan(model, store, plan, x)
    assert compare_runs(result.output, run_reference(model, store, x).output).bitwise_equal
    assert result.ledger.decrypted_bytes == sum(len(b) for b in split_weights(store, plan))
    assert result.ledger.context_switches == 2 * len(plan.partitions)


def test_branched_run_matches_reference():
    model, store, x = random_case(101)
    plan = plan_branched(model, CAP)
    result = run_plan(model, store, plan, x)
    assert compare_runs(result.output, run_reference(model, store, x).output).bitwise_equal
    # the normal-to-secure handoff crosses shared memory tagged public:
    # at least the model input and the extracted features
    public_writes = [
        w for w in result.shared.writes
        if w.tag == TaintTag.PUBLIC and not w.data.startswith(MAGIC)  # not a container header
    ]
    assert len(public_writes) >= 2


def test_fully_branched_model_reads_public_input_per_branch():
    from cdlp.model import BranchTopology

    model = ModelSpec(
        [LayerSpec.connected(8, "relu"), LayerSpec.connected(4, "linear")],
        (8, 1, 1),
        BranchTopology(0, 2),
    )
    rng = np.random.default_rng(105)
    store = random_weight_store(model, rng)
    x = random_tensor(rng, (8, 1, 1))
    plan = plan_branched(model, CAP)
    assert all(p.world == "secure" for p in plan.partitions)
    result = run_plan(model, store, plan, x)
    assert compare_runs(result.output, run_reference(model, store, x).output).bitwise_equal


def test_normal_partitions_cost_nothing():
    model, store, x = random_case(102)
    plan = plan_branched(model, CAP)
    secure = plan.secure_partitions()
    assert len(secure) < len(plan.partitions)
    result = run_plan(model, store, plan, x)
    assert result.ledger.context_switches == 2 * len(secure)
    secure_blob_bytes = sum(
        len(b) for p, b in zip(plan.partitions, split_weights(store, plan)) if p.encrypted
    )
    assert result.ledger.decrypted_bytes == secure_blob_bytes
    # one trace per plan partition, in plan order; the normal-world ones record 0 and 0
    assert [t.partition for t in result.partitions] == plan.partitions
    charged = {t.partition.id for t in result.partitions if t.decrypted_bytes or t.arena_peak}
    assert charged == {p.id for p in secure}
    assert sum(t.decrypted_bytes for t in result.partitions) == result.ledger.decrypted_bytes
    assert_peaks_match_footprints(result, plan)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_equivalence_property_across_schemes(seed):
    model, store, x = random_case(seed)
    reference = run_reference(model, store, x).output
    for plan in (
        plan_layered(model, CAP),
        plan_sublayer(model, CAP, subset_size=sublayer_thirds(model)),
        plan_branched(model, CAP),
    ):
        result = run_plan(model, store, plan, x)
        assert compare_runs(result.output, reference).bitwise_equal


# --- memory discipline ---

def test_arena_peak_within_budget_and_planned_footprints():
    model, store, x = canonical_case(8)
    cap = 100_000
    plan = plan_sublayer(model, cap)
    result = run_plan(model, store, plan, x, cap=cap)
    assert result.arena_peak <= cap
    biggest = max(p.footprint_bytes for p in plan.partitions)
    assert result.arena_peak == biggest


def test_a_reused_arena_reports_the_runs_own_peak():
    model, store, x = canonical_case(22)
    arena = SecureArena(CAP)
    layered = plan_layered(model, CAP)
    first = run_partitioned(model, prepare_partition_data(store, layered, KEY), layered, x,
                            arena, KEY)
    assert first.arena_peak == 194_560
    # the second run on the same arena peaks at its own largest footprint,
    # not at the first run's
    sublayer = plan_sublayer(model, 24_000)
    second = run_partitioned(model, prepare_partition_data(store, sublayer, KEY), sublayer, x,
                             arena, KEY)
    assert second.arena_peak == max(p.footprint_bytes for p in sublayer.partitions) == 23_792


def test_each_run_charges_its_own_ledger():
    model, store, x = canonical_case(24)
    arena = SecureArena(CAP)
    plan = plan_layered(model, CAP)
    data = prepare_partition_data(store, plan, KEY)
    first = run_partitioned(model, data, plan, x, arena, KEY)
    counts = (22, 294_008)
    assert (first.ledger.context_switches, first.ledger.decrypted_bytes) == counts
    second = run_partitioned(model, data, plan, x, arena, KEY)
    assert second.ledger is not first.ledger
    assert (second.ledger.context_switches, second.ledger.decrypted_bytes) == counts
    assert (first.ledger.context_switches, first.ledger.decrypted_bytes) == counts


def tightest_cap(plan_fn, model) -> int:
    """The smallest cap at which ``plan_fn`` plans the model."""

    def plans(cap: int) -> bool:
        try:
            plan_fn(model, cap)
        except PlanError:
            return False
        return True

    return 1 + bisect.bisect_left(range(1, CAP), True, key=plans)


def assert_peaks_match_footprints(result, plan):
    planned = {p.id: p.footprint_bytes for p in plan.secure_partitions()}
    measured = {t.partition.id: t.arena_peak for t in result.partitions if t.partition.encrypted}
    assert measured == planned


@given(seed=st.integers(0, 10_000), per_mille=st.integers(1000, 4000), data=st.data())
@settings(max_examples=30, deadline=None)
def test_plans_run_at_their_cap_and_peak_at_their_footprints(seed, per_mille, data):
    model, store, x = random_case(seed)
    reference = run_reference(model, store, x).output
    caps = {
        fn: tightest_cap(fn, model) * per_mille // 1000 for fn in (plan_sublayer, plan_branched)
    }
    for plan_fn, cap in caps.items():
        plan = plan_fn(model, cap)
        assert validate_plan(plan, model, cap) == []
        result = run_plan(model, store, plan, x, cap=cap)
        assert compare_runs(result.output, reference).bitwise_equal
        assert_peaks_match_footprints(result, plan)

    layered = plan_layered(model, CAP)
    assert_peaks_match_footprints(run_plan(model, store, layered, x), layered)

    # spilling only lowers footprints, so the recorded ones still bound the peaks
    connected = [i for i in range(1, len(model.layers)) if model.layers[i].kind == "connected"]
    j = data.draw(st.sampled_from(connected))
    cap = caps[plan_sublayer]
    spilled = plan_sublayer(model, cap).with_spill(j)
    assert validate_plan(spilled, model, cap) == []
    result = run_plan(model, store, spilled, x, cap=cap)
    assert compare_runs(result.output, reference).bitwise_equal
    planned = {p.id: p.footprint_bytes for p in spilled.partitions}
    assert all(t.arena_peak <= planned[t.partition.id] for t in result.partitions)


def test_canonical_sublayer_plan_runs_at_24000_bytes():
    model, store, x = canonical_case(18)
    plan = plan_sublayer(model, 24_000)
    result = run_plan(model, store, plan, x, cap=24_000)
    assert compare_runs(result.output, run_reference(model, store, x).output).bitwise_equal
    assert_peaks_match_footprints(result, plan)


def test_streamed_chunks_are_priced_at_the_producers_partition_output():
    # at 20000 bytes layers 1 and 2 stream their inputs from spill; layer 0
    # runs in 833-row subsets, so a streamed chunk of layer 1 holds 3332
    # bytes, and layer 1 runs row by row, so one of layer 2 holds 4 bytes
    model = ModelSpec(
        [
            LayerSpec.connected(3000, "relu"),
            LayerSpec.connected(3000, "relu"),
            LayerSpec.connected(8, "linear"),
        ],
        (4, 1, 1),
    )
    rng = np.random.default_rng(29)
    store, x = random_weight_store(model, rng), random_tensor(rng, model.input_dims)
    plan = plan_sublayer(model, 20_000)
    assert plan.spill == frozenset({1, 2})
    assert len(plan.partitions) == 3012
    assert validate_plan(plan, model, 20_000) == []
    result = run_plan(model, store, plan, x, cap=20_000)
    assert compare_runs(result.output, run_reference(model, store, x).output).bitwise_equal
    assert_peaks_match_footprints(result, plan)


def test_runtime_oom_when_arena_smaller_than_plan_needs():
    model, store, x = canonical_case(9)
    plan = plan_layered(model, CAP)
    arena = SecureArena(1000)  # far below any layer footprint
    data = prepare_partition_data(store, plan, KEY)
    with pytest.raises((SecureMemoryError, PlanError)):
        run_partitioned(model, data, plan, x, arena, KEY)


def test_all_arena_memory_returned_after_run():
    model, store, x = random_case(103)
    plan = plan_layered(model, CAP)
    data = prepare_partition_data(store, plan, KEY)
    arena = SecureArena(CAP)
    run_partitioned(model, data, plan, x, arena, KEY)
    assert arena.current_usage == 0
    assert arena.peak_usage > 0


def unsound_plan(case):
    """A plan of a 8 -> 8 -> 8 -> 4 model, branched after layer 0, that
    ``validate_plan`` rejects, and the problem it reports."""
    from cdlp.model import BranchTopology

    model = ModelSpec(
        [
            LayerSpec.connected(8, "relu"),
            LayerSpec.connected(8, "relu"),
            LayerSpec.connected(4, "linear"),
        ],
        (8, 1, 1),
        BranchTopology(1, 2),
    )
    layered = plan_layered(model, CAP)
    if case == "normal after secure":
        last = layered.partitions[-1]
        plan = replace(layered, partitions=layered.partitions[:-1] + [replace(last, world="normal")])
        problem = f"partition {last.id} runs in the normal world after a secure partition"
    elif case == "spill into layer 0":
        plan, problem = layered.with_spill(0), "spill flag on layer 0 is out of range"
    elif case == "spill past the last layer":
        plan, problem = layered.with_spill(3), "spill flag on layer 3 is out of range"
    else:  # a spill whose producer runs in the normal world
        plan = plan_branched(model, CAP).with_spill(1)
        problem = "spill flag on layer 1 but layer 0 runs in the normal world"
    return model, plan, problem


@pytest.mark.parametrize(
    "case",
    ["normal after secure", "spill into layer 0", "spill past the last layer", "public producer"],
)
def test_an_unsound_plan_fails_validation_before_any_switch(case, monkeypatch):
    model, plan, problem = unsound_plan(case)
    rng = np.random.default_rng(23)
    store, x = random_weight_store(model, rng), random_tensor(rng, model.input_dims)
    data = prepare_partition_data(store, plan, KEY)
    invoked = []
    monkeypatch.setattr(executor.Session, "invoke", lambda self, fn: invoked.append(fn))
    with pytest.raises(PlanError) as err:
        run_partitioned(model, data, plan, x, SecureArena(CAP), KEY)
    assert problem in str(err.value).removeprefix("invalid plan: ").split("; ")
    assert invoked == []


@pytest.mark.parametrize(
    "case",
    ["normal after secure", "spill into layer 0", "spill past the last layer", "public producer"],
)
def test_an_unsound_plan_reports_only_its_own_problem(case):
    """A rejected spill flag does not also inflate the footprints it would price."""
    model, plan, problem = unsound_plan(case)
    assert validate_plan(plan, model, CAP) == [problem]


def tamper_tag(data, pid):
    bad = dict(data)
    bad[pid] = bad[pid][:-1] + bytes([bad[pid][-1] ^ 0x01])  # the GCM tag's last byte
    return bad


@pytest.mark.parametrize("scheme", ["layered", "sublayer"])
def test_a_failed_run_frees_its_arena_memory(scheme):
    model, store, x = canonical_case(19)
    if scheme == "layered":
        plan = plan_layered(model, CAP)
        victim = 4  # a conv layer reading the resident outputs of layer 3
    else:
        plan = plan_sublayer(model, 100_000)
        # a later subset of a split layer: its layer's outputs are charged too
        victim = next(p.id for p in plan.partitions if p.start > 0 and p.layer_index > 0)
    cap = max(p.footprint_bytes for p in plan.partitions)
    arena = SecureArena(cap)
    data = prepare_partition_data(store, plan, KEY)
    with pytest.raises(IntegrityError):
        run_partitioned(model, tamper_tag(data, victim), plan, x, arena, KEY)
    assert arena.current_usage == 0

    # the same arena, still at the plan's cap, runs the good containers
    result = run_partitioned(model, data, plan, x, arena, KEY)
    assert compare_runs(result.output, run_reference(model, store, x).output).bitwise_equal
    assert result.arena_peak == cap
    assert arena.current_usage == 0


# --- spill path ---

def spill_model():
    model = ModelSpec(
        [LayerSpec.connected(1000, "relu"), LayerSpec.connected(200, "linear")],
        (8, 1, 1),
    )
    rng = np.random.default_rng(11)
    return model, random_weight_store(model, rng), random_tensor(rng, (8, 1, 1))


def ciphertext_writes(result):
    return sum(w.tag == TaintTag.CIPHERTEXT for w in result.shared.writes)


def test_spill_redecryption_cost_is_exact():
    model, store, x = spill_model()
    plan = plan_sublayer(model, CAP, subset_size={0: 1000, 1: 50})
    assert plan.sublayer[1].subset_count == 4
    plain = run_plan(model, store, plan, x)
    spilled = run_plan(model, store, plan.with_spill(1), x)
    assert compare_runs(plain.output, spilled.output).bitwise_equal
    extra = spilled.ledger.decrypted_bytes - plain.ledger.decrypted_bytes
    assert extra == 4 * 4 * 1000
    # the 4000 spilled bytes leave the arena as exactly one 4 KiB ciphertext chunk
    assert ciphertext_writes(spilled) == ciphertext_writes(plain) + 1


def test_spilled_activations_never_touch_shared_memory_in_the_clear():
    model, store, x = spill_model()
    plan = plan_sublayer(model, CAP, subset_size={0: 1000, 1: 50}).with_spill(1)
    result = run_plan(model, store, plan, x)
    secrets = spilled_secrets(model, store, plan, x)
    assert len(secrets) == 1 and len(secrets[0]) == 4000
    secrets += [b for b in split_weights(store, plan) if len(b) >= 8]
    assert find_plaintext_leak(result.shared, secrets) is None


def test_branched_plan_with_a_spilled_secure_layer():
    from cdlp.model import BranchTopology

    # a public normal-to-secure handoff and a spill in one run
    model = ModelSpec(
        [
            LayerSpec.convolutional(8, 3, 1, 1, activation="relu"),
            LayerSpec.maxpool(2, 2),
            LayerSpec.connected(256, "relu"),
            LayerSpec.connected(256, "relu"),
            LayerSpec.connected(64, "linear"),
        ],
        (3, 32, 32),
        BranchTopology(3, 4),
    )
    rng = np.random.default_rng(21)
    store = random_weight_store(model, rng)
    x = random_tensor(rng, model.input_dims)
    plan = plan_branched(model, CAP).with_spill(4)
    assert validate_plan(plan, model, CAP) == []
    assert {p.world for p in plan.partitions if p.layer_index < 3} == {"normal"}
    assert {p.world for p in plan.partitions if p.layer_index >= 3} == {"secure"}

    result = run_plan(model, store, plan, x)
    assert compare_runs(result.output, run_reference(model, store, x).output).bitwise_equal
    secure_blobs = [b for p, b in zip(plan.partitions, split_weights(store, plan)) if p.encrypted]
    # each of layer 4's four branches streams layer 3's 256 outputs back
    assert result.ledger.decrypted_bytes == sum(map(len, secure_blobs)) + 4 * 256 * FLOAT_BYTES
    planned = {p.id: p.footprint_bytes for p in plan.partitions}
    assert all(t.arena_peak <= planned[t.partition.id] for t in result.partitions)

    # in the clear, shared memory holds only the input and the features the
    # normal-world prefix hands over; the spilled activations share ReLU's
    # zero runs with the features, so the audit covers the other writes
    features = x
    for i in range(3):
        features = layer_forward(model, i, features, store.layers[i])
    public = [
        w for w in result.shared.writes
        if w.tag == TaintTag.PUBLIC and not w.data.startswith(MAGIC)  # not a container header
    ]
    assert [w.data for w in public] == [x.tobytes(), features.tobytes()]
    sealed = SharedBuffer()
    for w in result.shared.writes:
        if w not in public:
            sealed.append(w.data, w.tag)
    secrets = spilled_secrets(model, store, plan, x)
    assert len(secrets) == 1 and len(secrets[0]) == 256 * FLOAT_BYTES
    assert find_plaintext_leak(sealed, secrets + secure_blobs) is None


def test_spill_stream_round_trip():
    rng = np.random.default_rng(12)
    values = rng.standard_normal(2500).astype(np.float32)
    arena = SecureArena(CAP)
    spilled = SpilledActivations(SharedBuffer(), SPILL_CONTEXT)
    spill_activations(values, CIPHER, arena, spilled)
    chunks = (2500 * FLOAT_BYTES + SPILL_CHUNK_BYTES - 1) // SPILL_CHUNK_BYTES
    assert len(spilled.chunks) == chunks == 3  # two whole 4 KiB chunks and a partial one

    collected = np.zeros(2500, np.float32)

    def consumer(chunk, base):
        collected[base : base + chunk.size] = chunk

    ledger = CostLedger()
    stream_spilled(spilled, CIPHER, arena, consumer, ledger)
    assert collected.tobytes() == values.tobytes()
    assert ledger.decrypted_bytes == 10000
    assert arena.current_usage == 0


def test_streaming_twice_doubles_the_cost():
    rng = np.random.default_rng(13)
    values = rng.standard_normal(128).astype(np.float32)
    arena = SecureArena(CAP)
    spilled = SpilledActivations(SharedBuffer(), SPILL_CONTEXT)
    spill_activations(values, CIPHER, arena, spilled)
    ledger = CostLedger()
    for _ in range(2):
        stream_spilled(spilled, CIPHER, arena, lambda c, b: None, ledger)
    assert ledger.decrypted_bytes == 2 * 128 * FLOAT_BYTES


def test_tampered_spill_chunk_aborts_before_consumption():
    rng = np.random.default_rng(14)
    values = rng.standard_normal(3000).astype(np.float32)
    arena = SecureArena(CAP)
    buffer = SharedBuffer()
    spilled = SpilledActivations(buffer, SPILL_CONTEXT)
    spill_activations(values, CIPHER, arena, spilled)
    assert len(spilled.chunks) == 3
    offset, length = spilled.chunks[1]
    tampered = bytearray(buffer.read(offset, length))
    tampered[40] ^= 1
    spilled.chunks[1] = buffer.append(tampered, TaintTag.CIPHERTEXT), length  # read the copy

    seen = []
    with pytest.raises(IntegrityError):
        stream_spilled(spilled, CIPHER, arena, lambda c, b: seen.append(b), CostLedger())
    assert seen == [0]  # only the intact chunk before the tampered one
    assert arena.current_usage == 0


# --- tampering and taint ---

def test_tampered_partition_aborts_the_run():
    model, store, x = canonical_case(15)
    plan = plan_layered(model, CAP)
    data = prepare_partition_data(store, plan, KEY)
    tampered = bytearray(data[4])
    tampered[60] ^= 0x10
    data[4] = bytes(tampered)
    with pytest.raises(IntegrityError):
        run_partitioned(model, data, plan, x, SecureArena(CAP), KEY)


def test_no_weight_window_reaches_shared_memory():
    model, store, x = canonical_case(16)
    plan = plan_layered(model, CAP)
    result = run_plan(model, store, plan, x)
    secrets = [b for b in split_weights(store, plan) if len(b) >= 8]
    assert find_plaintext_leak(result.shared, secrets) is None


def test_container_headers_are_logged_apart_from_their_ciphertext():
    model, store, x = spill_model()
    plan = plan_sublayer(model, CAP, subset_size={0: 1000, 1: 50}).with_spill(1)
    result = run_plan(model, store, plan, x)
    writes = result.shared.writes
    ciphertexts = [i for i, w in enumerate(writes) if w.tag == TaintTag.CIPHERTEXT]
    # 5 weight containers and 1 spill chunk, each a public header then its ciphertext
    assert len(ciphertexts) == len(plan.partitions) + 1
    for i in ciphertexts:
        header = writes[i - 1]
        assert header.tag == TaintTag.PUBLIC and header.data.startswith(MAGIC)
        assert header.length == HEADER_BYTES and header.offset + HEADER_BYTES == writes[i].offset

    buffer = SharedBuffer()
    spilled = SpilledActivations(buffer, SPILL_CONTEXT)
    spill_activations(np.zeros(1000, np.float32), CIPHER, SecureArena(CAP), spilled)
    data = buffer.read(*spilled.chunks[0])
    # the length field's zero bytes next to the first ciphertext bytes are no
    # logged slice, so a secret holding them by chance is not reported
    straddle = data[HEADER_BYTES - 6 : HEADER_BYTES + 2]
    assert find_plaintext_leak(buffer, [straddle]) is None
    inside = data[HEADER_BYTES + 8 : HEADER_BYTES + 16]
    assert find_plaintext_leak(buffer, [inside]) == inside


@pytest.mark.parametrize("scheme", ["layered", "spilled-sublayer", "branched"])
def test_the_audit_finds_a_slice_of_each_secret_planted_in_a_run_log(scheme):
    """A run's log is clean, and the same log with an 8-byte slice of any one
    secret appended is not: a key builder that returned no keys would pass
    every clean audit."""
    if scheme == "layered":
        model, store, x = canonical_case(23)
        plan = plan_layered(model, CAP)
    elif scheme == "spilled-sublayer":
        model, store, x = spill_model()
        plan = plan_sublayer(model, CAP, subset_size={0: 1000, 1: 50}).with_spill(1)
    else:
        model, store, x = random_case(101)
        plan = plan_branched(model, CAP)
    result = run_plan(model, store, plan, x)
    blobs = [b for p, b in zip(plan.partitions, split_weights(store, plan)) if p.encrypted]
    secrets = [s for s in blobs + spilled_secrets(model, store, plan, x) if len(s) >= 8]
    assert find_plaintext_leak(result.shared, secrets) is None
    for secret in secrets:
        planted = SharedBuffer()
        for w in result.shared.writes:
            planted.append(w.data, w.tag)
        at = len(secret) // 2 - 4
        planted.append(secret[at : at + 8], TaintTag.CIPHERTEXT)
        assert find_plaintext_leak(planted, secrets) == secret[at : at + 8]


# --- a hostile shared buffer ---

def wide_spill_case(seed=19):
    """16 -> 2048 -> 64, the second layer in four subsets that stream its
    spilled input back as two 4 KiB chunks with ids 0 and 1, the ids of the
    weight partitions 0 and 1. Two inputs, for two runs."""
    model = ModelSpec(
        [LayerSpec.connected(2048, "relu"), LayerSpec.connected(64, "linear")], (16, 1, 1)
    )
    rng = np.random.default_rng(seed)
    store = random_weight_store(model, rng)
    plan = plan_sublayer(model, CAP, subset_size={0: 2048, 1: 16}).with_spill(1)
    return model, store, plan, [random_tensor(rng, (16, 1, 1)) for _ in range(2)]


def hostile_buffer(monkeypatch, tamper):
    """Give run_partitioned shared memory that passes every container read
    through ``tamper(buffer, data)``; returns the buffers made, one per run."""
    made = []

    class HostileBuffer(SharedBuffer):
        def __init__(self):
            super().__init__()
            self.containers = []  # (offset, length) of each appended container
            self.reads = []  # the genuine bytes of each container read, in order
            made.append(self)

        def append_container(self, data):
            offset = super().append_container(data)
            self.containers.append((offset, len(data)))
            return offset

        def read(self, offset, length):
            data = super().read(offset, length)
            if (offset, length) not in self.containers:
                return data
            self.reads.append(data)
            return tamper(self, data)

        def appended(self, index):
            """The genuine bytes of the ``index``-th container appended."""
            return super().read(*self.containers[index])

    monkeypatch.setattr(executor, "SharedBuffer", HostileBuffer)
    return made


def run_twice(model, data, plan, inputs):
    """Run A then run B on the same containers; the buffers decide the rest."""
    for x in inputs:
        result = run_partitioned(model, data, plan, x, SecureArena(CAP), KEY)
    return result


@given(
    canonical=st.booleans(),
    attack=st.sampled_from(["replay", "reorder", "truncate"]),
    target=st.integers(0, 12),
    pick=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_a_hostile_shared_buffer_can_only_make_a_run_fail(canonical, attack, target, pick):
    if canonical:
        model, store, x_a = canonical_case(20)
        plan = plan_layered(model, CAP)
        inputs = [x_a, random_tensor(np.random.default_rng(21), model.input_dims)]
    else:
        model, store, plan, inputs = wide_spill_case()
    data = prepare_partition_data(store, plan, KEY)
    reference = run_reference(model, store, inputs[1]).output

    def tamper(buffer, genuine):
        # run A is left alone; run B sees one container read changed
        if buffer is made[0] or len(buffer.reads) - 1 != target:
            return genuine
        if attack == "replay":  # run A's container at the same point
            return made[0].reads[target]
        if attack == "reorder":  # any container appended so far, of either kind
            return buffer.appended(pick % len(buffer.containers))
        return genuine[: pick % len(genuine)]

    with pytest.MonkeyPatch.context() as monkeypatch:
        made = hostile_buffer(monkeypatch, tamper)
        try:
            result = run_twice(model, data, plan, inputs)
        except (IntegrityError, FormatError):
            return
    assert compare_runs(result.output, reference).bitwise_equal


def test_spill_chunks_replayed_from_another_run_raise(monkeypatch):
    model, store, plan, inputs = wide_spill_case()
    data = prepare_partition_data(store, plan, KEY)
    weights = set(data.values())

    def replay(buffer, genuine):
        if buffer is made[0] or genuine in weights:
            return genuine
        return made[0].reads[len(buffer.reads) - 1]  # run A's chunk, same position

    made = hostile_buffer(monkeypatch, replay)
    with pytest.raises(IntegrityError):
        run_twice(model, data, plan, inputs)


def test_spill_chunk_in_a_weight_slot_raises(monkeypatch):
    model, store, plan, (x, _) = wide_spill_case()
    data = prepare_partition_data(store, plan, KEY)

    def chunk_for_weights(buffer, genuine):
        # containers appended: weights 0, spill chunks 0 and 1, then weights 1,
        # the second container read; chunk 1 carries its id
        return buffer.appended(2) if len(buffer.reads) == 2 else genuine

    hostile_buffer(monkeypatch, chunk_for_weights)
    with pytest.raises(IntegrityError):
        run_partitioned(model, data, plan, x, SecureArena(CAP), KEY)


def test_weight_container_in_a_spill_slot_raises(monkeypatch):
    model, store, plan, (x, _) = wide_spill_case()
    data = prepare_partition_data(store, plan, KEY)

    def weights_for_chunk(buffer, genuine):
        # the third container read is spill chunk 0; weights 0 carry its id
        return buffer.appended(0) if len(buffer.reads) == 3 else genuine

    hostile_buffer(monkeypatch, weights_for_chunk)
    with pytest.raises(IntegrityError):
        run_partitioned(model, data, plan, x, SecureArena(CAP), KEY)


def test_containers_are_opened_as_the_objects_staged(monkeypatch):
    """Staging copies nothing: each weights container reaches decryption as
    the object in the partition data, and each spill chunk as the object its
    encryption returned."""
    model, store, plan, (x, _) = wide_spill_case()
    data = prepare_partition_data(store, plan, KEY)
    sealed, opened = list(data.values()), []
    encrypt, decrypt = container.encrypt_partition, container.decrypt_partition

    def seal(*args):
        sealed.append(encrypt(*args))
        return sealed[-1]

    def open_(data, *args):
        opened.append(data)
        return decrypt(data, *args)

    monkeypatch.setattr(executor, "encrypt_partition", seal)
    monkeypatch.setattr("cdlp.container.decrypt_partition", open_)
    run_partitioned(model, data, plan, x, SecureArena(CAP), KEY)
    assert len(opened) == len(plan.secure_partitions()) + 2 * 4  # two chunks, four subsets
    assert all(any(c is s for s in sealed) for c in opened)


def test_container_sealed_for_another_plan_raises():
    model, store, plan, (x, _) = wide_spill_case()
    other = plan_sublayer(model, CAP, subset_size={0: 2048, 1: 32}).with_spill(1)
    theirs = prepare_partition_data(store, other, KEY)
    # partition 0 holds the same rows, so the same plaintext, in both plans
    for pid in (0, 1):
        data = prepare_partition_data(store, plan, KEY)
        data[pid] = theirs[pid]
        with pytest.raises(IntegrityError):
            run_partitioned(model, data, plan, x, SecureArena(CAP), KEY)


def test_partitions_0_and_65536_open_only_in_their_own_slots():
    """A plan past 65 536 partitions seals, and its containers 0 and 65 536,
    whose headers both hold 0 (the index mod 2^16), are told apart by the
    full index under the tag."""
    model = ModelSpec([LayerSpec.connected(65_540, "relu")], (1, 1, 1))
    plan = plan_sublayer(model, partition_footprint(model, 0, 1))
    assert len(plan.partitions) == 65_540
    store = random_weight_store(model, np.random.default_rng(30))
    data = prepare_partition_data(store, plan, KEY)
    context = executor.weights_context(executor.plan_digest(plan))
    arena, ledger = SecureArena(CAP), CostLedger()
    blobs = split_weights(store, plan)
    for own, other in ((0, 65_536), (65_536, 0)):
        blob = ledger_decrypt(arena, ledger, data[own], CIPHER, own, context)
        assert blob.data == blobs[own]
        arena.free(blob)
        with pytest.raises(IntegrityError, match="tag mismatch"):
            ledger_decrypt(arena, ledger, data[own], CIPHER, other, context)
    assert arena.current_usage == 0


# --- comparisons and the baseline ---

def test_compare_identical():
    t = Tensor((3,), [1, 2, 3])
    report = compare_runs(t, Tensor((3,), [1, 2, 3]))
    assert report.bitwise_equal


def test_compare_reports_first_mismatch():
    a = Tensor((3,), [1, 2, 3])
    b = Tensor((3,), [1, 2.5, 3])
    assert not compare_runs(a, b).bitwise_equal


def test_reference_wrapper_delegates_and_times():
    model, store, x = random_case(104)
    ref = run_reference(model, store, x)
    again = run_reference(model, store, x)
    assert ref.output.data.tobytes() == again.output.data.tobytes()
    assert ref.wall_seconds >= 0.0


def test_partition_records_cover_decrypted_total():
    model, store, x = canonical_case(17)
    plan = plan_sublayer(model, 100_000)
    result = run_plan(model, store, plan, x, cap=100_000)
    assert sum(t.decrypted_bytes for t in result.partitions) == result.ledger.decrypted_bytes
    peaks = [t.arena_peak for t in result.partitions]
    assert max(peaks) == result.arena_peak


def branched_spill_case():
    """A normal-world prefix, a public handoff, and a secure layer that streams
    its spilled input back in four branches."""
    from cdlp.model import BranchTopology

    model = ModelSpec(
        [
            LayerSpec.convolutional(4, 3, 1, 1, activation="relu"),
            LayerSpec.maxpool(2, 2),
            LayerSpec.connected(64, "relu"),
            LayerSpec.connected(64, "relu"),
            LayerSpec.connected(16, "linear"),
        ],
        (3, 8, 8),
        BranchTopology(3, 4),
    )
    rng = np.random.default_rng(23)
    store = random_weight_store(model, rng)
    return model, store, plan_branched(model, CAP).with_spill(4), random_tensor(rng, (3, 8, 8))


def trace_case(case):
    if case == "layered":
        model, store, x = canonical_case(5)
        return model, store, plan_layered(model, CAP), x
    if case == "spilled":
        model, store, x = spill_model()
        return model, store, plan_sublayer(model, CAP, subset_size={0: 500, 1: 50}).with_spill(1), x
    return branched_spill_case()


@pytest.mark.parametrize("case", ["layered", "spilled", "branched"])
def test_the_trace_splits_switches_and_wall_time_by_partition(case):
    model, store, plan, x = trace_case(case)
    result = run_plan(model, store, plan, x)
    traces = result.partitions
    assert result.ledger.context_switches == 2 * len(plan.secure_partitions())
    phases = ("stage_seconds", "decrypt_seconds", "kernel_seconds", "spill_seconds")
    assert all(getattr(t, phase) >= 0 for t in traces for phase in phases)
    for t in traces:
        p = t.partition
        spills = p.layer_index + 1 in plan.spill
        if p.world == "secure":
            assert t.context_switches == 2
            assert t.stage_seconds > 0 and t.decrypt_seconds > 0 and t.kernel_seconds > 0
            assert (t.spill_seconds > 0) == spills
        else:
            assert t.context_switches == 0 and t.kernel_seconds > 0
            assert t.stage_seconds == t.decrypt_seconds == t.spill_seconds == 0
    assert any(t.spill_seconds for t in traces) == bool(plan.spill)


@pytest.mark.parametrize("case", ["layered", "spilled", "branched"])
def test_the_trace_counts_spill_chunks_and_prices_each_partition(case):
    from cdlp.tee import CostConstants, estimate_overhead, ledger_overhead

    model, store, plan, x = trace_case(case)
    result = run_plan(model, store, plan, x)
    traces = result.partitions
    for t in traces:
        p = t.partition
        i = p.layer_index
        assert (t.spill_chunks_read > 0) == (i in plan.spill)
        assert (t.spill_chunks_written > 0) == (i + 1 in plan.spill)
        # the bytes each partition is charged, from the plan alone: its
        # weight blob, and the whole spilled input it streams back
        expected = 0
        if p.world == "secure":
            shape = model.param_shape(i)
            if shape is not None:
                expected += FLOAT_BYTES * (p.end - p.start) * (shape[1] + 1)
            if i in plan.spill:
                expected += FLOAT_BYTES * model.in_elems(i)
        assert t.decrypted_bytes == expected
        assert ledger_overhead(t) == estimate_overhead(t.context_switches / 2, t.decrypted_bytes)
        constants = CostConstants(2e-6, 3e-9)
        assert ledger_overhead(t, constants) == estimate_overhead(
            t.context_switches / 2, t.decrypted_bytes, constants
        )
    for j in plan.spill:
        producers = [t for t in traces if t.partition.layer_index == j - 1]
        # each producer partition cuts its own rows into SPILL_CHUNK_BYTES chunks
        for t in producers:
            rows = t.partition.end - t.partition.start
            produced = FLOAT_BYTES * rows * model.output_units_per_row(j - 1)
            assert t.spill_chunks_written == -(-produced // SPILL_CHUNK_BYTES)
        written = sum(t.spill_chunks_written for t in producers)
        consumers = [t for t in traces if t.partition.layer_index == j]
        assert consumers and all(t.spill_chunks_read == written for t in consumers)
    assert sum(ledger_overhead(t) for t in traces) == pytest.approx(
        ledger_overhead(result.ledger), rel=1e-12
    )


def expected_write_log(model, plan):
    """The shared-memory records (offset, length, tag) a run of ``plan`` makes,
    worked out from the plan and the model alone: the input; for a branched
    plan, the features handed to the secure world; each secure partition's
    container as a header and a body, in plan order; and after a partition
    whose layer's successor is spilled, its rows' chunk containers."""
    records = []

    def write(length, tag):
        offset = records[-1][0] + records[-1][1] if records else 0
        records.append((offset, length, tag))

    def sealed(plaintext_bytes):
        write(HEADER_BYTES, TaintTag.PUBLIC)
        write(plaintext_bytes + container.MAC_BYTES, TaintTag.CIPHERTEXT)

    write(FLOAT_BYTES * model.in_elems(0), TaintTag.PUBLIC)
    public_input = True
    for p in plan.partitions:
        i, rows = p.layer_index, p.end - p.start
        if p.world != "secure":
            public_input = False
            continue
        if not public_input:
            write(FLOAT_BYTES * model.in_elems(i), TaintTag.PUBLIC)
            public_input = True
        shape = model.param_shape(i)
        sealed(FLOAT_BYTES * rows * (shape[1] + 1) if shape else 0)
        if i + 1 in plan.spill:
            produced = FLOAT_BYTES * rows * model.output_units_per_row(i)
            for lo in range(0, produced, SPILL_CHUNK_BYTES):
                sealed(min(SPILL_CHUNK_BYTES, produced - lo))
    return records


@pytest.mark.parametrize("case", ["layered", "spilled", "branched"])
def test_the_write_log_matches_the_plan(case):
    """The offsets, lengths and tags of every shared-memory record follow
    from the plan alone, for every scheme."""
    model, store, plan, x = trace_case(case)
    assert bool(plan.spill) == (case != "layered")
    assert any(p.world == "normal" for p in plan.partitions) == (case == "branched")
    result = run_plan(model, store, plan, x)
    log = [(w.offset, w.length, w.tag) for w in result.shared.writes]
    assert log == expected_write_log(model, plan)


def test_zero_layer_model_round_trips_input():
    from cdlp.model import WeightStore

    model = ModelSpec([], (1, 2, 2))
    plan = plan_layered(model, CAP)
    x = Tensor((1, 2, 2), [1, 2, 3, 4])
    result = run_plan(model, WeightStore([]), plan, x)
    assert result.output.data.tolist() == [1, 2, 3, 4]
