import gc
import itertools
import os
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdlp import audit
from cdlp.audit import LeakAudit, find_plaintext_leak
from cdlp.container import HEADER_BYTES, aead, encrypt_partition
from cdlp.errors import SecureMemoryError
from cdlp.executor import PartitionTrace
from cdlp.planner import WORLD_SECURE, Partition
from cdlp.tee import (
    CostConstants,
    CostLedger,
    SecureArena,
    Session,
    SharedBuffer,
    TaintTag,
    estimate_overhead,
    ledger_decrypt,
    ledger_overhead,
)

CIPHER = aead(bytes(range(16)))
CONTEXT = b"weights" + bytes(32)  # a weights context: tag, plan digest


# --- arena ---

def test_exact_fit_allocation():
    arena = SecureArena(100)
    arena.alloc(100)
    assert arena.current_usage == 100
    assert arena.peak_usage == 100


def test_overflow_rejected_without_side_effects():
    arena = SecureArena(100)
    arena.alloc(60)
    with pytest.raises(SecureMemoryError):
        arena.alloc(60)
    assert arena.current_usage == 60
    assert arena.peak_usage == 60


def test_free_returns_capacity():
    arena = SecureArena(10)
    a = arena.alloc(10)
    arena.free(a)
    assert arena.current_usage == 0
    arena.alloc(10)


def test_double_free_rejected():
    arena = SecureArena(10)
    a = arena.alloc(4)
    arena.free(a)
    with pytest.raises(ValueError):
        arena.free(a)


def test_nonpositive_sizes_rejected():
    arena = SecureArena(10)
    with pytest.raises(ValueError):
        arena.alloc(-1)
    with pytest.raises(ValueError):
        SecureArena(0)


@given(st.lists(st.integers(1, 40), min_size=1, max_size=30), st.data())
@settings(max_examples=60, deadline=None)
def test_peak_is_max_prefix_live_sum(sizes, data):
    """Oracle: replay the alloc/free sequence summing live sizes by hand."""
    arena = SecureArena(10_000)
    live = []
    expected_current = 0
    expected_peak = 0
    for size in sizes:
        if live and data.draw(st.booleans()):
            victim = live.pop(data.draw(st.integers(0, len(live) - 1)))
            arena.free(victim)
            expected_current -= victim.size
        live.append(arena.alloc(size))
        expected_current += size
        expected_peak = max(expected_peak, expected_current)
        assert arena.current_usage == expected_current
    assert arena.peak_usage == expected_peak
    assert arena.current_usage <= arena.capacity


def test_reset_peak_restarts_from_current_usage():
    arena = SecureArena(100)
    big = arena.alloc(80)
    arena.free(big)
    assert arena.peak_usage == 80
    arena.reset_peak()
    assert arena.peak_usage == 0
    arena.alloc(10)
    assert arena.peak_usage == 10
    arena.reset_peak()  # from the 10 bytes still in use
    arena.alloc(5)
    assert arena.peak_usage == 15


# --- sessions ---

def test_invoke_counts_two_switches():
    ledger = CostLedger()
    with Session(ledger).invoke():
        pass
    assert ledger.context_switches == 2


def test_eleven_invokes_give_twenty_two_switches():
    ledger = CostLedger()
    session = Session(ledger)
    for i in range(11):
        with session.invoke():
            pass
    assert ledger.context_switches == 22


@pytest.mark.parametrize(
    "ledger",
    [CostLedger(), PartitionTrace(partition=Partition(0, 0, 0, 1, WORLD_SECURE, 0))],
    ids=["ledger", "trace"],
)
def test_switches_charged_when_trusted_fn_raises(ledger):
    with pytest.raises(RuntimeError):
        with Session(ledger).invoke():
            raise RuntimeError("boom")
    assert ledger.context_switches == 2


def test_the_blocks_exception_propagates():
    error = RuntimeError("boom")
    with pytest.raises(RuntimeError) as raised:
        with Session(CostLedger()).invoke():
            raise error
    assert raised.value is error


# --- ledger decrypt ---

def test_decrypted_bytes_accumulate():
    arena, ledger = SecureArena(1 << 20), CostLedger()
    for size in (10, 20):
        data = encrypt_partition(os.urandom(size), CIPHER, 0, CONTEXT)
        blob = ledger_decrypt(arena, ledger, data, CIPHER, 0, CONTEXT)
        arena.free(blob)
    assert ledger.decrypted_bytes == 30


def test_paper_total_of_191790_bytes():
    arena, ledger = SecureArena(1 << 20), CostLedger()
    sizes = [17435] * 10 + [17440]
    assert sum(sizes) == 191790
    for i, size in enumerate(sizes):
        data = encrypt_partition(os.urandom(size), CIPHER, i, CONTEXT)
        blob = ledger_decrypt(arena, ledger, data, CIPHER, i, CONTEXT)
        arena.free(blob)
    assert ledger.decrypted_bytes == 191790


def test_decrypt_failure_leaves_counter_and_arena_untouched():
    arena, ledger = SecureArena(1000), CostLedger()
    data = bytearray(encrypt_partition(os.urandom(100), CIPHER, 0, CONTEXT))
    data[40] ^= 1
    with pytest.raises(Exception):
        ledger_decrypt(arena, ledger, bytes(data), CIPHER, 0, CONTEXT)
    assert ledger.decrypted_bytes == 0
    assert arena.current_usage == 0


def test_decrypt_without_arena_room():
    arena, ledger = SecureArena(50), CostLedger()
    data = encrypt_partition(os.urandom(100), CIPHER, 0, CONTEXT)
    with pytest.raises(SecureMemoryError):
        ledger_decrypt(arena, ledger, data, CIPHER, 0, CONTEXT)
    assert ledger.decrypted_bytes == 0
    assert arena.current_usage == 0


def test_plaintext_lives_in_the_arena():
    arena = SecureArena(1 << 20)
    blob = ledger_decrypt(
        arena, CostLedger(), encrypt_partition(b"x" * 64, CIPHER, 0, CONTEXT), CIPHER, 0, CONTEXT
    )
    assert arena.current_usage == 64
    arena.free(blob)
    assert arena.current_usage == 0


def test_the_charged_allocation_holds_the_plaintext_and_frees_once():
    arena, ledger = SecureArena(1 << 20), CostLedger()
    plain = os.urandom(64)
    data = encrypt_partition(plain, CIPHER, 0, CONTEXT)
    allocation = ledger_decrypt(arena, ledger, data, CIPHER, 0, CONTEXT)
    assert allocation.data == plain
    assert allocation.size == arena.current_usage == ledger.decrypted_bytes == 64
    arena.free(allocation)
    with pytest.raises(ValueError, match="allocation already freed"):
        arena.free(allocation)
    assert arena.current_usage == 0


def test_an_empty_container_charges_nothing():
    """A weightless partition's container opens into a zero-byte
    allocation, which the arena frees once like any other."""
    arena, ledger = SecureArena(1 << 20), CostLedger()
    data = encrypt_partition(b"", CIPHER, 0, CONTEXT)
    allocation = ledger_decrypt(arena, ledger, data, CIPHER, 0, CONTEXT)
    assert allocation.data == b""
    assert allocation.size == arena.peak_usage == ledger.decrypted_bytes == 0
    arena.free(allocation)
    with pytest.raises(ValueError, match="allocation already freed"):
        arena.free(allocation)
    assert arena.current_usage == 0


def test_a_zero_byte_allocation_is_live_and_frees_once():
    arena = SecureArena(10)
    allocation = arena.alloc(0)
    assert allocation.size == 0 and not allocation.freed
    assert arena.current_usage == arena.peak_usage == 0
    arena.free(allocation)
    with pytest.raises(ValueError, match="allocation already freed"):
        arena.free(allocation)


def test_an_empty_container_is_charged_through_the_arena():
    """Every container's plaintext, an empty one included, is an arena
    allocation: ``ledger_decrypt`` returns the one ``alloc`` made."""

    class RecordingArena(SecureArena):
        def alloc(self, size):
            allocation = super().alloc(size)
            self.made.append(allocation)
            return allocation

    arena = RecordingArena(1 << 20)
    arena.made = []
    data = encrypt_partition(b"", CIPHER, 0, CONTEXT)
    allocation = ledger_decrypt(arena, CostLedger(), data, CIPHER, 0, CONTEXT)
    assert arena.made == [allocation] and allocation.size == 0
    arena.free(allocation)


# --- cost model ---

def test_overhead_for_eleven_layers_and_191790_bytes():
    assert estimate_overhead(11, 191790) == pytest.approx(0.03305, abs=1e-5)


def test_overhead_zero_case():
    assert estimate_overhead(0, 0) == 0.0


def test_overhead_direct_arithmetic():
    got = estimate_overhead(1, 1000)
    assert got == pytest.approx(2 * 75.1e-6 + 1000 * 163.7e-9, rel=1e-12)
    assert got == pytest.approx(3.139e-4, rel=1e-4)


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        estimate_overhead(-1, 0)
    with pytest.raises(ValueError):
        CostConstants(switch_seconds=0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_cost_inputs_must_be_finite(bad):
    for invocations, decrypted_bytes in ((bad, 5), (5, bad)):
        with pytest.raises(ValueError):
            estimate_overhead(invocations, decrypted_bytes)
    for constants in ({"switch_seconds": bad}, {"decrypt_byte_seconds": bad}):
        with pytest.raises(ValueError):
            CostConstants(**constants)


def test_fresh_ledger_has_zero_overhead():
    assert ledger_overhead(CostLedger()) == 0.0


def test_ledger_overhead_matches_formula_exactly():
    ledger = CostLedger(context_switches=22, decrypted_bytes=191790)
    assert ledger_overhead(ledger) == estimate_overhead(11, 191790)


def test_overhead_monotone_in_counters():
    c = CostConstants()
    values = []
    ledger = CostLedger()
    for _ in range(10):
        ledger.context_switches += 2
        ledger.decrypted_bytes += 500
        values.append(ledger_overhead(ledger, c))
    assert values == sorted(values)
    assert len(set(values)) == len(values)


# --- shared buffer taint ---

def test_writes_require_a_tag():
    buf = SharedBuffer()
    with pytest.raises(TypeError):
        buf.append(b"x", "plaintext")


def test_write_log_records_every_byte():
    buf = SharedBuffer()
    assert buf.append(b"ab", TaintTag.PUBLIC) == 0
    assert buf.append(bytearray(b"cd"), TaintTag.CIPHERTEXT) == 2
    assert buf.append(b"", TaintTag.PUBLIC) == 4
    assert buf.append(b"e", TaintTag.PUBLIC) == 4
    assert buf.read(0, len(buf)) == b"abcde"
    assert [(r.offset, r.length, r.tag, r.data) for r in buf.writes] == [
        (0, 2, TaintTag.PUBLIC, b"ab"),
        (2, 2, TaintTag.CIPHERTEXT, b"cd"),
        (4, 0, TaintTag.PUBLIC, b""),
        (4, 1, TaintTag.PUBLIC, b"e"),
    ]


def test_a_whole_append_is_read_as_the_object_appended():
    buf = SharedBuffer()
    public = os.urandom(100)
    sealed = encrypt_partition(os.urandom(300), CIPHER, 5, CONTEXT)
    at_public = buf.append(public, TaintTag.PUBLIC)
    at_sealed = buf.append_container(sealed)
    assert buf.read(at_public, len(public)) is public
    assert buf.read(at_sealed, len(sealed)) is sealed


@pytest.mark.parametrize("as_container", [False, True])
def test_mutating_an_appended_bytearray_changes_nothing(as_container):
    data = bytearray(encrypt_partition(os.urandom(64), CIPHER, 1, CONTEXT))
    original = bytes(data)
    buf = SharedBuffer()
    buf.append(b"lead", TaintTag.PUBLIC)
    if as_container:
        buf.append_container(data)
    else:
        buf.append(data, TaintTag.CIPHERTEXT)
    log = [(r.offset, r.length, r.tag, r.data) for r in buf.writes]
    data[:] = bytes(len(data))
    data += b"more"
    assert buf.read(4, len(original)) == original
    assert buf.read(0, len(buf)) == b"lead" + original
    assert [(r.offset, r.length, r.tag, r.data) for r in buf.writes] == log
    assert all(type(r.data) is bytes for r in buf.writes)


_appends = st.lists(
    st.tuples(
        st.sampled_from(["public", "ciphertext", "container"]),
        st.binary(max_size=80),  # a container shorter than its header too
        st.booleans(),  # passed as a bytearray
    ),
    max_size=12,
)


@given(appends=_appends, data=st.data())
@settings(max_examples=200, deadline=None)
def test_shared_buffer_matches_a_flat_model(appends, data):
    """Reads equal slices of one bytearray of the appends, and the log is one
    record per append, or a PUBLIC header and a CIPHERTEXT body per container."""
    buf, flat, log, spans = SharedBuffer(), bytearray(), [], []
    for kind, payload, mutable in appends:
        given_data = bytearray(payload) if mutable else payload
        if kind == "container":
            offset = buf.append_container(given_data)
            header, body = payload[:HEADER_BYTES], payload[HEADER_BYTES:]
            log += [(len(flat), len(header), TaintTag.PUBLIC, header),
                    (len(flat) + len(header), len(body), TaintTag.CIPHERTEXT, body)]
        else:
            tag = TaintTag(kind)
            offset = buf.append(given_data, tag)
            log.append((len(flat), len(payload), tag, payload))
        assert offset == len(flat)
        spans.append((offset, len(payload)))
        flat += payload
    assert len(buf) == len(flat)
    assert [(r.offset, r.length, r.tag, r.data) for r in buf.writes] == log

    size = len(flat)
    # each append exactly, inside each append, all of them, and the end
    reads = [*spans, *((at + 1, n - 2) for at, n in spans if n > 2), (0, size), (size, 0)]
    for _ in range(8):  # anywhere
        offset = data.draw(st.integers(0, size))
        reads.append((offset, data.draw(st.integers(0, size - offset))))
    for offset, length in reads:
        got = buf.read(offset, length)
        assert type(got) is bytes and got == flat[offset : offset + length]
    for offset, length in [(-1, 1), (0, -1), (size, 1), (0, size + 1)]:
        with pytest.raises(ValueError):
            buf.read(offset, length)


def test_find_plaintext_leak_detects_and_clears():
    secret = os.urandom(32)
    clean = SharedBuffer()
    clean.append(encrypt_partition(secret, CIPHER, 0, CONTEXT), TaintTag.CIPHERTEXT)
    assert find_plaintext_leak(clean, [secret]) is None

    leaky = SharedBuffer()
    leaky.append(b"prefix" + secret[4:16] + b"suffix", TaintTag.PUBLIC)
    found = find_plaintext_leak(leaky, [secret])
    assert found is not None
    assert found in secret


def test_find_plaintext_leak_skips_short_secrets():
    buf = SharedBuffer()
    buf.append(b"abcdef", TaintTag.PUBLIC)
    assert find_plaintext_leak(buf, [b"abc"]) is None


def leak_oracle(buf, secrets):
    """The plain set-of-slices scan: first matching 8-byte slice in secret order."""
    logged = {r.data[i : i + 8] for r in buf.writes for i in range(len(r.data) - 7)}
    for secret in secrets:
        for i in range(len(secret) - 7):
            if secret[i : i + 8] in logged:
                return secret[i : i + 8]
    return None


def _buffer(writes):
    """A buffer holding the (data, tag) writes, in order."""
    buf = SharedBuffer()
    for data, tag in writes:
        buf.append(data, tag)
    return buf


_two_symbols = st.binary(max_size=30).map(lambda b: bytes(v % 2 for v in b))


@given(records=st.lists(_two_symbols, max_size=8), secrets=st.lists(_two_symbols, max_size=4))
@settings(max_examples=300, deadline=None)
def test_find_plaintext_leak_matches_oracle(records, secrets):
    """Same first slice as the plain scan; slices never span two records."""
    buf = _buffer((data, TaintTag.PUBLIC) for data in records)
    assert find_plaintext_leak(buf, secrets) == leak_oracle(buf, secrets)


# 0 to 64 bytes, so containers shorter than a header, or than a header and
# one slice, come too; over all byte values, or over two
_payloads = st.tuples(st.integers(0, 64), st.booleans()).flatmap(
    lambda draw: st.binary(min_size=draw[0], max_size=draw[0]).map(
        lambda b: bytes(v % 2 for v in b) if draw[1] else b
    )
)
_mixed_appends = st.lists(
    st.tuples(st.sampled_from(["public", "ciphertext", "container"]), _payloads), max_size=8
)


@given(appends=_mixed_appends, data=st.data())
@settings(max_examples=300, deadline=None)
def test_find_plaintext_leak_splits_containers_as_the_log_does(appends, data):
    """Plain appends and containers mixed, with secrets cut anywhere from the
    buffer's bytes, across appends and across a container's header and body
    too: the audit, which reads the appends in place, finds the same first
    slice as the plain scan of ``writes``."""
    buf, flat = SharedBuffer(), b""
    for kind, payload in appends:
        if kind == "container":
            buf.append_container(payload)
        else:
            buf.append(payload, TaintTag(kind))
        flat += payload
    # 8 to 16 bytes from up to 8 before a record's start: across the boundary
    starts = [r.offset for r in buf.writes]
    near = st.sampled_from(starts or [0]).flatmap(lambda b: st.integers(max(0, b - 8), b))
    cut = near.flatmap(lambda at: st.integers(8, 16).map(lambda n: flat[at : at + n]))
    secrets = data.draw(st.lists(st.one_of(cut, _two_symbols), max_size=4))
    assert find_plaintext_leak(buf, secrets) == leak_oracle(buf, secrets)


# --- the audit's memo: each append joined once per secret set ---

@pytest.mark.parametrize("container_first", [True, False])
def test_a_memoized_container_does_not_answer_for_the_same_bytes_appended_plain(
    container_first,
):
    """The same bytes, appended as a container and as a plain write, log
    different records: a slice across the header's end is logged only by
    the plain write. So each audit equals the plain scan, in either order."""
    data = os.urandom(HEADER_BYTES + 24)
    secret = data[HEADER_BYTES - 4 : HEADER_BYTES + 4]  # straddles the header's end
    as_container, as_plain = SharedBuffer(), SharedBuffer()
    as_container.append_container(data)
    as_plain.append(data, TaintTag.PUBLIC)
    order = [as_container, as_plain] if container_first else [as_plain, as_container]
    for buf in order:
        assert find_plaintext_leak(buf, [secret]) == leak_oracle(buf, [secret])
    assert find_plaintext_leak(as_container, [secret]) is None
    assert find_plaintext_leak(as_plain, [secret]) == secret


@given(
    pool=st.lists(st.tuples(st.sampled_from(["public", "container"]), _payloads), min_size=1,
                  max_size=6),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_audits_of_buffers_sharing_appends_match_the_oracle(pool, data):
    """Buffers built from one pool of append objects, so later audits find
    earlier ones' appends in the memo, with secrets passed as a list, a
    tuple or with a bytearray that changes between calls: every audit
    equals the plain scan of its buffer, and so does that of an auditor
    held across the buffers, against the secrets as they were when it was
    made."""
    flat = b"".join(payload for _kind, payload in pool)
    cut = st.integers(0, len(flat)).flatmap(
        lambda at: st.integers(8, 16).map(lambda n: flat[at : at + n]))
    mutable = bytearray(data.draw(cut))
    held_secrets = [*data.draw(st.lists(st.one_of(cut, _two_symbols), max_size=3)), mutable]
    held, snapshot = LeakAudit(held_secrets), [bytes(s) for s in held_secrets]
    for _ in range(4):
        buf = SharedBuffer()
        for kind, payload in data.draw(st.lists(st.sampled_from(pool), max_size=6)):
            if kind == "container":
                buf.append_container(payload)
            else:
                buf.append(payload, TaintTag.PUBLIC)
        secrets = data.draw(st.lists(st.one_of(cut, _two_symbols), max_size=3))
        for given_secrets in (secrets, tuple(secrets), [*secrets, mutable]):
            want = leak_oracle(buf, [bytes(s) for s in given_secrets])
            assert find_plaintext_leak(buf, given_secrets) == want
        mutable[:] = data.draw(cut)  # the same buffer again, the bytearray changed
        want = leak_oracle(buf, [*secrets, bytes(mutable)])
        assert find_plaintext_leak(buf, [*secrets, mutable]) == want
        assert held.find(buf) == leak_oracle(buf, snapshot)


def test_an_unchanged_audit_joins_nothing_and_an_append_only_itself(monkeypatch):
    """A second audit of the same buffer and secrets is answered from the
    auditor's memo; after one more append, only that append's records are
    joined, by the auditor the first audit made."""
    joins = []

    def counted(auditor, logged):
        joins.append((auditor, logged))
        return shared_keys(auditor, logged)

    shared_keys = LeakAudit._shared_keys
    monkeypatch.setattr(LeakAudit, "_shared_keys", counted)
    secrets = [os.urandom(256), os.urandom(64)]
    buf = SharedBuffer()
    buf.append(os.urandom(500), TaintTag.PUBLIC)
    buf.append_container(encrypt_partition(os.urandom(300), CIPHER, 0, CONTEXT))
    assert find_plaintext_leak(buf, secrets) is None
    assert len(joins) == 1
    assert find_plaintext_leak(buf, list(secrets)) is None
    assert len(joins) == 1

    sealed = encrypt_partition(os.urandom(300), CIPHER, 1, CONTEXT)
    buf.append_container(sealed)
    assert find_plaintext_leak(buf, secrets) is None
    assert len(joins) == 2
    auditor, logged = joins[1]
    assert [bytes(view) for view in logged] == [sealed[:HEADER_BYTES], sealed[HEADER_BYTES:]]
    assert all(view.obj is sealed for view in logged)
    assert auditor is joins[0][0] and auditor.secrets == tuple(secrets)


@pytest.fixture
def index_builds(monkeypatch):
    """Each secret set indexed from here on, in order, with no auditor kept."""
    built = []

    class Counted(LeakAudit):
        def __init__(self, secrets):
            built.append(secrets)
            super().__init__(secrets)

    monkeypatch.setattr(audit, "LeakAudit", Counted)
    monkeypatch.setattr(audit, "_auditors", type(audit._auditors)())
    return built


def _audit_fresh_appends(secrets):
    """Audit a buffer of appends no audit has seen against ``secrets``."""
    buf = SharedBuffer()
    buf.append(os.urandom(100), TaintTag.PUBLIC)
    buf.append_container(encrypt_partition(os.urandom(200), CIPHER, 0, CONTEXT))
    assert find_plaintext_leak(buf, secrets) is None


def test_a_secret_set_is_indexed_once(index_builds):
    """Audits of fresh appends against one secret set build its index once,
    a second set builds its own, and auditing the first again builds none."""
    first, second = [os.urandom(300), os.urandom(40)], [os.urandom(300)]
    for _ in range(5):
        _audit_fresh_appends(first)
    assert index_builds == [tuple(first)]
    _audit_fresh_appends(second)
    _audit_fresh_appends(tuple(first))
    _audit_fresh_appends([bytearray(s) for s in first])  # compared by content
    assert index_builds == [tuple(first), tuple(second)]


def test_the_index_memo_evicts_the_least_recently_used_set(index_builds):
    """Passes over 8 secret sets, one per input of a pool of 8, build each
    index once; one more set evicts the set audited longest ago, which is
    then built again, and the memo never holds more than its bound."""
    sets = [[os.urandom(64)] for _ in range(8)]
    for _ in range(3):
        for secrets in sets:
            _audit_fresh_appends(secrets)
    assert len(index_builds) == 8
    extra = [[os.urandom(64)] for _ in range(audit._AUDITED_SETS - 7)]
    for secrets in extra:
        _audit_fresh_appends(secrets)
    assert len(audit._auditors) == audit._AUDITED_SETS
    _audit_fresh_appends(sets[-1])  # held
    assert len(index_builds) == 8 + len(extra)
    _audit_fresh_appends(sets[0])  # evicted
    assert index_builds[-1] == tuple(sets[0]) and len(index_builds) == 9 + len(extra)


def test_an_auditor_evicted_from_the_memo_is_freed(monkeypatch):
    """The auditor of the secret set audited longest ago is freed once one
    set past the bound is audited, and not before."""
    monkeypatch.setattr(audit, "_auditors", type(audit._auditors)())
    first = [os.urandom(64)]
    _audit_fresh_appends(first)
    held = weakref.ref(audit._auditors[tuple(first)])
    for _ in range(audit._AUDITED_SETS - 1):
        _audit_fresh_appends([os.urandom(64)])
    gc.collect()
    assert held() is not None
    _audit_fresh_appends([os.urandom(64)])
    gc.collect()
    assert held() is None


def test_a_dropped_auditor_is_freed():
    """An auditor no caller holds is freed, and its index with it: no
    module state keeps what an auditor built."""
    auditor = LeakAudit([os.urandom(300), os.urandom(40)])
    buf = SharedBuffer()
    buf.append(os.urandom(100), TaintTag.PUBLIC)
    assert auditor.find(buf) is None
    refs = [weakref.ref(auditor), weakref.ref(auditor.entries)]
    del auditor
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_the_filters_drop_most_probes_of_a_large_secret_set():
    """Over 2**20 grid probes of random secrets: the filters keep under 10%
    of a random log's probes, and a planted 8-byte slice is still found."""
    rng = np.random.default_rng(15)
    secrets = [rng.bytes(3 << 20), rng.bytes((1 << 20) + 4099)]
    auditor = LeakAudit(secrets)
    assert auditor.entries.size > 1 << 20
    log = rng.bytes(1 << 18)
    probes, _firsts = audit._probes([log], 1)
    assert auditor._passing(probes).size < 0.1 * probes.size
    buf = _buffer([(log, TaintTag.CIPHERTEXT)])
    assert auditor.find(buf) is None
    piece = secrets[1][777_777 : 777_777 + 8]
    buf.append(log[:5000] + piece + log[5000:10000], TaintTag.PUBLIC)
    assert auditor.find(buf) == piece == leak_oracle(buf, secrets)


def test_the_memo_keeps_at_most_its_bound_of_entries():
    """An auditor's append memo keeps its bound of the appends it joined
    last, audit after audit of fresh appends."""
    auditor = LeakAudit([os.urandom(16)])
    for _ in range(2):
        buf = SharedBuffer()
        for _ in range(audit._JOINED_APPENDS + 10):
            buf.append(os.urandom(16), TaintTag.PUBLIC)
        assert auditor.find(buf) is None
        assert len(auditor._joined) == audit._JOINED_APPENDS


# When the secrets are larger, secrets[2], which the slice is cut from, is one
# byte past a multiple of 4 long, so its last grid probe, at n - 5, lies past
# its last window's start, at n - 8.
_LOG_LARGER = ([(1 << 20) + 1, 3000, 700, 40_000], [64 << 10, 32 << 10, 16 << 10, 16 << 10])
_SECRETS_LARGER = ([64 << 10, 30 << 10, 2000], [512 << 10, 256 << 10, (160 << 10) + 1, 100 << 10])
# Where the planted slice is cut from secrets[2] and where it goes in
# records[0], each as (f, k): the offset f * (len - 8) + k, so f = 0 is the
# first window, f = 1 the last, and f = 0.5 a multiple of 4 in the middle.
# The secrets are probed at 0, 4, 8, ..., and the log at every position, the
# three past its last window's start (n - 7, n - 6 and n - 5) included; a
# slice in the log's last window is found by one of those, and a slice in a
# secret's last window by that secret's grid probe at n - 8 or at n - 5.
_PLACEMENTS = {
    "": ((0, 5000), (0.5, 17)),
    "-mod4-0": ((0, 5000), (0.5, 0)),  # offsets 0, 1, 2 and 3 mod 4 on both sides
    "-mod4-1": ((0, 5001), (0.5, 1)),
    "-mod4-2": ((0, 5002), (0.5, 2)),
    "-mod4-3": ((0, 5003), (0.5, 3)),
    "-record-first": ((0, 5001), (0, 0)),  # the log's first window
    # the log's probes at n - 7, n - 6 and n - 5
    "-record-last": ((0, 5003), (1, 0)),
    "-record-tail-6": ((0, 5002), (1, 0)),
    "-record-tail-5": ((0, 5001), (1, 0)),
    "-secret-first": ((0, 0), (0.5, 1)),  # the secrets' first window
    # the last window of secrets[2]: found by its grid probe at n - 8 when the
    # log is larger, and at n - 5 when the secrets are
    "-secret-tail-7": ((1, 0), (0.5, 3)),
    "-secret-last": ((1, 0), (0.5, 2)),
    "-secret-tail-5": ((1, 0), (0.5, 1)),
}


@pytest.mark.parametrize(
    "log_sizes, secret_sizes, cut, plant",
    [
        (*sizes, *placement)
        for sizes in (_LOG_LARGER, _SECRETS_LARGER)
        for placement in _PLACEMENTS.values()
    ],
    ids=[
        case + suffix
        for case in ("log-8x-secrets", "secrets-8x-log")
        for suffix in _PLACEMENTS
    ],
)
def test_find_plaintext_leak_at_scale(log_sizes, secret_sizes, cut, plant):
    """A planted 8-byte slice is found in a large ciphertext record, and
    the same buffers without it are clean, whichever side is larger and
    wherever the slice is cut and planted."""
    rng = np.random.default_rng(7)
    records = [rng.bytes(size) for size in log_sizes]
    secrets = [rng.bytes(size) for size in secret_sizes]
    tags = [TaintTag.CIPHERTEXT, TaintTag.PUBLIC, TaintTag.CIPHERTEXT, TaintTag.PUBLIC]
    writes = list(zip(records, tags))
    assert find_plaintext_leak(_buffer(writes), secrets) is None

    def offset(data, f, k):
        return int(f * (len(data) - 8)) + k

    start = offset(secrets[2], *cut)
    piece = secrets[2][start : start + 8]
    at = offset(records[0], *plant)
    planted = records[0][:at] + piece + records[0][at + 8 :]
    writes[0] = (planted, TaintTag.CIPHERTEXT)
    buf = _buffer(writes)
    assert find_plaintext_leak(buf, secrets) == piece == leak_oracle(buf, secrets)


def test_keys_sharing_every_filter_slot_are_not_a_leak():
    """A logged probe that is not the secret's but has its 32-bit hash, and
    so its slot in the first filter, and its slot in the second filter too,
    passes both filters and is found in the index; only the join on whole
    8-byte windows tells it apart."""
    m1 = int(audit._M1) >> 24  # the 40-bit multiplier
    inverse = pow(m1, -1, 1 << 40)
    for seed in itertools.count():
        secret = random.Random(seed).randbytes(5) + bytes(3)  # one window, one grid probe
        own = int.from_bytes(secret[:5], "little")
        # the probes whose products with m1 differ from own's in the low 8 bits only
        product = own * m1 % (1 << 40)
        twins = [(product ^ low) * inverse % (1 << 40) for low in range(1, 256)]
        twins = np.array(twins, np.uint64)
        twins = twins[LeakAudit([secret])._passing(twins)]
        if twins.size:  # each filter has 64 slots: about 4 of 255 share the second's
            break
    hashes = audit._hashes(np.array([own, twins[0]], np.uint64), audit._M1, 32)
    assert hashes[0] == hashes[1] and own != twins[0]
    # the logged window has the twin probe at the secret window's place
    logged = int(twins[0]).to_bytes(5, "little") + bytes(3)
    buf = SharedBuffer()
    buf.append(logged, TaintTag.CIPHERTEXT)
    assert find_plaintext_leak(buf, [secret]) is None
    buf.append(secret, TaintTag.PUBLIC)
    assert find_plaintext_leak(buf, [secret]) == secret


@given(
    probe=st.binary(min_size=5, max_size=5),
    rest=st.lists(st.binary(min_size=3, max_size=3), min_size=2, max_size=2),
    bits=st.integers(6, 40),
)
@settings(deadline=None)
def test_a_windows_slots_read_only_its_first_5_bytes(probe, rest, bits):
    """Two windows with the same first 5 bytes share their slot in every
    filter, of any size, whatever their last 3 bytes are."""
    keys = np.frombuffer(b"".join(probe + tail for tail in rest), audit._KEY)
    for multiplier in audit._FILTER_MULTIPLIERS:
        slots = audit._hashes(keys, multiplier, bits)
        assert slots[0] == slots[1] < 1 << bits


@given(pieces=st.lists(st.binary(max_size=40), max_size=3), grid=st.booleans())
@settings(deadline=None)
def test_probes_are_each_positions_first_5_bytes(pieces, grid):
    """A piece's probes are the first 5 bytes at each of its positions, on the
    grid or everywhere, up to n - 5: the last window's key shifted right
    gives those past its start, n - 7, n - 6 and n - 5. The pieces' probes
    come one piece after another, from where ``firsts`` says each starts."""
    step = 4 if grid else 1
    want, firsts = [], []
    for data in pieces:
        firsts.append(len(want))
        positions = range(0, len(data) - 4, step) if len(data) >= 8 else []
        want += [int.from_bytes(data[p : p + 5], "little") for p in positions]
    probes, got_firsts = audit._probes(pieces, step)
    assert (probes & np.uint64((1 << 40) - 1)).tolist() == want
    assert got_firsts.tolist() == firsts


@pytest.mark.parametrize("alignment", range(4))
def test_windows_sharing_a_probe_are_not_a_leak(alignment):
    """A logged window with a secret window's 5-byte probe but none of its
    other 3 bytes passes the join on probes; only the join of the whole
    8-byte windows around the shared probe tells them apart. The secrets
    are probed at 0, 4, 8, ..., so the secret window is planted in a longer
    secret ``alignment`` bytes past one, and the grid probe inside it starts
    at the next multiple of 4; then the lookalike is planted so in the log."""
    rng = random.Random(alignment)
    window = rng.randbytes(8)
    at = 20 + alignment
    inside = -alignment % 4  # where the grid probe lies in the planted window
    lookalike = bytearray(byte ^ 0xFF for byte in window)
    lookalike[inside : inside + 5] = window[inside : inside + 5]
    same = [x == y for x, y in zip(lookalike, window)]
    assert same == [inside <= k < inside + 5 for k in range(8)]
    planted = []
    for piece in (window, lookalike):
        around = bytearray(rng.randbytes(64))
        around[at : at + 8] = piece
        grid = at + inside
        assert grid % 4 == 0 and around[grid : grid + 5] == window[inside : inside + 5]
        planted.append(bytes(around))
    for secret, logged in ((planted[0], lookalike), (window, planted[1])):
        buf = SharedBuffer()
        buf.append(logged, TaintTag.PUBLIC)
        assert find_plaintext_leak(buf, [secret]) is None
        buf.append(window, TaintTag.PUBLIC)
        assert find_plaintext_leak(buf, [secret]) == window


def test_find_plaintext_leak_keeps_keys_exact_above_2_63():
    """Keys of 2**63 and more that differ only in their lowest bit stay
    apart: a key promoted to float64 would merge them."""
    rng = random.Random(11)
    high = [(1 << 63) | rng.getrandbits(63) | 1 for _ in range(200)]
    logged = b"".join(key.to_bytes(8, "little") for key in high)
    secret = b"".join((key ^ 1).to_bytes(8, "little") for key in high)
    buf = SharedBuffer()
    buf.append(logged, TaintTag.PUBLIC)
    assert find_plaintext_leak(buf, [secret]) is None

    shared = high[150].to_bytes(8, "little")
    leaky = shared + secret
    assert find_plaintext_leak(buf, [leaky]) == shared == leak_oracle(buf, [leaky])


_binary_records = st.tuples(st.integers(0, 4096), st.integers(0, 2**32)).map(
    lambda draw: bytes(b & 1 for b in random.Random(draw[1]).randbytes(draw[0]))
)


@given(
    records=st.lists(_binary_records, max_size=12), secrets=st.lists(_binary_records, max_size=4)
)
@settings(max_examples=100, deadline=None)
def test_find_plaintext_leak_matches_oracle_on_long_records(records, secrets):
    """Records of up to 4 KiB over two symbols: the log and the secrets share
    many keys, so the merge and the in-order scan decide the result."""
    buf = _buffer((data, TaintTag.CIPHERTEXT) for data in records)
    assert find_plaintext_leak(buf, secrets) == leak_oracle(buf, secrets)
