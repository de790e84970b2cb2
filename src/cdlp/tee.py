"""Simulated trusted execution environment.

Models the pieces of a TrustZone/GlobalPlatform setup that the rest of
the package needs to reason about confidentiality and cost:

* SecureArena: a capped secure-world allocator with one peak, which a
  run restarts before each secure partition to measure that partition;
  its Allocation is the one handle for secure bytes: ledger_decrypt
  returns the one it charged, holding a container's plaintext in ``data``;
* SharedBuffer: append-only normal-world memory whose writes are
  taint-tagged, with no way to write confidential plaintext through the
  interface; its memory is the appends, kept as written, so reading a
  whole append copies nothing, and its write log is built from them when
  it is read, so staging a container copies nothing either;
* Session: the client's calls into the trusted application, each a
  ``with session.invoke():`` block that the secure world runs; its only
  state is the ledger it charges two one-way switches per invocation,
  before the block runs, which in a run is the trace of the partition it
  invokes;
* CostLedger / CostConstants: a partition's or a run's two counters,
  context switches and decrypted bytes, and the overhead formula
  2 * invocations * t_switch + decrypted_bytes * t_byte;
* find_plaintext_leak: the exact audit that no 8-byte slice of a secret
  (plaintext weights, spilled activations) appears in a shared buffer's
  write log, read in place from the appends; ``_shared_keys`` has the join
  and why it misses no shared slice. The join runs one way: each secret
  set's grid probes are indexed once, sorted by hash under two membership
  filters, and an audit probes only the appends it has not joined with that
  set, at every position, against the index. Two bounded memos, both keyed
  by content, keep each set's index and each append's shared keys, so an
  append is joined once per secret set; they hold references to the
  appends and secrets they key on.

The executor's per-partition trace is a ledger: each secure partition
is charged to its own, and a run's ledger is the sum of its traces.

Execution is in-process and time is derived from counters, never from
sleeps, so runs are deterministic.
"""

from __future__ import annotations

import bisect
import math
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator

import numpy as np
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import container
from .errors import SecureMemoryError

DEFAULT_SWITCH_SECONDS = 75.1e-6
DEFAULT_DECRYPT_BYTE_SECONDS = 163.7e-9


@dataclass
class CostConstants:
    """Measured unit costs: one-way world switch, one decrypted byte."""

    switch_seconds: float = DEFAULT_SWITCH_SECONDS
    decrypt_byte_seconds: float = DEFAULT_DECRYPT_BYTE_SECONDS

    def __post_init__(self):
        # a chained comparison is false for NaN too
        if not (0 < self.switch_seconds < math.inf and 0 < self.decrypt_byte_seconds < math.inf):
            raise ValueError("cost constants must be finite and positive")


@dataclass
class CostLedger:
    """Monotone counters of confidentiality-relevant events: a partition's
    or a run's."""

    context_switches: int = 0
    decrypted_bytes: int = 0


def estimate_overhead(
    invocations: float, decrypted_bytes: float, constants: CostConstants | None = None
) -> float:
    """Predicted added seconds for a partitioned run.

    Each invocation enters and leaves the secure world (two one-way
    switches); every decrypted byte pays the per-byte cost.
    """
    if not (0 <= invocations < math.inf and 0 <= decrypted_bytes < math.inf):
        raise ValueError("invocations and decrypted_bytes must be finite and >= 0")
    c = constants or CostConstants()
    return 2.0 * invocations * c.switch_seconds + decrypted_bytes * c.decrypt_byte_seconds


def ledger_overhead(ledger: CostLedger, constants: CostConstants | None = None) -> float:
    """Overhead implied by a ledger's own counters."""
    return estimate_overhead(ledger.context_switches / 2, ledger.decrypted_bytes, constants)


class Allocation:
    """Handle for one live arena allocation; ``data`` holds the bytes it was
    charged for, such as a container's plaintext."""

    __slots__ = ("size", "freed", "data")

    def __init__(self, size: int):
        self.size = size
        self.freed = False
        self.data = b""


class SecureArena:
    """Capped secure-world memory; refuses any allocation past capacity."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._current = 0
        self._peak = 0

    @property
    def current_usage(self) -> int:
        return self._current

    @property
    def peak_usage(self) -> int:
        return self._peak

    def alloc(self, size: int) -> Allocation:
        if size < 0:
            raise ValueError(f"allocation size must not be negative, got {size}")
        if self._current + size > self.capacity:
            raise SecureMemoryError(
                f"allocating {size} bytes over {self._current} in use "
                f"exceeds the {self.capacity}-byte secure arena"
            )
        self._current += size
        if self._current > self._peak:
            self._peak = self._current
        return Allocation(size)

    def free(self, allocation: Allocation) -> None:
        if allocation.freed:
            raise ValueError("allocation already freed")
        allocation.freed = True
        self._current -= allocation.size

    def reset_peak(self) -> None:
        """Track the peak afresh from the current usage."""
        self._peak = self._current


class TaintTag(str, Enum):
    """The only tags a shared-buffer write can carry.

    There is deliberately no tag for confidential plaintext; such data
    must be encrypted (becoming CIPHERTEXT) before it can leave the
    secure world.
    """

    PUBLIC = "public"
    CIPHERTEXT = "ciphertext"


@dataclass
class WriteRecord:
    offset: int
    length: int
    tag: TaintTag
    data: bytes


class SharedBuffer:
    """Append-only normal-world memory registered with the trusted app.

    The memory is the appends themselves, each kept as the immutable bytes
    it was written as, so the trusted app reads a whole append in place, as
    from registered shared memory, with no copy. Anyone can read it. Every
    append keeps its taint tag, and ``writes`` is the log they make, so
    tests can prove no confidential plaintext ever landed here; the log is
    built when it is read, so an append copies nothing into it, and
    ``find_plaintext_leak`` reads the same records as views of the appends,
    so an audit copies nothing either.
    """

    def __init__(self):
        self._pieces: list[bytes] = []  # the appends, in order
        self._starts: list[int] = []  # each append's offset
        self._tags: list[TaintTag | None] = []  # each append's tag; None for a container
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _store(self, data: bytes, tag: TaintTag | None) -> int:
        offset = self._size
        self._pieces.append(data)
        self._starts.append(offset)
        self._tags.append(tag)
        self._size = offset + len(data)
        return offset

    def append(self, data: bytes, tag: TaintTag) -> int:
        """Write ``data`` at the end of the buffer and return its offset."""
        if not isinstance(tag, TaintTag):
            raise TypeError(f"tag must be a TaintTag, got {tag!r}")
        # a snapshot of a caller's bytearray; bytes stay as they are
        return self._store(bytes(data), tag)

    def append_container(self, data: bytes) -> int:
        """Append an encrypted container as one piece of memory and return its offset."""
        return self._store(bytes(data), None)

    def _appends(self) -> Iterator[tuple[bytes, bool, list[tuple[int, TaintTag, memoryview]]]]:
        """Each append as (data, is_container, records): the bytes appended,
        whether they are a container, and the write log's records of them,
        in order, as (offset, tag, view), each view a read-only view of the
        append: one record, or two for a container.

        A container's header is public metadata and is logged as its own
        PUBLIC write, the ciphertext and tag as one CIPHERTEXT write, so no
        logged slice spans both: a header's length field next to ciphertext
        bytes can otherwise match a run of zero activations by chance. This
        is the one place a container is split.
        """
        for data, offset, tag in zip(self._pieces, self._starts, self._tags):
            view = memoryview(data)
            if tag is not None:
                yield data, False, [(offset, tag, view)]
                continue
            header = view[: container.HEADER_BYTES]
            body = view[container.HEADER_BYTES :]
            yield data, True, [(offset, TaintTag.PUBLIC, header),
                               (offset + len(header), TaintTag.CIPHERTEXT, body)]

    @property
    def writes(self) -> list[WriteRecord]:
        """The write log, in order: one record per append, or a PUBLIC header
        and a CIPHERTEXT body per container, each holding a copy of its bytes."""
        return [
            WriteRecord(offset, len(view), tag, view.tobytes())
            for _data, _is_container, records in self._appends()
            for offset, tag, view in records
        ]

    def read(self, offset: int, length: int) -> bytes:
        """The ``length`` bytes at ``offset``: a whole append is returned as
        the object appended, a read within one append is one slice, and only
        a read across appends joins them."""
        if offset < 0 or length < 0 or offset + length > self._size:
            raise ValueError(f"read [{offset}, {offset + length}) outside buffer")
        if not length:
            return b""
        i = bisect.bisect_right(self._starts, offset) - 1  # a non-empty append
        start = offset - self._starts[i]
        piece = self._pieces[i]
        if start + length > len(piece):
            piece = b"".join(self._pieces[i : bisect.bisect_left(self._starts, offset + length)])
        return piece[start : start + length]  # slicing all of a bytes object returns it


_KEY = np.dtype("<u8")  # an 8-byte slice, packed little-endian


def _window_keys(data: bytes, stride: int = 1) -> np.ndarray:
    """One key per 8-byte slice of ``data`` that starts at a multiple of
    ``stride``, in slice order: a strided view."""
    count = (len(data) - _KEY.itemsize) // stride + 1
    if count <= 0:
        return np.empty(0, _KEY)
    return np.ndarray((count,), _KEY, data, strides=(stride,))


# A probe is 5 bytes, the first 5 of a window: the low 40 bits of its key, so
# the probe of the window at q starts at q. The secrets are probed only at
# q = 0, 4, 8, ...: a stride of 4 is the widest at which every 8-byte window
# holds a whole 5-byte grid probe (4 + 5 - 1 = 8), and a 4-byte probe would
# pair every repeated float32 value.
_STRIDE = 4
# the probes at n - 7, n - 6 and n - 5, past the last window's start, are in
# that window's key shifted right by 8, 16 and 24 bits
_TAIL_SHIFTS = np.array([8, 16, 24], np.uint64)
_BACK = np.arange(_STRIDE)  # a probe at p lies in the windows p - 3 .. p


def _probes(pieces: Iterable[bytes], step: int) -> tuple[np.ndarray, np.ndarray]:
    """Keys whose low 40 bits are the probes of ``pieces`` at positions 0,
    step, 2 * step, ..., up to n - 5 of each, concatenated in order, and the
    index where each piece's probes start; a piece under 8 bytes holds no
    window and gives none."""
    parts, firsts, size = [np.empty(0, _KEY)], [], 0
    for data in pieces:
        firsts.append(size)
        windows = _window_keys(data, step)  # the probes at the windows' starts
        if windows.size:
            # the probes past the last window's start, n - 8: all three, or
            # on the grid the one multiple of 4 among them, if there is one
            last = len(data) - _KEY.itemsize
            shifts = _TAIL_SHIFTS[step * windows.size - last - 1 :: step]
            tail = np.ndarray((1,), _KEY, data, last) >> shifts
            parts += (windows, tail)
            size += windows.size + tail.size
    return np.concatenate(parts), np.array(firsts, np.intp)


def _windows_at(pieces: list[bytes], firsts: np.ndarray, step: int, at: np.ndarray
                ) -> Iterator[np.ndarray]:
    """The keys of the windows that hold the probes at the sorted, non-empty
    indices ``at`` of the concatenated probes of ``pieces``, each probed every
    ``step`` bytes from its first index in ``firsts``: for a probe at p, the
    windows p - 3 .. p, clipped to its piece."""
    piece = np.searchsorted(firsts, at, side="right") - 1  # past pieces without probes
    ends = [*(np.flatnonzero(piece[1:] != piece[:-1]) + 1).tolist(), at.size]
    for start, end in zip([0, *ends], ends):
        data = pieces[piece[start]]
        windows = (step * (at[start:end] - firsts[piece[start]])[:, None] - _BACK).ravel()
        np.maximum(windows, 0, out=windows)  # not np.clip, whose checks cost more here
        np.minimum(windows, len(data) - _KEY.itemsize, out=windows)
        yield _window_keys(data)[windows]


# Two odd 40-bit multipliers, each in the top 40 bits of a word. A key times
# one wraps modulo 2**64, which drops the key's bytes past its probe, so the
# product's top bits are those of the 40-bit product of probe and multiplier:
# a hash of the probe. Each filter hashes with its own, so a probe that one
# lets through by a collision the other most likely drops.
_M1 = np.uint64(0x9E3779B97F << 24)  # about 2**40 over the golden ratio
_M2 = np.uint64(0xC2B2AE3D27 << 24)  # the top 40 bits of xxHash's PRIME64_2
_FILTER_MULTIPLIERS = (_M1, _M2)
# Each filter is a table of at least this many bits per secret probe, so it
# is at most 1/8 full and keeps at most about 12% of the probes it does not
# hold, and the two together about 1.5%.
_BITS_PER_PROBE = 8
_CHUNK = 1 << 16  # probes filtered per step, so the temporaries stay in cache
# an index entry is a probe's 32-bit hash over its 32-bit index
_HALF = np.uint64(32)
_LOW_HALF = np.uint64((1 << 32) - 1)


def _hashes(keys: np.ndarray, multiplier: np.uint64, bits: int) -> np.ndarray:
    """The top ``bits`` bits of each key's multiplicative hash, which reads
    only the key's low 40 bits, its probe. Equal probes share a hash;
    distinct probes may too."""
    hashes = keys * multiplier  # wraps modulo 2**64
    hashes >>= np.uint64(64 - bits)
    return hashes


def _distinct(pieces: Iterable[np.ndarray]) -> np.ndarray:
    """The keys of ``pieces``, sorted, each once."""
    # not np.unique: numpy 2 hashes before it sorts, some 30 times slower
    keys = np.sort(np.concatenate([np.empty(0, _KEY), *pieces]))
    keep = np.ones(keys.size, np.bool_)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _in_both(a: Iterable[np.ndarray], b: Iterable[np.ndarray]) -> np.ndarray:
    """The distinct keys found in both ``a`` and ``b``, sorted: one merge of
    the two sorted, deduplicated sides."""
    merged = np.concatenate((_distinct(a), _distinct(b)))
    merged.sort(kind="stable")  # merges the two sorted runs
    return merged[1:][merged[1:] == merged[:-1]]


def _in_sorted(table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Mask of the ``queries`` present in the sorted, non-empty ``table``."""
    at = np.minimum(np.searchsorted(table, queries), table.size - 1)
    return table[at] == queries


class _SecretIndex:
    """One secret set's side of the join, built once: its secrets' grid
    probes, sorted by hash, and two membership filters over them.

    Each of the sorted ``entries`` holds a grid probe's 32-bit hash, the top
    bits of its product with the first filter's multiplier, in its top half,
    and the probe's index in the secrets' probes, concatenated in order, in
    its low half; ``firsts`` holds where each secret's probes start there,
    so the probe at index g of secret s lies at 4 * (g - firsts[s]). Each
    filter is a table of 2**``bits`` bits with the bit of each probe's slot
    set.
    """

    __slots__ = ("secrets", "firsts", "entries", "bits", "filters")

    def __init__(self, secrets: tuple[bytes, ...]):
        self.secrets = secrets
        probes, self.firsts = _probes(secrets, _STRIDE)
        if probes.size > 1 << 32:
            raise ValueError("a secret set of 16 GiB or more is too large to index")
        self.entries = _hashes(probes, _M1, 32) << _HALF | np.arange(probes.size, dtype=_KEY)
        self.entries.sort()
        self.bits = max(6, (_BITS_PER_PROBE * probes.size - 1).bit_length())  # 8 bytes or more
        self.filters = []
        for multiplier in _FILTER_MULTIPLIERS:
            marked = np.zeros(1 << self.bits, np.bool_)
            marked[_hashes(probes, multiplier, self.bits).view(np.intp)] = True
            self.filters.append(np.packbits(marked, bitorder="little"))

    def _holds(self, probes: np.ndarray, k: int) -> np.ndarray:
        """Mask of the ``probes`` whose slot's bit filter ``k`` has set."""
        slots = _hashes(probes, _FILTER_MULTIPLIERS[k], self.bits).view(np.intp)
        # every byte index is below the table's size, so wrapping skips the bounds check
        held = self.filters[k].take(slots >> 3, mode="wrap")
        held >>= slots.astype(np.uint8) & 7  # the slot's bit, into its byte's lowest
        held &= 1
        return held.view(np.bool_)

    def passing(self, probes: np.ndarray) -> np.ndarray:
        """The sorted indices of the ``probes`` that both filters hold: each
        of the secrets' probes, and a few others."""
        kept = [np.empty(0, np.intp)]
        for start in range(0, probes.size, _CHUNK):
            chunk = probes[start : start + _CHUNK]
            at = np.flatnonzero(self._holds(chunk, 0))
            kept.append(at[self._holds(chunk[at], 1)] + start)
        return np.concatenate(kept)

    def find(self, hashes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which of the sorted ``hashes`` some grid probe has, as a mask, and
        the indices of all such probes, sorted."""
        first = np.searchsorted(self.entries, hashes << _HALF)
        count = np.searchsorted(self.entries, hashes << _HALF | _LOW_HALF, side="right") - first
        # the i-th entry of the run of equal hashes that starts at first[r]
        runs = np.arange(count.sum()) + np.repeat(first - (np.cumsum(count) - count), count)
        grid = self.entries[runs] & _LOW_HALF
        grid.sort()
        return count > 0, grid.view(np.intp)  # below 2**32, so the view is exact


def _shared_keys(logged: list[memoryview], index: _SecretIndex) -> np.ndarray:
    """The distinct 8-byte keys of windows found both in ``logged`` and in
    the secrets of ``index``, sorted.

    Why none is missed: let W = S[j : j + 8] = L[i : i + 8] for a secret S,
    probed on the grid, and a logged piece L. With q = 4 * ceil(j / 4),
    j <= q <= j + 3, so S's grid probe S[q : q + 5] starts d = q - j bytes
    inside W, with 0 <= d <= 3, and ends within it, at q + 5 <= j + 8 <=
    len(S); it equals L's probe at i + d, which L, probed at every position
    up to len(L) - 5, has. That probe passes both filters, since S's probe
    set its slot's bit in each, and its hash is S's probe's, so the windows
    around both probes, j in q - 3 .. q and i in (i + d) - 3 .. i + d,
    include W on each side.

    The filters drop most of the log's probes. The distinct hashes of the
    rest are looked up in the index, and the windows around the probes of
    the hashes found on both sides are joined on whole 8-byte keys, so a
    hash that distinct probes share adds windows but never a match.
    """
    probes, firsts = _probes(logged, 1)
    kept = index.passing(probes)
    hashes = _hashes(probes[kept], _M1, 32)
    distinct = _distinct([hashes])
    found, grid = index.find(distinct)
    if not grid.size:
        return np.empty(0, _KEY)
    at = kept[_in_sorted(distinct[found], hashes)]
    return _in_both(
        _windows_at(logged, firsts, 1, at),
        _windows_at(index.secrets, index.firsts, _STRIDE, grid),
    )


# The audit's memos, least recently used first. Keys compare by content, so a
# hit is what a fresh build or join would give.
# (append, is_container, secrets) -> the sorted distinct keys the append's
# records share with the secrets. The bound is twice the 64 entries that a
# pass over 8 inputs touches when each input has its own secret set and 8
# appends; a larger bound keeps more appends and secrets of secret sets no
# longer audited alive.
_AUDITED_ENTRIES = 128
_audited: OrderedDict[tuple[bytes, bool, tuple[bytes, ...]], np.ndarray] = OrderedDict()
# secrets -> their index. The bound is the 8 secret sets that a pass over 8
# inputs touches when each input has its own, all of which a cyclic pass in
# least recently used order keeps; an index holds under 3 bytes per secret
# byte, so a larger bound keeps more memory of sets no longer audited alive.
_INDEXED_SETS = 8
_indexed: OrderedDict[tuple[bytes, ...], _SecretIndex] = OrderedDict()


def _remember(memo: OrderedDict, key, value, bound: int) -> None:
    """Store ``value`` as the most recently used entry, dropping the least
    recently used past ``bound``."""
    memo[key] = value
    if len(memo) > bound:
        memo.popitem(last=False)


def _index_of(secrets: tuple[bytes, ...]) -> _SecretIndex:
    """The index of ``secrets``, built on its first use."""
    index = _indexed.pop(secrets, None) or _SecretIndex(secrets)
    _remember(_indexed, secrets, index, _INDEXED_SETS)
    return index


def find_plaintext_leak(buffer: SharedBuffer, secrets: Iterable[bytes]) -> bytes | None:
    """Return the first 8-byte slice of any secret found in ``buffer``'s
    write log, or None if nothing leaked.

    Secrets are searched in order, each from its start; a logged slice lies
    within one write record, which is read in place, so no append is
    copied. Secrets shorter than 8 bytes cannot be detected and are skipped.
    The result is exact: the shared slices come from ``_shared_keys``, which
    compares whole 8-byte keys and misses none, and the secrets are scanned
    for them only if there are any.

    Each append's shared keys are memoized, keyed on the append's bytes,
    whether it is a container (its records differ: a window across the
    header's end is not a logged slice) and the secrets as a tuple of bytes,
    so a later audit joins only the appends it has not seen with those
    secrets, in one ``_shared_keys`` call, against the secrets' index, which
    is built once per secret set and memoized too. The memos keep the
    ``_AUDITED_ENTRIES`` appends and the ``_INDEXED_SETS`` indexes most
    recently used, and with them references to the appends and secrets
    they key on.

    The match is on bytes, not on where they came from: a secret window made
    of a float's top byte and zero bytes also occurs in public ReLU
    activations with zero runs. So a branched plan that spills after its
    public normal-world hand-off is flagged although nothing leaks.
    """
    secrets = tuple(map(bytes, secrets))  # a caller's bytearray, snapshotted
    found, missed = [], []
    for data, is_container, records in buffer._appends():
        key = (data, is_container, secrets)
        keys = _audited.get(key)
        if keys is None:
            missed.append((key, [view for _offset, _tag, view in records]))
        else:
            _audited.move_to_end(key)
            found.append(keys)
    if missed:
        logged = [view for _key, views in missed for view in views]
        joined = _shared_keys(logged, _index_of(secrets))
        for key, views in missed:
            keys = joined  # no window of any append is shared: each shares none
            if joined.size:
                keys = _distinct(w[_in_sorted(joined, w)] for w in map(_window_keys, views))
            _remember(_audited, key, keys, _AUDITED_ENTRIES)
            found.append(keys)
    shared = _distinct(found)
    if not shared.size:
        return None
    # each shared key is a secret window's, so some secret holds the first
    hits = ((s, np.flatnonzero(_in_sorted(shared, _window_keys(s)))) for s in secrets)
    secret, at = next((secret, at[0]) for secret, at in hits if at.size)
    return secret[at : at + _KEY.itemsize]


class Session:
    """Connection from the client application to the trusted application;
    it charges ``ledger``, in a run the invoked partition's trace, for the
    world switches of each invocation."""

    def __init__(self, ledger: CostLedger):
        self.ledger = ledger

    def invoke(self) -> Session:
        """Enter the secure world for the ``with`` block this opens.

        Costs exactly two one-way context switches (entry and exit),
        charged before the block runs, so also when it raises.
        """
        self.ledger.context_switches += 2
        return self

    def __enter__(self) -> Session:
        return self

    def __exit__(self, *exc_info) -> None:
        pass


def ledger_decrypt(
    arena: SecureArena,
    ledger: CostLedger,
    container_bytes: bytes,
    cipher: AESGCM,
    index: int,
    context: bytes,
) -> Allocation:
    """Decrypt container ``index`` into the arena, counting the plaintext
    bytes; return the allocation charged for it, with the plaintext in ``data``.

    ``cipher`` is the one ``container.aead`` made of the key. ``context`` is
    the associated data the container was sealed with, past its header and
    index. The framing is checked and the plaintext, even a weightless
    partition's empty one, charged to the arena before decryption. On any
    failure (bad framing, no room, index, tag or context mismatch) the
    counter stays untouched and the arena is left as it was.
    """
    _pid, plaintext_len = container.read_header(container_bytes)
    allocation = arena.alloc(plaintext_len)
    try:
        allocation.data = container.decrypt_partition(container_bytes, cipher, index, context)
    except Exception:
        arena.free(allocation)
        raise
    ledger.decrypted_bytes += plaintext_len
    return allocation
