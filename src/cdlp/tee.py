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
* Session: the client's calls into the trusted application; its only
  state is the ledger it charges two one-way switches per invocation,
  which in a run is the trace of the partition it invokes;
* CostLedger / CostConstants: a partition's or a run's two counters,
  context switches and decrypted bytes, and the overhead formula
  2 * invocations * t_switch + decrypted_bytes * t_byte;
* find_plaintext_leak: the audit that no 8-byte slice of a secret
  (plaintext weights, spilled activations) appears in a shared buffer's
  write log, read in place from the appends. It joins the two sides on
  5-byte probes, each the first 5 bytes of a slice, the side with more
  bytes probed only at positions 0, 4, 8, ... and the other at every
  position, with membership-table filters and one sort-merge; the grid
  probe at 4 * ceil(j / 4) starts 0 to 3 bytes inside the slice at j and
  ends within it, so the other side's copy of a shared slice holds it at
  the same place, and none is missed.
  The slices around the shared probes are then joined on their whole 8
  bytes, so it is exact: no hash collision or shared probe can hide a leak
  or report one.

The executor's per-partition trace is a ledger: each secure partition
is charged to its own, and a run's ledger is the sum of its traces.

Execution is in-process and time is derived from counters, never from
sleeps, so runs are deterministic.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator

import numpy as np
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import container
from .errors import SecureMemoryError

DEFAULT_SECURE_CAPACITY = 7 * 2**20  # secure-world budget for one trusted app

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

    def __repr__(self):
        state = "freed" if self.freed else "live"
        return f"Allocation({self.size} bytes, {state})"


class SecureArena:
    """Capped secure-world memory; refuses any allocation past capacity."""

    def __init__(self, capacity: int = DEFAULT_SECURE_CAPACITY):
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
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
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

    def _records(self) -> Iterator[tuple[int, TaintTag, memoryview]]:
        """The write log's records, in order, as (offset, tag, data), each
        ``data`` a read-only view of its append: one record per append, or
        two for a container.

        A container's header is public metadata and is logged as its own
        PUBLIC write, the ciphertext and tag as one CIPHERTEXT write, so no
        logged slice spans both: a header's length field next to ciphertext
        bytes can otherwise match a run of zero activations by chance. This
        is the one place a container is split.
        """
        for data, offset, tag in zip(self._pieces, self._starts, self._tags):
            view = memoryview(data)
            if tag is not None:
                yield offset, tag, view
                continue
            header = view[: container.HEADER_BYTES]
            yield offset, TaintTag.PUBLIC, header
            yield offset + len(header), TaintTag.CIPHERTEXT, view[container.HEADER_BYTES :]

    @property
    def writes(self) -> list[WriteRecord]:
        """The write log, in order: one record per append, or a PUBLIC header
        and a CIPHERTEXT body per container, each holding a copy of its bytes."""
        return [
            WriteRecord(offset, len(view), tag, view.tobytes())
            for offset, tag, view in self._records()
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
# the probe of the window at q starts at q. The larger side is probed only at
# q = 0, 4, 8, ...: a stride of 4 is the widest at which every 8-byte window
# holds a whole 5-byte grid probe (4 + 5 - 1 = 8), and a 4-byte probe would
# pair every repeated float32 value.
_STRIDE = 4
_PROBE_MASK = np.uint64((1 << 40) - 1)
# the probes at n - 7, n - 6 and n - 5, past the last window's start, are in
# that window's key shifted right by 8, 16 and 24 bits
_TAIL_SHIFTS = np.array([8, 16, 24], np.uint64)
_BACK = np.arange(_STRIDE)  # a probe at p lies in the windows p - 3 .. p

_SLOT_BITS = 20  # a table of 2**20 one-byte flags, 1 MiB, stays in one core's L2
_SLOT_SHIFT = np.uint64(64 - _SLOT_BITS)
# Two odd 40-bit multipliers, each in the top 40 bits of a word. A key times
# one wraps modulo 2**64, which drops the key's bytes past its probe, so the
# product's top 20 bits are those of the 40-bit product of probe and
# multiplier. The passes alternate them: a pass that used the same one as the
# pass before it would keep almost every probe that one kept.
_M1 = np.uint64(0x9E3779B97F << 24)  # about 2**40 over the golden ratio
_M2 = np.uint64(0xC2B2AE3D27 << 24)  # the top 40 bits of xxHash's PRIME64_2
_PASS_MULTIPLIERS = (_M1, _M2, _M1)
_CHUNK = 1 << 16  # probes hashed per step, so the temporaries stay in cache


def _slots(keys: np.ndarray, multiplier: np.uint64) -> np.ndarray:
    """Each key's slot in a membership table: the top 20 bits of its
    multiplicative hash, which reads only the key's low 40 bits, its probe.
    Equal probes share a slot; distinct probes may too."""
    slots = keys * multiplier  # wraps modulo 2**64
    slots >>= _SLOT_SHIFT
    return slots.view(np.intp)  # below 2**_SLOT_BITS, so the view is exact


def _stepped(first: int, step: int) -> Callable[[np.ndarray], np.ndarray]:
    """The positions of the probes at indices ``i`` of a chunk that starts at
    ``first`` and advances by ``step``."""
    return lambda i: i * step + first


# A side's probes come in chunks (data, keys, at): the low 40 bits of
# ``keys``, read from ``data``, one of the side's pieces, are the probes, and
# ``at`` maps indices into ``keys`` to the probes' positions in ``data``.
_Chunk = tuple[bytes, np.ndarray, Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class _Probes:
    """The probes of one side's pieces: at positions 0, 4, 8, ... of each
    piece if ``grid``, else at every position, up to n - 5. Pieces under 8
    bytes hold no window and give none."""

    pieces: list[bytes]
    grid: bool

    def __len__(self) -> int:
        step = _STRIDE if self.grid else 1
        # a piece that holds a window has probes at 0 .. n - 5, every 4th on the grid
        return sum(
            (len(data) - 5) // step + 1 for data in self.pieces if len(data) >= _KEY.itemsize
        )

    def __iter__(self) -> Iterator[_Chunk]:
        step = _STRIDE if self.grid else 1
        for data in self.pieces:
            windows = _window_keys(data, step)  # the probes at the windows' starts
            if not windows.size:
                continue
            for start in range(0, windows.size, _CHUNK):
                yield data, windows[start : start + _CHUNK], _stepped(step * start, step)
            # the side's probes past the last window's start, n - 8: all three,
            # or on the grid the one multiple of 4 among them, if there is one
            last = len(data) - _KEY.itemsize
            first = step * windows.size
            shifts = _TAIL_SHIFTS[first - last - 1 :: step]
            if shifts.size:
                yield data, np.ndarray((1,), _KEY, data, last) >> shifts, _stepped(first, step)


def _survivors(
    side: Iterable[_Chunk], members: Iterable[_Chunk], multiplier: np.uint64, table: np.ndarray
) -> list[_Chunk]:
    """The probes of ``side`` whose slot some probe of ``members`` fills,
    marked in ``table``, which is cleared first."""
    table.fill(False)
    for _data, keys, _at in members:
        table[_slots(keys, multiplier)] = True
    kept = []
    for data, keys, at in side:
        # every slot is below the table's size, so wrapping skips the bounds check
        hit = np.flatnonzero(table.take(_slots(keys, multiplier), mode="wrap"))
        if hit.size:
            kept.append((data, keys[hit], at(hit).take))
    return kept


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


def _windows_around(side: list[_Chunk], probes: np.ndarray) -> Iterator[np.ndarray]:
    """The keys of the windows that hold a probe of ``side`` found in the
    sorted, non-empty ``probes``: for a probe at p, the windows p - 3 .. p,
    clipped to the data."""
    for data, found, at in side:
        positions = at(np.flatnonzero(_in_sorted(probes, found)))
        if positions.size:
            windows = (positions[:, None] - _BACK).ravel()
            yield _window_keys(data)[np.clip(windows, 0, len(data) - _KEY.itemsize)]


def _shared_keys(a: _Probes, b: _Probes) -> np.ndarray:
    """The distinct 8-byte keys of windows found on both sides, sorted.

    Why none is missed: let W = A[j : j + 8] = B[i : i + 8] with A probed on
    the grid, and q = 4 * ceil(j / 4). Then j <= q <= j + 3, so the grid
    probe A[q : q + 5] starts d = q - j bytes inside W, with 0 <= d <= 3,
    and ends within it, at q + 5 <= j + 8 <= len(A); it equals B's probe at
    i + d, which B, probed at every position up to len(B) - 5, has. Both
    probes are shared, so the windows around them include W on each side:
    j in q - 3 .. q and i in (i + d) - 3 .. i + d.

    The filter passes run on the probes and alternate sides, the first
    building its table from the side with fewer probes; the shared probes
    are then found by one merge, and the windows around them are joined the
    same way on whole 8-byte keys, so no probe decides a match.
    """
    if len(a) > len(b):
        a, b = b, a
    table = np.empty(1 << _SLOT_BITS, np.bool_)  # one per call, cleared by each pass
    for multiplier in _PASS_MULTIPLIERS:
        a, b = _survivors(b, a, multiplier, table), a
    # the survivors keep their keys; the merge joins their probes
    a, b = ([(data, keys & _PROBE_MASK, at) for data, keys, at in side] for side in (a, b))
    probes = _in_both((found for _data, found, _at in a), (found for _data, found, _at in b))
    if not probes.size:
        return probes
    return _in_both(_windows_around(a, probes), _windows_around(b, probes))


def find_plaintext_leak(buffer: SharedBuffer, secrets: Iterable[bytes]) -> bytes | None:
    """Return the first 8-byte slice of any secret found in ``buffer``'s
    write log, or None if nothing leaked.

    Secrets are searched in order, each from its start; a logged slice lies
    within one write record, which is read in place, so no append is
    copied. Secrets shorter than 8 bytes cannot be detected and are skipped.

    The slices that the log and the secrets share are found by a join on
    5-byte probes (``_shared_keys``), each the first 5 bytes of a slice.
    The side with more bytes is probed only at positions 0, 4, 8, ..., and
    the other side at every position. No shared slice is missed: the grid
    probe at 4 * ceil(j / 4) starts 0 to 3 bytes inside the slice at j and
    ends within it, so the other side's copy of that slice holds the same
    probe.

    Filter passes through a 1 MiB membership table drop most probes of each
    side: a table marks the hashed slots of one side's probes, and only the
    other side's probes whose slot is marked go on. A shared probe marks its
    own slot, so no pass drops it. The sorted, deduplicated survivors of
    both sides are then merged, and the merge keeps only the probes present
    in both. The slices around each shared probe are joined the same way on
    their whole 8 bytes, and only if that set is not empty are the secrets
    scanned in order for their first shared slice. Every step that decides
    a match compares whole 8-byte keys, so the result is exact, and no
    state is kept between calls.
    """
    secrets = list(secrets)
    logged = [view for _offset, _tag, view in buffer._records()]
    log_larger = sum(map(len, logged)) > sum(map(len, secrets))
    shared = _shared_keys(_Probes(logged, grid=log_larger), _Probes(secrets, grid=not log_larger))
    if not shared.size:
        return None
    for secret in secrets:
        hits = np.flatnonzero(_in_sorted(shared, _window_keys(secret)))  # in secret order
        if hits.size:
            return secret[hits[0] : hits[0] + _KEY.itemsize]
    return None


class Session:
    """Connection from the client application to the trusted application;
    it charges ``ledger``, in a run the invoked partition's trace, for the
    world switches of each invocation."""

    def __init__(self, ledger: CostLedger):
        self.ledger = ledger

    def invoke(self, trusted_fn: Callable[[], object]):
        """Run ``trusted_fn`` inside the secure world and return its result.

        Costs exactly two one-way context switches (entry and exit),
        charged even if the function raises.
        """
        self.ledger.context_switches += 2
        return trusted_fn()


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
    index. The framing is checked and the plaintext charged to the arena
    before decryption; an empty one, a weightless partition's, gets a
    zero-byte allocation the arena never counted. On any failure (bad
    framing, no room, index, tag or context mismatch) the counter stays
    untouched and the arena is left as it was.
    """
    _pid, plaintext_len = container.read_header(container_bytes)
    allocation = arena.alloc(plaintext_len) if plaintext_len else Allocation(0)
    try:
        allocation.data = container.decrypt_partition(container_bytes, cipher, index, context)
    except Exception:
        arena.free(allocation)
        raise
    ledger.decrypted_bytes += plaintext_len
    return allocation
