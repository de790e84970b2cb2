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
  2 * invocations * t_switch + decrypted_bytes * t_byte.

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
from typing import Iterator

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
    built when it is read, so an append copies nothing into it, and the
    audit reads the same records as views of the appends, so it copies
    nothing either.
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
