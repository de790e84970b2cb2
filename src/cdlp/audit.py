"""The exact plaintext-leak audit of a shared buffer's write log.

``LeakAudit(secrets).find(buffer)`` returns the first 8-byte slice of a
secret (plaintext weights, spilled activations) in ``buffer``'s write log,
which it reads in place, through ``SharedBuffer._appends``. An auditor
indexes its secrets' probes at positions 0, 4, 8, ... once, and an audit
probes the appends the auditor has not cleared at every position, looks up
the probes its filters hold, and joins the 8-byte windows around the probes
found on both sides on whole keys, so a shared hash never makes a match.

Why the join misses no shared slice: let W = S[j : j + 8] = L[i : i + 8] for
a secret S, probed on the grid, and a logged piece L. With q = 4 * ceil(j /
4), j <= q <= j + 3, so S's grid probe S[q : q + 5] starts d = q - j bytes
inside W, with 0 <= d <= 3, and ends within it, at q + 5 <= j + 8 <= len(S);
it equals L's probe at i + d, which L, probed at every position up to
len(L) - 5, has. That probe passes both filters, since S's probe set its
slot's bit in each, and its hash is S's probe's, so the windows around both
probes, j in q - 3 .. q and i in (i + d) - 3 .. i + d, include W on each
side.

Two memos, each keyed by content, so a hit is what a fresh join or build
would give, and each dropping its least recently used entry past its bound:
an auditor's, of the appends it joined and found to share no window with its
secrets, and ``find_plaintext_leak``'s, of the auditors of the secret sets
it was given. Each holds references to the appends or secrets it keys on.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Iterator

import numpy as np

from .tee import SharedBuffer

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


def _filter(slots: np.ndarray, bits: int) -> np.ndarray:
    """A table of 2**``bits`` bits, packed, with the bit of each slot set."""
    marked = np.zeros(1 << bits, np.bool_)
    marked[slots.view(np.intp)] = True
    return np.packbits(marked, bitorder="little")


# The bound of an auditor's cleared appends: above the distinct appends one
# pass over a caller's clean inputs makes, lest a cyclic pass evict each
# append before its next audit. Over the benchmark's 8 inputs that is 19 on
# lenet-layered (11 containers, 8 inputs), 16 on branched (8 containers, 8
# hand-offs) and 6 per input set on spill-stream, plus 2 fresh spill chunks
# per audit. A larger bound keeps more appends no longer audited alive.
_CLEARED_APPENDS = 64


class LeakAudit:
    """The audit against one secret set: its index, built once, and the
    appends it has cleared.

    Each of the sorted ``entries`` holds a grid probe's 32-bit hash, the
    top bits of its product with the first filter's multiplier, in its top
    half, and the probe's index in the secrets' probes, concatenated in
    order, in its low half; ``firsts`` holds where each secret's probes
    start there, so the probe at index g of secret s lies at 4 * (g -
    firsts[s]). Each of the two ``filters`` is a table of 2**``bits`` bits
    with the bit of each probe's slot set.
    """

    def __init__(self, secrets: Iterable[bytes]):
        # a caller's bytearray, snapshotted, as an auditor outlives the call
        self.secrets = tuple(map(bytes, secrets))
        probes, self.firsts = _probes(self.secrets, _STRIDE)
        if probes.size > 1 << 32:
            raise ValueError("a secret set of 16 GiB or more is too large to index")
        self.entries = _hashes(probes, _M1, 32) << _HALF | np.arange(probes.size, dtype=_KEY)
        self.entries.sort()
        # 8 bytes or more, and at most 2**32 bits, so the first filter's slots
        # are the top bits of the sorted hashes and are set in order; a set of
        # 2 GiB or more gets fuller filters, which cost work, not exactness
        self.bits = min(max(6, (_BITS_PER_PROBE * probes.size - 1).bit_length()), 32)
        self.filters = [_filter(self.entries >> np.uint64(64 - self.bits), self.bits),
                        _filter(_hashes(probes, _M2, self.bits), self.bits)]
        # each (append, is_container) whose records share no window with the
        # secrets, least recently used first; a container's records differ,
        # as no slice spans its header and body
        self._cleared: OrderedDict[tuple[bytes, bool], None] = OrderedDict()

    def _holds(self, probes: np.ndarray, k: int) -> np.ndarray:
        """Mask of the ``probes`` whose slot's bit filter ``k`` has set."""
        slots = _hashes(probes, _FILTER_MULTIPLIERS[k], self.bits).view(np.intp)
        # every byte index is below the table's size, so wrapping skips the bounds check
        held = self.filters[k].take(slots >> 3, mode="wrap")
        held >>= slots.astype(np.uint8) & 7  # the slot's bit, into its byte's lowest
        held &= 1
        return held.view(np.bool_)

    def _passing(self, probes: np.ndarray) -> np.ndarray:
        """The sorted indices of the ``probes`` that both filters hold: each
        of the secrets' probes, and a few others."""
        kept = [np.empty(0, np.intp)]
        for start in range(0, probes.size, _CHUNK):
            chunk = probes[start : start + _CHUNK]
            at = np.flatnonzero(self._holds(chunk, 0))
            kept.append(at[self._holds(chunk[at], 1)] + start)
        return np.concatenate(kept)

    def _lookup(self, hashes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which of the sorted ``hashes`` some grid probe has, as a mask, and
        the indices of all such probes, sorted."""
        first = np.searchsorted(self.entries, hashes << _HALF)
        count = np.searchsorted(self.entries, hashes << _HALF | _LOW_HALF, side="right") - first
        # the i-th entry of the run of equal hashes that starts at first[r]
        runs = np.arange(count.sum()) + np.repeat(first - (np.cumsum(count) - count), count)
        grid = self.entries[runs] & _LOW_HALF
        grid.sort()
        return count > 0, grid.view(np.intp)  # below 2**32, so the view is exact

    def _shared_keys(self, logged: list[memoryview]) -> np.ndarray:
        """The distinct 8-byte keys of windows found both in ``logged`` and
        in the secrets, sorted; the module's docstring shows none is missed."""
        probes, firsts = _probes(logged, 1)
        kept = self._passing(probes)
        hashes = _hashes(probes[kept], _M1, 32)
        distinct = _distinct([hashes])
        found, grid = self._lookup(distinct)
        if not grid.size:
            return np.empty(0, _KEY)
        at = kept[_in_sorted(distinct[found], hashes)]
        return _in_both(
            _windows_at(logged, firsts, 1, at),
            _windows_at(self.secrets, self.firsts, _STRIDE, grid),
        )

    def find(self, buffer: SharedBuffer) -> bytes | None:
        """Return the first 8-byte slice of any secret found in ``buffer``'s
        write log, or None if nothing leaked.

        Secrets are searched in order, each from its start; a logged slice
        lies within one write record. Secrets shorter than 8 bytes cannot be
        detected and are skipped. The appends not cleared before are joined
        in one ``_shared_keys`` call, and a cleared append shares no window,
        so the join's keys are all the buffer shares. An audit that finds
        nothing clears the appends it joined; one that finds a slice clears
        none, its clean appends included, and a later audit joins them
        again, a cost that does not matter, as a leak fails the run.

        The match is on bytes, not on where they came from: a secret window
        made of a float's top byte and zero bytes also occurs in public ReLU
        activations with zero runs. So a branched plan that spills after its
        public normal-world hand-off is flagged although nothing leaks.
        """
        missed, logged = [], []
        for data, is_container, records in buffer._appends():
            key = (data, is_container)
            if key in self._cleared:
                self._cleared.move_to_end(key)
            else:
                missed.append(key)
                logged += (view for _offset, _tag, view in records)
        if not missed:
            return None
        shared = self._shared_keys(logged)
        if not shared.size:
            for key in missed:
                self._cleared[key] = None
                if len(self._cleared) > _CLEARED_APPENDS:
                    self._cleared.popitem(last=False)
            return None
        # each shared key is a secret window's, so some secret holds the first
        hits = ((s, np.flatnonzero(_in_sorted(shared, _window_keys(s)))) for s in self.secrets)
        secret, at = next((secret, at[0]) for secret, at in hits if at.size)
        return secret[at : at + _KEY.itemsize]


# secrets -> their auditor, least recently used first. The bound is the 8
# secret sets a pass over 8 inputs touches when each has its own, which a
# cyclic pass keeps; an index holds under 3 bytes per secret byte, so a
# larger bound keeps more memory of sets no longer audited alive.
_AUDITED_SETS = 8
_auditors: OrderedDict[tuple[bytes, ...], LeakAudit] = OrderedDict()


def find_plaintext_leak(buffer: SharedBuffer, secrets: Iterable[bytes]) -> bytes | None:
    """``LeakAudit(secrets).find(buffer)``, with the auditor of each of the
    last ``_AUDITED_SETS`` secret sets kept between calls, so its index is
    built once and each append it clears is joined once."""
    secrets = tuple(map(bytes, secrets))
    auditor = _auditors.pop(secrets, None) or LeakAudit(secrets)
    _auditors[secrets] = auditor
    if len(_auditors) > _AUDITED_SETS:
        _auditors.popitem(last=False)
    return auditor.find(buffer)
