"""Encrypted partition container: AES-128-GCM (RFC 5116, NIST SP 800-38D).

Layout, integers little-endian:

    magic          4 bytes  "CDLP"
    version        u16      4
    partition_id   u16      the container's index mod 2^16
    nonce          12 bytes
    plaintext_len  u64
    ciphertext     plaintext_len bytes
    tag            16 bytes

A weights container's plaintext is a partition blob, biases then column-major
weights (see ``weights``); version 2 held row-major ones and is refused.

Every container has an index: a weights container's is its partition id,
a spill chunk's its place in the spilled layer. The associated data is the
header, the full index as a u64 and a caller-supplied context, so one tag
covers the framing, the ciphertext, the container's position and the place
it was made for, as STREAM binds a segment's position (Hoang, Reyhanitabar,
Rogaway and Vizár, CRYPTO 2015). Only the header reaches shared memory; the
rest of the associated data is rebuilt by whoever opens the container. A
container read anywhere else fails to verify, and no plaintext is returned
before the tag checks. Version 3 bound the u16 field alone and is refused.
Opening reads the ciphertext from a view of the container, so the container
is not copied on its way into AES-GCM. Nonces are random per container, so
re-encrypting the same blob yields different bytes; SP 800-38D allows 2^32
containers per key with random 96-bit nonces.

Sealing and opening both take the cipher ``aead`` makes of the 16-byte key,
the index and the context, with no defaults: a container is always opened
against the index and the context it is expected to carry. A run makes the
cipher once and seals and opens all its containers with it. The executor
passes one of two contexts:

* weights: ``b"weights"`` and the plan digest;
* spill: ``b"spill"``, the plan digest, a 16-byte nonce drawn for each
  spilled layer of a run, and the spilled layer as a u64.

The plan digest is the SHA-256 of the plan's manifest, which names every
partition's layer, rows and world; so a weights container's index fixes
its layer too. The digest covers the manifest and not the model's config
text because the encrypting and the running entry points,
``prepare_partition_data(store, plan, key)`` and
``run_partitioned(model, data, plan, x, arena, key)``, never see the config
text.
"""

from __future__ import annotations

import os
import struct

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import FormatError, IntegrityError

MAGIC = b"CDLP"
VERSION = 4
KEY_BYTES = 16
NONCE_BYTES = 12
MAC_BYTES = 16  # the GCM tag

_HEADER = struct.Struct("<4sHH12sQ")
_INDEX = struct.Struct("<Q")
_NONCE = slice(8, 8 + NONCE_BYTES)  # the nonce's place in the header
HEADER_BYTES = _HEADER.size
MIN_CONTAINER_BYTES = HEADER_BYTES + MAC_BYTES


def aead(key: bytes) -> AESGCM:
    """The AES-128-GCM cipher of a 16-byte ``key``. A run makes it once and
    seals and opens every container of the run with it."""
    if not isinstance(key, (bytes, bytearray)) or len(key) != KEY_BYTES:
        raise ValueError(f"key must be {KEY_BYTES} bytes, got {len(key)}")
    return AESGCM(bytes(key))


def _packed_index(index: int) -> bytes:
    if not 0 <= index < 1 << 64:
        raise ValueError(f"container index {index} outside u64 range")
    return _INDEX.pack(index)


def encrypt_partition(blob: bytes, cipher: AESGCM, index: int, context: bytes) -> bytes:
    """Seal ``blob`` as container ``index`` under a fresh nonce, bound to the
    header, the full index and ``context``."""
    packed = _packed_index(index)
    nonce = os.urandom(NONCE_BYTES)
    header = _HEADER.pack(MAGIC, VERSION, index & 0xFFFF, nonce, len(blob))
    return header + cipher.encrypt(nonce, bytes(blob), header + packed + context)


def read_header(container: bytes) -> tuple[int, int]:
    """Validate framing and return (partition_id, plaintext_len), where
    ``partition_id`` is the container's index mod 2^16.

    Framing problems raise FormatError; nothing here checks the tag.
    """
    size = len(container)
    if size < MIN_CONTAINER_BYTES:
        raise FormatError(f"container of {size} bytes is too short")
    magic, version, partition_id, _nonce, plaintext_len = _HEADER.unpack_from(container)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}")
    expected = HEADER_BYTES + plaintext_len + MAC_BYTES
    if size != expected:
        raise FormatError(f"container of {size} bytes, header promises {expected}")
    return partition_id, plaintext_len


def decrypt_partition(container: bytes, cipher: AESGCM, index: int, context: bytes) -> bytes:
    """Verify and decrypt a bytes-like ``container`` expected to be container
    ``index`` under ``context``; an index, tag or context mismatch raises
    IntegrityError, framing FormatError."""
    packed = _packed_index(index)
    partition_id, _plaintext_len = read_header(container)
    if partition_id != index & 0xFFFF:
        raise IntegrityError(f"container is for partition {partition_id}, expected {index}")
    header = bytes(container[:HEADER_BYTES])
    try:  # the ciphertext is read from a view, not copied
        return cipher.decrypt(
            header[_NONCE], memoryview(container)[HEADER_BYTES:], header + packed + context
        )
    except InvalidTag:
        raise IntegrityError("container tag mismatch") from None
