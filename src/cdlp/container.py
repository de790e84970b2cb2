"""Encrypted partition container: AES-128-GCM (RFC 5116, NIST SP 800-38D).

Layout, integers little-endian:

    magic          4 bytes  "CDLP"
    version        u16      3
    partition_id   u16
    nonce          12 bytes
    plaintext_len  u64
    ciphertext     plaintext_len bytes
    tag            16 bytes

A weights container's plaintext is a partition blob, biases then column-major
weights (see ``weights``); version 2 held row-major ones and is refused.

The associated data is the header followed by a caller-supplied context,
so one tag covers the framing, the ciphertext and the place the container
was made for. A container read anywhere else fails to verify, and no
plaintext is returned before the tag checks. Opening reads the ciphertext
from a view of the container, so the container is not copied on its way
into AES-GCM. Nonces are random per container, so re-encrypting the same
blob yields different bytes; SP 800-38D allows 2^32 containers per key with
random 96-bit nonces.

Sealing and opening both take the partition id and the context, with no
defaults: a container is always opened against the id and the context it
is expected to carry. They take the 16-byte key, or the cipher ``aead``
makes of it; a run makes that cipher once and seals and opens all its
containers with it. The executor passes
one of two contexts:

* weights: ``b"weights"``, the plan digest and the partition's layer;
* spill: ``b"spill"``, the plan digest, a 16-byte nonce drawn once per run,
  the spilled layer and the chunk's full index (the u16 ``partition_id``
  of a spill chunk wraps).

The plan digest is the SHA-256 of the plan's manifest. It covers the
manifest and not the model's config text because the encrypting and the
running entry points, ``prepare_partition_data(store, plan, key)`` and
``run_partitioned(model, data, plan, x, arena, key)``, never see the config
text; the manifest names every partition's layer, rows and world.
"""

from __future__ import annotations

import os
import struct

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import FormatError, IntegrityError

MAGIC = b"CDLP"
VERSION = 3
KEY_BYTES = 16
NONCE_BYTES = 12
MAC_BYTES = 16  # the GCM tag

_HEADER = struct.Struct("<4sHH12sQ")
_NONCE = slice(8, 8 + NONCE_BYTES)  # the nonce's place in the header
HEADER_BYTES = _HEADER.size
MIN_CONTAINER_BYTES = HEADER_BYTES + MAC_BYTES


def aead(key: bytes) -> AESGCM:
    """The AES-128-GCM cipher of a 16-byte ``key``. A run makes it once and
    seals and opens every container of the run with it."""
    if not isinstance(key, (bytes, bytearray)) or len(key) != KEY_BYTES:
        raise ValueError(f"key must be {KEY_BYTES} bytes, got {len(key)}")
    return AESGCM(bytes(key))


def encrypt_partition(
    blob: bytes, key: bytes | AESGCM, partition_id: int, context: bytes
) -> bytes:
    """Seal ``blob`` under a fresh nonce, bound to the header and ``context``.
    ``key`` is the 16-byte key or the cipher ``aead`` made of it."""
    cipher = key if isinstance(key, AESGCM) else aead(key)
    if not 0 <= partition_id <= 0xFFFF:
        raise ValueError(f"partition id {partition_id} outside u16 range")
    nonce = os.urandom(NONCE_BYTES)
    header = _HEADER.pack(MAGIC, VERSION, partition_id, nonce, len(blob))
    return header + cipher.encrypt(nonce, bytes(blob), header + context)


def read_header(container: bytes) -> tuple[int, int]:
    """Validate framing and return (partition_id, plaintext_len).

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


def decrypt_partition(
    container: bytes, key: bytes | AESGCM, expected_partition_id: int, context: bytes
) -> bytes:
    """Verify and decrypt a bytes-like ``container`` with the 16-byte key or
    its ``aead`` cipher; an id, tag or context mismatch raises IntegrityError,
    framing FormatError."""
    cipher = key if isinstance(key, AESGCM) else aead(key)
    partition_id, _plaintext_len = read_header(container)
    if partition_id != expected_partition_id:
        raise IntegrityError(
            f"container is for partition {partition_id}, expected {expected_partition_id}"
        )
    header = bytes(container[:HEADER_BYTES])
    try:  # the ciphertext is read from a view, not copied
        return cipher.decrypt(
            header[_NONCE], memoryview(container)[HEADER_BYTES:], header + context
        )
    except InvalidTag:
        raise IntegrityError("container tag mismatch") from None
