import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdlp.container import (
    HEADER_BYTES,
    MAC_BYTES,
    aead,
    decrypt_partition,
    encrypt_partition,
    read_header,
)
from cdlp.errors import FormatError, IntegrityError

CIPHER = aead(bytes(range(16)))
CONTEXT = b"weights" + bytes(32)  # a weights context: tag, plan digest


def test_empty_blob_container_is_44_bytes():
    data = encrypt_partition(b"", CIPHER, 0, CONTEXT)
    assert len(data) == 4 + 2 + 2 + 12 + 8 + 0 + 16 == 44
    assert decrypt_partition(data, CIPHER, 0, CONTEXT) == b""


@given(index=st.integers(0, 2**64 - 1), size=st.integers(0, 2048))
@example(index=65_536 + 3, size=16)
@settings(max_examples=40, deadline=None)
def test_round_trip_random_blob(index, size):
    blob = os.urandom(size) if size else b""
    data = encrypt_partition(blob, CIPHER, index, CONTEXT)
    assert decrypt_partition(data, CIPHER, index, CONTEXT) == blob
    # the header holds the index mod 2^16; the tag binds all 64 bits
    for alias in (index ^ 1 << 16, index ^ 1 << 63):
        with pytest.raises(IntegrityError, match="tag mismatch"):
            decrypt_partition(data, CIPHER, alias, CONTEXT)


def test_one_kib_round_trip_bitwise():
    blob = os.urandom(1024)
    assert decrypt_partition(encrypt_partition(blob, CIPHER, 3, CONTEXT), CIPHER, 3, CONTEXT) == blob


def test_ciphertext_bit_flips_raise_integrity_error():
    blob = os.urandom(256)
    data = bytearray(encrypt_partition(blob, CIPHER, 1, CONTEXT))
    for byte_index in range(HEADER_BYTES, len(data) - MAC_BYTES, 13):
        tampered = bytearray(data)
        tampered[byte_index] ^= 1 << (byte_index % 8)
        with pytest.raises(IntegrityError):
            decrypt_partition(bytes(tampered), CIPHER, 1, CONTEXT)


@pytest.mark.parametrize("form", [bytes, bytearray, memoryview])
def test_every_bytes_like_container_opens_alike(form):
    blob = os.urandom(300)
    data = encrypt_partition(blob, CIPHER, 2, CONTEXT)
    assert decrypt_partition(form(data), CIPHER, 2, CONTEXT) == blob
    tampered = bytearray(data)
    tampered[HEADER_BYTES + 7] ^= 0x10
    with pytest.raises(IntegrityError):
        decrypt_partition(form(bytes(tampered)), CIPHER, 2, CONTEXT)


def test_mac_tamper_raises_integrity_error():
    data = bytearray(encrypt_partition(b"abc", CIPHER, 1, CONTEXT))
    data[-1] ^= 0x80
    with pytest.raises(IntegrityError):
        decrypt_partition(bytes(data), CIPHER, 1, CONTEXT)


def test_bad_magic_is_a_format_error():
    data = bytearray(encrypt_partition(b"abc", CIPHER, 1, CONTEXT))
    data[0] ^= 0xFF
    with pytest.raises(FormatError):
        decrypt_partition(bytes(data), CIPHER, 1, CONTEXT)


def test_bad_version_is_a_format_error():
    data = bytearray(encrypt_partition(b"abc", CIPHER, 1, CONTEXT))
    data[4] = 7
    with pytest.raises(FormatError):
        decrypt_partition(bytes(data), CIPHER, 1, CONTEXT)


def test_truncated_container_is_a_format_error():
    data = encrypt_partition(b"abcdef", CIPHER, 1, CONTEXT)
    with pytest.raises(FormatError):
        decrypt_partition(data[:-1], CIPHER, 1, CONTEXT)
    with pytest.raises(FormatError):
        decrypt_partition(data + b"\x00", CIPHER, 1, CONTEXT)
    with pytest.raises(FormatError):
        read_header(data[:10])


def test_wrong_key_is_an_integrity_error():
    data = encrypt_partition(b"payload", CIPHER, 1, CONTEXT)
    with pytest.raises(IntegrityError):
        decrypt_partition(data, aead(bytes(16)), 1, CONTEXT)


def test_short_key_rejected():
    with pytest.raises(ValueError):
        aead(b"short")


@pytest.mark.parametrize("index", [-1, 2**64])
def test_index_outside_u64_is_rejected(index):
    with pytest.raises(ValueError, match="outside u64 range"):
        encrypt_partition(b"abc", CIPHER, index, CONTEXT)
    data = encrypt_partition(b"abc", CIPHER, index & 0xFFFF, CONTEXT)
    with pytest.raises(ValueError, match="outside u64 range"):
        decrypt_partition(data, CIPHER, index, CONTEXT)


def test_partition_id_check():
    data = encrypt_partition(b"abc", CIPHER, 5, CONTEXT)
    assert decrypt_partition(data, CIPHER, 5, CONTEXT) == b"abc"
    with pytest.raises(IntegrityError, match="partition 5"):
        decrypt_partition(data, CIPHER, 6, CONTEXT)


def test_context_mismatch_is_an_integrity_error():
    data = encrypt_partition(b"abc", CIPHER, 1, CONTEXT)
    assert decrypt_partition(data, CIPHER, 1, CONTEXT) == b"abc"
    for other in (b"", CONTEXT + b"\x00", CONTEXT[:-1]):
        with pytest.raises(IntegrityError, match="tag mismatch"):
            decrypt_partition(data, CIPHER, 1, other)


def test_fresh_nonces_change_ciphertext():
    blob = os.urandom(64)
    a = encrypt_partition(blob, CIPHER, 2, CONTEXT)
    b = encrypt_partition(blob, CIPHER, 2, CONTEXT)
    assert a != b
    assert decrypt_partition(a, CIPHER, 2, CONTEXT) == decrypt_partition(b, CIPHER, 2, CONTEXT) == blob


def test_ciphertext_shares_no_8_byte_window_with_plaintext():
    blob = os.urandom(4096)
    data = encrypt_partition(blob, CIPHER, 0, CONTEXT)
    ciphertext = data[HEADER_BYTES:-MAC_BYTES]
    windows = {ciphertext[i : i + 8] for i in range(len(ciphertext) - 7)}
    assert all(blob[i : i + 8] not in windows for i in range(len(blob) - 7))
