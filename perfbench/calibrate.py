"""Calibration probe: the unit ("cu") every host-time metric is reported in.

Wall time on a shared machine drifts by tens of percent between runs, but it
drifts for the probe and for the library alike when the probe does the same
kinds of work: small float32 numpy operations driven from a Python loop (the
kernels and the streaming accumulator) and AES-128-CTR plus HMAC-SHA256 over a
buffer (the partition containers). The benchmark runs one probe before every
inference and divides each measured time by the median probe time.

This module must not import ``cdlp``: no change to the library can move the
probe, so a change in a cu figure is a change in the library.
"""

from __future__ import annotations

import hashlib
import hmac
import time

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

_ROWS = 32
_COLS = 192
_CRYPTO_BYTES = 64 * 1024


class Probe:
    """A fixed piece of work whose duration defines one calibration unit."""

    def __init__(self):
        rng = np.random.default_rng(20190826)
        self._weights = rng.standard_normal((_ROWS, _COLS)).astype(np.float32)
        self._inputs = rng.standard_normal(_COLS).astype(np.float32)
        self._key = bytes(range(16))
        self._nonce = bytes(range(16, 32))
        self._buffer = rng.integers(0, 256, _CRYPTO_BYTES, dtype=np.uint8).tobytes()
        self._expected = self._work()

    def _work(self) -> tuple[bytes, bytes]:
        acc = np.zeros(_ROWS, dtype=np.float32)
        w, x = self._weights, self._inputs
        for i in range(_COLS):
            acc += w[:, i] * x[i]
        cipher = Cipher(algorithms.AES(self._key), modes.CTR(self._nonce))
        ciphertext = cipher.encryptor().update(self._buffer)
        mac = hmac.new(self._key, ciphertext, hashlib.sha256).digest()
        return acc.tobytes(), mac

    def run(self) -> float:
        """Seconds one probe took. Raises if the probe computed anything else."""
        started = time.perf_counter()
        result = self._work()
        elapsed = time.perf_counter() - started
        if result != self._expected:
            raise RuntimeError("calibration probe is not deterministic")
        return elapsed
