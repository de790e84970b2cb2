"""Spans for the traced benchmark run, recorded from the benchmark's own files.

``Tracer.install`` replaces each target function with a wrapper in the
namespace the library resolves it from (``cdlp.executor.ledger_decrypt`` is the
name the executor calls, ``cdlp.nn.conv_forward_subset`` the one the reference
pass reaches), and ``uninstall`` puts the originals back. No file under
``src/`` is edited, and the untraced run never installs anything.

A target that no longer exists, because a later change renamed or merged the
function, is listed as absent and its span reads zero; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class SpanSpec:
    name: str
    targets: tuple[str, ...]  # "module:attribute" or "module:Class.attribute"
    work: Callable | None = None  # (args, result) -> units of work done
    timed: bool = True  # False: count calls only, open no span


def _len_result(args, result) -> int:
    return len(result)


def _len_first_arg(args, result) -> int:
    return len(args[0])


def _fed_values(args, result) -> int:
    return args[1].size  # DenseAccumulator.feed(self, values, base)


def _weight_bytes(args, result) -> int:
    return result.weights.nbytes + result.biases.nbytes


SPANS = (
    SpanSpec("nn.conv", ("cdlp.executor:conv_forward_subset", "cdlp.nn:conv_forward_subset")),
    SpanSpec(
        "nn.connected",
        ("cdlp.executor:connected_forward_rows", "cdlp.nn:connected_forward_rows"),
    ),
    SpanSpec("nn.accumulate", ("cdlp.nn:DenseAccumulator.feed",), _fed_values),
    SpanSpec(
        "nn.pool_softmax",
        (
            "cdlp.executor:maxpool_forward", "cdlp.executor:softmax_forward",
            "cdlp.nn:maxpool_forward", "cdlp.nn:softmax_forward",
        ),
    ),
    SpanSpec("container.decrypt", ("cdlp.container:decrypt_partition",), _len_result),
    SpanSpec(
        "container.encrypt",
        ("cdlp.executor:encrypt_partition", "cdlp.container:encrypt_partition"),
        _len_first_arg,
    ),
    SpanSpec("tee.ledger_decrypt", ("cdlp.executor:ledger_decrypt",)),
    SpanSpec("tee.invoke", ("cdlp.tee:Session.invoke",), timed=False),
    SpanSpec(
        "weights.partition_weights",
        ("cdlp.executor:partition_weights", "cdlp.weights:partition_weights"),
        _weight_bytes,
    ),
    SpanSpec("executor.stream_spilled", ("cdlp.executor:stream_spilled",)),
    SpanSpec("executor.spill_activations", ("cdlp.executor:spill_activations",)),
    SpanSpec("planner.validate_plan", ("cdlp.executor:validate_plan",)),
)


def _resolve(target: str):
    """(owner, attribute, current value) for a target, or None if it is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    original = getattr(owner, attribute, None)
    if not callable(original):
        return None
    return owner, attribute, original


class Tracer:
    """Per-name totals of wrapped calls, with self time net of child spans."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self._stack: list[list] = []  # [name, started, child seconds]
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for spec in SPANS:
            for target in spec.targets:
                found = _resolve(target)
                if found is None:
                    self.absent.append(target)
                    continue
                owner, attribute, original = found
                setattr(owner, attribute, self._wrap(spec, original))
                self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens around its own call."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, started, children = self._stack.pop()
        elapsed = time.perf_counter() - started
        self.seconds[name] += elapsed
        self.self_seconds[name] += elapsed - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += elapsed

    def _wrap(self, spec: SpanSpec, original):
        name = spec.name

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not spec.timed:
                self.calls[name] += 1
                return original(*args, **kwargs)
            if self._stack and self._stack[-1][0] == name:
                # an inner call of the same span, e.g. one wrapped alias
                # reaching another: already timed by the outer call
                return original(*args, **kwargs)
            self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit()
            if spec.work is not None:
                try:
                    self.work[name] += spec.work(args, result)
                except (AttributeError, IndexError, TypeError):
                    self.uncounted.add(name)
            return result

        return wrapper
