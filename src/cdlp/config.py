"""Model configuration text: an INI-like grammar.

Sections: [net], [convolutional], [maxpool], [connected], [softmax],
[branch]. Lines are key=value with optional whitespace around '='; '#'
starts a comment; encoding is ASCII. [net] must come first and carries
channels/height/width. A layer section takes exactly its kind's fields
in ``model.LAYER_FIELDS``. [branch] takes branches=k and marks the layers
that follow it as k independent groups.
"""

from __future__ import annotations

import importlib.resources
import re

from .errors import ConfigError
from .model import LAYER_FIELDS, BranchTopology, LayerSpec, ModelSpec

_NET_KEYS = ("channels", "height", "width")
_LAYER_KEYS = {**LAYER_FIELDS, "branch": ("branches",)}
_STRING_KEYS = ("activation",)

CANONICAL_CONFIG_NAME = "lenet11.cfg"


def _split_sections(text: str):
    """Yield (section name, header line, {key: (value, line)}) in file order."""
    if not text.isascii():
        for number, line in enumerate(text.splitlines(), 1):
            if not line.isascii():
                raise ConfigError("non-ASCII character", number)
        raise ConfigError("non-ASCII line separator")
    sections = []
    current = None
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"malformed section header {raw.strip()!r}", number)
            name = line[1:-1].strip()
            if name not in _LAYER_KEYS and name != "net":
                raise ConfigError(f"unknown section [{name}]", number)
            current = (name, number, {})
            sections.append(current)
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {raw.strip()!r}", number)
        if current is None:
            raise ConfigError("key=value before any section", number)
        key, value = (part.strip() for part in line.split("=", 1))
        if key in current[2]:
            raise ConfigError(f"duplicate key {key!r}", number)
        current[2][key] = (value, number)
    return sections


def _take(name, keys, allowed, header_line):
    values = {}
    for key in allowed:
        if key not in keys:
            raise ConfigError(f"[{name}] is missing required key {key!r}", header_line)
        raw, line = keys.pop(key)
        if key in _STRING_KEYS:
            values[key] = raw
            continue
        if not re.fullmatch(r"[+-]?[0-9]+", raw):  # int() would also take '1_6'
            raise ConfigError(f"non-numeric value {raw!r} for {key!r}", line)
        values[key] = int(raw)
    if keys:
        stray, (_, line) = next(iter(keys.items()))
        raise ConfigError(f"unknown key {stray!r} in [{name}]", line)
    return values


def parse_config(text: str) -> ModelSpec:
    """Parse configuration text into a ModelSpec; errors carry line numbers."""
    sections = _split_sections(text)
    if not sections or sections[0][0] != "net":
        raise ConfigError("configuration must start with a [net] section", 1)

    net = _take("net", dict(sections[0][2]), _NET_KEYS, sections[0][1])
    layers: list[LayerSpec] = []
    branch: BranchTopology | None = None
    branch_line = None
    for name, header_line, keys in sections[1:]:
        if name == "net":
            raise ConfigError("duplicate [net] section", header_line)
        values = _take(name, dict(keys), _LAYER_KEYS[name], header_line)
        if name == "branch":
            if branch is not None:
                raise ConfigError("duplicate [branch] section", header_line)
            if values["branches"] < 2:
                raise ConfigError("branches must be >= 2", header_line)
            branch = BranchTopology(len(layers), values["branches"])
            branch_line = header_line
            continue
        layers.append(LayerSpec(kind=name, **values))
    if not layers:
        raise ConfigError("configuration defines no layers", sections[-1][1])
    if branch is not None and branch.branch_layer_index >= len(layers):
        raise ConfigError("[branch] must be followed by at least one layer", branch_line)

    return ModelSpec(layers, (net["channels"], net["height"], net["width"]), branch)


def canonical_config_text() -> str:
    """The 11-layer classifier configuration shipped with the package."""
    path = importlib.resources.files(__package__) / "data" / CANONICAL_CONFIG_NAME
    return path.read_text(encoding="ascii")


def load_canonical_model() -> ModelSpec:
    return parse_config(canonical_config_text())
