"""Block identity and the canonical forward order of the decoder.

A decoder layer is the sequential residual chain SA -> CA -> FFN; the canonical
ordinal ``3 * layer + kind_index`` therefore orders blocks exactly as the
forward pass visits them, and "downstream" always means "larger ordinal".
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormatError, parse_int

KINDS = ("SA", "CA", "FFN")
_KIND_INDEX = {k: i for i, k in enumerate(KINDS)}


@dataclass(frozen=True, order=False)
class BlockId:
    layer: int
    kind: str

    def __post_init__(self):
        if self.kind not in _KIND_INDEX:
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.layer < 0:
            raise ValueError("layer must be nonnegative")

    @property
    def ordinal(self) -> int:
        return 3 * self.layer + _KIND_INDEX[self.kind]

    @property
    def name(self) -> str:
        return f"layers.{self.layer}.{self.kind}"

    def __repr__(self) -> str:
        return f"BlockId({self.name})"


def canonical_blocks(layers: int) -> list[BlockId]:
    """All 3*layers blocks in forward (ordinal) order."""
    return [BlockId(l, k) for l in range(layers) for k in KINDS]


def block_at(ordinal: int) -> BlockId:
    """The block with canonical ordinal ``ordinal``."""
    return BlockId(ordinal // 3, KINDS[ordinal % 3])


def parse_block_name(text: str) -> BlockId:
    """Parse ``layers.<l>.<SA|CA|FFN>``; raises FormatError otherwise."""
    parts = text.strip().split(".")
    if len(parts) != 3 or parts[0] != "layers":
        raise FormatError(f"bad block name {text!r}")
    try:
        layer = parse_int(parts[1])
    except ValueError:
        raise FormatError(f"bad layer index in {text!r}") from None
    if layer < 0 or parts[2] not in KINDS:
        raise FormatError(f"bad block name {text!r}")
    return BlockId(layer, parts[2])
