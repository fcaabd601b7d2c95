"""NOR/ROM matrix models for the decoder-checking scheme."""

from typing import TYPE_CHECKING

from repro import _lazy

if TYPE_CHECKING:
    from repro.rom.nor_matrix import CheckedDecoder, NORMatrix

__all__ = ["CheckedDecoder", "NORMatrix"]

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".nor_matrix": ("CheckedDecoder", "NORMatrix"),
    },
)
