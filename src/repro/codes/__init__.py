"""Error-detecting codes used by the self-checking memory scheme.

* :class:`ParityCode` — single parity bit protecting the data path (§II).
* :class:`MOutOfNCode` — q-out-of-r unordered codes for the decoder-check
  ROM (§III), with a canonical dense indexing used by the mod-a mapping.
* :class:`BergerCode` — systematic unordered code (cited variants of the
  zero-latency endpoint).
* :class:`TwoRailCode` — checker-internal code.
* :class:`HammingCode` — SEC / SEC-DED baseline for comparisons.
* :mod:`repro.codes.unordered` — predicates proving the covering
  properties the scheme relies on.
"""

from typing import TYPE_CHECKING

from repro import _lazy

if TYPE_CHECKING:
    from repro.codes.base import BitVector, Code, validate_bits
    from repro.codes.berger import BergerCode, berger_check_width
    from repro.codes.hamming import (
        DecodeResult,
        HammingCode,
        hamming_check_bits,
    )
    from repro.codes.m_out_of_n import MOutOfNCode, maximal_code_for_width
    from repro.codes.parity import ParityCode
    from repro.codes.two_rail import TwoRailCode
    from repro.codes.unordered import (
        and_of_distinct_words_is_noncode,
        bitwise_and,
        covers,
        is_unordered_code,
        violating_pairs,
    )

__all__ = [
    "BitVector",
    "Code",
    "validate_bits",
    "ParityCode",
    "BergerCode",
    "berger_check_width",
    "MOutOfNCode",
    "maximal_code_for_width",
    "TwoRailCode",
    "HammingCode",
    "DecodeResult",
    "hamming_check_bits",
    "covers",
    "bitwise_and",
    "is_unordered_code",
    "violating_pairs",
    "and_of_distinct_words_is_noncode",
]

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".base": ("BitVector", "Code", "validate_bits"),
        ".berger": ("BergerCode", "berger_check_width"),
        ".hamming": ("DecodeResult", "HammingCode", "hamming_check_bits"),
        ".m_out_of_n": ("MOutOfNCode", "maximal_code_for_width"),
        ".parity": ("ParityCode",),
        ".two_rail": ("TwoRailCode",),
        ".unordered": (
            "and_of_distinct_words_is_noncode",
            "bitwise_and",
            "covers",
            "is_unordered_code",
            "violating_pairs",
        ),
    },
)
