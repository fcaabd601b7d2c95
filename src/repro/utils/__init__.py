"""Shared low-level utilities: combinatorics and bit manipulation."""

from typing import TYPE_CHECKING

from repro import _lazy

if TYPE_CHECKING:
    from repro.utils.bitops import (
        all_bit_vectors,
        bit_slice,
        bits_to_int,
        hamming_distance,
        int_to_bits,
        parity_of,
        popcount,
    )
    from repro.utils.combinatorics import (
        binomial,
        central_binomial,
        max_constant_weight_cardinality,
        smallest_r_for_cardinality,
    )

__all__ = [
    "all_bit_vectors",
    "binomial",
    "bit_slice",
    "bits_to_int",
    "central_binomial",
    "hamming_distance",
    "int_to_bits",
    "max_constant_weight_cardinality",
    "parity_of",
    "popcount",
    "smallest_r_for_cardinality",
]

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".bitops": (
            "all_bit_vectors",
            "bit_slice",
            "bits_to_int",
            "hamming_distance",
            "int_to_bits",
            "parity_of",
            "popcount",
        ),
        ".combinatorics": (
            "binomial",
            "central_binomial",
            "max_constant_weight_cardinality",
            "smallest_r_for_cardinality",
        ),
    },
)
