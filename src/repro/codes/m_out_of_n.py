"""m-out-of-n (constant-weight) codes — the unordered codes of the scheme.

An m-out-of-n code word is an n-bit vector with exactly m ones.  These are
the non-systematic unordered codes the paper selects for the decoder-check
ROM: for a given number of code words they need the minimum width, attained
at ``m = floor(n/2)`` (or ``ceil``), whose cardinality is the central
binomial coefficient.

The module also fixes a canonical *indexing* of the code words
(colexicographic, i.e. combinations in sorted order), which is what the
mod-a mapping of §III.1 needs: "let us associate, with each value
0 <= B < a, a code word of the q-out-of-r code".
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.codes.base import BitVector, Code, validate_bits
from repro.utils.combinatorics import binomial

__all__ = ["MOutOfNCode", "maximal_code_for_width"]


class MOutOfNCode(Code):
    """The m-out-of-n constant-weight code.

    >>> code = MOutOfNCode(3, 5)
    >>> code.cardinality()
    10
    >>> code.is_codeword((1, 1, 1, 0, 0))
    True
    >>> code.is_codeword((1, 1, 0, 0, 0))
    False
    >>> code.is_unordered()
    True
    """

    def __init__(self, m: int, n: int):
        if n < 1:
            raise ValueError(f"code width n must be >= 1, got {n}")
        if not 0 < m < n:
            raise ValueError(
                f"weight m must satisfy 0 < m < n, got m={m}, n={n}"
            )
        self.m = m
        self.n = n
        self.length = n
        #: index -> code word, filled by :meth:`word_at`
        self._words: Dict[int, BitVector] = {}

    def __repr__(self) -> str:
        return f"MOutOfNCode({self.m}-out-of-{self.n})"

    @property
    def name(self) -> str:
        """Human-readable name, e.g. ``'3-out-of-5'`` as printed in the tables."""
        return f"{self.m}-out-of-{self.n}"

    def is_codeword(self, word: Sequence[int]) -> bool:
        word = validate_bits(word)
        return len(word) == self.n and sum(word) == self.m

    def words(self) -> Iterator[BitVector]:
        """Code words in canonical (index) order; see :meth:`word_at`."""
        for index in range(self.cardinality()):
            yield self.word_at(index)

    def cardinality(self) -> int:
        return binomial(self.n, self.m)

    # -- canonical indexing --------------------------------------------------

    def word_at(self, index: int) -> BitVector:
        """The ``index``-th code word under the canonical combination order.

        Positions of the 1s enumerate ``itertools.combinations(range(n), m)``
        in lexicographic order of the position tuples.  This ordering is
        stable, dense and cheap to invert, which is all the mod-a mapping
        requires.  Words are memoized per instance: a decoder's ROM maps
        every address onto a few code words.

        >>> MOutOfNCode(2, 4).word_at(0)
        (1, 1, 0, 0)
        >>> MOutOfNCode(2, 4).word_at(5)
        (0, 0, 1, 1)
        """
        word = self._words.get(index)
        if word is None:
            size = self.cardinality()
            if not 0 <= index < size:
                raise ValueError(f"index {index} out of range [0, {size})")
            bits = [0] * self.n
            for pos in self._unrank(index):
                bits[pos] = 1
            word = self._words[index] = tuple(bits)
        return word

    def index_of(self, word: Sequence[int]) -> int:
        """Inverse of :meth:`word_at`.

        >>> code = MOutOfNCode(3, 5)
        >>> all(code.index_of(code.word_at(i)) == i for i in range(10))
        True
        """
        word = validate_bits(word)
        self.assert_contains(word)
        positions = tuple(i for i, bit in enumerate(word) if bit)
        return self._rank(positions)

    def _rank(self, positions: Tuple[int, ...]) -> int:
        """Lexicographic rank of a sorted m-tuple of positions."""
        rank = 0
        prev = -1
        for slot, pos in enumerate(positions):
            for skipped in range(prev + 1, pos):
                rank += binomial(self.n - skipped - 1, self.m - slot - 1)
            prev = pos
        return rank

    def _unrank(self, rank: int) -> List[int]:
        """Inverse of :meth:`_rank` without materialising all combinations."""
        positions: List[int] = []
        candidate = 0
        remaining = rank
        for slot in range(self.m):
            while True:
                block = binomial(self.n - candidate - 1, self.m - slot - 1)
                if remaining < block:
                    positions.append(candidate)
                    candidate += 1
                    break
                remaining -= block
                candidate += 1
        return positions

    # -- convenience ---------------------------------------------------------

    def all_words_list(self) -> List[BitVector]:
        """All code words as a list (small codes only; used in tests)."""
        return [
            tuple(1 if i in combo else 0 for i in range(self.n))
            for combo in combinations(range(self.n), self.m)
        ]


def maximal_code_for_width(r: int) -> MOutOfNCode:
    """The densest constant-weight code of width ``r``: floor(r/2)-out-of-r.

    For odd r the paper writes q = ceil(r/2) or floor(r/2) interchangeably
    (same cardinality); we normalise to the *paper's table convention*,
    which prints the larger weight for odd r (3-out-of-5, 5-out-of-9,
    7-out-of-13, 9-out-of-18 is even r).  Cardinality is identical either
    way; only the printed name changes.

    >>> maximal_code_for_width(5).name
    '3-out-of-5'
    >>> maximal_code_for_width(4).name
    '2-out-of-4'
    """
    if r < 2:
        raise ValueError(f"need width >= 2 for a non-trivial code, got {r}")
    q = (r + 1) // 2 if r % 2 else r // 2
    return MOutOfNCode(q, r)
