import pytest

from repro.codes.m_out_of_n import MOutOfNCode, maximal_code_for_width
from repro.codes.unordered import (
    and_of_distinct_words_is_noncode,
    is_unordered_code,
)


class TestConstruction:
    def test_invalid_weight_rejected(self):
        with pytest.raises(ValueError):
            MOutOfNCode(0, 4)
        with pytest.raises(ValueError):
            MOutOfNCode(4, 4)
        with pytest.raises(ValueError):
            MOutOfNCode(5, 4)

    def test_name(self):
        assert MOutOfNCode(3, 5).name == "3-out-of-5"

    def test_cardinality_paper_codes(self):
        for m, n, c in [(1, 2, 2), (2, 3, 3), (2, 4, 6), (3, 5, 10),
                        (4, 7, 35), (5, 9, 126), (7, 13, 1716),
                        (9, 18, 48620)]:
            assert MOutOfNCode(m, n).cardinality() == c


class TestMembership:
    def test_weight_rule(self):
        code = MOutOfNCode(2, 4)
        assert code.is_codeword((1, 0, 1, 0))
        assert not code.is_codeword((1, 1, 1, 0))
        assert not code.is_codeword((1, 0, 0, 0))
        assert not code.is_codeword((0, 0, 0, 0))

    def test_wrong_length(self):
        assert not MOutOfNCode(2, 4).is_codeword((1, 1, 0))

    def test_all_ones_never_codeword(self):
        # The stuck-at-0 detection guarantee of §III.
        for m, n in [(1, 2), (2, 3), (2, 4), (3, 5), (4, 7)]:
            assert not MOutOfNCode(m, n).is_codeword((1,) * n)


class TestIndexing:
    @pytest.mark.parametrize("m,n", [(1, 2), (2, 4), (3, 5), (2, 5), (4, 7)])
    def test_word_at_index_round_trip(self, m, n):
        code = MOutOfNCode(m, n)
        for index in range(code.cardinality()):
            assert code.index_of(code.word_at(index)) == index

    def test_words_are_distinct_and_complete(self):
        code = MOutOfNCode(3, 6)
        words = list(code.words())
        assert len(words) == len(set(words)) == 20
        assert set(words) == set(code.all_words_list())

    def test_word_at_out_of_range(self):
        with pytest.raises(ValueError):
            MOutOfNCode(2, 4).word_at(6)
        with pytest.raises(ValueError):
            MOutOfNCode(2, 4).word_at(-1)

    def test_index_of_noncode_rejected(self):
        with pytest.raises(ValueError):
            MOutOfNCode(2, 4).index_of((1, 1, 1, 0))

    def test_canonical_order_first_and_last(self):
        code = MOutOfNCode(2, 4)
        assert code.word_at(0) == (1, 1, 0, 0)
        assert code.word_at(5) == (0, 0, 1, 1)

    @pytest.mark.parametrize("m,n", [(1, 2), (2, 4), (3, 5), (4, 7), (5, 9)])
    def test_memoized_words_match_unrank(self, m, n):
        code = MOutOfNCode(m, n)

        def unranked(index):
            positions = code._unrank(index)
            return tuple(int(i in positions) for i in range(n))

        for _ in range(2):  # the second pass is served from the cache
            for index in reversed(range(code.cardinality())):
                assert code.word_at(index) == unranked(index)
        assert code.word_at(0) is code.word_at(0)
        assert len(code._words) == code.cardinality()
        with pytest.raises(ValueError):
            code.word_at(code.cardinality())
        with pytest.raises(ValueError):
            code.word_at(-1)


class TestUnorderedProperties:
    @pytest.mark.parametrize("m,n", [(1, 2), (2, 3), (2, 4), (3, 5), (4, 7)])
    def test_constant_weight_codes_are_unordered(self, m, n):
        assert is_unordered_code(MOutOfNCode(m, n).words())

    @pytest.mark.parametrize("m,n", [(1, 2), (2, 3), (2, 4), (3, 5)])
    def test_and_of_distinct_words_is_noncode(self, m, n):
        assert and_of_distinct_words_is_noncode(MOutOfNCode(m, n).words())

    def test_minimum_distance_is_two(self):
        assert MOutOfNCode(3, 5).minimum_distance() == 2


class TestMaximalCodeForWidth:
    def test_paper_naming_convention(self):
        assert maximal_code_for_width(2).name == "1-out-of-2"
        assert maximal_code_for_width(3).name == "2-out-of-3"
        assert maximal_code_for_width(4).name == "2-out-of-4"
        assert maximal_code_for_width(5).name == "3-out-of-5"
        assert maximal_code_for_width(9).name == "5-out-of-9"
        assert maximal_code_for_width(13).name == "7-out-of-13"
        assert maximal_code_for_width(18).name == "9-out-of-18"

    def test_maximality(self):
        for r in range(2, 12):
            code = maximal_code_for_width(r)
            for m in range(1, r):
                assert MOutOfNCode(m, r).cardinality() <= code.cardinality()

    def test_too_small_width(self):
        with pytest.raises(ValueError):
            maximal_code_for_width(1)
