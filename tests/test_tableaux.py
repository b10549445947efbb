import random
import time

import pytest
from hypothesis import given, strategies as st

from nhomalg.algebra import GradedAlgebra, MemoryGuardError
from nhomalg.catalog import plactic
from nhomalg.linalg import InternalConsistencyError, all_words, word_vector
from nhomalg.tableaux import (
    EMPTY_TABLEAU,
    Tableau,
    _shapes,
    count_tableaux,
    dimension_cross_check,
    reading_word,
    row_insert,
    word_to_tableau,
)

import _oracles
from _oracles import (
    enumerate_tableaux,
    knuth_equivalent,
    knuth_moves,
    parafermion_dims,
    partitions,
    per_letter_insertion,
    per_letter_step,
    strip_counts,
)


def test_tableau_validation():
    Tableau([[1, 1, 2], [2, 3]])
    with pytest.raises(ValueError):
        Tableau([[2, 1]])
    with pytest.raises(ValueError):
        Tableau([[1, 2], [1, 3]])
    with pytest.raises(ValueError):
        Tableau([[1], [2, 3]])
    with pytest.raises(ValueError):
        Tableau([[0]])


def test_row_insert_into_empty():
    t = row_insert(EMPTY_TABLEAU, 1)
    assert t.rows == ((1,),)
    with pytest.raises(ValueError):
        row_insert(EMPTY_TABLEAU, 0)


def test_row_insert_bumps():
    t = Tableau([[1, 2]])
    t = row_insert(t, 1)
    assert t.rows == ((1, 1), (2,))


def test_weakly_increasing_word_gives_single_row():
    t = word_to_tableau((1, 1, 2, 2, 3))
    assert t.rows == ((1, 1, 2, 2, 3),)


def test_word_to_tableau_examples():
    assert word_to_tableau((2, 1, 1)).rows == ((1, 1), (2,))
    assert word_to_tableau((1, 2, 1)).rows == ((1, 1), (2,))
    assert word_to_tableau(()) == EMPTY_TABLEAU
    assert word_to_tableau((1, 1, 2)).rows == ((1, 1, 2),)


@given(st.integers(1, 6).flatmap(
           lambda D: st.lists(st.integers(1, D), max_size=60)),
       st.integers(1, 7))
def test_one_pass_equals_per_letter_insertion(word, x):
    # The rows bumped in place as lists give the tableau that inserting
    # one letter at a time into checked tableaux gives, and inserting one
    # more letter through the reading word gives the per-letter step.
    tableau = word_to_tableau(word)
    assert tableau == per_letter_insertion(word)
    assert row_insert(tableau, x) == per_letter_step(tableau, x)


def test_insertion_builds_one_tableau(monkeypatch):
    import nhomalg.tableaux as module

    built = []
    init = module.Tableau.__init__

    def counted(self, rows):
        built.append(len(built))
        init(self, rows)

    monkeypatch.setattr(module.Tableau, "__init__", counted)
    rng = random.Random(3)
    word = tuple(rng.randint(1, 4) for _ in range(5000))
    tableau = module.word_to_tableau(word)
    assert built == [0]
    assert tableau.size == 5000 and len(tableau.shape) == 4


def test_knuth_equivalent():
    assert knuth_equivalent((1, 2, 1), (2, 1, 1))
    assert not knuth_equivalent((1, 1, 2), (1, 2, 1))
    assert knuth_equivalent((2, 1, 2, 1), (2, 1, 2, 1))
    assert not knuth_equivalent((1,), (1, 1))


def test_single_knuth_rewrites_preserve_tableau():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(3, 7)
        word = tuple(rng.randint(1, 3) for _ in range(n))
        for moved in knuth_moves(word):
            assert word_to_tableau(moved) == word_to_tableau(word)


def test_insertion_outputs_are_valid_tableaux():
    rng = random.Random(9)
    for _ in range(100):
        word = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 8)))
        t = word_to_tableau(word)
        assert t.size == len(word)
        Tableau(t.rows)  # revalidates all invariants


def test_reading_word_roundtrip():
    rng = random.Random(13)
    for _ in range(100):
        word = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 7)))
        t = word_to_tableau(word)
        assert word_to_tableau(reading_word(t)) == t


def test_partitions_ascending():
    assert partitions(0) == ((),)
    assert partitions(3) == ((1, 1, 1), (2, 1), (3,))
    assert partitions(4) == ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))
    # The count walks the partitions with at most D parts, in the same order.
    for n in range(9):
        for rows in range(1, 10):
            assert tuple(_shapes(n, rows)) == partitions(n, rows), (n, rows)


def test_enumerate_tableaux_golden_order():
    tableaux = enumerate_tableaux(2, 3)
    assert [t.rows for t in tableaux] == [
        ((1, 1), (2,)),
        ((1, 2), (2,)),
        ((1, 1, 1),),
        ((1, 1, 2),),
        ((1, 2, 2),),
        ((2, 2, 2),),
    ]


def test_enumeration_fills_only_shapes_within_D_rows(monkeypatch):
    filled = []
    fill = _oracles.tableaux_of_shape

    def counted(shape, max_letter):
        filled.append(tuple(shape))
        return fill(shape, max_letter)

    monkeypatch.setattr(_oracles, "tableaux_of_shape", counted)
    assert enumerate_tableaux(1, 60) == [Tableau([[1] * 60])]
    assert filled == [(60,)]
    filled.clear()
    enumerate_tableaux(2, 6)
    assert filled == [(3, 3), (4, 2), (5, 1), (6,)]
    filled.clear()
    enumerate_tableaux(3, 6)
    assert filled == [(2, 2, 2), (3, 2, 1), (3, 3), (4, 1, 1), (4, 2), (5, 1), (6,)]


def test_enumeration_counts():
    assert count_tableaux(2, 0) == [1]
    assert enumerate_tableaux(2, 0) == [EMPTY_TABLEAU]
    assert count_tableaux(2, 3)[3] == 6
    assert count_tableaux(3, 4)[4] == 39
    assert count_tableaux(2, 7) == parafermion_dims(2, 7)
    assert count_tableaux(3, 5) == parafermion_dims(3, 5)
    assert count_tableaux(1, 5) == [1] * 6


def test_count_tableaux_builds_no_list(monkeypatch):
    import nhomalg.tableaux as module

    def refuse(*args, **kwargs):
        raise AssertionError("count_tableaux must not build a tableau")

    monkeypatch.setattr(module.Tableau, "__init__", refuse)
    assert module.count_tableaux(4, 8) == parafermion_dims(4, 8)


def test_counts_equal_the_enumerated_tableaux():
    # Weyl formula, chains of horizontal strips and the listing agree,
    # D = 1 and D > n included.
    for D in range(1, 7):
        counts = count_tableaux(D, 10, word_limit=6 ** 10)
        assert counts == strip_counts(D, 10), D
        for n in range(11):
            assert counts[n] == len(enumerate_tableaux(D, n)), (D, n)


def test_counts_at_large_D_cost_what_their_shapes_cost():
    # Each shape's Weyl product runs over its own rows only, not over the
    # D(D-1)/2 pairs of all D rows: these take milliseconds.
    start = time.perf_counter()
    large = count_tableaux(3000, 2)
    single = count_tableaux(10 ** 7, 1)
    middle = count_tableaux(40, 5, word_limit=40 ** 5)
    assert time.perf_counter() - start < 1
    assert large == strip_counts(3000, 2) == [1, 3000, 3000 ** 2]
    assert single == [1, 10 ** 7]
    assert middle == strip_counts(40, 5)


def test_counts_equal_parafermion_dims_up_to_the_word_limit():
    # Every D <= 6 and every n with D^n <= 10^7, the default word limit.
    for D in range(1, 7):
        top = 30 if D == 1 else max(n for n in range(30) if D ** n <= 10 ** 7)
        assert count_tableaux(D, top) == parafermion_dims(D, top)


def test_counts_match_distinct_normal_forms():
    for D in (2, 3):
        counts = count_tableaux(D, 4)
        for n in range(5):
            forms = {word_to_tableau(w) for w in all_words(D, n)}
            assert len(forms) == counts[n]


def test_dimension_cross_check():
    report = dimension_cross_check(2, 7)
    assert report.counts == (1, 2, 4, 6, 9, 12, 16, 20)
    assert dimension_cross_check(3, 5).counts == (1, 3, 9, 19, 39, 69)
    assert dimension_cross_check(1, 5).counts == (1,) * 6


def test_dimension_cross_check_honours_word_limit():
    # 2^7 = 128 cells' worth of tableaux exceed the limit; the tableau
    # side refuses before the algebra side is asked for degree 7.
    with pytest.raises(MemoryGuardError, match="degree 7 needs D\\^n = 128 basis words"):
        dimension_cross_check(2, 7, word_limit=100)


def test_oracle_agreement_with_algebraic_reduction():
    # Tableau equality must split words exactly like quotient reduction.
    for D in (2, 3):
        algebra = GradedAlgebra(plactic(D))
        for n in range(5):
            words = list(all_words(D, n))
            by_tableau = {}
            by_coords = {}
            for w in words:
                by_tableau.setdefault(word_to_tableau(w), set()).add(w)
                coords = tuple(algebra.normal_coordinates(word_vector(w)))
                by_coords.setdefault(coords, set()).add(w)
            assert sorted(map(sorted, by_tableau.values())) == \
                sorted(map(sorted, by_coords.values()))


def test_oracle_agreement_on_sampled_pairs():
    rng = random.Random(17)
    algebra = GradedAlgebra(plactic(3))
    words = list(all_words(3, 4))
    for _ in range(60):
        w1, w2 = rng.sample(words, 2)
        difference = word_vector(w1) - word_vector(w2)
        reduced_to_zero = algebra.reduce_to_normal(difference).is_zero()
        assert reduced_to_zero == knuth_equivalent(w1, w2)


def test_cross_check_reports_offending_degree(monkeypatch):
    import nhomalg.tableaux as module

    def corrupted(D, n, word_limit):
        counts = count_tableaux(D, n, word_limit)
        counts[3] += 1
        return counts

    monkeypatch.setattr(module, "count_tableaux", corrupted)
    with pytest.raises(InternalConsistencyError, match="degree 3"):
        module.dimension_cross_check(2, 4)
