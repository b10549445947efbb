from fractions import Fraction

import pytest

from nhomalg import catalog
from nhomalg.algebra import GradedAlgebra
from nhomalg.catalog import (
    CatalogEntry,
    apply_derivation,
    artin_schelter,
    centrality_check,
    dual_relations_check,
    gl_invariance,
    make_entry,
    paraboson,
    parafermion,
    plactic,
)
from nhomalg.linalg import TensorVector, rref, word_vector

from _oracles import (
    anti_bracket_vectors,
    bracket_vectors,
    cube_dual_span,
    dense_rank,
    knuth_vectors,
    relabel,
    relabel_vector,
)


def test_parafermion_degenerate_and_small():
    assert parafermion(1).relations.dim == 0
    assert parafermion(2).relations.dim == 2
    assert parafermion(3).relations.dim == 8


def test_paraboson_degenerate_and_small():
    assert paraboson(1).relations.dim == 0
    pres = paraboson(2)
    assert pres.relations.dim == 2
    assert pres.relations.contains(TensorVector(3, {(1, 1, 2): 1, (2, 1, 1): -1}))
    assert pres.relations.contains(TensorVector(3, {(1, 2, 2): 1, (2, 2, 1): -1}))
    assert dense_rank(anti_bracket_vectors(2), 2, 3) == 2


def test_plactic_relation_counts():
    assert plactic(1).relations.dim == 0
    pres = plactic(2)
    assert pres.relations.dim == 2
    assert pres.relations.contains(TensorVector(3, {(2, 2, 1): 1, (2, 1, 2): -1}))
    assert pres.relations.contains(TensorVector(3, {(1, 2, 1): 1, (2, 1, 1): -1}))
    assert plactic(3).relations.dim == 8
    assert len(knuth_vectors(3)) == 8
    assert dense_rank(knuth_vectors(3), 3, 3) == 8


def test_relation_dimensions_agree_across_families():
    for D in (2, 3, 4):
        dim = parafermion(D).relations.dim
        assert plactic(D).relations.dim == dim
        assert paraboson(D).relations.dim == dim
        assert dim == D * (D * D - 1) // 3


@pytest.mark.parametrize("relabel_letters", [False, True], ids=["lex", "revlex"])
@pytest.mark.parametrize("D", [1, 2, 3, 4, 5, 6])
def test_relations_equal_the_direct_expansions(D, relabel_letters):
    # The relabelled spans stand for the reversed letter order.  The
    # expansions take every index triple, the bracket builders half.
    for build, expand in ((parafermion, bracket_vectors),
                          (paraboson, anti_bracket_vectors),
                          (plactic, knuth_vectors)):
        relations = build(D).relations
        vectors = [TensorVector(3, terms) for terms in expand(D)]
        if relabel_letters:
            relations = relabel(relations)
            vectors = [relabel_vector(v, D) for v in vectors]
        assert relations == rref(vectors, D, 3)


def test_family_specialisations_are_subspace_equalities():
    assert artin_schelter(1, 1).relations == parafermion(2).relations
    assert artin_schelter(-1, 1).relations == paraboson(2).relations
    assert artin_schelter(0, 1).relations == plactic(2).relations


def test_family_is_symmetric_in_parameters():
    for q, r in ((2, 3), (Fraction(1, 2), -3), (0, 1), (5, 5)):
        assert artin_schelter(q, r).relations == artin_schelter(r, q).relations


def test_family_generic_member_differs_from_specials():
    generic = artin_schelter(2, 1).relations
    assert generic != parafermion(2).relations
    assert generic != plactic(2).relations
    assert generic.dim == 2


def test_make_entry_validation():
    entry = make_entry("parafermion", D=3)
    assert isinstance(entry, CatalogEntry) and entry.D == 3
    entry = make_entry("artin_schelter", q=2)
    assert entry.r == 1 and entry.D == 2
    with pytest.raises(ValueError):
        make_entry("parafermion")
    with pytest.raises(ValueError):
        make_entry("parafermion", D=2, q=1)
    with pytest.raises(ValueError):
        make_entry("artin_schelter", D=3, q=1)
    with pytest.raises(ValueError):
        make_entry("artin_schelter")
    with pytest.raises(ValueError):
        make_entry("unknown", D=2)


def test_dual_relations_check_parafermion():
    for D in (2, 3):
        entry = make_entry("parafermion", D=D)
        report = dual_relations_check(entry, entry.presentation.dual().relations)
        assert report.passed
        assert report.dim_relations + report.dim_annihilator == D ** 3


def test_parafermion_dual_span_equals_the_cube_span():
    for D in range(1, 7):
        span = catalog._parafermion_dual_span(D)
        assert len(span) == D * D * (D - 1) // 2 + D * (D + 1) * (D + 2) // 6
        assert rref(span, D, 3) == rref([TensorVector(3, v) for v in cube_dual_span(D)], D, 3)


def test_dual_relations_check_plactic():
    entry = make_entry("plactic", D=2)
    report = dual_relations_check(entry, entry.presentation.dual().relations)
    assert report.passed
    assert report.dim_annihilator == 6


def test_dual_relations_check_fails_on_a_wrong_span(monkeypatch):
    # The six plactic vectors at D = 2 are independent: without the first
    # the span is too small, and 212 pairs with 221 - 212 in R, so with
    # it the span is too large.
    explicit = catalog._plactic_dual_span
    entry = make_entry("plactic", D=2)
    for wrong in (lambda D: explicit(D)[1:],
                  lambda D: explicit(D) + [word_vector((2, 1, 2))]):
        monkeypatch.setattr(catalog, "_plactic_dual_span", wrong)
        report = dual_relations_check(entry, entry.presentation.dual().relations)
        assert report.dimension_identity
        assert not report.spans_match
        assert not report.passed


def test_dual_relations_check_rejects_others():
    entry = make_entry("paraboson", D=2)
    with pytest.raises(ValueError):
        dual_relations_check(entry, entry.presentation.dual().relations)


def test_apply_derivation_leibniz():
    v = word_vector((1, 2, 1))
    image = apply_derivation(v, 2, 1)  # sends generator 1 to generator 2
    assert image == TensorVector(3, {(2, 2, 1): 1, (1, 2, 2): 1})
    diagonal = apply_derivation(v, 1, 1)
    assert diagonal == 2 * v  # two letters equal to 1


def test_gl_invariance_parafermion_and_paraboson():
    for D in (2, 3):
        assert gl_invariance(parafermion(D).relations).invariant
        assert gl_invariance(paraboson(D).relations).invariant
        assert len(gl_invariance(parafermion(D).relations).results) == D * D


def test_gl_invariance_plactic_fails_with_witness():
    report = gl_invariance(plactic(2).relations)
    assert not report.invariant
    witnesses = [f.witness for f in report.failures]
    target = TensorVector(3, {(1, 2, 2): 1, (2, 1, 2): -1})
    assert any(w == target or w == -1 * target for w in witnesses)
    # The escaping derivation is the one sending generator 1 to generator 2.
    pairs = {(f.i, f.j) for f in report.failures}
    assert (2, 1) in pairs


def test_gl_invariance_plactic_fails_for_higher_d():
    for D in (2, 3, 4):
        assert not gl_invariance(plactic(D).relations).invariant


def test_centrality_for_sampled_parameters():
    for q in (1, -1, 2, Fraction(1, 2)):
        algebra = GradedAlgebra(artin_schelter(q, 1))
        report = centrality_check(algebra, q, 5)
        assert report.central, q


def test_centrality_undefined_at_zero():
    algebra = GradedAlgebra(artin_schelter(0, 1))
    with pytest.raises(ValueError):
        centrality_check(algebra, 0, 5)


def test_centrality_detects_noncentral_element():
    # In the plactic algebra the would-be central element of q = 1 fails.
    algebra = GradedAlgebra(plactic(2))
    report = centrality_check(algebra, 1, 4)
    assert not report.central
    assert report.failure_degree == 3


def reverse_words(space):
    return rref([TensorVector(3, {word[::-1]: c for word, c in row.terms.items()})
                 for row in space.rows], space.alphabet, 3)


def test_relabelling_oracle():
    """x -> D + 1 - x is an involution; it fixes the GL(D)-invariant
    parafermion and paraboson spans, and moves the Knuth span, which it
    maps back onto itself only composed with word reversal."""
    for D in (2, 3, 4):
        for build in (parafermion, paraboson, plactic):
            relations = build(D).relations
            assert relabel(relabel(relations)) == relations
        for build in (parafermion, paraboson):
            assert relabel(build(D).relations) == build(D).relations
        knuth = plactic(D).relations
        assert relabel(knuth) != knuth
        assert reverse_words(knuth) != knuth
        assert reverse_words(relabel(knuth)) == knuth
    as_space = artin_schelter(Fraction(2, 3), Fraction(5, 7)).relations
    assert relabel(as_space) == artin_schelter(Fraction(3, 2), Fraction(7, 5)).relations
