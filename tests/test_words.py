"""Word DSL: parsing, reduction, builders, substitution, extended words."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verba.words as words
from verba.errors import (
    ArityMismatch,
    BudgetExceeded,
    DisjointnessViolation,
    UnknownVariableFamily,
    WordSyntaxError,
)
from verba.words import (
    MAX_WORD_DEPTH,
    Commutator,
    Power,
    Product,
    Var,
    canonical_y,
    classify_outer_commutator,
    comm,
    delta,
    enumerate_extended,
    exponent_sum,
    extension_degree,
    gamma,
    is_non_commutator,
    is_outer_commutator,
    parse_word,
    reduce_word,
    render,
    substitute,
    variables,
    xvar,
    yvar,
)

from .oracles import extension_degree_uncached, letters_text

x1, x2, x3 = xvar(1), xvar(2), xvar(3)


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------


def test_parse_commutator():
    assert parse_word("[x1,x2]") == Commutator(x1, x2)


def test_parse_power():
    assert parse_word("x1^3") == Power(x1, 3)
    assert parse_word("x1^-2") == Power(x1, -2)


def test_parse_delta2_tree():
    assert parse_word("[[x1,x2],[x3,x4]]") == delta(2)


def test_parse_left_normed_sugar():
    assert parse_word("[x1,x2,x3]") == Commutator(Commutator(x1, x2), x3)
    assert render(parse_word("[x1,x2,x3]")) == "[[x1,x2],x3]"


def test_parse_products_and_juxtaposition():
    assert parse_word("x1*x2") == Product((x1, x2))
    assert parse_word("x1 x2") == parse_word("x1*x2")


def test_parse_whitespace_insignificant():
    assert parse_word(" [ x1 , x2 ] ^ 2 ") == Power(Commutator(x1, x2), 2)


def test_parse_errors_carry_position():
    with pytest.raises(WordSyntaxError) as err:
        parse_word("x1**x2")
    assert err.value.position == 3
    with pytest.raises(UnknownVariableFamily):
        parse_word("z1")
    with pytest.raises(WordSyntaxError):
        parse_word("x0")
    with pytest.raises(WordSyntaxError):
        parse_word("[x1]")
    with pytest.raises(WordSyntaxError):
        parse_word("x1)")
    with pytest.raises(WordSyntaxError):
        parse_word("")


def test_parse_depth_is_bounded():
    def left_normed(levels):
        text = "x1"
        for i in range(2, levels + 2):
            text = f"[{text},x{i}]"
        return text

    assert parse_word(left_normed(MAX_WORD_DEPTH)) == gamma(MAX_WORD_DEPTH + 1)
    for text in (
        left_normed(MAX_WORD_DEPTH + 1),
        "[" + ",".join(f"x{i}" for i in range(1, MAX_WORD_DEPTH + 3)) + "]",
        "(" * (MAX_WORD_DEPTH + 1) + "x1" + ")" * (MAX_WORD_DEPTH + 1),
        "(" * MAX_WORD_DEPTH + "x1^2" + ")^2" * MAX_WORD_DEPTH,
    ):
        with pytest.raises(WordSyntaxError):
            parse_word(text)


_vars = st.builds(Var, st.sampled_from("xy"), st.integers(1, 5))


def _extend_parseable(children):
    atoms = st.one_of(
        _vars,
        st.builds(Commutator, children, children),
        st.builds(lambda fs: Product(tuple(fs)), st.lists(children, min_size=2, max_size=3)),
    )
    return st.one_of(atoms, st.builds(Power, atoms, st.integers(-4, 4)))


_parseable = st.recursive(_vars, _extend_parseable, max_leaves=12)


@given(_parseable)
@settings(max_examples=150, deadline=None)
def test_render_parse_round_trip(word):
    assert parse_word(render(word)) == word


def _plain_render(w):
    """Text by recursion over the tree, ignoring what the nodes store."""
    def atomish(c):
        return _plain_render(c) if isinstance(c, (Var, Commutator)) else f"({_plain_render(c)})"

    if isinstance(w, Var):
        return f"{w.family}{w.index}"
    if isinstance(w, Commutator):
        return f"[{_plain_render(w.left)},{_plain_render(w.right)}]"
    if isinstance(w, Product):
        return "*".join(atomish(f) for f in w.factors) if w.factors else "()"
    return f"{atomish(w.child)}^{w.exponent}"


def _plain_vars(w):
    if isinstance(w, Var):
        return {w}
    if isinstance(w, Power):
        return _plain_vars(w.child)
    if isinstance(w, Product):
        return set().union(*map(_plain_vars, w.factors))
    return _plain_vars(w.left) | _plain_vars(w.right)


@given(_parseable)
@settings(max_examples=150, deadline=None)
def test_stored_render_and_variables_match_recursion(word):
    assert render(word) == _plain_render(word)
    assert variables(word) == tuple(sorted(_plain_vars(word)))
    for wrapped in (Power(word, -1), Product((word, word)), Product(())):
        assert render(wrapped) == _plain_render(wrapped)
        assert variables(wrapped) == tuple(sorted(_plain_vars(wrapped)))


# ---------------------------------------------------------------------------
# reduction and exponent sums
# ---------------------------------------------------------------------------


def test_reduce_cancellation():
    assert reduce_word(Product((x1, Power(x1, -1)))).letters == ()
    assert reduce_word(parse_word("[x1,x1]")).letters == ()
    assert reduce_word(parse_word("x1^0")).letters == ()


def test_reduce_commutator_convention():
    letters = reduce_word(parse_word("[x1,x2]")).letters
    assert letters == ((x1, -1), (x2, -1), (x1, 1), (x2, 1))


_any_word = st.recursive(
    st.builds(Var, st.sampled_from("xy"), st.integers(1, 4)),
    lambda children: st.one_of(
        st.builds(Power, children, st.integers(-3, 3)),
        st.builds(Commutator, children, children),
        st.builds(
            lambda fs: Product(tuple(fs)), st.lists(children, min_size=0, max_size=3)
        ),
    ),
    max_leaves=10,
)


@given(_any_word)
@settings(max_examples=150, deadline=None)
def test_reduce_idempotent(word):
    once = reduce_word(word)
    assert reduce_word(parse_word(letters_text(once.letters))) == once


@given(_any_word)
@settings(max_examples=150, deadline=None)
def test_letter_count_matches_the_expansion(word):
    assert words._letter_count(word) == len(words._expand(word))


def test_reduce_word_is_bounded(monkeypatch):
    monkeypatch.setattr(words, "MAX_REDUCED_LETTERS", 4)
    assert len(reduce_word(parse_word("[x1,x2]")).letters) == 4
    with pytest.raises(BudgetExceeded):
        reduce_word(parse_word("x1^5"))
    with pytest.raises(BudgetExceeded):
        reduce_word(parse_word("[x1,x2^2]"))  # 6 letters, though only 4 survive


def test_exponent_sum_examples():
    assert exponent_sum(parse_word("x1^2*[x1,x2]"), x1) == 2
    assert exponent_sum(parse_word("[x1,x2]"), x1) == 0
    assert exponent_sum(parse_word("x1^3"), x2) == 0


@given(_any_word, st.builds(Var, st.sampled_from("xy"), st.integers(1, 4)))
@settings(max_examples=150, deadline=None)
def test_exponent_sum_matches_reduction(word, var):
    reduced = reduce_word(word)
    assert exponent_sum(word, var) == sum(s for v, s in reduced.letters if v == var)


def test_is_non_commutator():
    assert is_non_commutator(parse_word("x1^2")) == (True, x1, 2)
    assert is_non_commutator(parse_word("[x1,x2]"))[0] is False
    assert is_non_commutator(delta(2))[0] is False


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def test_gamma_examples():
    assert gamma(1) == x1
    assert gamma(2) == parse_word("[x1,x2]")
    assert gamma(3) == parse_word("[[x1,x2],x3]")


@pytest.mark.parametrize("r", range(2, 9))
def test_gamma_recursion(r):
    assert gamma(r) == comm(gamma(r - 1), xvar(r))


def test_delta_examples():
    assert delta(0) == x1
    assert delta(1) == parse_word("[x1,x2]")
    assert delta(2) == parse_word("[[x1,x2],[x3,x4]]")


@pytest.mark.parametrize("k", range(1, 6))
def test_delta_recursion(k):
    tree = delta(k)
    assert len(variables(tree)) == 2**k
    assert tree.left == delta(k - 1)
    shift = {xvar(i): xvar(i + 2 ** (k - 1)) for i in range(1, 2 ** (k - 1) + 1)}
    assert tree.right == substitute(delta(k - 1), shift)


def test_delta1_is_gamma2():
    assert delta(1) == gamma(2)


# ---------------------------------------------------------------------------
# substitution and classification
# ---------------------------------------------------------------------------


def test_substitute_examples():
    out = substitute(gamma(2), {x1: parse_word("x1^2"), x2: parse_word("x2^3")})
    assert out == parse_word("[x1^2,x2^3]")
    assert substitute(delta(0), {x1: xvar(7)}) == xvar(7)


def test_substitute_errors():
    with pytest.raises(DisjointnessViolation):
        substitute(gamma(2), {x2: x1})
    with pytest.raises(ArityMismatch):
        substitute(gamma(2), {x3: x1})


def test_classify_outer_commutator():
    word = parse_word("[[x1,x2,x3],[[x4,x5],[x6,x7]]]")
    tree = classify_outer_commutator(word)
    assert tree is word
    assert [v.index for v in variables(tree)] == [1, 2, 3, 4, 5, 6, 7]
    assert classify_outer_commutator(parse_word("[x1,x1]")) is None
    assert classify_outer_commutator(parse_word("x1*x2")) is None
    assert classify_outer_commutator(parse_word("(x1)^1")) == x1


def test_outer_commutator_flag_is_set_on_construction():
    assert is_outer_commutator(x1)
    assert is_outer_commutator(parse_word("[[x3,x1],x2]"))
    assert not is_outer_commutator(parse_word("[x1,x1]"))
    assert not is_outer_commutator(parse_word("[[x1,x2],[x2,x3]]"))
    assert not is_outer_commutator(parse_word("[x1^2,x2]"))
    assert not is_outer_commutator(parse_word("(x1)^1"))
    word = parse_word("[[x3,x1],x2]")
    assert classify_outer_commutator(word) is word
    assert classify_outer_commutator(parse_word("[(x1)^1,x2]")) == gamma(2)


def test_substitute_goes_by_variable():
    word = parse_word("[[x3,x1],x2]")
    out = substitute(word, {x1: parse_word("x1^2"), x3: parse_word("x3^5")})
    assert out == parse_word("[[x3^5,x1^2],x2]")
    # every occurrence of a variable takes its image
    out = substitute(parse_word("x1*x2*x1^-1"), {x1: parse_word("[y1,y2]")})
    assert out == parse_word("[y1,y2]*x2*[y1,y2]^-1")


def test_classified_substitution_kills_exponent_sums():
    word = substitute(
        gamma(3), {x1: parse_word("x1^2"), x2: parse_word("x2^3"), x3: parse_word("x3^5")}
    )
    for v in variables(word):
        assert exponent_sum(word, v) == 0


# ---------------------------------------------------------------------------
# extended words
# ---------------------------------------------------------------------------


def test_ext_zero_is_the_word():
    assert enumerate_extended(delta(1), 0, 3) == (delta(1),)


def test_ext_single_variable():
    members = enumerate_extended(x1, 1, 1)
    assert set(members) == {
        classify_outer_commutator(parse_word("[y1,x1]")),
        classify_outer_commutator(parse_word("[x1,y1]")),
    }


def test_ext_delta2_contains_quoted_word():
    ext = enumerate_extended(delta(2), 1, 2)
    target = classify_outer_commutator(parse_word("[[[[y1,y2],x1],x2],[x3,x4]]"))
    assert target in ext


def test_ext_members_are_ocws_with_all_x_vars():
    word = delta(2)
    xs = set(variables(word))
    for k in (1, 2):
        for member in enumerate_extended(word, k, 2):
            assert classify_outer_commutator(member) is not None
            leaves = variables(member)
            assert [v for v in leaves if v.family == "x"].count is not None
            assert {v for v in leaves if v.family == "x"} == xs
            assert sum(1 for v in leaves if v in xs) == len(xs)
            if k >= 1:
                assert len(leaves) > len(xs)


def test_ext_monotone_composition():
    word = delta(2)
    alpha, beta = word.left, word.right
    whole = enumerate_extended(word, 1, 2)
    for la, mb in ((1, 0), (0, 1)):
        for p in enumerate_extended(alpha, la, 2):
            for q in enumerate_extended(beta, mb, 2):
                # make the halves y-disjoint the same way the enumerator does
                shift = {
                    v: yvar(v.index + 10)
                    for v in variables(q)
                    if v.family == "y"
                }
                assert canonical_y(comm(p, substitute(q, shift))) in whole


def test_extension_degree_recognizer():
    assert extension_degree(delta(2), delta(2)) == 0
    for member in enumerate_extended(delta(1), 1, 2):
        if member != delta(1):
            assert extension_degree(member, delta(1)) == 1
    assert extension_degree(delta(1), gamma(3)) is None


def test_extension_degree_matches_the_oracle_recursion():
    bases = [gamma(1), gamma(2), gamma(3), delta(1), delta(2)]
    for base in bases:
        for k in range(3):
            for v in enumerate_extended(base, k, 2):
                for w in bases:
                    want = extension_degree_uncached(v, w)
                    assert extension_degree(v, w) == want
                assert extension_degree(v, base) == k


@given(_any_word)
@settings(max_examples=150, deadline=None)
def test_is_pure_y_matches_every_variable(word):
    assert words.is_pure_y(word) == all(v.family == "y" for v in variables(word))


def test_ocw_comm_rejects_repeats():
    with pytest.raises(DisjointnessViolation):
        comm(x1, x1)
