"""PD parsing, orientation, linking numbers, and the framed matrix."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from fukaya_flow import errors, links
from fukaya_flow.links import (FramedLink, LinkDiagram, fixture,
                               fixture_names, linking_matrix, parse_pd,
                               self_writhe)
from helpers import reverse_component

HOPF = "X(1,3,2,4),X(3,1,4,2)"
TREFOIL = "X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)"
CHAIN3 = "X(1,3,2,8),X(3,1,4,2),X(4,5,7,6),X(5,8,6,7)"


def linking_number(d, i, j):
    """lk(K_i, K_j): an off-diagonal entry of the linking matrix."""
    k = d.component_count
    return linking_matrix(FramedLink(d, (0,) * k)).entries[i][j]


def test_parse_two_crossing_two_component():
    # hand-traced arc-successor cycles: 1 -> 2 -> 1 and 3 -> 4 -> 3
    d = parse_pd(HOPF)
    assert len(d.crossings) == 2
    assert d.components == ((1, 2), (3, 4))


def test_parse_empty_requires_flag():
    with pytest.raises(errors.MalformedToken):
        parse_pd("")


def test_parse_arity_violation():
    with pytest.raises(errors.MalformedToken):
        parse_pd("X(1,2,3)")


def test_parse_garbage_tokens():
    for text in ("Y(1,2,3,4)", "X(1,2,3,4),", "X(a,b,c,d)", "X(1 2 3 4)",
                 "X(0,0,1,1)", "O(0)", "X(1,3,2,4) X(3,1,4,2)",
                 ",X(1,3,2,4),X(3,1,4,2)", " \t\n "):
        with pytest.raises(errors.MalformedToken):
            parse_pd(text)


@pytest.mark.parametrize("text,message", [
    ("  X(1,2,3)", "bad token at offset 2 in"),
    (" O(1) ,\tX(1,2)", "bad token at offset 8 in"),
    ("  X(1,3,2,4) X(3,1,4,2)", "expected ',' at offset 13 in"),
    ("\nO(1)\n\nO(2)", "expected ',' at offset 7 in"),
    ("  X(1,3,2,4),X(3,1,4,2) , ", "trailing ',' at offset 24 in"),
    ("\tO(3), X(0,1,2,3)", "arc label 0 in the token at offset 7 in"),
])
def test_token_offsets_count_in_the_quoted_text(text, message):
    with pytest.raises(errors.MalformedToken, match="^" + re.escape(
            "%s %r" % (message, text))):
        parse_pd(text)


def test_unpaired_arc_label():
    for text, message in [
        ("X(1,3,2,4),X(3,1,4,5)", "arc 2 occurs 1 times"),
        ("X(1,3,2,4),X(3,1,4,2),O(1)", "circle arc 1 reused elsewhere"),
        ("X(1,2,1,3),X(3,1,4,4)", "arc 1 occurs 3 times"),
        ("X(1,3,2,4),X(3,1,4,2),X(1,3,2,4),X(3,1,4,2)",
         "arc 1 occurs 4 times"),
        # arcs 9 and 4 occur once each: the first to occur is named
        ("X(9,1,2,3),X(1,2,3,4)", "arc 9 occurs 1 times"),
    ]:
        with pytest.raises(errors.ArcLabelNotPairedTwice,
                           match="^%s$" % re.escape(message)):
            parse_pd(text)


def test_inconsistent_orientation():
    # arc 1 comes in as the under-strand at both crossings: two heads
    with pytest.raises(errors.InconsistentOrientation):
        parse_pd("X(1,2,3,4),X(1,3,2,4)")


def test_inconsistent_orientation_names_the_crossings():
    # 1-based crossings at the two ends of the arc, after a Hopf piece
    with pytest.raises(errors.InconsistentOrientation,
                       match="arc 1 has two heads, at crossings 1 and 2$"):
        parse_pd("X(1,2,3,4),X(1,3,2,4)")
    hopf = "X(1,3,2,4),X(3,1,4,2),"
    with pytest.raises(errors.InconsistentOrientation,
                       match="arc 5 has two heads, at crossings 3 and 4$"):
        parse_pd(hopf + "X(5,6,7,8),X(5,7,6,8)")
    # position 2 is where an under-strand leaves: arc 7 leaves twice
    with pytest.raises(errors.InconsistentOrientation,
                       match="arc 7 has two tails, at crossings 3 and 4$"):
        parse_pd(hopf + "X(5,6,7,8),X(6,8,7,5)")


def test_over_only_component_leaves_along_smaller_over_arc():
    # the closure of s1 s1^-1 s1 s1^-1: arcs 2, 3, 6, 7 pass only over,
    # so their direction is free; at their lowest crossing, X(2,4,3,1),
    # the smaller over-arc 1 leaves, so the strand runs 1 -> 8 -> 5 -> 4
    d = parse_pd("X(2,4,3,1),X(3,4,6,5),X(6,8,7,5),X(7,8,2,1)")
    assert d.components == ((1, 8, 5, 4), (2, 3, 6, 7))
    assert d.signs == (-1, 1, -1, 1)


def test_nonplanar_pd_rejected():
    with pytest.raises(errors.NonPlanarPD, match="crossing 1: .* 2 faces, "
                                                 "expected 4"):
        parse_pd("X(1,3,2,4),X(2,4,3,1)")
    # the same piece after a planar Hopf piece: its smallest crossing
    with pytest.raises(errors.NonPlanarPD, match="crossing 3: "):
        parse_pd("X(1,3,2,4),X(3,1,4,2),X(5,7,6,8),X(6,8,7,5)")
    # after two planar Hopf pieces, with the full message
    with pytest.raises(errors.NonPlanarPD, match=re.escape(
            "crossing 5: its piece of 2 crossings has 2 faces, expected 4; "
            "the PD code is not planar")):
        parse_pd("X(1,3,2,4),X(3,1,4,2),X(5,7,6,8),X(7,5,8,6),"
                 "X(9,11,10,12),X(10,12,11,9)")


def test_circle_components():
    d = parse_pd("O(1),O(2)")
    assert d.components == ((1,), (2,))
    assert d.crossings == ()


def test_components_ordered_by_smallest_arc():
    d = parse_pd("O(7),O(2),X(3,5,4,6),X(5,3,6,4)")
    assert [c[0] for c in d.components] == [2, 3, 5, 7]


def test_hopf_linking_number():
    d = parse_pd(HOPF)
    assert linking_number(d, 0, 1) in (1, -1)
    assert linking_number(d, 0, 1) == linking_number(d, 1, 0)


def test_split_unlink_linking_zero():
    d = parse_pd("O(1),O(2)")
    assert linking_number(d, 0, 1) == 0


def test_chain_end_components_do_not_link():
    # hand count: the end rings of a 3-chain share no crossings
    d = parse_pd(CHAIN3)
    assert d.component_count == 3
    assert linking_number(d, 0, 2) == 0
    assert abs(linking_number(d, 0, 1)) == 1
    assert abs(linking_number(d, 1, 2)) == 1


def test_linking_matrix_hopf():
    fl = FramedLink(parse_pd(HOPF), (0, 0))
    assert linking_matrix(fl).entries == ((0, 1), (1, 0))


def test_linking_matrix_unknot_framing():
    fl = FramedLink(parse_pd("O(1)"), (1,))
    assert linking_matrix(fl).entries == ((1,),)


def test_linking_matrix_unlink_framings():
    fl = FramedLink(parse_pd("O(1),O(2)"), (2, 5))
    assert linking_matrix(fl).entries == ((2, 0), (0, 5))


def test_framings_length_checked():
    for diagram, framings in ((parse_pd(HOPF), (0,)),
                              (LinkDiagram((), (), (), ()), ())):
        with pytest.raises(ValueError) as info:
            FramedLink(diagram, framings)
        assert isinstance(info.value, errors.FukayaFlowError)


def test_symmetry_on_all_fixtures():
    # lk(K_i, K_j) is the signed count of i over j, and of j over i
    for name in fixture_names():
        d = fixture(name).diagram
        for i, j in itertools.combinations(range(d.component_count), 2):
            assert over_count(d, i, j) == over_count(d, j, i) \
                == linking_number(d, i, j)


def test_reversal_negates_linking_numbers():
    for name in ("hopf", "3-chain", "hopf-kink"):
        d = fixture(name).diagram
        for comp in range(d.component_count):
            rev = reverse_component(d, comp)
            for i, j in itertools.combinations(range(d.component_count), 2):
                expected = linking_number(d, i, j)
                if comp in (i, j):
                    expected = -expected
                assert linking_number(rev, i, j) == expected


def test_reversal_preserves_self_writhe():
    d = fixture("trefoil").diagram
    rev = reverse_component(d, 0)
    assert self_writhe(rev, 0) == self_writhe(d, 0)


def test_roundtrip_through_pd_text():
    for name in fixture_names():
        d = fixture(name).diagram
        again = parse_pd(d.to_pd_text())
        assert again == d


def test_trefoil_writhe():
    d = parse_pd(TREFOIL)
    assert d.component_count == 1
    assert self_writhe(d, 0) in (3, -3)


def test_relabeling_invariance():
    # renaming arcs by a random bijection and shuffling the crossing
    # list leaves the linking data unchanged up to component reorder
    rng = random.Random(41)
    for name in ("hopf", "trefoil", "3-chain", "hopf-kink"):
        d = fixture(name).diagram
        labels = sorted({a for q in d.crossings for a in q}
                        | set(d.circles))
        for _ in range(5):
            perm = labels[:]
            rng.shuffle(perm)
            relabel = dict(zip(labels, perm))
            quads = [tuple(relabel[a] for a in q) for q in d.crossings]
            rng.shuffle(quads)
            text = ",".join("X(%d,%d,%d,%d)" % q for q in quads)
            if d.circles:
                text += "," + ",".join("O(%d)" % relabel[a]
                                       for a in d.circles)
            again = parse_pd(text)
            assert again.component_count == d.component_count
            original = sorted(
                abs(linking_number(d, i, j))
                for i, j in itertools.combinations(
                    range(d.component_count), 2))
            renamed = sorted(
                abs(linking_number(again, i, j))
                for i, j in itertools.combinations(
                    range(again.component_count), 2))
            assert renamed == original


def test_fixture_framings_override():
    fl = fixture("hopf", (3, -2))
    assert fl.framings == (3, -2)
    assert fixture("hopf").framings == (0, 0)


def test_unknown_fixture():
    with pytest.raises(KeyError):
        fixture("not-a-link")


# --- the linking matrix against an independent count ---------------------

def braid_closure_pd(strands, word):
    """PD text of the closure of a braid word.

    Letters are +i or -i for 1 <= i < strands; strands run upward and in
    +i the strand at position i-1 crosses over the one at position i,
    a positive crossing.  Positions no letter touches close up into
    crossingless circles.
    """
    start = list(range(1, strands + 1))
    cur = list(start)
    fresh = strands + 1
    quads = []
    for letter in word:
        p = abs(letter) - 1
        left, right = cur[p], cur[p + 1]
        new_left, new_right = fresh, fresh + 1
        fresh += 2
        if letter > 0:
            # under-strand right -> top left, over-strand left -> top right
            quads.append((right, new_right, new_left, left))
        else:
            # under-strand left -> top right, over-strand right -> top left
            quads.append((left, right, new_right, new_left))
        cur[p], cur[p + 1] = new_left, new_right
    # closure: the top arc at each position is the bottom arc there
    alias = dict(zip(cur, start))
    parts = ["X(%d,%d,%d,%d)" % tuple(alias.get(a, a) for a in q)
             for q in quads]
    parts += ["O(%d)" % a for a, top in zip(start, cur) if a == top]
    return ",".join(parts)


def full_twist(strands, sign=1):
    return [sign * i for _ in range(strands) for i in range(1, strands)]


def over_count(d, i, j):
    """Signed count of the crossings where component i passes over
    component j: lk(K_i, K_j), with no halving."""
    over, under = set(d.components[i]), set(d.components[j])
    return sum(sign for (a, b, _, _), sign in zip(d.crossings, d.signs)
               if b in over and a in under)


def relabel_pd(text, relabel):
    return re.sub(r"\d+", lambda m: str(relabel[int(m.group())]), text)


_braids = st.integers(2, 4).flatmap(lambda s: st.tuples(
    st.just(s), st.lists(st.integers(1, s - 1).flatmap(
        lambda i: st.sampled_from((i, -i))), max_size=8)))
_parts = st.one_of(st.sampled_from(sorted(links.load_catalog())),
                   _braids)


@st.composite
def shuffled_unions(draw):
    """A disjoint union of catalog links and small braid closures with
    its arc labels permuted and its crossings shuffled, and framings."""
    texts = []
    offset = 0
    catalog = links.load_catalog()
    for part in draw(st.lists(_parts, min_size=1, max_size=5)):
        text = catalog[part][0] if isinstance(part, str) \
            else braid_closure_pd(*part)
        labels = sorted({int(n) for n in re.findall(r"\d+", text)})
        texts.append(relabel_pd(text, {a: a + offset for a in labels}))
        offset += labels[-1]
    tokens = re.findall(r"[XO]\([^)]*\)", ",".join(texts))
    perm = draw(st.permutations(range(1, offset + 1)))
    relabel = dict(zip(range(1, offset + 1), perm))
    tokens = draw(st.permutations(tokens))
    d = parse_pd(relabel_pd(",".join(tokens), relabel))
    framings = draw(st.lists(st.integers(-2, 2), min_size=d.component_count,
                             max_size=d.component_count))
    return FramedLink(d, tuple(framings))


@settings(max_examples=80, deadline=None, database=None)
@given(shuffled_unions())
def test_linking_matrix_matches_over_count(fl):
    d = fl.diagram
    m = linking_matrix(fl).entries
    for i, j in itertools.product(range(d.component_count), repeat=2):
        if i == j:
            assert m[i][i] == fl.framings[i]
        else:
            assert m[i][j] == over_count(d, i, j)


@settings(max_examples=80, deadline=None, database=None)
@given(shuffled_unions())
def test_components_follow_the_crossings(fl):
    # read off the stored crossings alone: the under-strand runs a -> c,
    # the over-strand d -> b at a positive crossing and b -> d at a
    # negative one; a crossingless circle's one arc follows itself
    d = fl.diagram
    follows = {(a, a) for a in d.circles}
    for (a, b, c, e), sign in zip(d.crossings, d.signs):
        follows |= {(a, c), (e, b) if sign > 0 else (b, e)}
    steps = {(comp[i - 1], comp[i]) for comp in d.components
             for i in range(len(comp))}
    assert steps == follows
    arcs = [a for comp in d.components for a in comp]
    assert sorted(arcs) == sorted({a for q in d.crossings for a in q}
                                  | set(d.circles))
    assert all(comp[0] == min(comp) for comp in d.components)


@settings(max_examples=40, deadline=None, database=None)
@given(shuffled_unions(), st.data())
def test_reversal_flips_row_and_column(fl, data):
    k = fl.diagram.component_count
    comp = data.draw(st.integers(0, k - 1))
    before = linking_matrix(fl).entries
    after = linking_matrix(
        FramedLink(reverse_component(fl.diagram, comp), fl.framings)).entries
    for i, j in itertools.product(range(k), repeat=2):
        flip = -1 if (i == comp) != (j == comp) else 1
        assert after[i][j] == flip * before[i][j]


def spaced(text, rng):
    """text with runs of spaces, tabs and newlines before and after
    each token head X( or O(, number, comma and closing parenthesis,
    never inside a number or between a head's letter and its '('."""
    lexemes = re.findall(r"[XO]\(|\d+|[,)]", text)
    gaps = ["".join(rng.choice(" \t\n") for _ in range(rng.randrange(3)))
            for _ in range(len(lexemes) + 1)]
    return "".join(g + x for g, x in zip(gaps, lexemes)) + gaps[-1]


def test_whitespace_around_lexemes_does_not_change_the_diagram():
    rng = random.Random(5)
    texts = [pd for pd, _ in links.load_catalog().values()]
    for _ in range(200):
        strands = rng.randint(2, 5)
        texts.append(braid_closure_pd(strands, [
            rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(0, 12))]))
    for text in texts:
        pd = parse_pd(text).to_pd_text()
        plain = parse_pd(pd)
        for _ in range(3):
            assert parse_pd(spaced(pd, rng)) == plain


@pytest.mark.parametrize("sign", (1, -1))
def test_full_twist_64_strands(sign):
    # 64 components and 4032 crossings: every pair of strands links
    # once, with the sign of the twist
    d = parse_pd(braid_closure_pd(64, full_twist(64, sign)))
    assert d.component_count == 64
    assert len(d.crossings) == 64 * 63
    m = linking_matrix(FramedLink(d, (0,) * 64)).entries
    assert all(m[i][j] == (0 if i == j else sign)
               for i in range(64) for j in range(64))


# --- every PD code is accepted or rejected with a package error ----------

@st.composite
def paired_label_codes(draw):
    """Crossings whose arc labels each occur exactly twice, in random
    positions, and some crossingless circles."""
    n = draw(st.integers(1, 6))
    labels = draw(st.permutations([a for a in range(1, 2 * n + 1)
                                   for _ in range(2)]))
    parts = ["X(%d,%d,%d,%d)" % tuple(labels[i:i + 4])
             for i in range(0, 4 * n, 4)]
    parts += ["O(%d)" % (2 * n + c)
              for c in range(1, draw(st.integers(0, 2)) + 1)]
    return ",".join(draw(st.permutations(parts)))


@st.composite
def mutated_catalog_codes(draw):
    """A catalog PD code with some of its digits replaced."""
    text = list(draw(st.sampled_from(
        [pd for pd, _ in links.load_catalog().values()])))
    digits = [i for i, ch in enumerate(text) if ch.isdigit()]
    for i in draw(st.lists(st.sampled_from(digits), min_size=1,
                           max_size=3)):
        text[i] = draw(st.sampled_from("0123456789"))
    return "".join(text)


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(paired_label_codes(), mutated_catalog_codes()))
def test_parse_pd_accepts_or_raises_package_error(text):
    try:
        d = parse_pd(text)
    except errors.FukayaFlowError:
        return
    assert parse_pd(d.to_pd_text()) == d


def test_linking_matrix_must_be_square_and_symmetric():
    assert links.LinkingMatrix(((1, 2), (2, -1))).size == 2
    assert links.LinkingMatrix(()).size == 0
    for entries in (((1, 2),), ((0, 1), (0,)), ((0,), (1, 2))):
        with pytest.raises(ValueError, match="square") as info:
            links.LinkingMatrix(entries)
        assert isinstance(info.value, errors.FukayaFlowError)
    for entries in (((0, 1), (2, 0)), ((0, 1, 0), (1, 0, 0), (0, 1, 0))):
        with pytest.raises(ValueError, match="symmetric") as info:
            links.LinkingMatrix(entries)
        assert isinstance(info.value, errors.FukayaFlowError)
    # rows given as lists are compared by their entries
    assert links.LinkingMatrix([[0, 3], [3, 0]]).framing(1) == 0


_HOPF = "X(3,5,4,6),X(5,3,6,4)"


@pytest.mark.parametrize("build,message", [
    (lambda: links.FramedLink(parse_pd(_HOPF), (0.5, 0)),
     "framing 0.5 is not an integer"),
    (lambda: links.FramedLink(parse_pd(_HOPF), (0, "a")),
     "framing 'a' is not an integer"),
    (lambda: links.LinkingMatrix(((0.5,),)),
     "matrix entry 0.5 is not an integer"),
    (lambda: links.LinkingMatrix(((0, "1"), ("1", 0))),
     "matrix entry '1' is not an integer"),
    (lambda: links.self_writhe(parse_pd(_HOPF), 5),
     "no component 5 in the diagram"),
    (lambda: links.self_writhe(parse_pd(_HOPF), -1),
     "no component -1 in the diagram"),
    (lambda: links.self_writhe(parse_pd(_HOPF), 2),
     "no component 2 in the diagram"),
], ids=("float-framing", "str-framing", "float-entry", "str-entry",
        "writhe-component-5", "writhe-component-minus-1",
        "writhe-component-k"))
def test_link_layer_refuses_malformed_values(build, message):
    """Framings and matrix entries are ints and self_writhe reads a
    component of the diagram; anything else is a MalformedLink naming
    the value."""
    with pytest.raises(errors.MalformedLink, match=message):
        build()
