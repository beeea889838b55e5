"""Flow-category construction, composition table, and relations."""

import itertools
import random
from dataclasses import replace

import pytest

from fukaya_flow import errors
from fukaya_flow.errors import DuplicateGeneratorName
from fukaya_flow.flow import (DirectedCategoryPresentation,
                              build_flow_category, rp2_category)
from fukaya_flow.homology import F2Presentation
from fukaya_flow.links import fixture, linking_matrix
from helpers import relation_table


def test_unknot_m1_products():
    cat = build_flow_category(fixture("unknot", (1,)))
    assert cat.compose(0, "K+^1", "p-^1") == ("mu^1",)
    # lambda^1 + mu^1 reduces to mu^1 because lambda^1 = 0
    assert cat.compose(0, "p+^1", "K-^1") == ("mu^1",)
    # dU^1 = 0: it is the whole degree-two relation at k = 1
    assert cat.compose(0, "K+^1", "K-^1") == ()
    assert cat.compose(0, "p+^1", "p-^1") == ("q^1",)


def test_unknot_any_framing_kk_product_vanishes():
    for m in (-1, 0, 1, 2):
        cat = build_flow_category(fixture("unknot", (m,)))
        assert cat.compose(0, "K+^1", "K-^1") == ()


def test_hopf_pk_product():
    # lambda^1 = mu^2, so the product is mu^2 + m_1 mu^1
    cat = build_flow_category(fixture("hopf", (1, 0)))
    assert cat.compose(0, "p+^1", "K-^1") == ("mu^1", "mu^2")
    cat = build_flow_category(fixture("hopf", (0, 0)))
    assert cat.compose(0, "p+^1", "K-^1") == ("mu^2",)


def test_mixed_middle_products_vanish():
    cat = build_flow_category(fixture("3-chain"))
    for j, i in itertools.permutations(range(3), 2):
        for u in cat.hom_top_mid[j]:
            for v in cat.hom_mid_bottom[i]:
                assert cat.compose_cross(j, u, i, v) == ()


@pytest.mark.parametrize("name,framings", [
    ("unknot", (1,)), ("hopf", (1, 1)), ("3-chain", (0, 1, -1))])
def test_bilinearity_exhaustive(name, framings):
    cat = build_flow_category(fixture(name, framings))
    pres = cat.hom_top_bottom
    for j in range(len(cat.middles)):
        gens_u = cat.hom_top_mid[j]
        gens_v = cat.hom_mid_bottom[j]
        for u1, u2 in itertools.product(gens_u, repeat=2):
            for v in gens_v:
                left = pres.vector(cat.compose(j, (u1, u2), v))
                right = (pres.vector(cat.compose(j, u1, v))
                         ^ pres.vector(cat.compose(j, u2, v)))
                assert pres.canonicalize(left) == pres.canonicalize(right)
        for v1, v2 in itertools.product(gens_v, repeat=2):
            for u in gens_u:
                left = pres.vector(cat.compose(j, u, (v1, v2)))
                right = (pres.vector(cat.compose(j, u, v1))
                         ^ pres.vector(cat.compose(j, u, v2)))
                assert pres.canonicalize(left) == pres.canonicalize(right)


def test_constructor_canonicalises_and_checks_keys():
    fields = dict(
        top="t", middles=("m1", "m2"), bottom="b",
        hom_top_mid=(("u1",), ("u2",)), hom_mid_bottom=(("v1",), ("v2",)),
        hom_top_bottom=F2Presentation(("c1", "c2"), [("c1", "c2")]))
    # c2 = c1 and the canonical basis is {c1}
    cat = DirectedCategoryPresentation(
        table={(0, "u1", "v1"): ("c2",), (1, "u2", "v2"): ("c1", "c2")},
        **fields)
    # each product is stored once, as its canonical bitmask over (c1, c2)
    assert cat.table == {(0, "u1", "v1"): 0b01, (1, "u2", "v2"): 0}
    assert cat.compose(0, "u1", "v1") == ("c1",)
    # a bitmask is accepted as a product too, and canonicalised the same
    assert replace(cat, table={(0, "u1", "v1"): 0b10}).table == {
        (0, "u1", "v1"): 0b01}
    assert replace(cat) == cat
    for mask, shown in ((0b100, "0x4"), (-1, "-0x1")):
        with pytest.raises(ValueError, match="'bitmask %s'" % shown):
            replace(cat, table={(0, "u1", "v1"): mask})
    # a key whose generator belongs to the other middle object
    with pytest.raises(ValueError, match="'v2'"):
        DirectedCategoryPresentation(table={(0, "u1", "v2"): ()}, **fields)
    with pytest.raises(ValueError, match="'u1'"):
        replace(cat, table={(1, "u1", "v2"): ("c1",)})
    with pytest.raises(ValueError, match="no middle object"):
        replace(cat, table={(2, "u1", "v1"): ()})
    # a product that names no generator of hom(top, bottom)
    with pytest.raises(ValueError, match=r"\(0, 'u1', 'v1'\).*'zz'"):
        replace(cat, table={(0, "u1", "v1"): ("zz",)})
    fields["hom_mid_bottom"] = fields["hom_mid_bottom"][:1]
    with pytest.raises(ValueError, match="out of step"):
        DirectedCategoryPresentation(table={}, **fields)


def test_malformed_category_is_a_package_error():
    fields = dict(
        top="t", middles=("m1",), bottom="b", hom_top_mid=(("u1",),),
        hom_mid_bottom=(("v1",),), hom_top_bottom=F2Presentation(("c1",)),
        table={})
    for changes, message in (
            (dict(hom_mid_bottom=()), "out of step"),
            (dict(middles=("t",)), "distinct"),
            (dict(table={(1, "u1", "v1"): ()}), "no middle object"),
            (dict(table={(0, "v1", "v1"): ()}), "'v1' is not a morphism"),
            (dict(table={(0, "u1", "v1"): ("zz",)}), "'zz'")):
        with pytest.raises(errors.FukayaFlowError, match=message) as info:
            DirectedCategoryPresentation(**dict(fields, **changes))
        assert isinstance(info.value, errors.MalformedCategory)
        assert isinstance(info.value, ValueError)


def test_middle_layer_names_each_generator_once():
    # a free middle hom space is its tuple of names; a name repeated
    # within one is refused by the constructor, replace included
    cat = DirectedCategoryPresentation(
        top="t", middles=("m1", "m2"), bottom="b",
        hom_top_mid=(("u1",), ("u2",)), hom_mid_bottom=(("v1",), ("v2",)),
        hom_top_bottom=F2Presentation(("c1",)), table={})
    with pytest.raises(DuplicateGeneratorName, match="'u2', 'u2'"):
        replace(cat, hom_top_mid=(("u1",), ("u2", "u2")))
    with pytest.raises(DuplicateGeneratorName, match="'v1', 'w', 'v1'"):
        DirectedCategoryPresentation(
            "t", ("m1", "m2"), "b", cat.hom_top_mid,
            (("v1", "w", "v1"), ("v2",)), cat.hom_top_bottom, {})
    # one name in two different middle layers is not a repeat
    assert replace(cat, hom_mid_bottom=(("v",), ("v",))).hom_mid_bottom \
        == (("v",), ("v",))
    flow = build_flow_category(fixture("hopf"))
    with pytest.raises(DuplicateGeneratorName, match="K-"):
        replace(flow, hom_mid_bottom=(("K-^1", "K-^1"),
                                      flow.hom_mid_bottom[1]))


def test_hom_ranks():
    cat = build_flow_category(fixture("3-chain"))
    for j in range(3):
        assert len(cat.hom_top_mid[j]) == 2
        assert len(cat.hom_mid_bottom[j]) == 2
    assert cat.hom_top_bottom.dim == 1 + 3 + 2


def test_relation_table_unknot():
    fl = fixture("unknot", (1,))
    cat = build_flow_category(fl)
    rels = relation_table(cat, linking_matrix(fl))
    names = [r.name for r in rels]
    assert names == ["sum_KK", "pK_1"]
    assert all(r.holds(cat) for r in rels)


def test_relation_table_chain():
    fl = fixture("3-chain", (0, 1, 0))
    cat = build_flow_category(fl)
    rels = {r.name: r for r in relation_table(cat, linking_matrix(fl))}
    # middle component links both ends once:
    # p+^2 K-^2 = m_2 K+^2 p-^2 + K+^1 p-^1 + K+^3 p-^3
    pk2 = rels["pK_2"]
    assert set(pk2.terms) == {
        (1, "p+^2", "K-^2"), (1, "K+^2", "p-^2"),
        (0, "K+^1", "p-^1"), (2, "K+^3", "p-^3")}
    for rel in rels.values():
        assert rel.holds(cat)


def test_relation_table_pp_family():
    fl = fixture("3-unlink", (1, 0, 2))
    cat = build_flow_category(fl)
    rels = relation_table(cat, linking_matrix(fl))
    assert {"pp_2_equals_pp_1", "pp_3_equals_pp_1"} <= {r.name for r in rels}
    for rel in rels:
        assert rel.holds(cat)


def test_relation_table_requires_link_category():
    unknot = linking_matrix(fixture("unknot"))
    with pytest.raises(ValueError, match="1-component link"):
        relation_table(rp2_category(), unknot)
    # a link-built category with a matrix of the wrong size
    hopf = fixture("hopf")
    with pytest.raises(ValueError, match="1-component link"):
        relation_table(build_flow_category(hopf), unknot)


def test_rp2_fixture_table():
    cat = rp2_category()
    assert cat.compose(0, "A_2", "B_2") == ("C_1",)
    assert cat.compose(0, "A_1", "B_1") == ("C_1",)
    assert cat.compose(0, "A_1", "B_2") == ("C_2",)
    assert cat.compose(0, "A_2", "B_1") == ("C_2",)


def test_rp2_bilinearity():
    cat = rp2_category()
    # (A_1 + A_2) composed with B_1 is C_1 + C_2
    assert set(cat.compose(0, ("A_1", "A_2"), "B_1")) == {"C_1", "C_2"}
    # (A_1 + A_2)(B_1 + B_2) = 0 over Z/2
    assert cat.compose(0, ("A_1", "A_2"), ("B_1", "B_2")) == ()


def test_dot_export():
    cat = build_flow_category(fixture("unknot", (1,)))
    dot = cat.to_dot()
    assert dot.startswith("digraph")
    assert '"x_4" -> "x_2^1" [label="K+^1"];' in dot


def test_json_export_deterministic():
    cat = build_flow_category(fixture("hopf", (1, 2)))
    assert cat.to_json() == build_flow_category(
        fixture("hopf", (1, 2))).to_json()


def test_compose_of_chains_is_canonical_sum_of_supports():
    # compose sums the stored entries without reducing again: canonical
    # entries have no pivot bits, so neither has their sum.  The raw
    # supports below are not canonical; the constructor rewrites them.
    rng = random.Random(59)
    for _ in range(150):
        gens = ["g%d" % i for i in range(rng.randint(1, 7))]
        bottom = F2Presentation(gens, [
            rng.sample(gens, rng.randint(1, len(gens)))
            for _ in range(rng.randint(0, 4))])
        k = rng.randint(1, 3)
        top_mid = tuple(
            tuple("a%d_%d" % (j, i) for i in range(rng.randint(0, 3)))
            for j in range(k))
        mid_bottom = tuple(
            tuple("b%d_%d" % (j, i) for i in range(rng.randint(0, 3)))
            for j in range(k))
        raw = {(j, u, v): [rng.choice(gens)
                           for _ in range(rng.randint(0, 4))]
               for j in range(k) for u in top_mid[j]
               for v in mid_bottom[j] if rng.random() < 0.8}
        cat = DirectedCategoryPresentation(
            "t", tuple("m%d" % j for j in range(k)), "b", top_mid,
            mid_bottom, bottom, raw)
        for _ in range(5):
            j = rng.randrange(k)
            us = [g for g in top_mid[j] if rng.random() < 0.6]
            vs = [g for g in mid_bottom[j] if rng.random() < 0.6]
            summed = [w for u in us for v in vs
                      for w in raw.get((j, u, v), ())]
            assert cat.compose(j, us, vs) == bottom.canonical_names(summed)
