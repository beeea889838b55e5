"""Fukaya-side construction and the category isomorphism check."""

import itertools

from fukaya_flow.flow import build_flow_category
from fukaya_flow.fukaya import (build_fukaya_category, compare_categories,
                                generator_dictionary, verify_theorem_b)
from fukaya_flow.links import fixture, linking_matrix
from fukaya_flow.morse import handle_complex_from_link
from test_morse import CATALOG, longitude_classes


def test_table_z2_entry():
    cat = build_fukaya_category(fixture("hopf", (1, 1)))
    for j, (x2, y2, z2) in enumerate(
            (("x2^1", "y2^1", "z2^1"), ("x2^2", "y2^2", "z2^2"))):
        assert cat.compose(j, x2, y2) == \
            cat.hom_top_bottom.canonical_names((z2,))


def test_unknot_framing_zero_z1_dies():
    # the z1 relation has an empty right-hand side at k = 1
    cat = build_fukaya_category(fixture("unknot", (0,)))
    assert cat.compose(0, "x1^1", "y2^1") == ()


def test_hopf_x1_y2_reduction():
    # z1^1 = z1'^2, so x1^1 y2^1 = z1'^2 + m_1 z1'^1
    cat = build_fukaya_category(fixture("hopf", (1, 0)))
    assert set(cat.compose(0, "x1^1", "y2^1")) == {"z1'^1", "z1'^2"}
    cat = build_fukaya_category(fixture("hopf", (0, 0)))
    assert cat.compose(0, "x1^1", "y2^1") == ("z1'^2",)


def test_hom_profile():
    cat = build_fukaya_category(fixture("3-chain"))
    for j in range(3):
        assert len(cat.hom_top_mid[j]) == 2
        assert len(cat.hom_mid_bottom[j]) == 2
    # Betti profile (1, k, k-1, 0): the z<d> generators (z1 and z1')
    # sit in degree d
    spans = {d: sum(g.startswith("z%d" % d)
                    for g in cat.hom_top_bottom.basis) for d in (0, 1, 2)}
    assert spans == {0: 1, 1: 3, 2: 2}


def test_dictionary_is_bijective():
    mapping = generator_dictionary(3)
    assert len(set(mapping.values())) == len(mapping) == 3 * 8


def test_theorem_b_on_catalog():
    for name in ("unknot", "2-unlink", "3-unlink", "hopf", "trefoil",
                 "3-chain"):
        fl = fixture(name)
        report = verify_theorem_b(fl)
        assert report.isomorphic, (name, report.mismatches)


def test_theorem_b_framings_grid():
    for name in ("unknot", "hopf", "trefoil"):
        k = fixture(name).diagram.component_count
        for framings in itertools.product((-1, 0, 1, 2), repeat=k):
            report = verify_theorem_b(fixture(name, framings))
            assert report.isomorphic, (name, framings, report.mismatches)


def test_longitude_products_match_the_handle_complex():
    # the handle complex reads the framed longitudes off the PD code
    # without linking_matrix, which both category builders go through
    for name in CATALOG:
        k = fixture(name).diagram.component_count
        for framings in itertools.product((-1, 0, 1, 2), repeat=k):
            fl = fixture(name, framings)
            classes = longitude_classes(handle_complex_from_link(fl), k)
            fukaya_cat = build_fukaya_category(fl)
            flow_cat = build_flow_category(fl)
            for j, cls in enumerate(classes, 1):
                want = {"z1'^%d" % i for i in cls}
                got = fukaya_cat.compose(j - 1, "x1^%d" % j, "y2^%d" % j)
                assert set(got) == want, (name, framings, j)
                got = flow_cat.compose(j - 1, "p+^%d" % j, "K-^%d" % j)
                assert {n.replace("mu^", "z1'^") for n in got} == want, (
                    name, framings, j)


def test_mutated_category_detected():
    fl = fixture("hopf", (1, 1))
    flow_cat = build_flow_category(fl)
    fukaya_cat = build_fukaya_category(fl)
    table = dict(fukaya_cat.table)
    # flip one entry: the stored products are canonical bitmasks
    key = (0, "x2^1", "y2^1")
    table[key] ^= fukaya_cat.hom_top_bottom.vector(("z0^1",))
    from dataclasses import replace
    mutated = replace(fukaya_cat, table=table)
    report = compare_categories(mutated, flow_cat,
                                generator_dictionary(2))
    assert not report.isomorphic
    assert any("x2^1, y2^1" in m for m in report.mismatches)


def test_incomplete_dictionary_is_a_mismatch():
    # a generator the dictionary misses, or sends to a name the flow
    # side does not have, is reported, not raised
    fl = fixture("hopf", (1, 0))
    flow_cat, fukaya_cat = build_flow_category(fl), build_fukaya_category(fl)
    for gen, layer in (("x2^1", "hom(top,mid) j=1 generators"),
                       ("y1'^2", "hom(mid,bottom) j=2 generators"),
                       ("z0^1", "hom(top,bottom) generator sets differ"),
                       ("z1'^2", "hom(top,bottom) generator sets differ")):
        for image in (None, "nowhere", "K-^1"):
            mapping = generator_dictionary(2)
            if image is None:
                del mapping[gen]
            else:
                mapping[gen] = image
            report = compare_categories(fukaya_cat, flow_cat, mapping)
            assert not report.isomorphic, (gen, image)
            assert any(m.startswith(layer) for m in report.mismatches), (
                gen, image, report.mismatches)
            assert report.dictionary == mapping


def test_relations_map_to_relations():
    fl = fixture("3-chain", (1, 1, 1))
    flow_cat = build_flow_category(fl)
    fukaya_cat = build_fukaya_category(fl)
    mapping = generator_dictionary(3)
    flow_pres = flow_cat.hom_top_bottom
    for rel in fukaya_cat.hom_top_bottom.relations:
        names = fukaya_cat.hom_top_bottom.names(rel)
        translated = tuple(mapping[n] for n in names)
        assert flow_pres.canonicalize(flow_pres.vector(translated)) == 0


def test_theorem_b_even_linking_and_alternating():
    from fukaya_flow.links import FramedLink, parse_pd
    figure_eight = parse_pd("X(4,2,5,1),X(8,6,1,5),X(6,3,7,4),X(2,7,3,8)")
    assert verify_theorem_b(FramedLink(figure_eight, (2,))).isomorphic
    solomon = parse_pd("X(1,5,2,8),X(5,3,6,2),X(3,7,4,6),X(7,1,8,4)")
    fl = FramedLink(solomon, (1, 1))
    assert verify_theorem_b(fl).isomorphic
    # linking number two: the mod-2 longitude relation has an empty
    # right-hand side, exactly as for an unlink
    cat = build_fukaya_category(fl)
    assert cat.compose(0, "x1^1", "y2^1") == ("z1'^1",)


def test_categories_depend_only_on_matrix():
    # two different diagrams of the same link with the same framings
    fl_a = fixture("hopf", (2, -1))
    fl_b = fixture("hopf-kink", (2, -1))
    assert linking_matrix(fl_a) == linking_matrix(fl_b)
    assert build_flow_category(fl_a) == build_flow_category(fl_b)
    assert build_fukaya_category(fl_a) == build_fukaya_category(fl_b)
    assert verify_theorem_b(fl_b).isomorphic


def test_table_matches_flat_model_oracle():
    # the category table is the flat-model triangle product followed by
    # the framing change of basis z1 -> z1 + m z1' (other classes fixed)
    from fukaya_flow.morse import triangle_product_table
    local = triangle_product_table()
    for name, framings in (("unknot", (1,)), ("hopf", (0, 1)),
                           ("trefoil", (2,)), ("3-chain", (1, -1, 0))):
        fl = fixture(name, framings)
        cat = build_fukaya_category(fl)
        pres = cat.hom_top_bottom
        for j in range(len(cat.middles)):
            m_j = linking_matrix(fl).framing(j) % 2
            for x in ("x2", "x1"):
                for y in ("y2", "y1'"):
                    (z_class,) = local[(x, y)]
                    expected = ["%s^%d" % (z_class, j + 1)]
                    if z_class == "z1" and m_j:
                        expected.append("z1'^%d" % (j + 1))
                    got = cat.compose(j, "%s^%d" % (x, j + 1),
                                      "%s^%d" % (y, j + 1))
                    want = pres.canonical_names(expected)
                    assert tuple(sorted(got)) == tuple(sorted(want)), (
                        name, framings, j, x, y)


def test_report_json_shape():
    report = verify_theorem_b(fixture("unknot", (1,)))
    blob = report.to_json()
    assert blob["isomorphic"] is True
    assert blob["dictionary"]["x2^1"] == "K+^1"
    assert blob["dictionary"]["z1'^1"] == "mu^1"
    assert blob["mismatches"] == []
