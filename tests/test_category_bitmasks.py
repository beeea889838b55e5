"""The categories' bitmask tables against the name-based references of
tests/helpers.py: composition, the regular representation and the
Theorem-B comparison, on every framed catalog link and on seeded braid
closures; and the presentations' one elimination against f2.rref plus a
fresh Reducer."""

import itertools
import random
from dataclasses import replace

from fukaya_flow import f2
from fukaya_flow.flow import build_flow_category
from fukaya_flow.fukaya import (build_fukaya_category, compare_categories,
                                generator_dictionary)
from fukaya_flow.homology import F2Presentation
from fukaya_flow.links import FramedLink, fixture, linking_matrix, parse_pd
from fukaya_flow.quiver import regular_representation
from helpers import (name_tables, reference_compare, reference_compose,
                     reference_regular_representation, representation_json)
from test_links import braid_closure_pd
from test_morse import CATALOG


def _links():
    """Every framed catalog link (188), then 120 seeded braid closures
    on 2-6 strands with framings in -2..3."""
    for name in CATALOG:
        k = fixture(name).diagram.component_count
        for framings in itertools.product((-1, 0, 1, 2), repeat=k):
            yield fixture(name, framings)
    rng = random.Random(73)
    for _ in range(120):
        strands = rng.randint(2, 6)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(0, 14))]
        d = parse_pd(braid_closure_pd(strands, word))
        yield FramedLink(d, tuple(rng.randint(-2, 3)
                                  for _ in range(d.component_count)))


LINKS = list(_links())


def _categories(fl):
    """(flow, Fukaya) categories and their (flow, Fukaya) name tables."""
    return ((build_flow_category(fl), build_fukaya_category(fl)),
            name_tables(linking_matrix(fl)))


def _chains(gens):
    return [c for r in range(len(gens) + 1)
            for c in itertools.combinations(gens, r)]


def test_link_sample_is_wide():
    assert len(LINKS) == 188 + 120
    assert max(fl.diagram.component_count for fl in LINKS) >= 5


def test_compose_matches_the_name_reference():
    # every chain of hom(top, mid_j) against every chain of
    # hom(mid_j, bottom), the empty chains included
    for fl in LINKS:
        cats, tables = _categories(fl)
        for cat, names in zip(cats, tables):
            for j in range(len(cat.middles)):
                for us in _chains(cat.hom_top_mid[j]):
                    for vs in _chains(cat.hom_mid_bottom[j]):
                        assert cat.compose(j, us, vs) == reference_compose(
                            cat, names, j, us, vs), (fl.framings, j, us, vs)


def test_regular_representation_matches_the_name_reference():
    for fl in LINKS:
        cats, tables = _categories(fl)
        for cat, names in zip(cats, tables):
            rep = regular_representation(cat)
            assert rep == reference_regular_representation(cat, names)
            assert representation_json(rep) == representation_json(
                reference_regular_representation(cat, names))


def test_compare_categories_matches_the_name_reference():
    # the unchanged pair, a Fukaya table with one product changed, and
    # the dictionary with the images of two generators swapped
    rng = random.Random(79)
    verdicts = {True: 0, False: 0}
    for fl in LINKS:
        (flow_cat, fukaya_cat), (flow_names, fukaya_names) = _categories(fl)
        mapping = generator_dictionary(len(flow_cat.middles))
        key = rng.choice(sorted(fukaya_names))
        changed = dict(fukaya_names)
        changed[key] += (rng.choice(fukaya_cat.hom_top_bottom.generators),)
        swapped = dict(mapping)
        a, b = rng.sample(sorted(mapping), 2)
        swapped[a], swapped[b] = mapping[b], mapping[a]
        for fuk, fuk_names, m in (
                (fukaya_cat, fukaya_names, mapping),
                (replace(fukaya_cat, table=changed), changed, mapping),
                (fukaya_cat, fukaya_names, swapped)):
            report = compare_categories(fuk, flow_cat, m)
            want = reference_compare(fuk, flow_cat, fuk_names, flow_names, m)
            assert (report.isomorphic, report.mismatches) == want, (
                fl.framings, key, a, b)
            verdicts[report.isomorphic] += 1
    assert verdicts[True] >= len(LINKS) and verdicts[False] >= len(LINKS)


def test_one_elimination_matches_rref_and_a_fresh_reducer():
    rng = random.Random(83)
    for _ in range(400):
        n = rng.randint(0, 16)
        gens = ["g%d" % i for i in range(n)]
        rels = [rng.getrandbits(n) for _ in range(rng.randint(0, 12))]
        p = F2Presentation(gens, rels)
        rows, pivots = f2.rref(rels)
        span = f2.Reducer(rows)
        assert p.to_json()["relations"] == [
            sorted(gens[i] for i in f2.bits(r)) for r in rows]
        assert p.basis == tuple(g for i, g in enumerate(gens)
                                if i not in pivots)
        assert p.dim == n - len(rows)
        for _ in range(8):
            v = rng.getrandbits(n)
            assert p.canonicalize(v) == f2.reduce_vector(v, span)
