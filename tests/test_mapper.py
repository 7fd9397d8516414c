import json
import math
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitetopo import (
    EpsilonGrid,
    FilterSpec,
    InputError,
    IntervalCover,
    PointCloud,
    Poset,
    circle_sample,
    epsilon_components,
    figure_eight_sample,
    mapper_completion,
    parse_filter,
    pullback_cover,
)
from finitetopo import fixtures as fx
from finitetopo.formats import point_cloud_from_csv, read_text_file
from finitetopo.mapper import _part_name, _spans
from tests.reference_epsilon import distance, reference_epsilon_components


def components(pc: PointCloud, ids, epsilon: float) -> list[frozenset[str]]:
    """`epsilon_components` of the given points, through a grid of the
    whole cloud, as sets of identifiers."""
    poset = Poset(pc.ids, ())
    grid = EpsilonGrid(pc, poset, epsilon)
    return [c.members for c in epsilon_components(grid, poset.subset(ids))]


def parts_of(pc: PointCloud, f: FilterSpec, ic: IntervalCover) -> dict[str, frozenset[str]]:
    """`pullback_cover` of the filter values over the cover's intervals,
    each part as a set of identifiers."""
    values = f.values(pc)
    return {name: frozenset(pc.ids[k] for k in ks) for name, ks in pullback_cover(values, _spans(pc, ic, values)).items()}


def square_cloud() -> PointCloud:
    return PointCloud(["p0", "p1", "p2", "p3"], [(0, 0), (1, 0), (0, 1), (1, 1)])


class TestPointCloud:
    def test_basic_accessors(self):
        pc = square_cloud()
        assert len(pc) == 4
        assert pc.dimension == 2
        assert pc.coord("p1") == (1.0, 0.0)
        assert distance(pc, "p0", "p3") == pytest.approx(math.sqrt(2))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InputError):
            PointCloud(["a", "a"], [(0,), (1,)])

    def test_mismatched_dimensions_rejected(self):
        with pytest.raises(InputError):
            PointCloud(["a", "b"], [(0, 0), (1,)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_rejected(self, bad):
        with pytest.raises(InputError, match="point 'b' has a non-finite coordinate"):
            PointCloud(["a", "b"], [(0, 0), (1, bad)])

    def test_csv_non_finite_coordinate_names_row_and_point(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("a,0,0\nb,nan,0\nc,0.1,0\nd,inf,1\n")
        with pytest.raises(InputError, match=r"cloud\.csv:2: point 'b' has a non-finite coordinate"):
            point_cloud_from_csv(path.read_text(), str(path))

    def test_csv_empty_cell_before_a_value_names_the_row(self, tmp_path):
        """An empty cell is not skipped: the third column stays the third."""
        path = tmp_path / "cloud.csv"
        path.write_text("a,0,,0\nb,1,,0\nc,2,,5\n")
        with pytest.raises(InputError, match=r"cloud\.csv:1: empty cell in \['a', '0', '', '0'\]"):
            point_cloud_from_csv(path.read_text(), str(path))

    def test_csv_trailing_empty_cells_are_ignored(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("a,0,1,\nb,2,3,,\n,,\n")
        pc = point_cloud_from_csv(path.read_text(), str(path))
        assert pc.ids == ("a", "b") and pc.coords == ((0.0, 1.0), (2.0, 3.0))

    def test_csv_round_trip(self, tmp_path):
        path = fx.write_fixture(fx.get_fixture("circle-60"), str(tmp_path))
        pc = point_cloud_from_csv(read_text_file(path), path)
        assert len(pc) == 60
        assert pc.dimension == 2
        built = fx.get_fixture("circle-60").build()
        assert (pc.ids, pc.coords) == (built.ids, built.coords)


class TestFilters:
    def test_parse_shorthands(self):
        assert parse_filter("x") == FilterSpec("coordinate", 0)
        assert parse_filter("y") == FilterSpec("coordinate", 1)
        assert parse_filter("coord:3") == FilterSpec("coordinate", 3)
        assert parse_filter("eccentricity") == FilterSpec("eccentricity")

    def test_parse_rejects_unknown(self):
        with pytest.raises(InputError):
            parse_filter("w")

    def test_coordinate_values(self):
        pc = square_cloud()
        assert FilterSpec("coordinate", 1).values(pc) == (0.0, 0.0, 1.0, 1.0)

    def test_axis_out_of_range(self):
        with pytest.raises(InputError, match="axis"):
            FilterSpec("coordinate", 5).values(square_cloud())

    def test_eccentricity_is_max_distance(self):
        pc = square_cloud()
        vals = FilterSpec("eccentricity").values(pc)
        assert vals == tuple(pytest.approx(math.sqrt(2)) for _ in range(4))

    def test_eccentricity_overflow_is_input_error(self):
        # finite coordinates 2e308 apart: the distance overflows to inf
        pc = PointCloud(["a", "b", "c"], [(0.0,), (1e308,), (-1e308,)])
        with pytest.raises(InputError, match="eccentricity filter overflows"):
            FilterSpec("eccentricity").values(pc)
        with pytest.raises(InputError, match="eccentricity filter overflows"):
            mapper_completion(pc, parse_filter("ecc"), IntervalCover(2, 0.5), 1.0)


class TestIntervalCover:
    def test_validation(self):
        with pytest.raises(InputError):
            IntervalCover(0, 0.3)
        with pytest.raises(InputError):
            IntervalCover(4, 1.0)

    def test_spans_cover_range_exactly(self):
        spans = IntervalCover(4, 0.3).of_range(-1.0, 1.0)
        assert len(spans) == 4
        assert spans[0][0] == -1.0
        assert spans[-1][1] == 1.0

    def test_consecutive_spans_overlap(self):
        spans = IntervalCover(5, 0.25).of_range(0.0, 10.0)
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert c < b  # genuine overlap
            assert (b - c) / (b - a) == pytest.approx(0.25)

    def test_range_whose_length_overflows_is_input_error(self):
        with pytest.raises(InputError, match=r"filter range \[-1.7e\+308, 1.7e\+308\] is too wide"):
            IntervalCover(2, 0.5).of_range(-1.7e308, 1.7e308)
        pc = PointCloud(["a", "b", "c"], [(0.0,), (1.7e308,), (-1.7e308,)])
        with pytest.raises(InputError, match="filter range .* is too wide"):
            mapper_completion(pc, parse_filter("x"), IntervalCover(2, 0.5), 1.0)
        spans = IntervalCover(2, 0.5).of_range(-8e307, 8e307)  # a wide range that does not overflow
        assert spans[0][0] == -8e307 and spans[-1][1] == 8e307 and all(map(math.isfinite, sum(spans, ())))

    def test_degenerate_range_warns(self):
        with pytest.warns(UserWarning, match="degenerate"):
            spans = IntervalCover(3, 0.3).of_range(2.0, 2.0)
        assert spans == [(2.0, 2.0)]

    @given(
        st.integers(1, 12),
        st.floats(0.0, 0.9),
        st.floats(-100, 100),
        st.floats(0.001, 100),
    )
    @settings(max_examples=60)
    def test_span_endpoints_are_monotone_and_tight(self, n, g, lo, width):
        hi = lo + width
        spans = IntervalCover(n, g).of_range(lo, hi)
        assert spans[0][0] == lo
        assert spans[-1][1] == hi
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert a <= c and b <= d


class TestPullback:
    def test_every_point_lands_somewhere(self):
        pc = circle_sample()
        parts = parts_of(pc, parse_filter("x"), IntervalCover(4, 0.3))
        covered = set().union(*parts.values())
        assert covered == set(pc.ids)

    def test_part_membership_matches_filter_values(self):
        pc = square_cloud()
        parts = parts_of(pc, parse_filter("x"), IntervalCover(2, 0.5))
        for name, members in parts.items():
            assert members  # this cover has no empty slices
        assert {"p0", "p2"} <= parts["i0"]
        assert {"p1", "p3"} <= parts["i1"]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_bisected_parts_match_the_comparisons(self, data):
        # a small pool of values makes ties, and span ends drawn from it land on values
        pool = data.draw(st.lists(st.floats(allow_nan=False), min_size=1, max_size=6))
        values = tuple(data.draw(st.lists(st.sampled_from(pool), max_size=30)))
        end = st.one_of(st.sampled_from(pool), st.floats())
        spans = data.draw(st.lists(st.tuples(end, end), min_size=1, max_size=8))
        expected = {
            _part_name(k, len(spans)): [i for i, v in enumerate(values) if a <= v <= b]
            for k, (a, b) in enumerate(spans)
        }
        assert pullback_cover(values, spans) == expected

    def test_twenty_thousand_intervals_pull_back_quickly(self):
        # sorted once and bisected per span, not one scan of every point per span
        n = 20_000
        pc = PointCloud([f"p{i}" for i in range(n)], [((i * 7919) % n / n,) for i in range(n)])
        start = time.process_time()
        parts = parts_of(pc, parse_filter("x"), IntervalCover(n, 0.5))
        assert time.process_time() - start < 2
        assert len(parts) == n and set().union(*parts.values()) == set(pc.ids)

    def test_more_intervals_than_points_is_refused_at_once(self):
        # before any span is built: a trillion spans would never finish
        pc = PointCloud(["a", "b"], [(0.0,), (1.0,)])
        f, ic = parse_filter("x"), IntervalCover(10**12, 0.3)
        start = time.process_time()
        with pytest.raises(InputError, match="1000000000000 intervals for 2 points"):
            parts_of(pc, f, ic)
        with pytest.raises(InputError, match="1000000000000 intervals for 2 points"):
            mapper_completion(pc, f, ic, 0.5)
        assert time.process_time() - start < 1


class TestEpsilonComponents:
    def test_two_clusters(self):
        pc = PointCloud(["a", "b", "c", "d"], [(0,), (0.1,), (5,), (5.1,)])
        comps = components(pc, pc.ids, 0.5)
        assert sorted(sorted(c) for c in comps) == [["a", "b"], ["c", "d"]]

    def test_epsilon_bridges_clusters(self):
        pc = PointCloud(["a", "b"], [(0,), (1,)])
        assert len(components(pc, pc.ids, 2.0)) == 1

    def test_empty_selection(self):
        assert components(square_cloud(), [], 1.0) == []

    def test_element_set_of_another_poset_is_refused(self):
        pc = square_cloud()
        grid = EpsilonGrid(pc, Poset(pc.ids, ()), 1.0)
        with pytest.raises(InputError, match="grid's points"):
            epsilon_components(grid, Poset(pc.ids, ()).subset(["p0"]))

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf])
    def test_epsilon_must_be_positive_and_finite(self, epsilon):
        with pytest.raises(InputError, match="epsilon"):
            components(square_cloud(), ["p0", "p1"], epsilon)


def _nudge(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def component_cases(draw):
    """A cloud in 1 to 3 dimensions, an epsilon and the ids to split.  The
    points are random, or lie on an integer lattice of spacing epsilon, at
    most an ulp off, so that many pairs lie exactly or almost exactly
    epsilon apart; some points are repeated, and the cloud may be
    translated by up to 1e9 epsilon."""
    dim = draw(st.integers(1, 3))
    epsilon = 10.0 ** draw(st.floats(-3, 3))
    n = draw(st.integers(1, 30))
    if draw(st.booleans()):
        rows = [
            tuple(_nudge(draw(st.integers(-2, 2)) * epsilon, draw(st.integers(-1, 1))) for _ in range(dim))
            for _ in range(n)
        ]
    else:
        rows = [tuple(draw(st.floats(-4, 4)) * epsilon for _ in range(dim)) for _ in range(n)]
    rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    if draw(st.booleans()):
        reach = draw(st.sampled_from([1e3, 1e6, 1e9]))
        shift = [draw(st.floats(-reach, reach)) * epsilon for _ in range(dim)]
        rows = [tuple(v + t for v, t in zip(row, shift)) for row in rows]
    ids = [f"q{k:02d}" for k in range(len(rows))]
    chosen = draw(st.one_of(st.just(ids), st.lists(st.sampled_from(ids), unique=True)))
    return PointCloud(ids, rows), chosen, epsilon


class TestGridMatchesReference:
    """The grid prunes pairs only; components equal the old all-pairs BFS."""

    @given(component_cases())
    @settings(max_examples=400)
    def test_same_components_as_reference(self, case):
        pc, ids, epsilon = case
        assert components(pc, ids, epsilon) == reference_epsilon_components(pc, ids, epsilon)

    @given(component_cases(), st.sampled_from([1e3, 1e9, 1.7e308]), st.data())
    @settings(max_examples=200)
    def test_grid_of_the_whole_cloud_is_sound_on_a_subset(self, case, scale, data):
        # the cell side comes from the largest coordinate of the whole
        # cloud, here a far point that the split points leave out
        pc, ids, epsilon = case
        far = tuple(data.draw(st.sampled_from([scale, -scale])) for _ in range(pc.dimension))
        cloud = PointCloud([*pc.ids, "far"], [*pc.coords, far])
        assert components(cloud, ids, epsilon) == reference_epsilon_components(cloud, ids, epsilon)

    @pytest.mark.parametrize("epsilon", [0.1, 0.3, 1.0, 2.5])
    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6, 1e9, -1e9])
    def test_translated_lattice(self, epsilon, offset):
        # a 6x6 lattice of spacing epsilon, up to 1e9 epsilon from the origin
        rows = [(offset * epsilon + i * epsilon, -offset * epsilon + j * epsilon) for i in range(6) for j in range(6)]
        pc = PointCloud([f"q{k:02d}" for k in range(len(rows))], rows)
        assert components(pc, pc.ids, epsilon) == reference_epsilon_components(pc, pc.ids, epsilon)

    def test_integer_chain_far_from_origin_is_one_component(self):
        rows = [(1e9 + k,) for k in range(50)]
        pc = PointCloud([f"q{k:02d}" for k in range(50)], rows)
        assert components(pc, pc.ids, 1.0) == [frozenset(pc.ids)]

    def test_pair_straddling_a_cell_exactly_epsilon_apart(self):
        # the distance rounds to epsilon exactly although the cells of side
        # epsilon would be two apart
        pc = PointCloud(["a", "b"], [(-5e-324, 0.0), (0.1, 0.0)])
        assert distance(pc, "a", "b") == 0.1
        assert components(pc, pc.ids, 0.1) == [frozenset({"a", "b"})]

    def test_diagonal_neighbours_are_linked(self):
        pc = PointCloud(["a", "b"], [(0.95, 0.95), (1.05, 1.05)])
        assert components(pc, pc.ids, 0.5) == [frozenset({"a", "b"})]

    def test_high_dimensional_cloud(self):
        # 3^40 neighbouring offsets per cell would never finish
        import random

        rng = random.Random(3)
        rows = [tuple(rng.uniform(0, 1) for _ in range(40)) for _ in range(30)]
        pc = PointCloud([f"q{k:02d}" for k in range(30)], rows)
        for epsilon in (0.5, 1.5, 2.5):
            assert components(pc, pc.ids, epsilon) == reference_epsilon_components(pc, pc.ids, epsilon)

    def test_extreme_coordinates(self):
        pc = PointCloud(["a", "b", "c", "d"], [(1.7e308,), (-1.7e308,), (1.7e308 - 2e292,), (5e-324,)])
        for epsilon in (5e-324, 1e-300, 1.0, 1e300):
            assert components(pc, pc.ids, epsilon) == reference_epsilon_components(pc, pc.ids, epsilon)


def dense_cloud(epsilon: float) -> PointCloud:
    """680 points, ten or more to most cells of side epsilon: an arc and a
    chain at spacing epsilon / 10, and a blob of 200 points in a square of
    side 2 epsilon.  The arc (ids a...) has radius 6 epsilon and is
    jittered by up to epsilon / 50; the chain (ids c...) runs along the
    x-axis with a gap of 1.5 epsilon after its 120th point."""
    import random

    rng = random.Random(17)

    def jitter() -> float:
        return rng.uniform(-0.02, 0.02) * epsilon

    ids, rows = [], []
    for k in range(240):
        angle = k * 0.1 / 6
        ids.append(f"a{k:03d}")
        rows.append((6 * epsilon * math.cos(angle) + jitter(), 6 * epsilon * math.sin(angle) + jitter()))
    for k in range(240):
        ids.append(f"c{k:03d}")
        rows.append((20 * epsilon + k * 0.1 * epsilon + (1.5 * epsilon if k >= 120 else 0.0), 0.0))
    for k in range(200):
        ids.append(f"b{k:03d}")
        rows.append((-20 * epsilon + rng.uniform(0, 2) * epsilon, rng.uniform(0, 2) * epsilon))
    return PointCloud(ids, rows)


class TestDenseCells:
    """Many points to a cell, so that the search empties a cell while
    points of the cells next to it are still queued; the components equal
    those of the all-pairs search in `tests/reference_epsilon.py`."""

    @pytest.mark.parametrize("epsilon", [0.06, 1.0, 1e6])
    @pytest.mark.parametrize(
        "selection, count",
        [
            ("arc", 1),
            ("chain", 2),
            ("blob", 1),
            ("arc cut in two", 2),
            ("everything", 4),
        ],
    )
    def test_same_components_as_reference(self, epsilon, selection, count):
        pc = dense_cloud(epsilon)
        ids = {
            "arc": [i for i in pc.ids if i[0] == "a"],
            "chain": [i for i in pc.ids if i[0] == "c"],
            "blob": [i for i in pc.ids if i[0] == "b"],
            # 20 points, an arc of 2 epsilon, left out of the middle
            "arc cut in two": [i for i in pc.ids if i[0] == "a" and not 100 <= int(i[1:]) < 120],
            "everything": list(pc.ids),
        }[selection]
        mine = components(pc, ids, epsilon)
        assert mine == reference_epsilon_components(pc, ids, epsilon)
        assert len(mine) == count


class TestMapperPipeline:
    def setup_method(self):
        self.result = mapper_completion(
            circle_sample(), parse_filter("x"), IntervalCover(4, 0.3), 0.15
        )

    def test_circle_completion_sees_the_loop(self):
        assert self.result.complex.f_vector() == (6, 6)
        assert self.result.completion_homology.betti == (1, 1)

    def test_plain_nerve_misses_the_loop(self):
        # the interval nerve is a path, blind to the two arcs per slice
        assert self.result.nerve_homology.degree(1) == (0, ())

    def test_component_nerve_agrees_with_completion(self):
        assert self.result.component_nerve_homology.betti == (1, 1)

    def test_part_sizes_are_stable_for_the_fixed_seed(self):
        sizes = {k: len(v) for k, v in self.result.parts.items()}
        assert sizes == {"i0": 23, "i1": 12, "i2": 12, "i3": 23}

    def test_json_shape(self):
        d = self.result.to_json_dict()
        assert d["points"] == 60
        assert d["completion_f_vector"] == [6, 6]
        assert len(d["intervals"]) == 4

    def test_components_are_computed_once_per_intersection(self, monkeypatch):
        import itertools
        from collections import Counter

        from finitetopo import mapper

        calls = []

        def counting(grid, sub):
            calls.append(sub.members)
            return epsilon_components(grid, sub)

        monkeypatch.setattr(mapper, "epsilon_components", counting)
        pc, f, ic = figure_eight_sample(), parse_filter("x"), IntervalCover(6, 0.6)
        parts = mapper_completion(pc, f, ic, 0.2).parts
        intersections = [
            frozenset.intersection(*(parts[n] for n in group))
            for k in range(1, len(parts) + 1)
            for group in itertools.combinations(sorted(parts), k)
        ]
        assert Counter(calls) == Counter(w for w in intersections if w)

    @pytest.mark.parametrize("cloud", ["circle-60", "figure-eight-80"])
    def test_pipeline_turns_no_mask_into_names_and_back(self, cloud, monkeypatch):
        """Each part is built once from its points' identifiers; from there
        on parts, intersections and components stay masks of the cloud's
        discrete poset: no other mask is built from names, and no mask of
        that poset is spelled out as names."""
        fixture = fx.get_fixture(cloud)
        pc, params = fixture.build(), fixture.params
        names, mask_of = Poset._names, Poset._mask_of
        built = []

        def counted_mask_of(poset, members):
            built.append(len(poset))
            return mask_of(poset, members)

        def guarded_names(poset, mask):
            if len(poset) == len(pc):
                raise AssertionError("a mask of the cloud's poset was turned into names")
            return names(poset, mask)

        monkeypatch.setattr(Poset, "_mask_of", counted_mask_of)
        monkeypatch.setattr(Poset, "_names", guarded_names)
        result = mapper_completion(
            pc, parse_filter(params["filter"]), IntervalCover(params["intervals"], params["overlap"]), params["epsilon"]
        )
        assert built == [len(pc)] * len(result.parts)
        out = result.to_json_dict()
        golden = os.path.join(os.path.dirname(__file__), "golden", f"mapper-{cloud}-completion.json")
        with open(golden, encoding="utf-8") as fh:
            assert out == json.load(fh)["detail"]["mapper"]

    def test_filter_is_evaluated_once(self, monkeypatch):
        calls = []
        values = FilterSpec.values

        def counting(self, pc):
            calls.append(self)
            return values(self, pc)

        monkeypatch.setattr(FilterSpec, "values", counting)
        mapper_completion(figure_eight_sample(), parse_filter("eccentricity"), IntervalCover(4, 0.3), 0.2)
        assert len(calls) == 1

    def test_figure_eight_has_two_loops(self):
        res = mapper_completion(
            figure_eight_sample(), parse_filter("x"), IntervalCover(6, 0.3), 0.2
        )
        assert res.completion_homology.betti == (1, 2)
        assert res.nerve_homology.degree(1) == (0, ())
