"""Tests for crown-stem registration: score tiers, strict thresholds,
and the assignment against a brute-force oracle and against scipy's
solver."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment as scipy_assignment

from crownclass.ingest import LEAF_ON, VEGETATION, Apex, CrownCloud, FieldStem, PointCloud
from crownclass.register import (
    Registration,
    linear_sum_assignment,
    max_score_assignment,
    pair_score,
    read_registrations,
    register_crowns,
    write_registrations,
)
from crownclass.util import InputError


def make_crown(crown_id, apex_x, apex_y, tree_height):
    points = PointCloud.from_columns(
        x=[apex_x],
        y=[apex_y],
        z=[tree_height],
        intensity=100,
        return_number=1,
        scan_angle=0.0,
        range_m=1000.0,
        season=LEAF_ON,
        pclass=VEGETATION,
        crown_id=crown_id,
    )
    return CrownCloud(
        crown_id=crown_id,
        points=points,
        apex=Apex(apex_x, apex_y, tree_height),
        tree_height=tree_height,
        width=3.0,
        area=7.0,
    )


def make_pair(hdiff, lean_deg, stem_height=20.0):
    """Crown and stem whose height ratio and lean hit given targets."""
    tree_height = stem_height * (1.0 + hdiff)
    horizontal = math.tan(math.radians(lean_deg)) * tree_height
    crown = make_crown("c", horizontal, 0.0, tree_height)
    stem = FieldStem("s", 0.0, 0.0, stem_height, "conifer", "dominant")
    return crown, stem


class TestPairScore:
    @pytest.mark.parametrize(
        "hdiff,lean,expected",
        [
            (0.05, 3.0, 100),
            (0.15, 8.0, 70),
            (0.25, 12.0, 40),
            (0.35, 2.0, 0),
            (0.02, 13.0, 40),
        ],
    )
    def test_tiers(self, hdiff, lean, expected):
        crown, stem = make_pair(hdiff, lean)
        assert pair_score(crown, stem) == expected

    @pytest.mark.parametrize(
        "hdiff,lean,expected",
        [
            (0.10, 0.0, 70),  # exactly 10% misses the strict < 0.10 tier
            (0.20, 0.0, 40),
            (0.30, 0.0, 0),
            (0.0, 5.01, 70),
            (0.0, 10.01, 40),
            (0.0, 15.01, 0),
        ],
    )
    def test_thresholds_are_strict(self, hdiff, lean, expected):
        crown, stem = make_pair(hdiff, lean)
        assert pair_score(crown, stem) == expected

    def test_translation_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            hdiff = float(rng.uniform(0, 0.4))
            lean = float(rng.uniform(0, 20))
            crown, stem = make_pair(hdiff, lean)
            base = pair_score(crown, stem)
            dx, dy = rng.uniform(-500, 500, 2)
            moved_crown = make_crown(
                "c", crown.apex.x + dx, crown.apex.y + dy, crown.tree_height
            )
            moved_stem = FieldStem(
                "s", stem.x + dx, stem.y + dy, stem.height, "conifer", "dominant"
            )
            assert pair_score(moved_crown, moved_stem) == base

    def test_non_positive_height_rejected(self):
        crown, stem = make_pair(0.05, 3.0)
        dead_stem = FieldStem("s", 0.0, 0.0, 0.0, "conifer", "dominant")
        with pytest.raises(ValueError, match="non-positive height"):
            pair_score(crown, dead_stem)


def brute_force_total(scores):
    """Best total over all one-to-one assignments, zero cells unmatched.

    Pads to a square matrix with zero-score dummies so each permutation is
    one complete assignment.
    """
    k = max(scores.shape)
    padded = np.zeros((k, k), dtype=int)
    padded[: scores.shape[0], : scores.shape[1]] = scores
    return max(
        sum(padded[i, j] for i, j in enumerate(perm))
        for perm in itertools.permutations(range(k))
    )


class TestAssignment:
    def test_single_pair(self):
        assert max_score_assignment(np.array([[100]])) == [(0, 0)]

    def test_cross_pairing_wins(self):
        """[[100, 70], [70, 0]]: the cross pairing totals 140, beating the
        diagonal 100."""
        pairs = max_score_assignment(np.array([[100, 70], [70, 0]]))
        assert pairs == [(0, 1), (1, 0)]

    def test_all_zero_no_matches(self):
        assert max_score_assignment(np.zeros((3, 4), dtype=int)) == []

    def test_zero_cells_never_matched(self):
        scores = np.array([[100, 0], [0, 0]])
        assert max_score_assignment(scores) == [(0, 0)]

    def test_matches_brute_force(self):
        """Exact total-score equality with exhaustive enumeration on 100
        random matrices up to 7x7."""
        rng = np.random.default_rng(101)
        tiers = np.array([0, 40, 70, 100])
        for _ in range(100):
            n_rows = int(rng.integers(1, 8))
            n_cols = int(rng.integers(1, 8))
            scores = tiers[rng.integers(0, 4, size=(n_rows, n_cols))]
            pairs = max_score_assignment(scores)
            total = sum(int(scores[i, j]) for i, j in pairs)
            assert total == brute_force_total(scores)
            assert len({i for i, _ in pairs}) == len(pairs)
            assert len({j for _, j in pairs}) == len(pairs)
            assert all(scores[i, j] > 0 for i, j in pairs)

    def test_equal_total_prefers_early_pairs(self):
        scores = np.array([[100, 100], [100, 100]])
        assert max_score_assignment(scores) == [(0, 0), (1, 1)]

    def test_residual_tie_follows_the_solver_scan_order(self):
        """Two assignments tie on score (180) and on the bonus sum of cell
        indices (1 + 5 + 6 = 2 + 4 + 6); the solver's scan order takes
        the one that is not first in row-major order."""
        scores = np.array([[40, 40, 70], [40, 40, 70], [70, 0, 70]])
        value = bonus_form(scores)
        tied = ([(0, 1), (1, 2), (2, 0)], [(0, 2), (1, 1), (2, 0)])
        assert len({sum(int(value[i, j]) for i, j in pairs) for pairs in tied}) == 1
        assert sum(int(value[i, j]) for i, j in tied[0]) == brute_force_total(value)
        assert max_score_assignment(scores) == tied[1]


def bonus_form(scores):
    """The value matrix max_score_assignment maximizes: each positive
    score scaled above any bonus sum, plus a bonus falling along row-major
    cell order; zero cells stay zero."""
    n_rows, n_cols = scores.shape
    bonus = n_rows * n_cols - np.arange(n_rows * n_cols).reshape(n_rows, n_cols)
    scale = min(n_rows, n_cols) * n_rows * n_cols + 1
    return np.where(scores > 0, scores * scale + bonus, 0)


SHAPES = {
    "square": st.integers(1, 9).map(lambda n: (n, n)),
    "wide": st.tuples(st.integers(1, 8), st.integers(1, 8)).map(lambda s: (s[0], s[0] + s[1])),
    "tall": st.tuples(st.integers(1, 8), st.integers(1, 8)).map(lambda s: (s[0] + s[1], s[0])),
}


def assert_same_as_scipy(matrix, maximize):
    """A maximum is solved as the minimum of the negated matrix, the way
    max_score_assignment solves it."""
    rows, cols = linear_sum_assignment(-matrix if maximize else matrix)
    want_rows, want_cols = scipy_assignment(matrix, maximize=maximize)
    assert rows.tolist() == want_rows.tolist()
    assert cols.tolist() == want_cols.tolist()


class TestAssignmentMatchesScipy:
    """The in-repo solver returns exactly scipy's rows and columns, so
    ties resolve as they always have."""

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), maximize=st.booleans(), spread=st.sampled_from([2, 4, 1000]))
    def test_integer_matrices(self, shape, data, maximize, spread):
        """Few distinct values make ties everywhere; a wide spread few."""
        matrix = data.draw(
            arrays(np.int64, data.draw(SHAPES[shape]), elements=st.integers(-spread, spread))
        )
        assert_same_as_scipy(matrix, maximize)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bonus_form_of_tier_scores(self, shape, data):
        scores = data.draw(
            arrays(np.int64, data.draw(SHAPES[shape]), elements=st.sampled_from([0, 40, 70, 100]))
        )
        assert_same_as_scipy(bonus_form(scores), maximize=True)

    def test_plot_sized_bonus_form(self):
        rng = np.random.default_rng(29)
        scores = np.array([0, 40, 70, 100])[rng.integers(0, 4, size=(200, 180))]
        scores[rng.random(scores.shape) < 0.9] = 0
        assert_same_as_scipy(bonus_form(scores), maximize=True)
        assert_same_as_scipy(bonus_form(scores.T), maximize=True)


class TestRegisterCrowns:
    def test_matched_crown_carries_stem_label(self):
        crown, stem = make_pair(0.05, 3.0)
        assert register_crowns([crown], [stem]) == [
            Registration("c", "s", 100, "conifer", "dominant")
        ]

    def test_empty_inputs(self):
        crown, stem = make_pair(0.05, 3.0)
        assert register_crowns([], [stem]) == []
        assert register_crowns([crown], []) == []

    def test_no_duplicate_ids_in_output(self):
        rng = np.random.default_rng(19)
        crowns = [
            make_crown(f"c{i}", float(x), float(y), float(h))
            for i, (x, y, h) in enumerate(
                zip(
                    rng.uniform(0, 50, 12),
                    rng.uniform(0, 50, 12),
                    rng.uniform(10, 30, 12),
                )
            )
        ]
        stems = [
            FieldStem(f"s{j}", float(x), float(y), float(h), "deciduous", "codominant")
            for j, (x, y, h) in enumerate(
                zip(
                    rng.uniform(0, 50, 10),
                    rng.uniform(0, 50, 10),
                    rng.uniform(10, 30, 10),
                )
            )
        ]
        registrations = register_crowns(crowns, stems)
        crown_ids = [row.crown_id for row in registrations]
        stem_ids = [row.stem_id for row in registrations]
        assert crown_ids == sorted(set(crown_ids))
        assert len(stem_ids) == len(set(stem_ids))
        assert all(row.score > 0 for row in registrations)

    def test_round_trip(self, tmp_path):
        crown, stem = make_pair(0.05, 3.0)
        registrations = register_crowns([crown], [stem])
        path = tmp_path / "registrations.csv"
        write_registrations(path, registrations)
        assert read_registrations(path) == registrations

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "registrations.csv"
        path.write_text("crown_id,stem_id,score,crown_class\nc,s,100,dominant\n")
        with pytest.raises(InputError, match=r"registrations\.csv:1: header"):
            read_registrations(path)

    def test_bad_row_names_its_line(self, tmp_path):
        path = tmp_path / "registrations.csv"
        path.write_text(
            "crown_id,stem_id,score,label,crown_class\n"
            "c,s,100,conifer,dominant\n"
            "d,t,70,shrub,dominant\n"
        )
        with pytest.raises(InputError, match=r"registrations\.csv:3: unknown label"):
            read_registrations(path)

    def test_crown_registered_twice_names_its_line(self, tmp_path):
        path = tmp_path / "registrations.csv"
        path.write_text(
            "crown_id,stem_id,score,label,crown_class\n"
            "c,s,100,conifer,dominant\n"
            "\n"
            "d,t,70,deciduous,dominant\n"
            "c,u,40,deciduous,overtopped\n"
        )
        with pytest.raises(InputError, match=r"registrations\.csv:5: crown c is registered twice"):
            read_registrations(path)
