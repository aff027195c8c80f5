"""Classical game: utilities, table builder, equilibria, dominance."""

from fractions import Fraction

import numpy as np
import pytest

from qbg import (
    BimatrixGame,
    InflationProfile,
    PolicyParams,
    build_bg_game,
    find_dominated_rows,
    find_pure_nash,
    optimal_discretionary_inflation,
    policy_utility,
    public_utility,
)
from qbg.game import DominatedRow, PureProfile

WEAK = PolicyParams(theta=1, a=2, b=2)
STRONG = PolicyParams(theta=0, a=2, b=2)

WEAK_TABLE = (((0, 0), (-2, -1)), ((1, -1), (-1, 0)))
STRONG_TABLE = (((0, 0), (0, -1)), ((-1, -1), (-1, 0)))


def make_game(row, col):
    """2x2 game from two flat payoff lists in row-major cell order."""
    payoffs = tuple(tuple((row[2 * r + c], col[2 * r + c]) for c in (0, 1))
                    for r in (0, 1))
    return BimatrixGame(("L", "H"), ("L", "H"), payoffs)


class TestUtilities:
    def test_policy_utility_surprise_inflation(self):
        assert policy_utility(InflationProfile(1, 0), WEAK) == 1

    def test_policy_utility_zero_profile(self):
        assert policy_utility(InflationProfile(0, 0), WEAK) == 0

    def test_policy_utility_strong_type_pays_cost_only(self):
        assert policy_utility(InflationProfile(1, 1), STRONG) == -1

    def test_policy_utility_exact_for_exact_inputs(self):
        value = policy_utility(InflationProfile(1, 0), PolicyParams(1, 3, 2))
        assert isinstance(value, Fraction)
        assert value == Fraction(1, 2)

    def test_public_utility_forecast_errors(self):
        assert public_utility(InflationProfile(1, 0)) == -1
        assert public_utility(InflationProfile(0, 1)) == -1

    def test_public_utility_zero_iff_correct_forecast(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x, y = rng.normal(size=2)
            assert public_utility(InflationProfile(x, x)) == 0
            value = public_utility(InflationProfile(x, y))
            assert value <= 0
            if x != y:
                assert value < 0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            PolicyParams(theta=2, a=2, b=2)
        with pytest.raises(ValueError):
            PolicyParams(theta=1, a=0, b=2)
        with pytest.raises(ValueError):
            PolicyParams(theta=1, a=2, b=-1)


class TestOptimalInflation:
    def test_weak_normalized(self):
        assert optimal_discretionary_inflation(WEAK) == 1

    def test_strong_commits_to_zero(self):
        assert optimal_discretionary_inflation(STRONG) == 0

    def test_matches_grid_scan(self):
        # independent oracle: maximize the utility over a fine grid
        params = PolicyParams(theta=1, a=4, b=2)
        grid = np.linspace(0.0, 3.0, 60001)
        values = [policy_utility(InflationProfile(float(x), 0.0), params)
                  for x in grid]
        best = grid[int(np.argmax(values))]
        claimed = optimal_discretionary_inflation(params)
        assert claimed == Fraction(1, 2)
        assert abs(float(claimed) - best) < 1e-4


class TestTableBuilder:
    def test_weak_table_exact(self):
        game = build_bg_game(WEAK)
        for r in (0, 1):
            for c in (0, 1):
                assert game.row_payoff(r, c) == WEAK_TABLE[r][c][0]
                assert game.col_payoff(r, c) == WEAK_TABLE[r][c][1]

    def test_strong_table_exact(self):
        game = build_bg_game(STRONG)
        for r in (0, 1):
            for c in (0, 1):
                assert game.row_payoff(r, c) == STRONG_TABLE[r][c][0]
                assert game.col_payoff(r, c) == STRONG_TABLE[r][c][1]

    def test_labels(self):
        game = build_bg_game(WEAK)
        assert game.row_labels == ("L", "H")
        assert game.col_labels == ("L", "H")

    def test_cells_match_direct_evaluation(self):
        # every cell re-derived from the utility functions at the grid points
        # {0, b/a}, the optimal discretionary inflation of each type; repr
        # pins a float's bits and the sign of a zero
        coefficients = [
            (2, 4), (3, 2), (5, 3),                        # int
            (Fraction(3, 7), Fraction(5, 11)),             # Fraction
            (0.3, 0.7), (2.5, 1e-3), (1e-200, 1e-150),     # float
            (Fraction(2, 3), 0.1), (0.7, Fraction(1, 3)),  # mixed
            (2.0, 5e-324),                                 # b/a underflows to 0.0
            (1e150, 1e-100),                               # a*h*h/2 underflows to 0.0
        ]
        for theta in (0, 1):
            for a, b in coefficients:
                params = PolicyParams(theta, a, b)
                game = build_bg_game(params)
                levels = (optimal_discretionary_inflation(PolicyParams(0, a, b)),
                          optimal_discretionary_inflation(PolicyParams(1, a, b)))
                for r, actual in enumerate(levels):
                    for c, expected in enumerate(levels):
                        profile = InflationProfile(actual, expected)
                        for cell, utility in (
                                (game.row_payoff(r, c), policy_utility(profile, params)),
                                (game.col_payoff(r, c), public_utility(profile))):
                            assert type(cell) is type(utility), (params, r, c)
                            assert repr(cell) == repr(utility), (params, r, c)

    def test_infinite_high_level_is_refused(self):
        with pytest.raises(ValueError, match="inflation rates must be finite"):
            build_bg_game(PolicyParams(1, 1e-300, 1e300))


class TestPureNash:
    def test_weak_game(self):
        assert find_pure_nash(build_bg_game(WEAK)) == {PureProfile(1, 1)}

    def test_strong_game(self):
        assert find_pure_nash(build_bg_game(STRONG)) == {PureProfile(0, 0)}

    def test_zero_game_everything_is_nash(self):
        game = make_game([0, 0, 0, 0], [0, 0, 0, 0])
        assert len(find_pure_nash(game)) == 4

    def test_matches_brute_force_on_random_games(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            row = rng.uniform(-5, 5, size=4)
            col = rng.uniform(-5, 5, size=4)
            game = make_game(list(row), list(col))
            expected = set()
            for r in (0, 1):
                for c in (0, 1):
                    if (row[2 * r + c] >= row[2 * (1 - r) + c]
                            and col[2 * r + c] >= col[2 * r + (1 - c)]):
                        expected.add(PureProfile(r, c))
            assert find_pure_nash(game) == expected


class TestDominance:
    def test_weak_game_low_inflation_dominated(self):
        assert find_dominated_rows(build_bg_game(WEAK)) == {DominatedRow(0, True)}

    def test_strong_game_high_inflation_dominated(self):
        assert find_dominated_rows(build_bg_game(STRONG)) == {DominatedRow(1, True)}

    def test_zero_game_no_dominance(self):
        game = make_game([0, 0, 0, 0], [0, 0, 0, 0])
        assert find_dominated_rows(game) == frozenset()

    def test_weak_dominance_flagged(self):
        game = make_game([0, 1, 0, 0], [0, 0, 0, 0])
        assert find_dominated_rows(game) == {DominatedRow(1, False)}

    def test_strictly_dominated_row_never_in_nash(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            row = rng.uniform(-5, 5, size=4)
            col = rng.uniform(-5, 5, size=4)
            game = make_game(list(row), list(col))
            strict = {d.index for d in find_dominated_rows(game) if d.strict}
            for profile in find_pure_nash(game):
                assert profile.row_index not in strict
