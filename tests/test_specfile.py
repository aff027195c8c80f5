"""Game description files: parsing, diagnostics, round-trip."""

import math
import random
import sys
from fractions import Fraction

import pytest

from qbg import GameSpec, SpecError, parse_spec, render_spec
from qbg.engine import NORMALIZATION_TOL
from qbg.game import PureProfile, find_pure_nash

BUILTIN = """\
[game]
mode = builtin-bg
theta = 1
a = 2
b = 2
"""

CUSTOM = """\
[game]
mode = custom
row_labels = C,D
col_labels = C,D
row_payoffs = 3,0,5,1
col_payoffs = 3,5,0,1
"""

MATCHED_STATE = """\
[quantum]
prob_ll = 0.8
prob_lh = 0
prob_hl = 0
prob_hh = 0.2

[candidate]
p = 1
q = 1
"""


@pytest.fixture
def unlimited_int_digits():
    """Lift the interpreter's limit on the digits str() writes of an int."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def amplitudes_at_the_tolerance(count=8):
    """Amplitude pairs (x, y) whose squared norm x**2 + y**2 lies within the
    normalization tolerance, while x*x + y*y, whose squares can differ from
    x**2 and y**2 in the last bit, lies outside it."""
    def within(squares):
        return abs(sum(squares) - 1.0) <= NORMALIZATION_TOL

    rng = random.Random(5)
    pairs = []
    for _ in range(100_000):
        x = rng.uniform(0.1, 0.99)
        for bound in (1.0 - NORMALIZATION_TOL, 1.0 + NORMALIZATION_TOL):
            y0 = math.sqrt(bound - x ** 2)
            for y in (y0 + k * math.ulp(y0) for k in range(-4, 5)):
                if within(a ** 2 for a in (x, y)) and not within(a * a for a in (x, y)):
                    pairs.append((x, y))
                    if len(pairs) == count:
                        return pairs
                    break
    return pairs


class TestParsing:
    def test_builtin_game(self):
        spec = parse_spec(BUILTIN)
        assert spec.mode == "builtin-bg"
        assert spec.theta == 1
        assert spec.a == 2 and spec.b == 2
        game = spec.to_game()
        assert game.row_payoff(1, 0) == 1
        assert find_pure_nash(game) == {PureProfile(1, 1)}

    def test_custom_game(self):
        spec = parse_spec(CUSTOM)
        game = spec.to_game()
        assert game.row_labels == ("C", "D")
        assert game.row_payoff(1, 0) == 5
        assert game.col_payoff(0, 1) == 5

    def test_quantum_probabilities(self):
        spec = parse_spec(BUILTIN + "\n" + MATCHED_STATE)
        state = spec.to_state()
        assert state is not None
        probs = state.squared_magnitudes()
        assert probs[0] == pytest.approx(0.8)
        assert probs[3] == pytest.approx(0.2)
        candidate = spec.to_candidate()
        assert (candidate.p, candidate.q) == (1.0, 1.0)

    def test_quantum_amplitudes(self):
        text = BUILTIN + """
[quantum]
amp_ll = 0.6
amp_lh = 0
amp_hl = 0
amp_hh = 0.8
"""
        state = parse_spec(text).to_state()
        assert state.squared_magnitudes()[0] == pytest.approx(0.36)
        assert state.squared_magnitudes()[3] == pytest.approx(0.64)

    def test_amplitudes_accepted_at_the_tolerance_build_a_state(self):
        pairs = amplitudes_at_the_tolerance()
        assert len(pairs) == 8
        for x, y in pairs:
            spec = parse_spec(BUILTIN + f"[quantum]\namp_ll = {x!r}\namp_lh = 0\n"
                                        f"amp_hl = 0\namp_hh = {y!r}\n")
            assert spec.to_state().amp_ll == pytest.approx(x)

    def test_hand_built_amplitudes_are_still_checked(self):
        spec = GameSpec(mode="builtin-bg", theta=1, a=Fraction(2), b=Fraction(2),
                        amplitudes=(Fraction(1), Fraction(0), Fraction(0), Fraction(1)))
        with pytest.raises(SpecError, match=r"squared norm 2\.0, expected 1"):
            spec.to_state()

    def test_fraction_values(self):
        text = BUILTIN + """
[quantum]
prob_ll = 1/2
prob_lh = 1/4
prob_hl = 1/8
prob_hh = 1/8
"""
        spec = parse_spec(text)
        assert spec.probabilities == (Fraction(1, 2), Fraction(1, 4),
                                      Fraction(1, 8), Fraction(1, 8))

    def test_comments_and_blank_lines_ignored(self):
        text = "# header comment\n\n; another style\n" + BUILTIN
        assert parse_spec(text).mode == "builtin-bg"


class TestDiagnostics:
    def test_unknown_key_reports_line(self):
        text = BUILTIN + "volatility = 3\n"
        with pytest.raises(SpecError) as err:
            parse_spec(text)
        assert err.value.line == 6
        assert "volatility" in str(err.value)

    def test_unknown_section(self):
        with pytest.raises(SpecError, match=r"unknown section"):
            parse_spec("[garbage]\nx = 1\n")

    def test_missing_game_section(self):
        with pytest.raises(SpecError, match=r"\[game\]"):
            parse_spec("[quantum]\nprob_ll = 1\n")

    def test_missing_required_key(self):
        with pytest.raises(SpecError, match="theta"):
            parse_spec("[game]\nmode = builtin-bg\na = 2\nb = 2\n")

    def test_bad_number_reports_position(self):
        with pytest.raises(SpecError) as err:
            parse_spec("[game]\nmode = builtin-bg\ntheta = one\na = 2\nb = 2\n")
        assert err.value.line == 3
        assert err.value.column is not None

    @pytest.mark.parametrize("value", ["1e10000", "1E-10000", "25e+1_0000"])
    def test_exponent_up_to_the_limit_parses(self, value, unlimited_int_digits):
        assert parse_spec(BUILTIN.replace("a = 2", f"a = {value}")).a == Fraction(value)

    @pytest.mark.parametrize("value", ["1e10001", "1E-10001", "2.5e+1_0001",
                                       pytest.param("1e" + "9" * 5000, id="5000-digits")])
    def test_exponent_beyond_the_limit_is_refused(self, value):
        with pytest.raises(SpecError) as err:
            parse_spec(BUILTIN.replace("a = 2", f"a = {value}"))
        assert (err.value.line, err.value.column) == (4, 4)
        assert str(err.value) == (f"line 4, column 4: exponent of {value!r} exceeds "
                                  "10000 in magnitude")

    def test_exponent_in_a_number_list_reports_the_line(self):
        text = CUSTOM.replace("row_payoffs = 3,0,5,1", "row_payoffs = 3,0,5e99999,1")
        with pytest.raises(SpecError, match=r"^line 5, column 14: exponent of '5e99999'"):
            parse_spec(text)

    @pytest.mark.parametrize("value", ["x1e99999", "1e5e99999", "1/2e99999", "1e 99999"])
    def test_malformed_number_with_a_large_exponent_is_not_a_number(self, value):
        with pytest.raises(SpecError, match=r"^line 4, column 4: not a number"):
            parse_spec(BUILTIN.replace("a = 2", f"a = {value}"))

    @pytest.mark.parametrize("value", ["1e5000", "1e-5000", "-7e5000"])
    def test_more_digits_than_str_writes_is_refused(self, value):
        with pytest.raises(SpecError) as err:
            parse_spec(BUILTIN.replace("a = 2", f"a = {value}"))
        assert (err.value.line, err.value.column) == (4, 4)
        assert str(err.value) == (
            f"line 4, column 4: {value!r} has more than {sys.get_int_max_str_digits()} "
            "digits in its numerator or denominator")

    def test_duplicate_key(self):
        with pytest.raises(SpecError, match="duplicate key"):
            parse_spec(BUILTIN + "a = 3\n")

    def test_normalization_error_names_section(self):
        text = BUILTIN + """
[quantum]
prob_ll = 0.5
prob_lh = 0.2
prob_hl = 0.1
prob_hh = 0.1
"""
        with pytest.raises(SpecError, match=r"\[quantum\]"):
            parse_spec(text)

    def test_mixed_quantum_families_rejected(self):
        text = BUILTIN + "\n[quantum]\nprob_ll = 1\namp_hh = 0\n"
        with pytest.raises(SpecError, match="one family"):
            parse_spec(text)

    def test_candidate_out_of_range(self):
        text = BUILTIN + "\n[candidate]\np = 2\nq = 0\n"
        with pytest.raises(SpecError, match="p must lie"):
            parse_spec(text)

    def test_missing_value(self):
        with pytest.raises(SpecError, match="no value"):
            parse_spec("[game]\nmode =\n")

    def test_key_outside_section(self):
        with pytest.raises(SpecError, match="outside"):
            parse_spec("mode = builtin-bg\n")

    def test_custom_keys_rejected_in_builtin_mode(self):
        with pytest.raises(SpecError, match="custom mode"):
            parse_spec(BUILTIN + "row_payoffs = 1,2,3,4\n")

    def test_wrong_payoff_count(self):
        text = CUSTOM.replace("row_payoffs = 3,0,5,1", "row_payoffs = 3,0,5")
        with pytest.raises(SpecError, match="4 comma-separated"):
            parse_spec(text)


class TestRoundTrip:
    SPECS = [
        BUILTIN,
        CUSTOM,
        BUILTIN + "\n" + MATCHED_STATE,
        CUSTOM + """
[quantum]
amp_ll = 3/5
amp_lh = 0
amp_hl = 0
amp_hh = 4/5

[candidate]
p = 1/2
q = 1/3
""",
    ]

    @pytest.mark.parametrize("text", SPECS)
    def test_parse_render_parse(self, text):
        spec = parse_spec(text)
        assert parse_spec(render_spec(spec)) == spec

    def test_render_is_stable(self):
        spec = parse_spec(BUILTIN + "\n" + MATCHED_STATE)
        assert render_spec(spec) == render_spec(parse_spec(render_spec(spec)))

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_value_just_under_the_digit_limit_round_trips(self, sign):
        # the numerator (or the denominator) has exactly as many digits as str() writes
        limit = sys.get_int_max_str_digits()
        spec = parse_spec(BUILTIN.replace("a = 2", f"a = 1e{sign}{limit - 1}"))
        assert parse_spec(render_spec(spec)) == spec

    def test_fractions_survive_round_trip(self):
        spec = GameSpec(mode="builtin-bg", theta=1, a=Fraction(5, 2),
                        b=Fraction(7, 3))
        assert parse_spec(render_spec(spec)) == spec
