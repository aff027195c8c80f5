"""Game description files: parsing, diagnostics, repr round trip."""

import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qbg import GameSpec, MixingProfile, QuantumInitialState, SpecError, parse_spec
from qbg.engine import (NORMALIZATION_TOL, PayoffVector, _squared_magnitude,
                        payoff_vectors_from_game)
from qbg.specfile import _to_float
from qbg.game import PolicyParams, PureProfile, build_bg_game, find_pure_nash

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

PROB_STATE = """
[quantum]
prob_ll = 0.4
prob_lh = 0.1
prob_hl = 0.2
prob_hh = 0.3
"""

AMP_STATE = """
[quantum]
amp_ll = 0.6
amp_lh = 0
amp_hl = 0
amp_hh = 0.8
"""

CANDIDATE = """
[candidate]
p = 1/2
q = 1
"""


@pytest.fixture
def unlimited_int_digits():
    """Lift the interpreter's limit on the digits str() writes of an int."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def amplitudes_at_the_tolerance(count=4):
    """Amplitude pairs (x, y) at the normalization tolerance on which the two
    ways of squaring disagree: ``count`` pairs whose squared norm
    x**2 + y**2 lies within the tolerance while x*x + y*y lies outside it,
    then ``count`` pairs the other way round."""
    def within(squares):
        return abs(sum(squares) - 1.0) <= NORMALIZATION_TOL

    rng = random.Random(5)
    found = {False: [], True: []}   # keyed by whether x*x + y*y is within
    for _ in range(100_000):
        x = rng.uniform(0.1, 0.99)
        for bound in (1.0 - NORMALIZATION_TOL, 1.0 + NORMALIZATION_TOL):
            y0 = math.sqrt(bound - x ** 2)
            for y in (y0 + k * math.ulp(y0) for k in range(-4, 5)):
                products = within(a * a for a in (x, y))
                if within(a ** 2 for a in (x, y)) != products:
                    if len(found[products]) < count:
                        found[products].append((x, y))
                    break
        if all(len(pairs) == count for pairs in found.values()):
            break
    return found[False] + found[True]


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
        # at the edge, parse_spec decides by the squares the oracle's state
        # is normalized from, x*x + 0*0 (not x**2, which can round apart)
        pairs = amplitudes_at_the_tolerance()
        assert len(pairs) == 8
        for x, y in pairs:
            text = (BUILTIN + f"[quantum]\namp_ll = {x!r}\namp_lh = 0\n"
                              f"amp_hl = 0\namp_hh = {y!r}\n")
            squares = [_squared_magnitude(complex(a)) for a in (x, 0.0, 0.0, y)]
            total = squares[0] + squares[1] + squares[2] + squares[3]
            if abs(total - 1.0) <= NORMALIZATION_TOL:
                spec = parse_spec(text)
                assert spec._weights() == squares
                assert spec.to_state().amp_ll == pytest.approx(x)
            else:
                with pytest.raises(SpecError, match=f"squared norm {re.escape(repr(total))},"):
                    parse_spec(text)

    def test_hand_built_amplitudes_are_still_checked(self):
        spec = GameSpec(mode="builtin-bg", theta=1, a=Fraction(2), b=Fraction(2),
                        amplitudes=(Fraction(1), Fraction(0), Fraction(0), Fraction(1)))
        with pytest.raises(SpecError, match=r"squared norm 2\.0, expected 1"):
            spec.to_state()

    @pytest.mark.parametrize("theta, a, b", [
        (2, Fraction(2), Fraction(2)), (1, Fraction(0), Fraction(2)),
        (0, Fraction(2), Fraction(-1)), (1, math.inf, 2.0), (1, 2.0, math.nan), (1, None, 2),
    ])
    def test_hand_built_bg_fields_fail_as_policy_params_does(self, theta, a, b):
        # the table is worked out without building PolicyParams, under its rule
        with pytest.raises(Exception) as expected:
            PolicyParams(theta=theta, a=a, b=b)
        spec = GameSpec(mode="builtin-bg", theta=theta, a=a, b=b)
        for build in (spec.payoff_vectors, spec.to_game):
            with pytest.raises(type(expected.value)) as got:
                build()
            assert str(got.value) == str(expected.value)

    def test_hand_built_float_fields_convert_like_fractions(self):
        # dyadic floats equal their fractions exactly, so every conversion agrees
        exact = GameSpec(mode="builtin-bg", theta=1, a=Fraction(2), b=Fraction(1, 2),
                         probabilities=(Fraction(1, 4),) * 4,
                         candidate=(Fraction(1, 2), Fraction(1)))
        spec = exact._replace(a=2.0, b=0.5, probabilities=(0.25,) * 4, candidate=(0.5, 1.0))
        assert spec.payoff_vectors() == exact.payoff_vectors()
        assert spec.to_state() == exact.to_state()
        assert spec.to_candidate() == exact.to_candidate()
        custom = GameSpec(mode="custom", row_payoffs=(1.5, -2.0, 0.0, 3.25),
                          col_payoffs=(0.5, 1.0, -1.0, 2.0))
        assert custom.payoff_vectors() == (PayoffVector(1.5, -2.0, 0.0, 3.25),
                                           PayoffVector(0.5, 1.0, -1.0, 2.0))

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


# the least value a float division rounds up to infinity: 2**1024 less half an ulp
FLOAT_OVERFLOW = 2 ** 1024 - 2 ** 970
RATIONALS = st.builds(Fraction, st.integers(1, 10 ** 200), st.integers(1, 10 ** 200))


def bits(vectors):
    return [[value.hex() for value in vector] for vector in vectors]


def typed_cells(game):
    return [(value, type(value)) for row in game.payoffs for cell in row for value in cell]


class TestTables:
    """The spec's tables against the game module's: exact cells of one type, and
    vectors bit for bit, signed zeros included."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([0, 1]),
           st.one_of(RATIONALS, st.floats(min_value=5e-324, allow_infinity=False)),
           st.one_of(RATIONALS, st.floats(min_value=5e-324, allow_infinity=False)))
    @example(1, Fraction(1), Fraction(math.isqrt(FLOAT_OVERFLOW - 1)))   # b*b fits, above 2**1019
    @example(1, Fraction(1), Fraction(math.isqrt(FLOAT_OVERFLOW - 1) + 1))   # and overflows
    @example(1, Fraction(1), Fraction(1, 2 ** 537))   # the cost ties between 0 and 2**-1074
    @example(0, Fraction(1), Fraction(1, 3 * 2 ** 530))   # subnormal cells
    @example(0, Fraction(10 ** 200), Fraction(1, 10 ** 200))   # every cell a zero
    @example(0, 2.0 ** -1023, Fraction(1))   # row cells above 2**1019, column cells overflow
    def test_builtin_table_is_build_bg_game(self, theta, a, b):
        # float fields are taken exactly, so the reference is built from their fractions
        spec = GameSpec(mode="builtin-bg", theta=theta, a=a, b=b)
        reference = build_bg_game(PolicyParams(theta=theta, a=Fraction(a), b=Fraction(b)))
        try:   # every cell first: one beyond the float range refuses the whole table
            [float(value) for row in reference.payoffs for cell in row for value in cell]
        except OverflowError:
            for convert in (spec.payoff_vectors, spec.to_game):
                with pytest.raises(SpecError, match="^the builtin-bg payoffs for these a and b "
                                                    "exceed the float range$"):
                    convert()
            return
        try:
            expected = bits(payoff_vectors_from_game(reference))
        except ValueError as exc:
            # a cell beyond PayoffVector's 2**1019 bound: the vectors are refused
            # alike, and the exact table is still the game's
            with pytest.raises(ValueError) as refused:
                spec.payoff_vectors()
            assert (type(refused.value), str(refused.value)) == (type(exc), str(exc))
            assert spec.to_game() == reference
            return
        assert bits(spec.payoff_vectors()) == expected
        game = spec.to_game()
        assert game == reference
        assert typed_cells(game) == typed_cells(reference)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.builds(lambda v, negate: -v if negate else v, RATIONALS, st.booleans()),
                    min_size=8, max_size=8))
    def test_custom_vectors_are_the_games(self, values):
        spec = GameSpec(mode="custom", row_payoffs=tuple(values[:4]),
                        col_payoffs=tuple(values[4:]))
        assert bits(spec.payoff_vectors()) == bits(payoff_vectors_from_game(spec.to_game()))


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
        quoted = value if len(value) <= 80 else value[:80] + "..."   # the quote limit
        assert str(err.value) == (f"line 4, column 4: exponent of {quoted!r} exceeds "
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

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_value_just_under_the_digit_limit_has_a_repr(self, sign):
        # the numerator (or the denominator) has exactly as many digits as
        # str() writes, so the spec's repr, which writes a Fraction's ints
        # with str(), still reads back
        limit = sys.get_int_max_str_digits()
        spec = parse_spec(BUILTIN.replace("a = 2", f"a = 1e{sign}{limit - 1}"))
        assert eval(repr(spec), {"GameSpec": GameSpec, "Fraction": Fraction}) == spec

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

    @pytest.mark.parametrize("text, message", [
        ("[game\n", "line 1, column 5: unterminated section header"),
        ("[garbage]\nx = 1\n", "line 1: unknown section [garbage]"),
        ("[game]\n[game]\n", "line 2: duplicate section [game]"),
        ("[game]\nmode\n", "line 2: expected 'key = value', got 'mode'"),
        ("mode = custom\n[game]\n", "line 1: key outside any [section]"),
        ("[game]\n = 1\n", "line 2: empty key"),
        ("[game]\nmode =\n", "line 2, column 7: key 'mode' has no value"),
        (BUILTIN + "a = 3\n", "line 6: duplicate key 'a' in [game]"),
        (BUILTIN.replace("theta = 1", "theta = one"), "line 3, column 8: not a number: 'one'"),
        (BUILTIN.replace("a = 2", "a = 1e10001"),
         "line 4, column 4: exponent of '1e10001' exceeds 10000 in magnitude"),
        (BUILTIN.replace("a = 2", "a = 1e5000"),
         f"line 4, column 4: '1e5000' has more than {sys.get_int_max_str_digits()} digits "
         "in its numerator or denominator"),
        (CUSTOM.replace("row_labels = C,D", "row_labels = C"),
         "line 3, column 13: expected two comma-separated labels, got 'C'"),
        (CUSTOM.replace("col_payoffs = 3,5,0,1", "col_payoffs = 3,5,0"),
         "line 6, column 14: expected 4 comma-separated numbers, got '3,5,0'"),
        (PROB_STATE.lstrip(), "missing required section [game]"),
        (BUILTIN + "volatility = 3\n", "line 6: unknown key 'volatility' in [game]"),
        ("[game]\ntheta = 1\n", "missing key 'mode' in [game]"),
        ("[game]\nmode = bg\n",
         "line 2, column 7: mode must be 'builtin-bg' or 'custom', got 'bg'"),
        (BUILTIN.replace("a = 2\n", ""), "builtin-bg mode requires key 'a' in [game]"),
        (BUILTIN + "col_labels = C,D\n", "line 6: key 'col_labels' is only valid in custom mode"),
        (BUILTIN.replace("theta = 1", "theta = 1/2"),
         "line 3, column 8: theta must be 0 or 1, got '1/2'"),
        (BUILTIN.replace("b = 2", "b = -0"), "line 5, column 4: b must be positive"),
        (CUSTOM.replace("row_payoffs = 3,0,5,1\n", ""),
         "custom mode requires key 'row_payoffs' in [game]"),
        (CUSTOM + "theta = 1\n", "line 7: key 'theta' is only valid in builtin-bg mode"),
        (BUILTIN + PROB_STATE + "prob_xx = 0\n", "line 12: unknown key 'prob_xx' in [quantum]"),
        (BUILTIN + PROB_STATE + "amp_ll = 1\n",
         "[quantum] mixes prob_* and amp_* keys; use one family"),
        (BUILTIN + "\n[quantum]\n", "[quantum] section is empty"),
        (BUILTIN + PROB_STATE.replace("prob_hl = 0.2\n", ""),
         "[quantum] is missing key 'prob_hl'"),
        (BUILTIN + PROB_STATE.replace("prob_hh = 0.3", "prob_hh = -0.3"),
         "line 11, column 10: prob_hh must be nonnegative"),
        (BUILTIN + PROB_STATE.replace("prob_hl = 0.2", "prob_hl = 1e400"),
         "line 10, column 10: prob_hl exceeds the float range"),
        (BUILTIN + PROB_STATE.replace("prob_hh = 0.3", "prob_hh = 0.2"),
         "[quantum] squared magnitudes sum to 0.8999999999999999, expected 1"),
        (BUILTIN + AMP_STATE.replace("amp_hh = 0.8", "amp_hh = -1e400"),
         "line 11, column 9: amp_hh exceeds the float range"),
        (BUILTIN + AMP_STATE.replace("amp_hh = 0.8", "amp_hh = 0.7"),
         "[quantum] amplitudes have squared norm 0.8499999999999999, expected 1"),
        (BUILTIN + AMP_STATE.replace("amp_ll = 0.6", "amp_ll = 1e200"),
         "[quantum] amplitudes have squared norm inf, expected 1"),
        (BUILTIN + CANDIDATE + "r = 0\n", "line 10: unknown key 'r' in [candidate]"),
        (BUILTIN + CANDIDATE.replace("q = 1\n", ""), "[candidate] is missing key 'q'"),
        (BUILTIN + CANDIDATE.replace("q = 1", "q = 3/2"), "line 9, column 4: q must lie in [0, 1]"),
        (CUSTOM.replace("col_payoffs = 3,5,0,1", "col_payoffs = 3,5,0,-2e308"),
         "line 6, column 14: col_payoffs exceeds the float range"),
        # the first unknown key in file order; foreign keys in the other mode's order
        (BUILTIN + "zeta = 1\nalpha = 2\n", "line 6: unknown key 'zeta' in [game]"),
        (BUILTIN + "col_payoffs = 1,2,3,4\nrow_labels = A,B\n",
         "line 7: key 'row_labels' is only valid in custom mode"),
        (BUILTIN.replace("a = 2", "a = -1/0"), "line 4, column 4: not a number: '-1/0'"),
    ], ids=["unterminated-header", "unknown-section", "duplicate-section", "no-equals",
            "key-outside-section", "empty-key", "no-value", "duplicate-key", "not-a-number",
            "exponent", "digits", "labels", "number-count", "missing-game", "unknown-game-key",
            "missing-mode", "bad-mode", "builtin-requires", "only-custom", "theta", "positive",
            "custom-requires", "only-builtin", "unknown-quantum-key", "mixed-families",
            "empty-quantum", "missing-quantum-key", "negative-weight", "weight-overflow",
            "weight-sum", "amplitude-overflow", "amplitude-norm", "amplitude-square-overflow",
            "unknown-candidate-key", "missing-candidate-key", "candidate-range",
            "payoff-overflow", "first-unknown-key", "first-foreign-key",
            "negative-zero-denominator"])
    def test_each_refusal_reads_exactly(self, text, message):
        with pytest.raises(SpecError) as err:
            parse_spec(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, long, message", [
        ("[{}]\n", "s" * 1000, "line 1: unknown section [{}]"),
        ("[game]\n{}\n", "m" * 1000, "line 2: expected 'key = value', got {!r}"),
        ("[game]\n{} =\n", "k" * 1000, "line 2, column 1003: key {!r} has no value"),
        ("[game]\n{0} = 1\n{0} = 2\n", "k" * 1000, "line 3: duplicate key {!r} in [game]"),
        (BUILTIN + "{} = 1\n", "k" * 1000, "line 6: unknown key {!r} in [game]"),
        (BUILTIN.replace("theta = 1", "theta = {}"), "o" * 1000,
         "line 3, column 8: not a number: {!r}"),
        (BUILTIN.replace("a = 2", "a = {}"), "1e" + "9" * 1000,
         "line 4, column 4: exponent of {!r} exceeds 10000 in magnitude"),
        (BUILTIN.replace("a = 2", "a = {}"), "1" * 100 + "e5000",
         "line 4, column 4: {!r} has more than %d digits in its numerator or denominator"
         % sys.get_int_max_str_digits()),
        (CUSTOM.replace("row_labels = C,D", "row_labels = {}"), "C" * 1000,
         "line 3, column 13: expected two comma-separated labels, got {!r}"),
        (CUSTOM.replace("col_payoffs = 3,5,0,1", "col_payoffs = {}"), "3," * 500 + "1",
         "line 6, column 14: expected 4 comma-separated numbers, got {!r}"),
        (BUILTIN.replace("builtin-bg", "{}"), "b" * 1000,
         "line 2, column 7: mode must be 'builtin-bg' or 'custom', got {!r}"),
        (BUILTIN.replace("theta = 1", "theta = {}"), "1" + "0" * 999,
         "line 3, column 8: theta must be 0 or 1, got {!r}"),
    ], ids=["unknown-section", "no-equals", "no-value", "duplicate-key", "unknown-key",
            "not-a-number", "exponent", "digits", "labels", "number-count", "bad-mode",
            "theta"])
    def test_each_message_quotes_at_most_80_characters(self, text, long, message):
        # the quoted text is cut to its first 80 characters, marked "..."
        with pytest.raises(SpecError) as err:
            parse_spec(text.format(long))
        assert str(err.value) == message.format(long[:80] + "...")

    @pytest.mark.parametrize("amp, message", [
        (10 ** 200, "[quantum] amplitudes have squared norm inf, expected 1"),
        (10 ** 400, "amp_ll exceeds the float range"),
    ], ids=["square", "value"])
    def test_hand_built_amplitudes_beyond_the_float_range_are_refused(self, amp, message):
        # the square 1e200 ** 2 is inf; 10**400 itself is no float.  A
        # hand-built spec meets parse_spec's rule, and gets its messages
        # without a line
        spec = GameSpec(mode="builtin-bg", theta=1, a=2, b=2,
                        amplitudes=(Fraction(amp), 0, 0, 0))
        with pytest.raises(SpecError) as err:
            spec.to_state()
        assert str(err.value) == message


class TestRoundTrip:
    """A parsed or hand-built spec reads back from its repr, Fractions and all."""

    SPECS = [BUILTIN, CUSTOM, BUILTIN + "\n" + MATCHED_STATE, CUSTOM + AMP_STATE + CANDIDATE]

    @staticmethod
    def read_back(spec):
        return eval(repr(spec), {"GameSpec": GameSpec, "Fraction": Fraction})

    @pytest.mark.parametrize("text", SPECS)
    def test_parse_repr_eval(self, text):
        spec = parse_spec(text)
        assert self.read_back(spec) == spec

    def test_hand_built_fractions_survive(self):
        spec = GameSpec(mode="builtin-bg", theta=1, a=Fraction(5, 2), b=Fraction(7, 3))
        back = self.read_back(spec)
        assert back == spec
        assert (type(back.a), type(back.b)) == (Fraction, Fraction)


def float_outcome(convert, value):
    """What ``convert(value)`` gives: a float's bits, or the error it raises."""
    try:
        return convert(value).hex()
    except OverflowError as exc:
        return ("OverflowError", str(exc))


def record_bits(record):
    """Every number of a state, vector or profile, as (type, bits)."""
    return [(type(x), complex(x).real.hex(), complex(x).imag.hex()) for x in record]


class TestFloatConversion:
    """``_to_float`` is ``float()``, bit for bit and error for error, and the
    spec's conversions give what converting each field with ``float()`` gives."""

    EDGES = [Fraction(10 ** 400, 7), -Fraction(10 ** 400, 7), Fraction(1, 10 ** 320),
             -Fraction(1, 10 ** 320), Fraction(1, 10 ** 400), Fraction(FLOAT_OVERFLOW),
             Fraction(FLOAT_OVERFLOW - 1), -Fraction(FLOAT_OVERFLOW), Fraction(0),
             Fraction(-1, 3), Fraction(2 ** 53 + 1), Fraction(3, 2 ** 1075), 7, -(10 ** 400),
             0.1, -0.0, math.inf]

    def test_each_value_converts_as_float_does(self):
        rng = random.Random(31)
        values = self.EDGES + [Fraction(rng.randrange(-10 ** rng.randrange(1, 400),
                                                      10 ** rng.randrange(1, 400)),
                                        rng.randrange(1, 10 ** rng.randrange(1, 400)))
                               for _ in range(2000)]
        for value in values:
            assert float_outcome(_to_float, value) == float_outcome(float, value), value
        assert float_outcome(_to_float, Fraction(10 ** 400, 7))[0] == "OverflowError"

    @pytest.mark.parametrize("kind", [int, float, Fraction])
    def test_hand_built_fields_give_float_of_each_field(self, kind):
        rng = random.Random(37)
        for _ in range(200):
            weights = [rng.randrange(0, 8) for _ in range(4)]
            weights[rng.randrange(4)] += 1
            if kind is int:
                probabilities = [0, 0, 0, 0]
                probabilities[rng.randrange(4)] = 1
                amplitudes = [0, 0, 0, 0]
                amplitudes[rng.randrange(4)] = rng.choice([1, -1])
                candidate = (rng.randrange(2), rng.randrange(2))
            else:
                probabilities = [kind(Fraction(w, sum(weights))) for w in weights]
                norm = math.sqrt(sum(w * w for w in weights))
                amplitudes = [kind(Fraction(w / norm)) for w in weights]
                candidate = (kind(Fraction(rng.randrange(8), 7)),
                             kind(Fraction(rng.randrange(3), 2)))
            payoffs = [kind(Fraction(rng.randrange(-40, 41), rng.randrange(1, 9)))
                       if kind is not int else rng.randrange(-9, 10) for _ in range(8)]
            spec = GameSpec(mode="custom", row_payoffs=tuple(payoffs[:4]),
                            col_payoffs=tuple(payoffs[4:]), probabilities=tuple(probabilities),
                            candidate=candidate)
            assert record_bits(spec.to_state()) == record_bits(
                QuantumInitialState.from_probabilities(*map(float, probabilities)))
            amp_spec = spec._replace(probabilities=None, amplitudes=tuple(amplitudes))
            assert record_bits(amp_spec.to_state()) == record_bits(
                QuantumInitialState.normalized(*map(float, amplitudes)))
            assert [record_bits(v) for v in spec.payoff_vectors()] == [
                record_bits(PayoffVector(*map(float, payoffs[:4]))),
                record_bits(PayoffVector(*map(float, payoffs[4:])))]
            assert record_bits(spec.to_candidate()) == record_bits(
                MixingProfile(*map(float, candidate)))
