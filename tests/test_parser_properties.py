"""Property tests for the rule parser and serializer.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import itertools
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ruleforge import RuleforgeError, parse_rule, parse_ruleset, serialize_rule
from ruleforge.parser import UnterminatedOption, _split_options

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=500)

# Half of the characters are the ones the splitter treats specially.
BODY = st.text(st.one_of(st.sampled_from(';;""\\\\ \t'), st.characters()), max_size=60)

# Rules files: lines of a header, optionally with a body heavy in the body's
# special characters and option keys, mixed with arbitrary lines.
WORD = st.one_of(st.sampled_from(["any", "$HOME_NET", "[1, 2]", "80", "!x"]), st.text(max_size=3))
HEADER = st.tuples(
    st.sampled_from(["alert", "drop"]),
    st.sampled_from(["tcp", "udp", ""]),
    WORD,
    WORD,
    st.sampled_from(["->", "<>", "=>"]),
    WORD,
    WORD,
).map(" ".join)
OPTION_TEXT = st.lists(
    st.one_of(
        st.sampled_from(
            [";", '"', "\\", " ", ":", "msg:", "sid:", "rev:", "reference:", "content:", "1", "x"]
        ),
        st.text(max_size=3),
    ),
    max_size=16,
).map("".join)
RULE_LINE = st.one_of(
    st.builds("{} ({})".format, HEADER, OPTION_TEXT),
    HEADER,
    st.text(max_size=20),
)
RULES_TEXT = st.lists(RULE_LINE, max_size=6).map("\n".join)


def split_outcome(split, body, base):
    try:
        return split(body, base)
    except UnterminatedOption as exc:
        return str(exc), exc.offset


@DETERMINISTIC
@given(body=BODY, base=st.integers(0, 300))
def test_split_options_matches_the_character_loop(body, base):
    assert split_outcome(_split_options, body, base) == split_outcome(
        oracles.split_options, body, base
    )


@DETERMINISTIC
@given(text=st.one_of(RULES_TEXT, st.text()))
def test_parse_ruleset_never_raises(text):
    rules, errors = parse_ruleset(text)
    assert all(error.line >= 1 for error in errors)


@DETERMINISTIC
@given(text=RULES_TEXT)
@example(text="alert tcp any any -> any any (\\)")
@example(text="alert tcp any any -> any any (flow:a\\ ; sid:1;)")
@example(text="alert tcp any any -> any any (msg:x\\)")
@example(text='alert tcp any any -> any any (msg:"x" y\\ ; reference:r\\\t; rev:2)')
@example(text='alert tcp any any -> any any (msg:""a\\";)')
@example(text='alert tcp any any -> any any (msg:";"a)')
def test_serialize_then_parse_is_a_fixed_point(text):
    rules, _ = parse_ruleset(text)
    for rule in rules:
        assert parse_rule(serialize_rule(rule)) == rule


@pytest.mark.parametrize("key", ["msg:", "flow:", "x"])
def test_serialize_then_parse_is_a_fixed_point_on_every_short_body(key):
    for length in range(6):
        for chars in itertools.product('"\\; a', repeat=length):
            try:
                rule = parse_rule("alert tcp any any -> any any (" + key + "".join(chars) + ")")
            except RuleforgeError:
                continue
            assert parse_rule(serialize_rule(rule)) == rule


def test_unterminated_quote_fails_in_linear_time():
    body = '"' + "a" * 100_000 + "\\" * 50_000
    started = time.perf_counter()
    with pytest.raises(UnterminatedOption) as info:
        _split_options(body, 5)
    assert time.perf_counter() - started < 1.0
    assert info.value.offset == 5
