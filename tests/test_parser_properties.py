"""Property tests for the rule parser and serializer.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import itertools
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ruleforge import RuleforgeError, find_rule, parse_rule, parse_ruleset, serialize_rule
from ruleforge.parser import UnterminatedOption, _may_hold_sid, _split_options

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

# Rules files that probe find_rule's line filter. Sid segments come in the
# forms int() accepts (zero-padded, signed, with '_', in Arabic-Indic digits,
# upper case, blank-padded, last with no ';'), and sid text also stands where
# no sid segment is: in quoted values, after an escaped ';', in comments.
# Lines may carry two sid segments, fail to parse, repeat a sid, or be split
# over a continuation line at any character.
SID_SEGMENT = st.sampled_from(
    ["sid:7", "SID : 0007", "sid:+7", "sid:\u0667", "sId:\t 7 ", "sid:7_0", "sid:\u0667\u0660",
     "sid:70", "sid:8", "sid:x7", "sid:"]
)
OTHER_SEGMENT = st.sampled_from(
    ['msg:"sid:7"', 'content:"a;sid:70;"', 'msg:"(sid:7)"', "flow:a\\;sid:7", "rev:1",
     "nocase", "rev:x", 'msg:"unclosed']
)
SEED_LINE = st.builds(
    lambda header, segments, end: f"{header} ({'; '.join(segments)}{end})",
    st.sampled_from(
        ["alert tcp any any -> any any", "drop udp $H 53 <> any [1, 2]", "alert tcp any => any any"]
    ),
    st.lists(st.one_of(OTHER_SEGMENT, SID_SEGMENT), min_size=1, max_size=4),
    st.sampled_from([";", ""]),
)
SPLIT_LINE = st.builds(
    lambda line, at: line[:at] + "\\\n" + line[at:], SEED_LINE, st.integers(0, 80)
)
COMMENT = st.sampled_from(["# alert tcp any any -> any any (sid:7;)", "  #sid:70", ""])
SEED_TEXT = st.lists(
    st.one_of(SEED_LINE, SPLIT_LINE, COMMENT, RULE_LINE), min_size=1, max_size=8
).map("\n".join)


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
@given(text=SEED_TEXT, sid=st.sampled_from([7, 70, 8]))
@example(text="alert tcp any any -> any any (sid:\\\n 7)", sid=7)
@example(text="alert ip a b -> c d (sid:7; SID:8)\nalert ip any any -> any any (sid:7)", sid=7)
def test_find_rule_agrees_with_the_whole_file_parse(text, sid):
    rule, errors = find_rule(text, sid)
    expected = oracles.find_rule(text, sid)
    assert rule == expected
    # the errors reported are some of the file's, in file order
    assert errors == [error for error in parse_ruleset(text)[1] if error in errors]


def test_sid_line_filter_reads_case_and_blanks_as_parse_rule_does():
    """parse_rule lowers a key and strips blanks with str methods; every
    character those methods turn into a letter of 'sid', or strip, must pass
    the filter in that place."""
    for char in map(chr, range(sys.maxunicode + 1)):
        lowered = char.lower()
        if lowered in ("s", "i", "d", "si", "id", "sid"):
            assert len(lowered) == 1
            assert _may_hold_sid("(" + "sid".replace(lowered, char) + ":7)", 7)
        if char.isspace():
            assert _may_hold_sid(f"x ;{char}sid{char}:{char}7{char})", 7)


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
