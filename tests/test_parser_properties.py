"""Property tests for the rule parser and serializer.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import dataclasses
import io
import itertools
import sys
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from ruleforge import (
    IDENTITY_KEYS,
    RuleforgeError,
    find_rule,
    parse_rule,
    parse_ruleset,
    serialize_rule,
)
from ruleforge.parser import (
    HEADER_ATTRIBUTES,
    ParseError,
    RuleSyntaxError,
    UnterminatedOption,
    _logical_lines,
    _may_hold_sid,
    _parse_line,
    _split_options,
)

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
# over a continuation line at any character, with blanks before the backslash.
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
    lambda line, at, blanks: line[:at] + blanks + "\\\n" + line[at:],
    SEED_LINE,
    st.integers(0, 80),
    st.sampled_from(["", " ", "  ", "\t"]),
)
COMMENT = st.sampled_from(["# alert tcp any any -> any any (sid:7;)", "  #sid:70", ""])
SEED_TEXT = st.lists(
    st.one_of(SEED_LINE, SPLIT_LINE, COMMENT, RULE_LINE), min_size=1, max_size=8
).map("\n".join)


# Rules files that reuse a few header texts and option segments, with the
# blanks around and inside them varied, so that one parse_ruleset call meets
# the same text again, or an equal record from other text. A body segment may
# read exactly as another line's header text, and some lines fail to parse.
BLANKS = st.sampled_from(["", " ", "  ", "\t"])
REUSED_HEADER = st.sampled_from(
    ["alert tcp a b -> c d", "alert udp a b -> c d", "drop tcp [1, 2] any <> $H 80",
     "alert tcp a b => c d", "alert tcp a b"]
)
REUSED_SEGMENT = st.sampled_from(
    ["flow:to_server,established", "nocase", 'content:"a;b"', "FLOW : x", "alert tcp a b -> c d",
     "alert udp a b -> c d", "sid:5", "sid:6", "rev:x", 'msg:"m"', "reference:r", ":x", ""]
)


def spaced(text: str, blanks: list[str]) -> str:
    """text with each space followed by the next of blanks in turn."""
    parts, more = text.split(" "), itertools.cycle(blanks)
    return parts[0] + "".join(" " + next(more) + part for part in parts[1:])


REUSED_LINE = st.builds(
    lambda lead, header, inside, gap, segments, end: (
        f"{lead}{spaced(header, inside)}{gap}({';'.join(segments)}{end})"
    ),
    BLANKS,
    REUSED_HEADER,
    st.lists(BLANKS, min_size=1, max_size=3),
    BLANKS,
    st.lists(st.builds("{}{}{}".format, BLANKS, REUSED_SEGMENT, BLANKS), max_size=5),
    st.sampled_from([";", "", "; "]),
)
REUSED_TEXT = st.lists(st.one_of(REUSED_LINE, REUSED_HEADER), min_size=1, max_size=10).map(
    "\n".join
)
COLLISION = "alert udp a b -> c d (alert tcp a b -> c d ;sid:5;)\nalert tcp a b -> c d (x:1;)"

# Rules files as bytes: lines that mix \n, \r\n and lone \r, quoted values that
# hold a form feed or U+2028, maybe a leading byte-order mark, a continuation
# at the end of the file, and a last line without a line end.
QUOTED_BREAK = st.builds(
    'alert tcp any any -> any any (content:"a{}b"; sid:{})'.format,
    st.sampled_from(["\x0c", "\u2028", "\x0b", "\x85", "\u2029"]),
    st.sampled_from(["7", "8"]),
)


def rules_file(bom: str, lines: list[str], ends: list[str], tail: str) -> bytes:
    """lines, each ended by the next of ends in turn, then the tail, as UTF-8."""
    text = "".join(line + end for line, end in zip(lines, itertools.cycle(ends)))
    if tail == "no line end" and lines:
        text = text[: -len(ends[(len(lines) - 1) % len(ends)])]
    elif tail == "continuation":
        text += "alert tcp any any -> any any (sid:7) \\"
    return (bom + text).encode("utf-8")


FILE_BYTES = st.builds(
    rules_file,
    st.sampled_from(["", "\ufeff"]),
    st.lists(st.one_of(SEED_LINE, SPLIT_LINE, COMMENT, RULE_LINE, QUOTED_BREAK), max_size=8),
    st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=3),
    st.sampled_from(["line end", "no line end", "continuation"]),
)


def open_text(data: bytes):
    """data as open(path, encoding="utf-8-sig") reads a file that holds it."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig")


# Physical lines for _logical_lines: blank and comment lines, continuations
# (with blanks around the backslash, an escaped backslash, a lone backslash)
# and arbitrary text, ended by \n, \r\n or \r in any mix.
PHYSICAL_LINE = st.one_of(
    st.sampled_from(
        ["", "  ", "\t", "# c", "  # c \\", "#", "a", " a b ", " b \\", "c\\ ", "\\", " \\ ",
         "x\\\\", "d \t\\", "e\\\\ \\"]
    ),
    st.text(st.sampled_from(" \t#\\ab\x0c\u2028"), max_size=6),
)
CONTINUED_TEXT = st.builds(
    lambda lines, ends: "".join(line + end for line, end in zip(lines, itertools.cycle(ends))),
    st.lists(PHYSICAL_LINE, max_size=10),
    st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=3),
).flatmap(lambda text: st.sampled_from([text, text.rstrip("\r\n")]))


@DETERMINISTIC
@given(text=CONTINUED_TEXT)
@example(text="a \\\r\n# b\r\n\r\nc")
@example(text="\\\n\\\n")
def test_logical_lines_join_as_the_two_branch_reference(text):
    assert list(_logical_lines(text)) == list(oracles.logical_lines(text))
    data = text.encode("utf-8")
    assert list(_logical_lines(open_text(data))) == list(oracles.logical_lines(open_text(data)))


@DETERMINISTIC
@given(text=st.one_of(RULES_TEXT, SEED_TEXT, REUSED_TEXT))
@example(text="alert tcp a b -> c d (SID : 1; Msg:m; REFERENCE:r; rev :2; flow:x)")
@example(text="alert tcp a b -> c d ( sid:1; msg :m; reference: r; rev:2)")
def test_no_attribute_holds_an_identity_key(text):
    """Identity options become identity fields, so no exclusion list needs to name them."""
    rules, _ = parse_ruleset(text)
    for rule in rules:
        assert not rule.attribute_keys() & IDENTITY_KEYS


@DETERMINISTIC
@given(data=FILE_BYTES, sid=st.sampled_from([7, 70, 8]))
@example(data=b"\xef\xbb\xbfalert tcp any any -> any any (sid:7)\r\r\nx\r", sid=7)
def test_an_open_file_reads_as_its_decoded_text(data, sid):
    text = data.decode("utf-8-sig")
    assert parse_ruleset(open_text(data)) == parse_ruleset(text)
    assert find_rule(open_text(data), sid) == find_rule(text, sid)


def test_a_line_end_split_between_reads_is_one_line_end(tmp_path):
    """A \\r\\n across the text reader's 8 KiB blocks, in a file on disk, ends one line."""
    good = "alert tcp any any -> any any (sid:1)"
    bad = "alert tcp any any => any any (sid:2)"
    text = "#" * 8191 + "\r\n" + good + "\r\n" + bad + "\r\n"
    assert text[8191:8193] == "\r\n"
    path = tmp_path / "split.rules"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8-sig") as handle:
        rules, errors = parse_ruleset(handle)
    assert (rules, errors) == parse_ruleset(text)
    assert [rule.sid for rule in rules] == [1]
    assert [error.line for error in errors] == [3]
    with open(path, encoding="utf-8-sig") as handle:
        assert find_rule(handle, 1) == find_rule(text, 1)


def parse_outcome(text):
    try:
        return parse_rule(text)
    except RuleforgeError as exc:
        return str(exc)


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


def parse_each_line_alone(text):
    """parse_ruleset's result, with no record shared between the lines."""
    rules, errors = [], []
    for line_no, logical in _logical_lines(text):
        try:
            rules.append(_parse_line(logical, {}, {}))
        except RuleSyntaxError as exc:
            errors.append(ParseError(line_no, str(exc)))
    return rules, errors


@DETERMINISTIC
@given(text=st.one_of(REUSED_TEXT, RULES_TEXT))
@example(text=COLLISION)
@example(text="\n".join(reversed(COLLISION.splitlines())))
def test_shared_records_parse_as_each_line_alone(text):
    """The same rules, and errors with the same lines, messages and offsets."""
    assert parse_ruleset(text) == parse_each_line_alone(text)


@DETERMINISTIC
@given(text=REUSED_TEXT)
@example(text=COLLISION)
def test_find_rule_gives_the_whole_file_parses_rule(text):
    rules, _ = parse_ruleset(text)
    for sid in {rule.sid for rule in rules}:
        if sid is not None:
            assert find_rule(text, sid)[0] == next(rule for rule in rules if rule.sid == sid)


def test_equal_header_text_and_segments_share_one_frozen_record():
    rules, errors = parse_ruleset(
        "alert tcp a b -> c d (flow:x; nocase; sid:1;)\n"
        "alert tcp a b -> c d (flow:x; nocase; sid:2;)\n"
        "alert tcp  a b -> c d (flow: x;  nocase)\n"
    )
    assert errors == []
    first, second, third = rules
    assert second.header is first.header
    assert all(b is a for a, b in zip(first.options, second.options, strict=True))
    # other text reads as equal records
    assert third.header == first.header
    assert third.options == first.options
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.header.protocol = "udp"
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.options[0].value = "y"
    assert second.header.protocol == "tcp" and second.options[0].value == "x"


@DETERMINISTIC
@given(text=SPLIT_LINE)
@example(text='alert tcp any any -> any any (content:"a \\\n   b"; sid:1;)')
def test_parse_rule_joins_lines_as_parse_ruleset_does(text):
    """A one-rule text gives parse_ruleset one rule or one error: parse_rule's."""
    rules, errors = parse_ruleset(text)
    assert [parse_outcome(text)] == rules + [error.message for error in errors]


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
@example(text="alert tcp any any -> any x\\\\")
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


@settings(DETERMINISTIC, max_examples=200)
@given(text=st.one_of(RULES_TEXT, REUSED_TEXT), donor=st.one_of(RULES_TEXT, REUSED_TEXT),
       data=st.data())
@example(
    text="alert tcp a b -> c d (content:x; flow:f; content:y; nocase; sid:1; msg:m)",
    donor="drop udp e f <> g h (content:u; content:v; pcre:p; flow:z)",
    data=None,
)
def test_with_attribute_values_inverts_attribute_values(text, donor, data):
    """Set, remove and add random keys: attribute_values() reads back what was given.

    The values come from the donor's rules, so every result serializes; a key
    set keeps its place, a removed key leaves, a new key is appended in the
    mapping's order, and the rule it was made from is unchanged.
    """
    rules, _ = parse_ruleset(text)
    pool = {}
    for rule in parse_ruleset(donor)[0]:
        pool.update(rule.attribute_values())
    for rule in rules:
        assume(not {opt.key for opt in rule.options} & set(HEADER_ATTRIBUTES))
        before = dataclasses.replace(rule)
        assert rule.with_attribute_values({}) == rule
        current = rule.attribute_values()
        keys = sorted(current.keys() | pool.keys())
        if data is None:  # the explicit example: every key set, or removed where it may be
            edits = [(key, "set" if key in pool else "remove") for key in keys]
        else:
            edits = [
                (key, data.draw(st.sampled_from(["keep", "set", "remove"])))
                for key in data.draw(st.permutations(keys))
            ]
        values = {}
        for key, edit in edits:
            if edit == "set" and key in pool:
                values[key] = pool[key]
            elif edit == "remove" and key not in HEADER_ATTRIBUTES:
                values[key] = None
        expected = dict(current)
        for key, value in values.items():
            if value is None:
                expected.pop(key, None)
            else:
                expected[key] = value
        result = rule.with_attribute_values(values)
        assert list(result.attribute_values().items()) == list(expected.items())
        assert (result.sid, result.rev, result.msg, result.references) == (
            rule.sid, rule.rev, rule.msg, rule.references
        )
        assert parse_rule(serialize_rule(result)) == result
        assert rule == before


def test_a_header_attribute_cannot_be_removed():
    rule = parse_rule("alert tcp a b -> c d (flow:x; sid:1)")
    for attr in HEADER_ATTRIBUTES:
        with pytest.raises(ValueError, match=attr):
            rule.with_attribute_values({attr: None})
    assert rule.with_attribute_values({"absent": None}) == rule
