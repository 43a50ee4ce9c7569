"""Parser and serializer behavior, anchored on four published rule texts."""

import numpy as np
import pytest

import oracles
from ruleforge import (
    VALUE_JOIN,
    InvalidOptionValue,
    MalformedHeader,
    MissingSid,
    ParsedRule,
    RuleHeader,
    RuleOption,
    UnterminatedOption,
    find_rule,
    parse_rule,
    parse_ruleset,
    serialize_rule,
)


class TestPublishedRules:
    def test_extracted_identity_fields(self, published_rule_texts):
        expected_rev = {7209: 13, 14782: 12, 13162: 9, 250001: 1}
        for sid, text in published_rule_texts.items():
            rule = parse_rule(text)
            assert rule.sid == sid
            assert rule.rev == expected_rev[sid]

    def test_overflow_rule_fields(self, published_rule_texts):
        rule = parse_rule(published_rule_texts[7209])
        assert rule.header.action == "alert"
        assert rule.header.protocol == "tcp"
        assert rule.header.src_addr == "$EXTERNAL_NET"
        assert rule.header.dst_port == "[135,139,445,593,1024:]"
        options = {opt.key: opt.value for opt in rule.options}
        assert options["flow"] == "established,to_server"
        assert options["byte_jump"] == "4, -4,multiplier 2,relative,align,dce"
        assert options["classtype"] == "attempted-admin"
        assert rule.msg.startswith("NETBIOS DCERPC NCACN-IP-TCP srvsvc")

    def test_repeated_pcre_options_flatten_in_order(self, published_rule_texts):
        rule = parse_rule(published_rule_texts[14782])
        pcre_options = [opt for opt in rule.options if opt.key == "pcre"]
        assert len(pcre_options) == 2
        flattened = rule.option_values()["pcre"]
        assert flattened == pcre_options[0].value + VALUE_JOIN + pcre_options[1].value
        # the message's trailing space survives byte-exact
        assert rule.msg.endswith("overflow attempt ")

    def test_flag_option_and_references(self, published_rule_texts):
        rule = parse_rule(published_rule_texts[13162])
        flags = [opt for opt in rule.options if opt.key == "dce_stub_data"]
        assert len(flags) == 1 and flags[0].value == ""
        assert rule.references == (
            "bugtraq,21220",
            "cve,2006-5854",
            "cve,2006-6114",
            "cve,2008-0639",
        )
        # space after the option colon is insignificant
        assert dict((o.key, o.value) for o in rule.options)["classtype"] == "attempted-admin"

    def test_final_option_without_semicolon(self, published_rule_texts):
        rule = parse_rule(published_rule_texts[250001])
        assert rule.sid == 250001
        assert rule.rev == 1
        assert rule.msg == "NETBIOS Generated rule alert from ID-250001"

    def test_round_trip_is_lossless(self, published_rule_texts):
        for text in published_rule_texts.values():
            rule = parse_rule(text)
            assert parse_rule(serialize_rule(rule)) == rule

    def test_serialization_is_a_fixpoint(self, published_rule_texts):
        for text in published_rule_texts.values():
            once = serialize_rule(parse_rule(text))
            assert serialize_rule(parse_rule(once)) == once


class TestParseRule:
    def test_minimal_rule(self):
        rule = parse_rule("alert tcp any any -> any any (sid:1;)")
        assert rule.options == ()
        assert rule.sid == 1
        assert rule.rev is None
        assert rule.msg is None

    def test_bodyless_rule(self):
        rule = parse_rule("alert tcp any any -> any any")
        assert rule.options == ()
        assert serialize_rule(rule) == "alert tcp any any -> any any"

    def test_bidirectional_rule(self):
        rule = parse_rule("alert udp $HOME_NET any <> $EXTERNAL_NET 138 (sid:5;)")
        assert rule.header.direction == "<>"

    def test_bracketed_port_list_is_one_token(self):
        rule = parse_rule("alert tcp any [80, 8080] -> any [135,139, 445] (sid:2;)")
        assert rule.header.src_port == "[80, 8080]"
        assert rule.header.dst_port == "[135,139, 445]"

    def test_option_keys_are_lowercased_values_kept(self):
        rule = parse_rule('alert tcp any any -> any any (FLOW:To_Server; sid:3;)')
        assert rule.options[0].key == "flow"
        assert rule.options[0].value == "To_Server"

    def test_option_order_skips_identity_options(self):
        rule = parse_rule(
            'alert tcp any any -> any any '
            '(msg:"x"; flow:a; sid:4; content:"y"; rev:2; dsize:>10;)'
        )
        assert [o.key for o in rule.options] == ["flow", "content", "dsize"]

    def test_repeated_keys_keep_both_options(self):
        rule = parse_rule('alert tcp any any -> any any (content:"a"; content:"b"; sid:6;)')
        assert [o.value for o in rule.options] == ['"a"', '"b"']
        assert rule.option_values()["content"] == '"a"' + VALUE_JOIN + '"b"'

    def test_header_attribute_values(self):
        rule = parse_rule("alert tcp 10.0.0.1 80 -> 10.0.0.2 443 (sid:7;)")
        assert rule.attribute_values() == {
            "protocol": "tcp",
            "source_ip": "10.0.0.1",
            "source_port": "80",
            "target_ip": "10.0.0.2",
            "target_port": "443",
        }

    def test_continuation_joined_internally(self):
        rule = parse_rule("alert tcp any any -> any any \\\n    (flow:a; sid:8;)")
        assert rule.sid == 8
        assert rule.options[0].key == "flow"


class TestQuoteSafety:
    def test_semicolon_inside_quotes_does_not_split(self):
        rule = parse_rule('alert tcp any any -> any any (content:"a;b"; sid:1;)')
        assert rule.options[0].value == '"a;b"'

    def test_escaped_semicolon_outside_quotes(self):
        rule = parse_rule('alert tcp any any -> any any (content:"x" \\; more; sid:1;)')
        assert rule.options[0].value == '"x" \\; more'

    def test_escaped_quote_inside_quotes(self):
        rule = parse_rule(r'alert tcp any any -> any any (content:"say \"hi\"; ok"; sid:1;)')
        assert rule.options[0].value == r'"say \"hi\"; ok"'

    def test_randomized_quoted_payloads(self):
        rng = np.random.default_rng(2024)
        atoms = list("abcXYZ09 _,:/|") + [";", r"\;", r"\"", r"\\"]
        for _ in range(200):
            size = int(rng.integers(0, 12))
            picks = rng.integers(0, len(atoms), size=size)
            payload = "".join(atoms[p] for p in picks)
            text = f'alert tcp any any -> any any (content:"{payload}"; flow:x; sid:1;)'
            rule = parse_rule(text)
            assert rule.options[0].value == f'"{payload}"'
            assert rule.options[1] == RuleOption(key="flow", value="x")
            assert parse_rule(serialize_rule(rule)) == rule


class TestParseErrors:
    def test_short_header(self):
        with pytest.raises(MalformedHeader) as info:
            parse_rule("alert tcp any any -> any (sid:1;)")
        assert "7 header fields" in str(info.value)
        assert "byte offset" in str(info.value)

    def test_invalid_direction(self):
        with pytest.raises(MalformedHeader):
            parse_rule("alert tcp any any => any any (sid:1;)")

    def test_empty_text(self):
        with pytest.raises(MalformedHeader):
            parse_rule("   ")

    def test_missing_close_paren(self):
        with pytest.raises(UnterminatedOption):
            parse_rule("alert tcp any any -> any any (sid:1;")

    def test_unterminated_quote(self):
        with pytest.raises(UnterminatedOption) as info:
            parse_rule('alert tcp any any -> any any (content:"oops; sid:1;)')
        assert info.value.offset > 0

    def test_non_numeric_sid(self):
        with pytest.raises(InvalidOptionValue):
            parse_rule("alert tcp any any -> any any (sid:abc;)")

    def test_non_numeric_rev(self):
        with pytest.raises(InvalidOptionValue):
            parse_rule("alert tcp any any -> any any (sid:1; rev:x;)")


class TestSerializeRule:
    def test_flag_option_serialized_bare(self):
        rule = parse_rule("alert tcp any any -> any any (dce_stub_data; sid:1;)")
        assert "dce_stub_data;" in serialize_rule(rule)

    def test_requires_sid_when_asked(self):
        rule = parse_rule("alert tcp any any -> any any (flow:a;)")
        assert serialize_rule(rule) == "alert tcp any any -> any any (flow:a;)"
        with pytest.raises(MissingSid):
            serialize_rule(rule, require_sid=True)

    def test_option_order_preserved(self):
        rule = ParsedRule(
            header=RuleHeader("alert", "tcp", "any", "any", "->", "any", "any"),
            options=(
                RuleOption("zzz", "1"),
                RuleOption("aaa", "2"),
            ),
            sid=9,
        )
        text = serialize_rule(rule)
        assert text.index("zzz") < text.index("aaa")
        assert parse_rule(text) == rule

    @pytest.mark.parametrize(
        "text, serialized",
        [
            # an unpaired backslash at the end of a value, a flag or a msg
            ("(flow:a\\ ;sid:1)", "(flow:a\\ ; sid:1;)"),
            ("(x\\)", "(x\\ ;)"),
            ("(msg:x\\)", "(msg:x\\ ;)"),
            ("(reference:r\\\t; rev:2;)", "(reference:r\\ ; rev:2;)"),
            # a quoted msg whose last quote is escaped keeps its quotes
            ('(msg:""a\\";)', '(msg:""a\\";)'),
            # paired backslashes escape nothing past the value
            ('(content:a\\\\; msg:"b\\\\";)', '(content:a\\\\; msg:"b\\\\";)'),
            # a msg is quoted only where the quotes keep it one segment: not
            # around a ';' outside its own quotes
            ('(msg:";"a)', '(msg:";"a;)'),
            ('(msg:a";")', '(msg:a";";)'),
            # nor before a closing quote that a trailing backslash would escape
            ('(msg:"\\""\\)', '(msg:"\\""\\ ;)'),
        ],
    )
    def test_serialized_segments_split_back_unchanged(self, text, serialized):
        head = "alert tcp any any -> any any "
        rule = parse_rule(head + text)
        assert serialize_rule(rule) == head + serialized
        assert parse_rule(serialize_rule(rule)) == rule


class TestParseRuleset:
    def test_comments_and_blanks_skipped(self):
        text = "# heading\n\nalert tcp any any -> any any (sid:1;)\n# tail\n"
        rules, errors = parse_ruleset(text)
        assert len(rules) == 1 and not errors

    def test_error_recorded_with_line_number(self):
        text = (
            "alert tcp any any -> any any (sid:1;)\n"
            "alert tcp any any -> any (sid:2;)\n"
            "alert tcp any any -> any any (sid:3;)\n"
        )
        rules, errors = parse_ruleset(text)
        assert [r.sid for r in rules] == [1, 3]
        assert len(errors) == 1
        assert errors[0].line == 2
        assert "7 header fields" in errors[0].message

    def test_continuation_lines_report_first_line(self):
        text = "# c\nalert tcp any any -> any \\\n    (sid:1;)\n"
        rules, errors = parse_ruleset(text)
        assert not rules
        assert errors[0].line == 2

    @pytest.mark.parametrize(
        "text, sids, error_lines",
        [
            (  # a form feed inside a quoted value
                'alert tcp any any -> any any (content:"a\x0cb"; sid:1;)\n'
                "alert tcp any any -> any any (sid:2;)\n"
                "alert tcp any any => any any (sid:3;)\n",
                [1, 2],
                [3],
            ),
            (  # every other character str.splitlines breaks at, inside a msg; \r\n and \r
                'alert tcp any any -> any any (msg:"a\u2028b\u2029c\x85d\x0be\x1cf\x1dg\x1eh"; '
                "sid:4;)\r\n"
                "alert tcp any any -> any (sid:5;)\r"
                "alert tcp any any -> any any (sid:6;)\n"
                "alert tcp any any <> any any (sid:7;)",
                [4, 6, 7],
                [2],
            ),
        ],
        ids=["form_feed", "other_breaks"],
    )
    def test_lines_break_only_at_newlines(self, text, sids, error_lines):
        rules, errors = parse_ruleset(text)
        assert [rule.sid for rule in rules] == sids
        assert [error.line for error in errors] == error_lines
        if sids[0] == 4:
            assert rules[0].msg == "a\u2028b\u2029c\x85d\x0be\x1cf\x1dg\x1eh"
        for sid in [*sids, 3, 5]:
            rule, _ = find_rule(text, sid)
            assert rule == oracles.find_rule(text, sid)
            assert (rule is not None) == (sid in sids)

    def test_never_raises_on_garbage(self):
        rules, errors = parse_ruleset("???\n\x00\x01\nalert tcp any any -> any any (sid:1;)")
        assert len(rules) == 1
        assert len(errors) == 2

    def test_sample_corpus_parses_clean(self, sample_rules):
        assert len(sample_rules) == 12
        assert {rule.sid for rule in sample_rules} == {
            7209, 14782, 13162, 250001, 13163, 2101, 2102, 2103, 2104, 2105, 2106, 2107,
        }

    def test_sample_corpus_round_trips(self, sample_rules):
        for rule in sample_rules:
            assert parse_rule(serialize_rule(rule)) == rule
