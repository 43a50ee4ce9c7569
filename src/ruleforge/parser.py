"""Snort rule text parsing and serialization.

A snort-2.9 rule is a seven-token header (action, protocol, source address,
source port, direction, destination address, destination port) followed by an
optional parenthesized body of semicolon-terminated options. This module
parses rule text into :class:`ParsedRule` and serializes it back, keeping the
round trip lossless: ``parse_rule(serialize_rule(parse_rule(text)))`` equals
``parse_rule(text)``.

Identity metadata (``sid``, ``rev``, ``msg``, ``reference``) is split off from
the remaining options so downstream code can treat what is left as the rule's
antecedents. The options keep the order of the rule text: ``ParsedRule.options``
lists them as the body does, identity options left out.

Physical lines are joined into logical ones by one function, _logical_lines:
a line ending in a backslash continues on the next, and ``#`` lines are
comments. parse_rule joins its text that way, and parse_ruleset and find_rule
parse the lines it yields, so a rule reads the same from either entry point.

The body is split into options by one compiled regex, matched once per option.

:func:`parse_ruleset` parses every line of a rules file. :func:`find_rule`
looks up one rule by sid, as the seed commands do: it parses only the lines
where a sid segment could carry that sid, found by one regex that never
misses such a line, and returns the same rule the first match over
``parse_ruleset`` would. Both take the file's text or the open file, which
they read a line at a time.

A rules file repeats a few headers and options across many rules, so the
rules of one parse_ruleset call share them: each distinct header text is
parsed once into one RuleHeader, and each distinct option segment once into
one RuleOption, which every rule that holds that text reuses. The two
records are frozen, so sharing them is safe.
"""

from __future__ import annotations

import io
import operator
import re
import sys
from dataclasses import dataclass, fields
from typing import TextIO

from .errors import RuleforgeError

# Joins the values of a repeated option key (e.g. several content options)
# into one categorical value. U+001F cannot occur in snort rule text.
VALUE_JOIN = "\x1f"

# Option keys that carry rule identity rather than match conditions.
IDENTITY_KEYS = frozenset({"sid", "rev", "msg", "reference"})

# Synthetic attribute names for the positional header fields, header order,
# each mapped to the RuleHeader field that holds its value.
HEADER_FIELDS = {
    "protocol": "protocol",
    "source_ip": "src_addr",
    "source_port": "src_port",
    "target_ip": "dst_addr",
    "target_port": "dst_port",
}
HEADER_ATTRIBUTES = tuple(HEADER_FIELDS)
_HEADER_VALUES = operator.attrgetter(*HEADER_FIELDS.values())

DIRECTIONS = ("->", "<>")

# One option segment, matched from its first character up to the ';' that
# ends it, or the end of the body, or a quote that is never closed. It is a run
# of plain characters, backslash escapes (a backslash takes the next character
# whatever it is, and may end the body) and closed quoted runs (inside which
# ';' is plain and a backslash still escapes). The unrolled form
# (plain* (special plain*)*) gives each character one way to match, so an
# unclosed quote costs one linear scan, not a backtracking blow-up.
_SEGMENT = re.compile(
    r"""[^\\";]*(?:(?:\\[\s\S]?|"[^\\"]*(?:\\[\s\S][^\\"]*)*")[^\\";]*)*"""
)


class RuleSyntaxError(RuleforgeError):
    """Rule text that does not parse, at a byte offset into the joined rule text."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class MalformedHeader(RuleSyntaxError):
    """Rule header does not have the seven required fields."""


class UnterminatedOption(RuleSyntaxError):
    """Rule body is missing a closing parenthesis or quote."""


class InvalidOptionValue(RuleSyntaxError):
    """An identity option (sid/rev) carries a non-numeric value."""


# RuleHeader and RuleOption stay frozen: parse_ruleset gives rules with equal
# header or option text one shared record.
@dataclass(frozen=True, slots=True)
class RuleHeader:
    action: str
    protocol: str
    src_addr: str
    src_port: str
    direction: str
    dst_addr: str
    dst_port: str

    def attribute_values(self) -> dict[str, str]:
        """Header fields keyed by their synthetic attribute names."""
        return dict(zip(HEADER_ATTRIBUTES, _HEADER_VALUES(self)))


# The seven header tokens, in rule text order.
_HEADER_TOKENS = operator.attrgetter(*(f.name for f in fields(RuleHeader)))


@dataclass(frozen=True, slots=True)
class RuleOption:
    """One body option. ``value`` is empty for flag-style options."""

    key: str
    value: str


@dataclass(slots=True)
class ParsedRule:
    header: RuleHeader
    options: tuple[RuleOption, ...]
    sid: int | None = None
    rev: int | None = None
    msg: str | None = None
    references: tuple[str, ...] = ()

    def option_values(self) -> dict[str, str]:
        """Flattened option values: repeated keys joined with VALUE_JOIN."""
        merged: dict[str, str] = {}
        for opt in self.options:
            if opt.key in merged:
                merged[opt.key] += VALUE_JOIN + opt.value
            else:
                merged[opt.key] = opt.value
        return merged

    def attribute_values(self) -> dict[str, str]:
        """All antecedent values: header synthetics plus flattened options."""
        values = self.header.attribute_values()
        values.update(self.option_values())
        return values

    def attribute_keys(self) -> frozenset[str]:
        return frozenset(self.attribute_values())


@dataclass(frozen=True)
class ParseError:
    """One failed logical line: its first physical line and the error's message."""

    line: int
    message: str


def _header_tokens(header_text: str) -> list[str]:
    """Split a header on whitespace, keeping bracketed lists as one token."""
    tokens: list[str] = []
    current: list[str] = []
    depth = 0
    for ch in header_text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth = max(depth - 1, 0)
        if ch.isspace() and depth == 0:
            if current:
                tokens.append("".join(current))
                current = []
        else:
            current.append(ch)
    if current:
        tokens.append("".join(current))
    return tokens


def _split_options(body: str, base_offset: int) -> list[tuple[str, int]]:
    """Split a rule body into option segments on unquoted, unescaped ';'.

    Returns (segment text, byte offset of segment start). A final segment
    without a trailing semicolon is accepted. An unclosed quote raises
    UnterminatedOption at the offset of that quote.
    """
    segments: list[tuple[str, int]] = []
    start = 0
    while True:
        end = _SEGMENT.match(body, start).end()
        if end == len(body):
            break
        if body[end] == '"':  # a quote that no unescaped quote closes
            raise UnterminatedOption("unterminated quoted value", offset=base_offset + end)
        segments.append((body[start:end], base_offset + start))
        start = end + 1
    tail = body[start:]
    if tail.strip():
        segments.append((tail, base_offset + start))
    return segments


def _strip_quotes(value: str) -> str:
    if len(value) >= 2 and value.startswith('"') and value.endswith('"'):
        return value[1:-1]
    return value


def parse_rule(text: str) -> ParsedRule:
    """Parse one snort rule.

    The text's lines are joined as parse_ruleset joins a rules file's:
    continuation lines are joined, and comment and blank lines skipped.
    Raises MalformedHeader, UnterminatedOption, or InvalidOptionValue with a
    byte offset into the joined rule text.
    """
    return _parse_line(" ".join(line for _, line in _logical_lines(text)), {}, {})


def _parse_line(
    line: str, headers: dict[str, RuleHeader], options: dict[str, RuleOption]
) -> ParsedRule:
    """Parse one logical line as _logical_lines yields it: joined and stripped.

    headers maps header text to the RuleHeader it parsed to, and options a raw
    option segment to its RuleOption; the line reuses what they hold and adds
    what it parses. Two tables, because a body segment may read exactly as
    another line's header. Errors and identity options are never stored.
    """
    if not line:
        raise MalformedHeader("empty rule text", offset=0)

    lparen = line.find("(")
    if lparen == -1:
        header_text = line
        body = None
        body_offset = len(line)
    else:
        if not line.endswith(")"):
            raise UnterminatedOption("missing closing ')'", offset=len(line))
        header_text = line[:lparen]
        body = line[lparen + 1 : -1]
        body_offset = lparen + 1

    header = headers.get(header_text)
    if header is None:
        tokens = _header_tokens(header_text)
        if len(tokens) != 7:
            raise MalformedHeader(
                f"expected 7 header fields, found {len(tokens)}", offset=len(header_text)
            )
        direction = tokens[4]
        if direction not in DIRECTIONS:
            raise MalformedHeader(
                f"invalid direction token {direction!r}",
                offset=max(header_text.find(direction), 0),
            )
        header = headers[header_text] = RuleHeader(*tokens)

    rule_options: list[RuleOption] = []
    sid: int | None = None
    rev: int | None = None
    msg: str | None = None
    references: list[str] = []
    if body is not None:
        for raw, seg_offset in _split_options(body, body_offset):
            option = options.get(raw)
            if option is not None:
                rule_options.append(option)
                continue
            segment = raw.strip()
            if not segment:
                continue
            key, _, raw_value = segment.partition(":")
            # a corpus repeats a few keys many times: keep one copy of each
            key = sys.intern(key.strip().lower())
            value = raw_value.strip()
            if not key:
                continue
            if key == "sid" or key == "rev":
                try:
                    number = int(value)
                except ValueError:
                    raise InvalidOptionValue(
                        f"invalid {key} value {value!r}", offset=seg_offset
                    ) from None
                if key == "sid":
                    sid = number
                else:
                    rev = number
            elif key == "msg":
                msg = _strip_quotes(value)
            elif key == "reference":
                references.append(value)
            else:
                option = options[raw] = RuleOption(key=key, value=value)
                rule_options.append(option)

    return ParsedRule(
        header=header,
        options=tuple(rule_options),
        sid=sid,
        rev=rev,
        msg=msg,
        references=tuple(references),
    )


def serialize_rule(rule: ParsedRule) -> str:
    """Emit one-line snort syntax for a parsed rule.

    Options come first in their order (flag options as ``key;``), then msg,
    references, sid, and rev; an identity field that is None is left out.
    The output re-parses to an equal ParsedRule.
    """
    head = " ".join(_HEADER_TOKENS(rule.header))
    segments = [
        f"{opt.key}:{opt.value}" if opt.value else opt.key
        for opt in rule.options
    ]
    if rule.msg is not None:
        # The msg is quoted unless the quoted text would not split as one
        # segment: a ';' outside the msg's own quotes, or a trailing backslash
        # that escapes the closing quote. The parser gave such a msg unquoted,
        # and it is written so.
        quoted = f'"{rule.msg}"'
        whole = _SEGMENT.match(quoted).end() == len(quoted)
        segments.append(f"msg:{quoted}" if whole else f"msg:{rule.msg}")
    for ref in rule.references:
        segments.append(f"reference:{ref}")
    if rule.sid is not None:
        segments.append(f"sid:{rule.sid}")
    if rule.rev is not None:
        segments.append(f"rev:{rule.rev}")
    if not segments:
        # A trailing backslash would continue the line; an empty body keeps
        # it in the header.
        return f"{head} ()" if head.endswith("\\") else head
    # A segment that ends in an unpaired backslash would escape its ';'. A
    # space between them keeps the ';' a separator; the parser strips it.
    body = " ".join([seg + (" ;" if _escapes_next(seg) else ";") for seg in segments])
    return f"{head} ({body})"


def _escapes_next(text: str) -> bool:
    """Whether text ends in an unpaired backslash, which escapes what follows it."""
    return (len(text) - len(text.rstrip("\\"))) % 2 == 1


def _logical_lines(source: str | TextIO):
    """Yield (first physical line number, joined logical line) pairs.

    source is rules text, or a file open in text mode with universal
    newlines (open's default), read one line at a time; text is read as
    such a file. Physical lines end only at \\n, \\r\\n or \\r. str.splitlines
    would also break at form feeds, vertical tabs, U+2028 and other
    characters that a quoted option value may hold.
    """
    buffer: list[str] = []  # the stripped parts of the logical line so far
    start_line = 0
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not buffer:  # a blank or comment line only counts inside a continuation
            if not line or line.startswith("#"):
                continue
            start_line = line_no
        if line.endswith("\\"):
            buffer.append(line[:-1].strip())
            continue
        buffer.append(line)
        yield start_line, " ".join(filter(None, buffer))
        buffer = []
    if buffer:
        yield start_line, " ".join(filter(None, buffer))


def parse_ruleset(text: str | TextIO) -> tuple[list[ParsedRule], list[ParseError]]:
    """Parse a whole rules file: its text, or the open file (see _logical_lines).

    Lines starting with ``#`` are comments; backslash continuations are
    joined. A malformed rule never aborts the run — it is collected as a
    ParseError (1-based line number of the rule's first physical line) and
    parsing continues with the next line.
    """
    rules: list[ParsedRule] = []
    errors: list[ParseError] = []
    headers: dict[str, RuleHeader] = {}
    options: dict[str, RuleOption] = {}
    for line_no, logical in _logical_lines(text):
        try:
            rules.append(_parse_line(logical, headers, options))
        except RuleSyntaxError as exc:
            errors.append(ParseError(line_no, str(exc)))
    return rules, errors


# The value of every sid segment parse_rule can read. A segment starts right
# after the body's '(' or after a separating ';'. Its key is 'sid' in any mix
# of case, with blanks around it, before the first ':'. Its value passes
# int(), so it holds no ';', '"', '\', '(' or ')', and therefore runs from the
# ':' to the ';' that ends the segment or to the body's closing ')': exactly
# what the capture takes. int() also accepts forms such as '+7', '007', '7_0'
# and non-ASCII digits, so the capture is compared through int() as well. A
# match inside a quoted value, or on a line that fails to parse, is a false
# positive: it costs one parse_rule and nothing else.
_SID_VALUE = re.compile(r"""[(;]\s*sid\s*:([^;()"\\]*)""", re.IGNORECASE)


def _may_hold_sid(logical: str, sid: int) -> bool:
    for match in _SID_VALUE.finditer(logical):
        try:
            if int(match.group(1).strip()) == sid:
                return True
        except ValueError:
            continue
    return False


def find_rule(text: str | TextIO, sid: int) -> tuple[ParsedRule | None, list[ParseError]]:
    """The first rule of a rules file whose sid is ``sid``, parsing only what may hold it.

    text is the file's text or the open file, as for parse_ruleset. Returns
    the rule that the first ``r.sid == sid`` over ``parse_ruleset(text)``
    gives (None when there is none), and the errors of the lines that mention
    the sid but failed to parse before it. The other lines are never parsed,
    so their errors are not reported. No line of an open file after the
    rule's is taken from it.
    """
    errors: list[ParseError] = []
    for line_no, logical in _logical_lines(text):
        if not _may_hold_sid(logical, sid):
            continue
        try:
            rule = _parse_line(logical, {}, {})
        except RuleSyntaxError as exc:
            errors.append(ParseError(line_no, str(exc)))
            continue
        if rule.sid == sid:
            return rule, errors
    return None, errors
