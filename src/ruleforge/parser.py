"""Snort rule text parsing and serialization.

A snort-2.9 rule is a seven-token header (action, protocol, source address,
source port, direction, destination address, destination port) followed by an
optional parenthesized body of semicolon-terminated options. This module
parses rule text into :class:`ParsedRule` and serializes it back, keeping the
round trip lossless: ``parse_rule(serialize_rule(parse_rule(text)))`` equals
``parse_rule(text)``.

Identity metadata (``sid``, ``rev``, ``msg``, ``reference``) is split off from
the remaining options so downstream code can treat what is left as the rule's
antecedents.

The body is split into options by one compiled regex, matched once per option,
rather than by a Python loop over its characters. It finds the same segments
and offsets, and raises at the same offset, so the rule syntax accepted and
the rules produced are unchanged.

:func:`parse_ruleset` parses every line of a rules file. :func:`find_rule`
looks up one rule by sid, as the seed commands do: it runs ``parse_rule`` only
on the lines where a sid segment could carry that sid, found by one regex
that never misses such a line, and returns the same rule the first match over
``parse_ruleset`` would.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import RuleforgeError

# Joins the values of a repeated option key (e.g. several content options)
# into one categorical value. U+001F cannot occur in snort rule text.
VALUE_JOIN = "\x1f"

# Option keys that carry rule identity rather than match conditions.
IDENTITY_KEYS = frozenset({"sid", "rev", "msg", "reference"})

# Synthetic attribute names for the positional header fields, header order.
HEADER_ATTRIBUTES = ("protocol", "source_ip", "source_port", "target_ip", "target_port")

DIRECTIONS = ("->", "<>")

_CONTINUATION = re.compile(r"\\[ \t]*\r?\n[ \t]*")

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


class MalformedHeader(RuleforgeError):
    """Rule header does not have the seven required fields."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnterminatedOption(RuleforgeError):
    """Rule body is missing a closing parenthesis or quote."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class InvalidOptionValue(RuleforgeError):
    """An identity option (sid/rev) carries a non-numeric value."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class MissingSid(RuleforgeError):
    """A rule flagged for emission has no sid."""


@dataclass(frozen=True)
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
        return {
            "protocol": self.protocol,
            "source_ip": self.src_addr,
            "source_port": self.src_port,
            "target_ip": self.dst_addr,
            "target_port": self.dst_port,
        }


@dataclass(frozen=True)
class RuleOption:
    """One body option. ``value`` is empty for flag-style options."""

    key: str
    value: str
    ordinal: int


@dataclass
class ParsedRule:
    header: RuleHeader
    options: tuple[RuleOption, ...]
    sid: int | None = None
    rev: int | None = None
    msg: str | None = None
    references: tuple[str, ...] = ()

    def option_values(self) -> dict[str, str]:
        """Flattened option values: repeated keys joined with VALUE_JOIN."""
        merged: dict[str, list[str]] = {}
        for opt in self.options:
            merged.setdefault(opt.key, []).append(opt.value)
        return {key: VALUE_JOIN.join(vals) for key, vals in merged.items()}

    def attribute_values(self) -> dict[str, str]:
        """All antecedent values: header synthetics plus flattened options."""
        values = self.header.attribute_values()
        values.update(self.option_values())
        return values

    def attribute_keys(self) -> frozenset[str]:
        return frozenset(self.attribute_values())


@dataclass(frozen=True)
class ParseError:
    """One failed logical line from :func:`parse_ruleset`."""

    line: int
    offset: int
    message: str
    text: str


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
    """Parse one logical snort rule.

    Backslash-newline continuations are joined internally. Raises
    MalformedHeader, UnterminatedOption, or InvalidOptionValue with a byte
    offset into the (joined) rule text.
    """
    logical = _CONTINUATION.sub(" ", text)
    stripped = logical.strip()
    if not stripped:
        raise MalformedHeader("empty rule text", offset=0)

    lparen = stripped.find("(")
    if lparen == -1:
        header_text = stripped
        body = None
        body_offset = len(stripped)
    else:
        if not stripped.endswith(")"):
            raise UnterminatedOption("missing closing ')'", offset=len(stripped))
        header_text = stripped[:lparen]
        body = stripped[lparen + 1 : -1]
        body_offset = lparen + 1

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
    header = RuleHeader(*tokens)

    options: list[RuleOption] = []
    sid: int | None = None
    rev: int | None = None
    msg: str | None = None
    references: list[str] = []
    if body is not None:
        for segment, seg_offset in _split_options(body, body_offset):
            segment = segment.strip()
            if not segment:
                continue
            key, _, raw_value = segment.partition(":")
            key = key.strip().lower()
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
                options.append(RuleOption(key=key, value=value, ordinal=len(options)))

    return ParsedRule(
        header=header,
        options=tuple(options),
        sid=sid,
        rev=rev,
        msg=msg,
        references=tuple(references),
    )


def serialize_rule(rule: ParsedRule, *, require_sid: bool = False) -> str:
    """Emit one-line snort syntax for a parsed rule.

    Options come first in ordinal order (flag options as ``key;``), then msg,
    references, sid, and rev. The output re-parses to an equal ParsedRule.
    """
    if require_sid and rule.sid is None:
        raise MissingSid("rule has no sid")
    head = " ".join(
        (
            rule.header.action,
            rule.header.protocol,
            rule.header.src_addr,
            rule.header.src_port,
            rule.header.direction,
            rule.header.dst_addr,
            rule.header.dst_port,
        )
    )
    segments = [
        f"{opt.key}:{opt.value}" if opt.value else opt.key
        for opt in sorted(rule.options, key=lambda o: o.ordinal)
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
        return head
    # A segment that ends in an unpaired backslash would escape its ';'. A
    # space between them keeps the ';' a separator; the parser strips it.
    body = " ".join([seg + (" ;" if _escapes_next(seg) else ";") for seg in segments])
    return f"{head} ({body})"


def _escapes_next(text: str) -> bool:
    """Whether text ends in an unpaired backslash, which escapes what follows it."""
    return (len(text) - len(text.rstrip("\\"))) % 2 == 1


def _logical_lines(text: str):
    """Yield (first physical line number, joined logical line) pairs.

    Physical lines end only at \\n, \\r\\n or \\r. str.splitlines would also
    break at form feeds, vertical tabs, U+2028 and other characters that a
    quoted option value may hold.
    """
    buffer: list[str] = []
    start_line = 0
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip()
        if buffer:
            if line.endswith("\\"):
                buffer.append(line[:-1].strip())
                continue
            buffer.append(line.strip())
            yield start_line, " ".join(part for part in buffer if part)
            buffer = []
            continue
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.endswith("\\"):
            buffer = [stripped[:-1].strip()]
            start_line = line_no
            continue
        yield line_no, stripped
    if buffer:
        yield start_line, " ".join(part for part in buffer if part)


def _parse_error(line_no: int, logical: str, exc: RuleforgeError) -> ParseError:
    return ParseError(
        line=line_no, offset=getattr(exc, "offset", 0), message=str(exc), text=logical
    )


def parse_ruleset(text: str) -> tuple[list[ParsedRule], list[ParseError]]:
    """Parse a whole rules file.

    Lines starting with ``#`` are comments; backslash continuations are
    joined. A malformed rule never aborts the run — it is collected as a
    ParseError (1-based line number of the rule's first physical line) and
    parsing continues with the next line.
    """
    rules: list[ParsedRule] = []
    errors: list[ParseError] = []
    for line_no, logical in _logical_lines(text):
        try:
            rules.append(parse_rule(logical))
        except RuleforgeError as exc:
            errors.append(_parse_error(line_no, logical, exc))
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


def find_rule(text: str, sid: int) -> tuple[ParsedRule | None, list[ParseError]]:
    """The first rule of a rules file whose sid is ``sid``, parsing only what may hold it.

    Returns the rule that the first ``r.sid == sid`` over ``parse_ruleset(text)``
    gives (None when there is none), and the errors of the lines that mention
    the sid but failed to parse before it. The other lines are never parsed,
    so their errors are not reported.
    """
    errors: list[ParseError] = []
    for line_no, logical in _logical_lines(text):
        if not _may_hold_sid(logical, sid):
            continue
        try:
            rule = parse_rule(logical)
        except RuleforgeError as exc:
            errors.append(_parse_error(line_no, logical, exc))
            continue
        if rule.sid == sid:
            return rule, errors
    return None, errors
