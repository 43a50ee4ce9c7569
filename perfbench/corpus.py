"""Seeded synthetic snort corpora for the benchmark.

The option keys follow ``tests/data/sample_netbios.rules``. Rules come in
families whose sizes are Zipf-skewed: a family fixes which keys its rules
carry and a base value for each, and each rule keeps the base value or draws
a Zipf-skewed value from the key's pool. ``content`` repeats one to three
times, so the parser joins it into one value. Comment lines, backslash
continuations and a small share of malformed lines are mixed in, so every
parser path runs. A share of rules carries long, distinct ``content`` and
``pcre`` values, which is what makes the edit-distance kernel expensive.

The same spec and seed always give the same bytes; see generate() for what
the seed varies.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

# Option keys of the sample ruleset: (key, family presence probability).
OPTION_KEYS = (
    ("flow", 0.9),
    ("content", 0.75),
    ("classtype", 0.95),
    ("metadata", 0.6),
    ("byte_test", 0.45),
    ("byte_jump", 0.35),
    ("pcre", 0.4),
    ("dce_iface", 0.35),
    ("dce_opnum", 0.35),
    ("dce_stub_data", 0.3),
    ("dsize", 0.3),
    ("nocase", 0.3),
    ("detection_filter", 0.25),
    ("threshold", 0.25),
)
FLAG_KEYS = frozenset({"dce_stub_data", "nocase"})
CLASSTYPES = (
    "attempted-admin",
    "attempted-user",
    "attempted-recon",
    "protocol-command-decode",
    "misc-activity",
    "trojan-activity",
    "web-application-attack",
    "policy-violation",
    "shellcode-detect",
    "denial-of-service",
)
FLOWS = (
    "established,to_server",
    "to_client,established",
    "stateless",
    "to_server",
    "established,to_client",
    "to_server,established,only_stream",
)
ADDRESSES = ("$EXTERNAL_NET", "$HOME_NET", "any", "$SMTP_SERVERS", "$HTTP_SERVERS")
PROTOCOLS = ("tcp", "udp", "icmp", "ip")
MALFORMED = (
    "alert tcp $EXTERNAL_NET any -> $HOME_NET (msg:\"short header\"; sid:{sid};)",
    "alert tcp $EXTERNAL_NET any => $HOME_NET 80 (msg:\"bad direction\"; sid:{sid};)",
    "alert tcp $EXTERNAL_NET any -> $HOME_NET 80 (msg:\"open quote; sid:{sid};)",
    "alert tcp $EXTERNAL_NET any -> $HOME_NET 80 (msg:\"bad sid\"; sid:x{sid};)",
)
FAMILY_KEEP = 0.6  # chance a rule keeps its family's base value
ZIPF = 1.1  # exponent of family sizes and of pool value draws
MALFORMED_SHARE = 0.01
CONTINUATION_SHARE = 0.05
COMMENT_EVERY = 50  # rules between comment lines


@dataclass(frozen=True)
class CorpusSpec:
    """What the workloads' corpora differ in; each field drives a cost the benchmark measures."""

    rules: int
    families: int
    pool: int  # values per high-cardinality key pool; sets the vocabulary width W
    long_share: float = 0.0  # share of rules with long distinct content/pcre
    long_len: int = 0  # characters of each long value
    content_max: int = 3  # most content options in one rule (joined into one value)


@dataclass(frozen=True)
class Corpus:
    text: str
    sids: tuple[int, ...]  # sids of the well-formed rules, file order
    carried: tuple[int, ...]  # distinct option keys of each well-formed rule
    option_keys: frozenset[str]  # option keys the well-formed rules use
    families: int
    malformed: int

    def properties(self) -> dict:
        return {
            "rules": len(self.sids),
            "malformed": self.malformed,
            "families": self.families,
            "bytes": len(self.text.encode("utf-8")),
        }


def _zipf_weights(count: int, exponent: float) -> list[float]:
    total = 0.0
    cumulative = []
    for rank in range(1, count + 1):
        total += 1.0 / rank**exponent
        cumulative.append(total)
    return cumulative


def _hex_bytes(rng: random.Random, count: int) -> str:
    return " ".join(f"{rng.randrange(256):02X}" for _ in range(count))


def _word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(string.ascii_letters + string.digits) for _ in range(length))


def _pool_value(key: str, rng: random.Random) -> str:
    """One short value for key, in the shape the sample ruleset uses."""
    if key == "flow":
        return rng.choice(FLOWS)
    if key == "classtype":
        return rng.choice(CLASSTYPES)
    if key == "content":
        if rng.random() < 0.5:
            return f'"|{_hex_bytes(rng, rng.randint(2, 6))}|"'
        return f'"{_word(rng, rng.randint(3, 10))}"'
    if key == "metadata":
        policies = rng.sample(["balanced-ips", "connectivity-ips", "security-ips", "max-detect-ips"], 2)
        service = rng.choice(["netbios-ssn", "http", "smtp", "dns", "ftp", "ssh"])
        return f"policy {policies[0]} drop, policy {policies[1]} drop, service {service}"
    if key == "byte_test":
        return f"{rng.choice((1, 2, 4))},>,{rng.randrange(16, 4096)},{rng.randrange(0, 64)},relative,dce"
    if key == "byte_jump":
        return f"{rng.choice((2, 4))},-{rng.randrange(1, 16)},multiplier {rng.choice((2, 4))},relative,align,dce"
    if key == "pcre":
        return f'"/^{_word(rng, rng.randint(3, 8))}.{{{rng.randrange(1, 16)}}}/{rng.choice("RsiU")}"'
    if key == "dce_iface":
        return "-".join(_word(rng, n).lower() for n in (8, 4, 4, 4, 12))
    if key == "dce_opnum":
        first = rng.randrange(0, 512)
        return str(first) if rng.random() < 0.6 else f"{first},{first + rng.randrange(1, 4)}"
    if key == "dsize":
        return f"{rng.choice('<>')}{rng.randrange(8, 2048)}"
    if key == "detection_filter":
        return f"track by_{rng.choice(('src', 'dst'))},count {rng.randrange(2, 50)},seconds {rng.randrange(1, 600)}"
    if key == "threshold":
        return f"type {rng.choice(('limit', 'threshold', 'both'))},track by_{rng.choice(('src', 'dst'))},count {rng.randrange(1, 20)},seconds {rng.randrange(1, 600)}"
    raise ValueError(f"no value shape for key {key!r}")


def _port(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.3:
        return "any"
    if roll < 0.8:
        return str(rng.choice((25, 53, 80, 135, 137, 138, 139, 443, 445, 593, 1024, 3306, 8080)))
    ports = sorted(rng.sample((135, 139, 445, 593, 80, 8080, 443, 21, 23), rng.randint(2, 4)))
    return "[" + ",".join(map(str, ports)) + (",1024:]" if rng.random() < 0.3 else "]")


def _long_value(key: str, rng: random.Random, length: int) -> str:
    body = _word(rng, length)
    return f'"/{body}/R"' if key == "pcre" else f'"{body}"'


class _Pools:
    """Per-key value pools: the strings come from the seed, the Zipf-skewed draws from the shape."""

    def __init__(self, rng: random.Random, shape: random.Random, spec: CorpusSpec):
        self.shape = shape
        self.values: dict[str, list[str]] = {}
        for key, _ in OPTION_KEYS:
            if key in FLAG_KEYS:
                continue
            size = {"flow": len(FLOWS), "classtype": len(CLASSTYPES)}.get(key, spec.pool)
            seen: dict[str, None] = {}
            for _ in range(size * 20):  # bounded: some keys have few distinct values
                if len(seen) == size:
                    break
                seen[_pool_value(key, rng)] = None
            self.values[key] = list(seen)
        ports: dict[str, None] = {}
        for _ in range(spec.pool * 5):
            if len(ports) == max(spec.pool // 4, 8):
                break
            ports[_port(rng)] = None
        self.values["port"] = list(ports)
        self.weights = {
            key: _zipf_weights(len(vals), ZIPF) for key, vals in self.values.items()
        }

    def draw(self, key: str) -> str:
        return self.shape.choices(self.values[key], cum_weights=self.weights[key])[0]


def _family(pools: _Pools, shape: random.Random) -> dict:
    keys = [key for key, presence in OPTION_KEYS if shape.random() < presence]
    return {
        "protocol": shape.choice(PROTOCOLS),
        "src": shape.choice(ADDRESSES),
        "dst": shape.choice(ADDRESSES),
        "src_port": pools.draw("port"),
        "dst_port": pools.draw("port"),
        "keys": keys,
        "base": {key: pools.draw(key) for key in keys if key not in FLAG_KEYS},
    }


def _rule_text(
    family: dict,
    pools: _Pools,
    rng: random.Random,
    shape: random.Random,
    spec: CorpusSpec,
    sid: int,
    long_values: bool,
) -> str:
    def pick(key: str, base: str) -> str:
        return base if shape.random() < FAMILY_KEEP else pools.draw(key)

    header = " ".join(
        (
            "alert",
            family["protocol"],
            family["src"],
            pick("port", family["src_port"]),
            "->",
            family["dst"],
            pick("port", family["dst_port"]),
        )
    )
    options = [f'msg:"SYNTH family rule {sid}"']
    for key in family["keys"]:
        if key in FLAG_KEYS:
            options.append(key)
        elif long_values and key in ("content", "pcre"):
            options.append(f"{key}:{_long_value(key, rng, spec.long_len)}")
        elif key == "content":
            repeats = min(shape.choice((1, 1, 2, 3)), spec.content_max)
            options.append(f"content:{pick(key, family['base'][key])}")
            options.extend(f"content:{pools.draw(key)}" for _ in range(repeats - 1))
        else:
            options.append(f"{key}:{pick(key, family['base'][key])}")
    if long_values and "content" not in family["keys"]:
        options.append(f"content:{_long_value('content', rng, spec.long_len)}")
    options.append(f"sid:{sid}")
    options.append(f"rev:{rng.randint(1, 12)}")
    body = "; ".join(options) + ";"
    if shape.random() < CONTINUATION_SHARE:
        cut = body.index(";", len(body) // 2) + 1
        return f"{header} ({body[:cut]} \\\n    {body[cut:].lstrip()})"
    return f"{header} ({body})"


def generate(spec: CorpusSpec, seed: int) -> Corpus:
    """Rules-file text for spec; identical bytes for an identical seed.

    The spec alone fixes the corpus's shape: family sizes and keys, which
    rules share a value, repeats, long values and malformed lines. The seed
    fixes the strings. So two seeds give different inputs that cost the
    program nearly the same work, and run-to-run spread stays small.
    """
    shape = random.Random(repr(spec))
    rng = random.Random(f"perfbench-corpus-{seed}")
    pools = _Pools(rng, shape, spec)
    families = [_family(pools, shape) for _ in range(spec.families)]
    family_weights = _zipf_weights(len(families), ZIPF)
    long_rules = set(shape.sample(range(spec.rules), round(spec.rules * spec.long_share)))
    lines = [f"# synthetic corpus seed={seed} rules={spec.rules} families={spec.families}"]
    sids: list[int] = []
    carried: list[int] = []
    option_keys: set[str] = set()
    malformed = 0
    next_sid = 1_000_000
    for index in range(spec.rules):
        if index and index % COMMENT_EVERY == 0:
            lines.append(f"# block {index // COMMENT_EVERY}")
        if shape.random() < MALFORMED_SHARE:
            lines.append(shape.choice(MALFORMED).format(sid=next_sid))
            next_sid += 1
            malformed += 1
        family = shape.choices(families, cum_weights=family_weights)[0]
        long_values = index in long_rules
        lines.append(_rule_text(family, pools, rng, shape, spec, next_sid, long_values))
        keys = set(family["keys"]) | ({"content"} if long_values else set())
        option_keys |= keys
        carried.append(len(keys))
        sids.append(next_sid)
        next_sid += 1
    return Corpus(
        text="\n".join(lines) + "\n",
        sids=tuple(sids),
        carried=tuple(carried),
        option_keys=frozenset(option_keys),
        families=len(families),
        malformed=malformed,
    )
