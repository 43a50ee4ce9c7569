"""Shared fixtures: published rule texts, hand-built corpora, helpers."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from ruleforge import (
    UNK,
    AttributeVocabulary,
    parse_rule,
    parse_ruleset,
)

DATA_DIR = Path(__file__).parent / "data"

# Verdict lines recorded by the acceptance suite, replayed after the run
# summary so they are visible without -s.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

# Four published signature texts with known field values, used as parser
# ground truth (sids 7209, 14782, 13162 are real community signatures; 250001
# is a machine-written variant of 13162).
PUBLISHED_RULE_TEXTS = {
    7209: (
        r"""alert tcp $EXTERNAL_NET any -> $HOME_NET [135,139,445,593,1024:] """
        r"""(msg:"NETBIOS DCERPC NCACN-IP-TCP srvsvc NetrPathCanonicalize overflow attempt"; """
        r"""flow:established,to_server;dce_iface:4b324fc8-1670-01d3-1278-5a47bf6ee188;"""
        r"""byte_jump: 4, -4,multiplier 2,relative,align,dce; byte_test:4,>,256,0,relative,dce; """
        r"""metadata: policy balanced-ips drop, policy connectivity-ips drop, policy security-ips drop, """
        r"""service netbios-ssn; classtype:attempted-admin; sid:7209; rev:13;)"""
    ),
    14782: (
        r"""alert tcp $EXTERNAL_NET any -> $HOME_NET [135,139,445,593,1024:] """
        r"""(msg:"NETBIOS DCERPC NCACN-IP-TCP srvsvc NetrpPathCanonicalize path canonicalization stack overflow attempt "; """
        r"""flow:established,to_server; dce_iface:4b324fc8-1670-01d3-1278-5a47bf6ee188; dce_opnum:31,32;"""
        r"""dce_stub_data; pcre:"/^(\x00\x00\x00\x00|.{4}(\x00\x00\x00\x00|.{12}))/sR";"""
        r"""byte_jump:4,-4,multiplier 2,relative,align,dce;pcre:"/\x00\.\x00\.\x00[\x2f\x5c]/R";"""
        r"""metadata:policy balanced-ips drop, policy security-ips drop, service netbios-ssn;"""
        r"""classtype:attempted-admin; sid:14782;rev:12;)"""
    ),
    13162: (
        r"""alert tcp $EXTERNAL_NET any -> $HOME_NET [139,445] """
        r"""(msg:"NETBIOS DCERPC NCACN-IP-TCP spoolss EnumPrinters overflow attempt"; """
        r"""flow:established,to_server; dce_iface:12345678-1234-abcd-ef00-0123456789ab; """
        r"""dce_opnum:0; dce_stub_data; byte_test:4,>,256,8,dce relative; """
        r"""metadata:policy balanced-ips drop, policy security-ips drop,service netbios-ssn; """
        r"""reference:bugtraq,21220; reference:cve,2006-5854; reference:cve,2006-6114; """
        r"""reference:cve,2008-0639; classtype: attempted-admin; sid:13162; rev:9;)"""
    ),
    250001: (
        r"""alert tcp $EXTERNAL_NET any -> $HOME_NET [135,139,445,593,1024:] """
        r"""(msg: "NETBIOS Generated rule alert from ID-250001"; """
        r"""metadata:policy balanced-ips drop, policy security-ips drop, service netbios-ssn; """
        r"""dce_opnum:0;flow:established,to_server; """
        r"""dce_iface:12345678-1234-abcd-ef00-0123456789ab;"""
        r"""byte_test:4,>,256,8,relative,dce; sid:250001;rev:1)"""
    ),
}

# Minimal two-rule family: identical signatures except for the port list,
# opnum, and byte_test payload check.  Ten modeled attributes in total.
TABLE2_TEXTS = [
    (
        r"""alert tcp $EXTERNAL_NET any -> $HOME_NET [139,445] """
        r"""(msg:"NETBIOS DCERPC NCACN-IP-TCP spoolss EnumPrinters overflow attempt"; """
        r"""flow:established,to_server; dce_iface:12345678-1234-abcd-ef00-0123456789ab; """
        r"""metadata:policy balanced-ips drop, policy security-ips drop,service netbios-ssn; """
        r"""dce_opnum:0; byte_test:4,>,256,8,relative,dce; sid:13162; rev:9;)"""
    ),
    (
        r"""alert tcp $EXTERNAL_NET any -> $HOME_NET [135,139,445,593,1024:] """
        r"""(msg:"NETBIOS DCERPC NCACN-IP-TCP spoolss EnumPrinters overflow attempt wide"; """
        r"""flow:established,to_server; dce_iface:12345678-1234-abcd-ef00-0123456789ab; """
        r"""metadata:policy balanced-ips drop, policy security-ips drop,service netbios-ssn; """
        r"""dce_opnum:1; byte_test:4,>,512,8,relative,dce; sid:13163; rev:9;)"""
    ),
]

# Three-rule family where the model should learn to drop a flag option: the
# seed is the only rule carrying dce_stub_data, and the other two agree on a
# different destination port.
DROP_FLAG_TEXTS = [
    r"""alert tcp $EXTERNAL_NET any -> $HOME_NET 139 (msg:"A"; flow:established,to_server; dce_stub_data; sid:9001; rev:1;)""",
    r"""alert tcp $EXTERNAL_NET any -> $HOME_NET 445 (msg:"B"; flow:established,to_server; sid:9002; rev:1;)""",
    r"""alert tcp $EXTERNAL_NET any -> $HOME_NET 445 (msg:"C"; flow:established,to_server; sid:9003; rev:1;)""",
]

# Ten-rule dict corpus with hand-checkable counts: svc=smb appears 4 times,
# co-occurring with port=445 twice and with port=53 never, so with alpha=1:
#   P(port=445 | svc=smb) = (2+1)/(4+10) = 3/14
#   P(port=53  | svc=smb) = (0+1)/(4+10) = 1/14
TEN_RULE_CORPUS = [
    {"svc": "smb", "port": "445", "proto": "tcp", "state": "est"},
    {"svc": "smb", "port": "445", "proto": "tcp", "state": "est"},
    {"svc": "smb", "port": "139", "proto": "tcp", "state": "est"},
    {"svc": "smb", "port": "139", "proto": "udp", "state": "stateless"},
    {"svc": "http", "port": "8080", "proto": "tcp", "state": "est"},
    {"svc": "http", "port": "8080", "proto": "tcp"},
    {"svc": "dns", "port": "53", "proto": "udp"},
    {"svc": "dns", "port": "53", "proto": "udp", "state": "stateless"},
    {"port": "445", "proto": "tcp", "state": "est"},
    {"svc": "http", "proto": "tcp", "state": "est"},
]


def factorial_corpus() -> list[dict]:
    """16 rules covering every combination of a 4 x 2 x 2 value grid."""
    rows = []
    for a in ("a1", "a2", "a3", "a4"):
        for b in ("b1", "b2"):
            for c in ("c1", "c2"):
                rows.append({"alpha": a, "beta": b, "gamma": c})
    return rows


def random_dict_corpus(seed: int, n_rules: int, n_attrs: int, n_values: int) -> list[dict]:
    """Seeded random corpus; ~20% of cells are absent (UNK)."""
    rng = np.random.default_rng(seed)
    attrs = [f"k{i}" for i in range(n_attrs)]
    rows = []
    for _ in range(n_rules):
        row = {}
        for attr in attrs:
            if rng.random() < 0.2:
                continue
            row[attr] = f"v{rng.integers(n_values)}"
        rows.append(row)
    return rows


# Registry used by the exhaustive posterior-oracle comparisons.
SMALL_DICT_CORPORA = {
    "ten_rule": TEN_RULE_CORPUS,
    "factorial": factorial_corpus(),
    "random_12x4": random_dict_corpus(7, 12, 4, 3),
    "random_20x6": random_dict_corpus(11, 20, 6, 4),
    "random_6x2": random_dict_corpus(13, 6, 2, 2),
}


# (alpha, fit keywords): default, skip_unk_evidence, with_prior + conventional, alpha 0.37
MODEL_CONFIGS = [
    (1.0, {}),
    (1.0, {"skip_unk_evidence": True}),
    (1.0, {"with_prior": True, "smoothing": "conventional"}),
    (0.37, {}),
]


def vocabulary_from_dicts(corpus: list[dict]) -> AttributeVocabulary:
    attrs = sorted({key for row in corpus for key in row})
    values = {}
    for attr in attrs:
        seen = {row.get(attr, UNK) for row in corpus}
        seen.discard(UNK)
        values[attr] = (UNK, *sorted(seen))
    return AttributeVocabulary(values)


def encode_dicts(corpus: list[dict], vocab: AttributeVocabulary) -> np.ndarray:
    """(n x A) code matrix of dict rows, the layout encode_corpus gives parsed rules."""
    codes = [
        [vocab.index_of(attr, row.get(attr, UNK)) for attr in vocab.attributes] for row in corpus
    ]
    return np.array(codes, dtype=np.int64).reshape(len(corpus), len(vocab.attributes))


@pytest.fixture
def published_rule_texts():
    return dict(PUBLISHED_RULE_TEXTS)


@pytest.fixture
def table2_rules():
    return [parse_rule(text) for text in TABLE2_TEXTS]


@pytest.fixture
def drop_flag_rules():
    return [parse_rule(text) for text in DROP_FLAG_TEXTS]


@pytest.fixture
def ten_rule_corpus():
    return [dict(row) for row in TEN_RULE_CORPUS]


@pytest.fixture(scope="session")
def sample_corpus_path() -> Path:
    return DATA_DIR / "sample_netbios.rules"


@pytest.fixture(scope="session")
def sample_rules(sample_corpus_path):
    rules, errors = parse_ruleset(sample_corpus_path.read_text(encoding="utf-8"))
    assert not errors
    return rules
