"""The command-line contract as a property: config files drawn over every flag.

Each example writes a config file whose keys are build_parser's flags, spelled
with hyphens or underscores. Most values are in range; some are out of range,
some are not words of the flag's kind, some hold a NUL byte. Paths name files
under one temporary directory. argv names a subcommand and its --config,
sometimes abbreviated, repeated or given as --config=PATH. Whatever is drawn,
run() returns 0, 1 or 2, and no exception escapes it.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import argparse
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR
from ruleforge import cli
from ruleforge.cli import run

_, SUBS = cli.build_parser()

# Every config key, by the dest config files read it through.
ACTIONS: dict[str, argparse.Action] = {}
for _sub in SUBS.values():
    for _action in _sub._actions:
        if _action.dest not in ("help", "config"):
            ACTIONS.setdefault(_action.dest, _action)

# Values each flag accepts, by dest; paths are names under the example's
# directory. A flag missing here draws only the values no flag of its kind
# accepts.
FLOATS = st.floats(0, 3).map(repr)
VALID = {
    "rules": st.just("corpus.rules"),
    "model": st.just("model.json"),
    "out": st.sampled_from(["out.txt", "out.json"]),
    "vocab_out": st.just("vocab.json"),
    "exclude": st.sampled_from(["", "flow", "content, nocase", "cluster_id"]),
    "alpha": st.floats(0.01, 5).map(repr),
    "seed_sid": st.sampled_from(["13162", "7209", "2101", "250001", "999"]),
    "target": st.sampled_from(["target_port", "flow", "content", "nope"]),
    "threshold": st.floats(0, 1).map(repr),
    "topk": st.integers(1, 6).map(str),
    "category": st.sampled_from(["GENERATED", "SYNTH", "a b"]),
    "sid_base": st.integers(250_001, 10**9).map(str),
    "limit": st.integers(0, 40).map(str),  # no example enumerates more rules
    "w1": FLOATS,
    "w2": FLOATS,
    "cut_count": st.integers(1, 14).map(str),
    "cut_height": FLOATS,
    "folds": st.integers(2, 14).map(str),
    "seed": st.integers(0, 5).map(str),
    "thresholds": st.sampled_from(["0.001,0.01,0.05,0.1", "0.5", "0.01, ,0.2", "1"]),
}
PATHS = {"rules", "model", "out", "vocab_out"}
INVALID_PATHS = st.sampled_from(["missing", "", "sub/missing", "."])
INVALID_NUMBERS = st.sampled_from(
    ["-1", "0", "1e308", "-1e308", "nan", "inf", "1.5", "x", "", "1_0", "٧"]
)
INVALID_TEXT = st.one_of(
    st.sampled_from(['a"b', "x ", ",", "0.5,0.1", "nan", "2"]),
    st.text(st.characters(codec="utf-8", exclude_characters="\n\r"), max_size=6),
)
BOOL_WORDS = st.sampled_from(["true", "False", "YES", "no", " on ", "off", "1", "0"])
NOT_BOOL_WORDS = st.sampled_from(["maybe", "", "2", "t"])


def value_of(dest: str, action: argparse.Action, valid: bool) -> st.SearchStrategy[str]:
    """Raw config text for one flag, in range or out of it."""
    if action.nargs == 0:
        return BOOL_WORDS if valid else NOT_BOOL_WORDS
    if action.choices is not None:
        return st.sampled_from(list(action.choices)) if valid else st.sampled_from(["", "TOPK"])
    if valid and dest in VALID:
        return VALID[dest]
    if dest in PATHS:
        return INVALID_PATHS
    return INVALID_NUMBERS if action.type is not None else INVALID_TEXT


@st.composite
def config_lines(draw, command: str, root: str) -> list[str]:
    """key = value lines: the command's required flags, some of its others, and
    now and then another command's. Most values are valid; a few are not, and
    a few hold a NUL byte."""
    own = [a for a in SUBS[command]._actions if a.dest not in ("help", "config")]
    dests = [a.dest for a in own if a.required]
    dests += draw(st.lists(st.sampled_from([a.dest for a in own]), max_size=4))
    dests += draw(st.lists(st.sampled_from(sorted(ACTIONS)), max_size=1))
    if command in ("generate", "sweep"):
        dests.append("limit")
    lines = []
    for dest in dests:
        kind = draw(st.sampled_from(["valid"] * 12 + ["invalid", "nul"]))
        value = draw(value_of(dest, ACTIONS[dest], kind != "invalid"))
        if dest in PATHS:
            value = f"{root}/{value}"
        if kind == "nul":
            at = draw(st.integers(0, len(value)))
            value = value[:at] + "\0" + value[at:]
        key = dest.replace("_", "-") if draw(st.booleans()) else dest
        lines.append(f"{key}{draw(st.sampled_from(['=', ' = ', '= ']))}{value}")
    return lines


# Mostly one --config; at times abbreviated, repeated, or none.
CONFIG_FLAGS = st.sampled_from(
    [["--config", "{a}"]] * 6
    + [["--config={a}"], ["--conf", "{a}"], ["--confi={a}"], ["--config", "{a}", "--config", "{b}"],
       ["--config={a}", "--config={b}"], []]
)


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract")
    shutil.copy(DATA_DIR / "sample_netbios.rules", path / "corpus.rules")
    shutil.copy(DATA_DIR / "sample_netbios.model.json", path / "model.json")
    return path


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(data=st.data())
def test_any_config_file_ends_in_an_exit_code(root, data):
    command = data.draw(st.sampled_from(sorted(SUBS)))
    first, second = root / "a.cfg", root / "b.cfg"
    for path in (first, second):
        lines = data.draw(config_lines(command, str(root)))
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    flags = [part.format(a=first, b=second) for part in data.draw(CONFIG_FLAGS)]
    assert run([command, *flags]) in (0, 1, 2)
