"""Start-up: commands load only what they use, and the console entry point pins
OpenBLAS to one thread.

numpy is imported on first use, so parse, --version and --help run without
it; parse, cluster and sweep also run without csv, parse without json and
hashlib, and no command that reads or writes a model file loads hashlib (and
so OpenSSL) for its digest. No command loads numpy.ma, and importing the
package loads none of its modules. Each check runs in a fresh interpreter,
because this test process has those modules loaded already.
Setting ``sys.modules[name] = None`` makes any ``import name`` raise
ImportError, so a blocked run that matches an unblocked one never touched the
module.
"""

import json
import os
import subprocess
import sys

import pytest

RUN_CLI = """
import sys
for name in filter(None, sys.argv[1].split(",")):
    sys.modules[name] = None
from ruleforge.cli import run
sys.exit(run(sys.argv[2:]))
"""


def python(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True)


@pytest.mark.parametrize(
    "argv",
    [
        ["--version"],
        ["--help"],
        ["parse", "--rules", "{corpus}"],
        ["parse", "--rules", "{corpus}", "--lint"],
    ],
    ids=["version", "help", "parse", "parse-lint"],
)
def test_cli_runs_the_same_with_numpy_blocked(sample_corpus_path, argv):
    assert_same_when_blocked("numpy", [arg.format(corpus=sample_corpus_path) for arg in argv])


@pytest.mark.parametrize("lint", [[], ["--lint"]], ids=["parse", "parse-lint"])
def test_parse_runs_the_same_with_json_hashlib_and_csv_blocked(sample_corpus_path, lint):
    argv = ["parse", "--rules", str(sample_corpus_path), *lint]
    assert_same_when_blocked("json,hashlib,csv", argv)


@pytest.fixture(scope="module")
def sample_model(tmp_path_factory, sample_corpus_path):
    path = tmp_path_factory.mktemp("model") / "model.json"
    argv = ["train", "--rules", str(sample_corpus_path), "--out", str(path)]
    result = subprocess.run([sys.executable, "-m", "ruleforge.cli", *argv], capture_output=True)
    assert result.returncode == 0, result.stderr.decode()
    return path


SEED = ["--model", "{model}", "--rules", "{corpus}", "--seed-sid", "13162"]


@pytest.mark.parametrize(
    "argv",
    [["abduce", *SEED], ["generate", *SEED], ["sweep", *SEED]],
    ids=["abduce", "generate", "sweep"],
)
def test_seed_commands_run_the_same_with_hashlib_blocked(sample_corpus_path, sample_model, argv):
    """The model's vocabulary digest comes from the built-in SHA-256 module, not OpenSSL."""
    values = {"model": sample_model, "corpus": sample_corpus_path}
    assert_same_when_blocked("hashlib", [arg.format(**values) for arg in argv])


@pytest.mark.parametrize(
    "argv", [["cluster", "--rules", "{corpus}"], ["sweep", *SEED]], ids=["cluster", "sweep"]
)
def test_csv_output_runs_the_same_with_csv_blocked(sample_corpus_path, sample_model, argv):
    """cluster's and sweep's rows hold no field that csv would quote."""
    values = {"model": sample_model, "corpus": sample_corpus_path}
    assert_same_when_blocked("csv", [arg.format(**values) for arg in argv])


def test_train_writes_the_same_files_with_hashlib_blocked(tmp_path, sample_corpus_path):
    model, vocab = tmp_path / "model.json", tmp_path / "vocab.json"
    argv = ["train", "--rules", str(sample_corpus_path), "--out", str(model)]
    assert_same_when_blocked("hashlib", [*argv, "--vocab-out", str(vocab)], [model, vocab])


def assert_same_when_blocked(modules: str, argv: list[str], outputs=()) -> None:
    """argv gives the same exit code, stdout, stderr and output files with modules blocked.

    outputs are files the command writes; each is removed before each run.
    """
    runs = []
    for blocked in (modules, ""):
        for path in outputs:
            path.unlink(missing_ok=True)
        result = python(RUN_CLI, blocked, *argv)
        written = [path.read_bytes() for path in outputs if path.exists()]
        runs.append((result.returncode, result.stdout, result.stderr, written))
    returncode, stdout, stderr, written = runs[0]
    assert returncode == 0, stderr.decode()
    assert len(written) == len(outputs)
    assert stdout or (written and all(written))
    assert runs[0] == runs[1]


RUN_CLI_WITHOUT_LOADING = """
import sys
from ruleforge.cli import run
code = run(sys.argv[2:])
loaded = [name for name in sys.argv[1].split(",") if name in sys.modules]
sys.exit(f"loaded {loaded}" if loaded else code)
"""

EVALUATE = ["evaluate", "--rules", "{corpus}", "--folds", "3"]
COMMANDS = {
    "parse-lint": ["parse", "--rules", "{corpus}", "--lint"],
    "train": ["train", "--rules", "{corpus}", "--out", "{out}"],
    "abduce": ["abduce", *SEED],
    "generate": ["generate", *SEED],
    "sweep": ["sweep", *SEED],
    "cluster": ["cluster", "--rules", "{corpus}"],
    "evaluate": EVALUATE,
    "evaluate-clusters": [*EVALUATE, "--with-clusters", "--cluster-train-only"],
}


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_no_command_loads_numpy_ma(sample_corpus_path, sample_model, tmp_path, argv):
    """A plain np.unique(x) imports numpy.ma (12-20 ms and 1.7 MiB a command)."""
    values = {"model": sample_model, "corpus": sample_corpus_path, "out": tmp_path / "m.json"}
    result = python(RUN_CLI_WITHOUT_LOADING, "numpy.ma", *[arg.format(**values) for arg in argv])
    assert result.returncode == 0, result.stderr.decode()


def test_numpy_access_fails_when_blocked():
    result = python(
        'import sys; sys.modules["numpy"] = None\n'
        "from ruleforge._numpy import np\n"
        "try:\n    np.zeros\nexcept ImportError:\n    sys.exit(3)\n"
    )
    assert result.returncode == 3, result.stderr.decode()


def test_importing_the_package_does_not_load_numpy():
    result = python(
        "import sys\nimport ruleforge\nfrom ruleforge import *\n"
        'assert "numpy" not in sys.modules, "numpy was imported"\n'
    )
    assert result.returncode == 0, result.stderr.decode()


def test_importing_the_package_loads_none_of_its_modules():
    result = python(
        "import sys\nimport ruleforge\n"
        'loaded = [name for name in sys.modules if name.startswith("ruleforge.")]\n'
        'assert not loaded and "numpy" not in sys.modules, loaded\n'
        'assert not hasattr(ruleforge, "parser"), "ruleforge.parser resolved before its import"\n'
        "assert set(ruleforge.__all__) <= set(dir(ruleforge))\n"
    )
    assert result.returncode == 0, result.stderr.decode()


PUBLIC_NAMES_ARE_THEIR_MODULES_OBJECTS = """
import importlib
import ruleforge
names = {}
exec("from ruleforge import *", names)
assert sorted(set(names) - {"__builtins__"}) == sorted(ruleforge.__all__)
assert len(set(ruleforge.__all__)) == len(ruleforge.__all__)
for name in ruleforge.__all__[1:]:  # after __version__
    module = importlib.import_module(f"ruleforge.{ruleforge._MODULE_OF[name]}")
    assert names[name] is getattr(module, name) is getattr(ruleforge, name), name
    # the table names the module that defines it, not one that imports it
    assert getattr(names[name], "__module__", module.__name__) == module.__name__, name
"""


def test_each_public_name_is_the_object_its_module_defines():
    result = python(PUBLIC_NAMES_ARE_THEIR_MODULES_OBJECTS)
    assert result.returncode == 0, result.stderr.decode()


IMPORT_BLOCKED = """
import sys
for name in sys.argv[1].split(","):
    sys.modules[name] = None
"""


@pytest.mark.parametrize(
    "blocked, statement",
    [
        ("ruleforge.abduction", "import ruleforge.evaluation"),
        (
            "ruleforge.evaluation,ruleforge.clustering",
            "from ruleforge.abduction import threshold_sweep",
        ),
    ],
    ids=["evaluation-without-abduction", "sweep-without-evaluation"],
)
def test_evaluation_and_the_seed_side_import_apart(blocked, statement):
    result = python(IMPORT_BLOCKED + statement, blocked)
    assert result.returncode == 0, result.stderr.decode()


def test_proxy_imports_numpy_once_and_caches_each_attribute():
    result = python(
        "import sys\n"
        "from ruleforge._numpy import np\n"
        'assert "numpy" not in sys.modules and "ndarray" not in vars(np)\n'
        "first = np.ndarray\n"
        'assert first is sys.modules["numpy"].ndarray\n'
        'assert vars(np)["ndarray"] is first and np.ndarray is first\n'
    )
    assert result.returncode == 0, result.stderr.decode()


RUN_MAIN = """
import json, os, sys
from ruleforge import cli
sys.argv = ["ruleforge", *sys.argv[1:]]
try:
    cli.main()
except SystemExit as exc:
    code = exc.code
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps({
    "code": code,
    "numpy": "numpy" in sys.modules,
    "openblas": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": threads,
}))
"""


def run_main(tmp_path, corpus, **env) -> dict:
    """main() on `cluster` in a fresh interpreter whose environment adds env."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ.update(env)
    argv = ["cluster", "--rules", str(corpus), "--out", str(tmp_path / "labels.csv")]
    result = subprocess.run(
        [sys.executable, "-c", RUN_MAIN, *argv], capture_output=True, env=environ
    )
    assert result.returncode == 0, result.stderr.decode()
    return json.loads(result.stdout)


def test_main_pins_openblas_to_one_thread(tmp_path, sample_corpus_path):
    report = run_main(tmp_path, sample_corpus_path)
    assert report["code"] == 0
    assert report["numpy"]
    assert report["openblas"] == "1"
    if report["threads"] is not None:  # no /proc/self/task off Linux
        assert report["threads"] == 1


def test_main_keeps_a_preset_thread_count(tmp_path, sample_corpus_path):
    report = run_main(tmp_path, sample_corpus_path, OPENBLAS_NUM_THREADS="3")
    assert (report["code"], report["numpy"], report["openblas"]) == (0, True, "3")


def test_run_leaves_the_environment_alone(tmp_path, sample_corpus_path):
    from ruleforge.cli import run

    before = dict(os.environ)
    argv = ["cluster", "--rules", str(sample_corpus_path), "--out", str(tmp_path / "labels.csv")]
    assert run(argv) == 0
    assert dict(os.environ) == before
