"""numpy is imported on first use: parse, --version and --help run without it.

Each check runs in a fresh interpreter, because this test process has numpy
loaded already. Setting ``sys.modules["numpy"] = None`` makes any ``import
numpy`` raise ImportError, so a blocked run that matches an unblocked one
never touched ``np``.
"""

import subprocess
import sys

import pytest

RUN_CLI = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
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
    argv = [arg.format(corpus=sample_corpus_path) for arg in argv]
    blocked = python(RUN_CLI, "blocked", *argv)
    assert blocked.returncode == 0, blocked.stderr.decode()
    assert blocked.stdout
    unblocked = python(RUN_CLI, "unblocked", *argv)
    assert (blocked.returncode, blocked.stdout, blocked.stderr) == (
        unblocked.returncode,
        unblocked.stdout,
        unblocked.stderr,
    )


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
