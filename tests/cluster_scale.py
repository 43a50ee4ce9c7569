"""Peak RSS of `ruleforge cluster` at 3000 rules, against the size of D.

The cluster benchmark workload has 500 rules, too few to show how the
command's memory grows with the rule count n. This check writes the
workload's corpus shape (perfbench/corpus.py, seed 1) at n = 3000 rules and
runs `python -m ruleforge.cli cluster --cut-count 55` on it in a child. It
fails if the child's peak RSS exceeds B + 1.5 * n^2 * 8 bytes, where B is
the peak of a child that only imports numpy and ruleforge.cli. That leaves
room for the distance matrix D (n^2 float64s) and half as much again, but
not for a second n x n array.

Linux reports a child's peak RSS as at least its parent's, so every child
starts from this process, which imports nothing large; the check stops if
this process's own peak reaches B.

Run from the repository root:

    python3 tests/cluster_scale.py
"""

import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RULES = 3000
CUT_COUNT = 55
ROOM = 1.5  # n x n float64 arrays the command may hold beyond B

WRITE_CORPUS = """\
import dataclasses, sys
sys.path.insert(0, sys.argv[1])
from corpus import generate
from run import WORKLOADS
spec = dataclasses.replace(WORKLOADS[sys.argv[2]].spec, rules=int(sys.argv[3]))
open(sys.argv[4], "w", encoding="utf-8").write(generate(spec, 1).text)
"""


def peak_rss(argv: list[str], log: Path) -> int:
    """Peak RSS in bytes of a child running argv; exits if the child fails."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    with open(log, "wb") as stderr:
        child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
        _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4 above
    if child.returncode:
        sys.exit(f"{' '.join(argv)} exited {child.returncode}:\n{log.read_text()}")
    return usage.ru_maxrss * 1024  # KiB on Linux


def corpus_and_base(work: Path, workload: str, rules: int) -> tuple[Path, int]:
    """The workload's corpus at this many rules, written in work, and B in bytes."""
    corpus, log = work / "corpus.rules", work / "stderr.txt"
    argv = ["-c", WRITE_CORPUS, str(ROOT / "perfbench"), workload, str(rules), str(corpus)]
    peak_rss([sys.executable, *argv], log)
    base = peak_rss([sys.executable, "-c", "import numpy, ruleforge.cli"], log)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    if own >= base:
        sys.exit(f"this process peaked at {own / 2**20:.1f} MiB, not below B: no floor-free reading")
    return corpus, base


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        corpus, base = corpus_and_base(Path(work), "cluster", RULES)
        argv = ["-m", "ruleforge.cli", "cluster", "--rules", str(corpus), "--cut-count", str(CUT_COUNT)]
        out = Path(work) / "clusters.csv"
        peak = peak_rss([sys.executable, *argv, "--out", str(out)], Path(work) / "stderr.txt")
    bound = base + ROOM * RULES * RULES * 8
    verdict = "ok" if peak <= bound else "FAIL"
    print(
        f"cluster n={RULES}: peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB "
        f"(B {base / 2**20:.1f} MiB + {ROOM} x D {RULES * RULES * 8 / 2**20:.1f} MiB): {verdict}"
    )
    return 0 if peak <= bound else 1


if __name__ == "__main__":
    sys.exit(main())
