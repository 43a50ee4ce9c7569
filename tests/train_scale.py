"""Peak RSS of `ruleforge train` at 20 000 rules, against the interpreter's start-up.

The synth benchmark workload trains on 5000 rules. This check writes the
workload's corpus shape (perfbench/corpus.py, seed 1) at 20 000 rules and
runs `python -m ruleforge.cli train` on it in a child. It fails if the
child's peak RSS exceeds B + ROOM, where B is the peak of a child that only
imports numpy and ruleforge.cli, as in cluster_scale.py. ROOM holds the
parsed rules, with one record per distinct header and option text (shared
by parse_ruleset), the vocabulary, the code matrix and the model; it does
not hold a record per header and option of every rule.

Run from the repository root:

    python3 tests/train_scale.py
"""

import sys
import tempfile
from pathlib import Path

from cluster_scale import corpus_and_base, peak_rss

RULES = 20000
ROOM = 36 * 2**20  # bytes the command may hold beyond B


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        corpus, base = corpus_and_base(Path(work), "synth", RULES)
        argv = ["-m", "ruleforge.cli", "train", "--rules", str(corpus)]
        out = Path(work) / "model.json"
        peak = peak_rss([sys.executable, *argv, "--out", str(out)], Path(work) / "stderr.txt")
    bound = base + ROOM
    verdict = "ok" if peak <= bound else "FAIL"
    print(
        f"train n={RULES}: peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB "
        f"(B {base / 2**20:.1f} MiB + {ROOM / 2**20:.0f} MiB): {verdict}"
    )
    return 0 if peak <= bound else 1


if __name__ == "__main__":
    sys.exit(main())
