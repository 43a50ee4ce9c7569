#!/usr/bin/env python3
"""Score the model against baselines and sweep the generation threshold.

Splits a corpus into folds, hides one attribute of each held-out rule at a
time, and compares the model's prediction accuracy with a random draw and a
majority-value baseline. Then shows how the number of generated rules falls
as the posterior threshold rises.
"""

from ruleforge import (
    CLASSIFIER_BAYES,
    CLASSIFIER_MAX_FREQUENCY,
    CLASSIFIER_RANDOM,
    ExclusionList,
    SeedObservation,
    SplitSpec,
    build_vocabulary,
    encode_corpus,
    fit,
    loco_evaluate,
    parse_rule,
    threshold_sweep,
)

# port decides flow and content here, so evidence-based prediction can win;
# dsize is rare, which is exactly where the majority baseline shines
CORPUS = [
    parse_rule(
        f'alert tcp $EXTERNAL_NET any -> $HOME_NET {port} '
        f'(msg:"demo {i}"; flow:{flow}; content:"{content}"; {extra}sid:{100 + i}; rev:1;)'
    )
    for i, (port, flow, content, extra) in enumerate(
        [
            ("139", "established,to_server", "|00 01|", ""),
            ("139", "established,to_server", "|00 01|", ""),
            ("139", "established,to_server", "|00 01|", "dsize:>100; "),
            ("445", "to_client,established", "|00 02|", ""),
            ("445", "to_client,established", "|00 02|", ""),
            ("445", "to_client,established", "|00 02|", ""),
            ("53", "stateless", "|00 03|", ""),
            ("53", "stateless", "|00 03|", ""),
            ("53", "stateless", "|00 03|", "dsize:<56; "),
            ("139", "established,to_server", "|00 01|", ""),
            ("445", "to_client,established", "|00 02|", ""),
            ("53", "stateless", "|00 03|", ""),
        ]
    )
]


def main() -> None:
    spec = SplitSpec(folds=3, rng_seed=0)
    report = loco_evaluate(CORPUS, spec)

    print(f"cross-validated accuracy over {spec.folds} folds")
    header = f"{'attribute':<14}{'bayes':>8}{'random':>8}{'majority':>10}"
    print(header)
    print("-" * len(header))
    for attribute in report.attributes:
        bayes = report.mean(attribute, CLASSIFIER_BAYES)
        rand = report.mean(attribute, CLASSIFIER_RANDOM)
        major = report.mean(attribute, CLASSIFIER_MAX_FREQUENCY)
        print(f"{attribute:<14}{bayes:>8.3f}{rand:>8.3f}{major:>10.3f}")

    print("\nfull report is also available as CSV via report.to_csv()")

    vocab = build_vocabulary(CORPUS, ExclusionList(drop_constant=False))
    model = fit(encode_corpus(CORPUS, vocab), vocab)
    seed = SeedObservation.from_rule(CORPUS[0], vocab)
    sweep = threshold_sweep(model, seed, [0.001, 0.01, 0.05, 0.1, 0.3])

    print("\ngenerated rules per posterior threshold (seed sid 100)")
    for threshold, count in sweep.points:
        print(f"  t={threshold:<6} -> {count}")


if __name__ == "__main__":
    main()
