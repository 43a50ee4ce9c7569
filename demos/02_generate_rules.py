#!/usr/bin/env python3
"""Abduce likely antecedent values from a seed rule and synthesize variants.

Trains the pairwise-conditional model on a two-rule family that differs in
three attributes, shows the posterior each varying attribute gets, then
enumerates every above-threshold combination into new, valid rules.
"""

from ruleforge import (
    ExclusionList,
    SeedObservation,
    Strategy,
    abduce_antecedents,
    build_candidate_graph,
    build_vocabulary,
    encode_corpus,
    enumerate_rules,
    fit,
    materialize_snort_rules,
    parse_rule,
    predict_distribution,
)

CORPUS = [
    'alert tcp $EXTERNAL_NET any -> $HOME_NET [139,445] '
    '(msg:"NETBIOS DCERPC spoolss EnumPrinters overflow attempt"; '
    'flow:established,to_server; dce_iface:12345678-1234-abcd-ef00-0123456789ab; '
    'dce_opnum:0; byte_test:4,>,256,8,relative,dce; sid:13162; rev:9;)',
    'alert tcp $EXTERNAL_NET any -> $HOME_NET [135,139,445,593,1024:] '
    '(msg:"NETBIOS DCERPC spoolss EnumPrinters overflow attempt wide"; '
    'flow:established,to_server; dce_iface:12345678-1234-abcd-ef00-0123456789ab; '
    'dce_opnum:1; byte_test:4,>,512,8,relative,dce; sid:13163; rev:9;)',
]

THRESHOLD = 0.01


def main() -> None:
    rules = [parse_rule(text) for text in CORPUS]

    # keep constant attributes: with two rules almost everything is shared,
    # and the shared context is exactly what makes the model confident
    vocab = build_vocabulary(rules, ExclusionList(drop_constant=False))
    model = fit(encode_corpus(rules, vocab), vocab, alpha=1.0)
    print(f"trained on {len(rules)} rules, {len(vocab.attributes)} attributes")

    seed = SeedObservation.from_rule(rules[0], vocab)
    print(f"seed rule: sid={seed.seed_sid}")

    print(f"\nposterior per attribute (threshold {THRESHOLD})")
    candidates = abduce_antecedents(model, seed, Strategy.threshold(THRESHOLD))
    for attribute in vocab.attributes:
        if not candidates[attribute]:
            continue
        distribution = predict_distribution(model, seed.encoded, attribute)
        ranked = ", ".join(f"{v!r} p={p:.4f}" for v, p in distribution.ranked())
        print(f"  {attribute}: {ranked}")
        print(f"    abduced alternatives: {candidates[attribute]}")

    graph = build_candidate_graph(seed, candidates)
    print(f"\ncandidate graph spans {graph.total_combinations()} combinations")

    result = enumerate_rules(graph, seed)
    print(f"enumerated {len(result)} new rules (the seed itself is skipped)")
    for generated in result:
        edits = {
            attr: state
            for attr, state in generated.changes.items()
            if state != "kept"
        }
        print(f"  changes: {edits}")

    print("\nmaterialized ruleset")
    print(materialize_snort_rules(list(result), "NETBIOS"), end="")


if __name__ == "__main__":
    main()
