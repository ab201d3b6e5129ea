"""Record the accuracy gate's references from the current sources.

    python3 bench/record.py

Writes bench/references.json: exact values of the deterministic scenarios,
Monte Carlo means pooled over STAT_SEEDS, and the seeded outputs
(fingerprints) at scenarios.REFERENCE_SEED.  The references pin results so
that a later change cannot move them quietly; re-record only in a change
that moves results on purpose, and say so in CHANGES.md.
"""

import json
import math
import sys

import run  # noqa: F401  (pins the BLAS threads before numpy loads)

sys.path.insert(0, str(run.SRC))

import scenarios  # noqa: E402

STAT_SEEDS = range(1, 9)


def main() -> int:
    empty = {"exact": {}, "stats": {}, "fingerprint": {}}
    out = {"seed": scenarios.REFERENCE_SEED, "stat_seeds": list(STAT_SEEDS),
           "exact": {}, "stats": {}, "fingerprint": {}}
    samples: dict[tuple[str, str], list[tuple[float, float]]] = {}
    seeds = [scenarios.REFERENCE_SEED] + [s for s in STAT_SEEDS if s != scenarios.REFERENCE_SEED]
    for name in scenarios.WORKLOADS:
        with_stats: set[str] = set()
        for seed in seeds:
            first = seed == scenarios.REFERENCE_SEED
            for call in scenarios.build(name, seed, empty).calls:
                if not first and call.label not in with_stats:
                    continue
                try:
                    result = call.run()
                except Exception as exc:
                    print(f"{name} seed {seed} {call.label}: {type(exc).__name__}: {exc}")
                    continue
                failures, read = call.check(result)
                for msg in failures:
                    print(f"{name} seed {seed}: {msg}")
                if first:
                    out["exact"].setdefault(call.label, {}).update(read["exact"])
                    out["fingerprint"].setdefault(call.label, {}).update(read["fingerprint"])
                for key, (mean, se) in read["stats"].items():
                    with_stats.add(call.label)
                    samples.setdefault((call.label, key), []).append((mean, se))
        print(f"recorded {name}")
    for (label, key), vals in sorted(samples.items()):
        mean = sum(m for m, _ in vals) / len(vals)
        se = math.sqrt(sum(s * s for _, s in vals)) / len(vals)
        out["stats"].setdefault(label, {})[key] = [mean, se]
    for section in ("exact", "fingerprint"):
        out[section] = {k: v for k, v in out[section].items() if v}
    scenarios.REFERENCES.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {scenarios.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
