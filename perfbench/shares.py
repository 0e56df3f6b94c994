"""Each layer's share of the fit and score phases of a traced run.

    python3 perfbench/shares.py .perfbench/results/fit-neural-seed1-trace1.spans.jsonl

Reads the spans a ``--trace 1`` run wrote, keeps the measured rounds, and
prints per phase its wall time per round and each layer's self time as a
share of it.
"""

import json
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracing import Span, self_times  # noqa: E402


def phase_shares(spans: list) -> dict:
    """{phase: (wall seconds per round, {layer: share of the phase})}."""
    own = self_times(spans)
    roots = []
    wall = defaultdict(float)
    layer = defaultdict(lambda: defaultdict(float))
    rounds = {s.unit for s in spans if s.unit[0] == "round"}
    for i, s in enumerate(spans):
        root = i if s.parent is None else roots[s.parent]
        roots.append(root)
        if s.unit[0] != "round":
            continue
        phase = spans[root].name
        if s.parent is None:
            wall[phase] += s.end - s.start
        layer[phase][s.name] += own[i]
    return {phase: (wall[phase] / len(rounds),
                    {name: t / wall[phase] for name, t in layer[phase].items()})
            for phase in wall}


def main(path: str) -> None:
    with open(path) as fh:
        spans = [Span(d["name"], d["start"], d["end"], d["parent"], tuple(d["unit"]))
                 for d in map(json.loads, fh)]
    for phase, (seconds, shares) in phase_shares(spans).items():
        print(f"{phase}: {seconds:.3f} s per round")
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            if share >= 0.005:
                print(f"  {name:40s} {100 * share:5.1f}%")


if __name__ == "__main__":
    main(sys.argv[1])
