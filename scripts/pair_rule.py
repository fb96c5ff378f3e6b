"""Compare perfbench runs of a parent commit and a change, pair by pair, by
the end-to-end metrics and bounds that ``BENCHMARK.json`` declares:

    python scripts/pair_rule.py PARENT.jsonl CHANGE.jsonl [--claim METRIC]

Each file holds the last stdout line of each perfbench run of one workload,
``{"correct", "attempted", "failed", "metrics"}`` with each metric as
``{"value", "unit"}``, one run a line, in run order; line k of the two
files forms pair k, so alternate which side of a pair runs first. For each
end-to-end metric the script prints both sides' medians and quartiles, the
pairs the change wins (a tie counts for neither), and whether the change's
median stays within the metric's bound, a fraction of the parent's median.
A metric whose quartiles, on either side, lie further apart than that bound
is unresolved instead, unless every run of the change reads better than
every run of the parent.

``--claim METRIC`` also checks a claimed gain: the change must win at least
nine tenths of the pairs, its median must beat the parent's by more than
the distance between the parent's quartiles, and no larger share of
operations may fail than at the parent.

Exits 0 when every metric stays within its bound and any claim is met,
1 otherwise, and 2 on unusable input.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

BENCHMARK = Path(__file__).parent.parent / "BENCHMARK.json"


def _runs(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as lines:
        return [json.loads(line) for line in lines if line.strip()]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(median), float(q3)


def _failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / max(sum(r["attempted"] for r in runs), 1)


def compare(parent: list[dict], change: list[dict], metric: dict) -> dict:
    """The pair rule's figures for one end-to-end ``metric`` of BENCHMARK.json,
    oriented so that a positive gain is better."""
    name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
    old = [sign * r["metrics"][name]["value"] for r in parent]
    new = [sign * r["metrics"][name]["value"] for r in change]
    (p1, pm, p3), (c1, cm, c3) = _quartiles(old), _quartiles(new)
    allowed = metric["bound"] * abs(pm)
    return {
        "parent": sorted(sign * v for v in (p1, pm, p3)),
        "change": sorted(sign * v for v in (c1, cm, c3)),
        "wins": sum(n < o for o, n in zip(old, new)),
        "gain": pm - cm,
        "parent_iqr": p3 - p1,
        "within_bound": cm - pm <= allowed,
        "unresolved": max(p3 - p1, c3 - c1) > allowed and max(new) >= min(old),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pair_rule.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("parent", help="the parent's runs, one JSON line each")
    parser.add_argument("change", help="the change's runs, in the same order")
    parser.add_argument("--claim", metavar="METRIC", help="a claimed end-to-end gain")
    args = parser.parse_args(argv)
    parent, change = _runs(args.parent), _runs(args.change)
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    if not parent or len(parent) != len(change):
        print(f"error: {len(parent)} parent and {len(change)} change runs "
              "form no pairs", file=sys.stderr)
        return 2
    if args.claim and args.claim not in {m["name"] for m in metrics}:
        print(f"error: --claim: {args.claim} is no end-to-end metric",
              file=sys.stderr)
        return 2
    pairs, ok, figures = len(parent), True, {}
    print(f"{pairs} pairs")
    for metric in metrics:
        name, unit = metric["name"], metric["unit"]
        try:
            figures[name] = f = compare(parent, change, metric)
        except KeyError:
            print(f"error: a run has no {name}", file=sys.stderr)
            return 2
        if f["unresolved"]:
            verdict = "unresolved: the runs spread wider than the bound"
        elif f["within_bound"]:
            verdict = "within bound"
        else:
            verdict = "WORSE beyond bound"
        ok &= f["within_bound"] and not f["unresolved"]
        p1, pm, p3 = f["parent"]
        c1, cm, c3 = f["change"]
        print(
            f"{name} ({unit}, {metric['better']} is better, bound "
            f"{metric['bound']:.0%}): parent {pm:.4g} [{p1:.4g}, {p3:.4g}], "
            f"change {cm:.4g} [{c1:.4g}, {c3:.4g}]; change wins "
            f"{f['wins']}/{pairs}; {verdict}"
        )
    if args.claim:
        f = figures[args.claim]
        wins = 10 * f["wins"] >= 9 * pairs
        gap = f["gain"] > f["parent_iqr"]
        old, new = _failed_share(parent), _failed_share(change)
        met = wins and gap and new <= old
        ok &= met
        print(
            f"claim {args.claim}: wins {f['wins']}/{pairs} (at least nine "
            f"tenths: {'yes' if wins else 'no'}); median gain {f['gain']:.4g} "
            f"against parent IQR {f['parent_iqr']:.4g} ({'yes' if gap else 'no'}); "
            f"failed share {old:.3g} -> {new:.3g} "
            f"({'grew' if new > old else 'not grown'}); "
            f"{'claim met' if met else 'claim NOT met'}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
