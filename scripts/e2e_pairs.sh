#!/usr/bin/env bash
# e2e_pairs: N alternating parent/change pairs of the `e2e` benchmark,
# judged by the rule a performance claim has to meet.
#
#   scripts/e2e_pairs.sh <parent-ref> [--pairs N] [--workloads a,b] [--seed S] [--record LABEL]
#
# The parent is `git archive <parent-ref>`; the change is the working
# tree as it stands (tracked and untracked-but-not-ignored files, so an
# uncommitted change is measured as it would be committed). Both are
# exported into a fresh directory under ${TMPDIR:-/tmp} and built there
# with `--offline`: no build writes inside the repository, `e2e/` and
# its lock file included. Each run is the `BENCHMARK.json` command's
# binary with `--workload W --seed S --seconds <run_seconds> --trace 0`,
# started from its own export's root; which side of a pair runs first
# alternates.
#
# Per workload x end-to-end metric it prints both sides' median and
# quartiles, the change of the median in percent, the pairs the change
# won (ties count for neither), the bound `BENCHMARK.json` fixes, and a
# verdict:
#   better        won >= 9/10 of the pairs AND the medians differ by more
#                 than the distance between the parent's quartiles
#   WORSE         the change's median is worse than the parent's by more
#                 than the bound
#   unresolved    a side's quartiles lie further apart than the bound
#                 allows to tell, and not every run of the change reads
#                 better than every run of the parent
#   within bound  otherwise
# Under each table it prints both sides' median [min, max] of the terms
# the sw-clock ratios are made of, read from each run's `count` lines:
# `reference_ns` (the denominator), `get_sw_ns` and `put_sw_ns`.
# With `--record LABEL` it also appends one JSON line per workload x
# end-to-end metric to BENCH_e2e.jsonl at the repository's root: the
# label, the parent's full sha, seed, pairs and run seconds, both sides'
# median and quartiles, the pairs won, the bound and the verdict, and
# re-renders EXPERIMENTS.md's claims table from that file
# (scripts/claims_table.py). Without it nothing in the repository is
# written.
# The exports and build directories are removed on exit; the raw result
# lines and logs stay in <dir>/runs. Exits non-zero if any run failed, reported
# itself incorrect or failed an operation. bash + python3 stdlib only.
set -euo pipefail

usage() {
    sed -n 's/^#   \(scripts.*\)/usage: \1/p' "$0" >&2
    exit 2
}

parent_ref=""
pairs=10
workloads=""
seed=12
label=""
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs=${2:?--pairs needs a value}; shift 2 ;;
        --workloads) workloads=${2:?--workloads needs a value}; shift 2 ;;
        --seed) seed=${2:?--seed needs a value}; shift 2 ;;
        --record) label=${2:?--record needs a label}; shift 2 ;;
        -*) usage ;;
        *) [ -z "$parent_ref" ] || usage; parent_ref=$1; shift ;;
    esac
done
[ -n "$parent_ref" ] || usage
case "$pairs" in '' | *[!0-9]* | 0) usage ;; esac

repo=$(cd "$(dirname "$0")/.." && pwd)
cd "$repo"
git rev-parse --verify --quiet "$parent_ref^{commit}" >/dev/null ||
    { echo "e2e_pairs: $parent_ref is not a commit" >&2; exit 2; }
read -r seconds declared < <(python3 -c 'import json
b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"], ",".join(w["name"] for w in b["workloads"]))')
[ -n "$workloads" ] || workloads=$declared

work=$(mktemp -d "${TMPDIR:-/tmp}/e2e_pairs.XXXXXX")
trap 'rm -rf "$work/parent" "$work/change" "$work/target-parent" "$work/target-change" "$work/out"' EXIT
mkdir "$work/parent" "$work/change" "$work/runs"
git archive "$parent_ref" | tar -x -C "$work/parent"
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do if [ -e "$f" ]; then printf '%s\0' "$f"; fi; done |
    tar --null -T - -cf - | tar -x -C "$work/change"

for side in parent change; do
    echo "e2e_pairs: building $side ($([ $side = parent ] && echo "$parent_ref" || echo "working tree")) in $work" >&2
    (cd "$work/$side" && CARGO_TARGET_DIR="$work/target-$side" \
        cargo build --release --offline --quiet --manifest-path e2e/Cargo.toml)
done

status=0
run() { # side workload pair
    local side=$1 workload=$2 pair=$3 out="$work/runs/$2.$1.$3"
    if ! (cd "$work/$side" && "$work/target-$side/release/e2e" --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 --out "$work/out") >"$out.log" 2>&1; then
        echo "e2e_pairs: $side $workload pair $pair exited non-zero (see $out.log)" >&2
        status=1
    fi
    tail -n 1 "$out.log" >"$out.json"
}
for workload in ${workloads//,/ }; do
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do run "$side" "$workload" "$pair"; done
        echo "e2e_pairs: $workload pair $pair/$pairs done" >&2
    done
done

python3 - "$work/runs" "$pairs" "$workloads" "$seed" "$seconds" "$label" \
    "$(git rev-parse "$parent_ref^{commit}")" <<'EOF' || status=1
import json, statistics, sys

runs, pairs, workloads, seed, seconds = sys.argv[1], int(sys.argv[2]), sys.argv[3].split(","), sys.argv[4], sys.argv[5]
label, parent_sha = sys.argv[6], sys.argv[7]
declared = json.load(open("BENCHMARK.json"))["end_to_end"]
bad = 0
records = []


def load(workload, side, pair):
    global bad
    path = f"{runs}/{workload}.{side}.{pair}.json"
    try:
        result = json.load(open(path))
    except (OSError, ValueError):
        print(f"  {side} pair {pair}: no result line in {path}")
        bad += 1
        return None
    if not result.get("correct") or result.get("failed", 1) != 0:
        print(f"  {side} pair {pair}: incorrect ({result.get('failed')} of {result.get('attempted')} operations failed)")
        bad += 1
    return {name: m["value"] for name, m in result["metrics"].items()}


def counts(workload, side, pair):
    """The `count NAME VALUE` lines of one run's log."""
    found = {}
    try:
        for line in open(f"{runs}/{workload}.{side}.{pair}.log"):
            words = line.split()
            if len(words) == 3 and words[0] == "count":
                found[words[1]] = float(words[2])
    except OSError:
        pass
    return found


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def fmt(x):
    return f"{x:.6g}"


for workload in workloads:
    print(f"\n{workload}: {pairs} pairs, seed {seed}, {seconds} s")
    sides = {side: [load(workload, side, p) for p in range(1, pairs + 1)] for side in ("parent", "change")}
    head = ("metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "delta %", "won", "bound %", "verdict")
    rows = [head]
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        both = [(p[name], c[name]) for p, c in zip(sides["parent"], sides["change"]) if p and c and name in p and name in c]
        if not both:
            rows.append((name, metric["unit"], "-", "-", "-", "-", "-", "no data"))
            continue
        parent, change = [p for p, _ in both], [c for _, c in both]
        # Positive = the change reads better.
        gain = (lambda p, c: p - c) if lower else (lambda p, c: c - p)
        pm, cm = statistics.median(parent), statistics.median(change)
        (pq1, pq3), (cq1, cq3) = quartiles(parent), quartiles(change)
        won = sum(1 for p, c in both if gain(p, c) > 0)
        bound = metric["bound"]
        scale = abs(pm) if pm else 1.0
        all_better = min(gain(p, c) for p in parent for c in change) > 0
        if won * 10 >= len(both) * 9 and gain(pm, cm) > pq3 - pq1:
            verdict = "better"
        elif -gain(pm, cm) / scale > bound:
            verdict = "WORSE"
        elif max(pq3 - pq1, cq3 - cq1) / scale > bound and not all_better:
            verdict = "unresolved"
        else:
            verdict = "within bound"
        records.append({
            "label": label, "parent": parent_sha, "seed": int(seed), "pairs": pairs, "seconds": json.loads(seconds),
            "workload": workload, "metric": name, "unit": metric["unit"],
            "at_parent": {k: float(f"{v:.8g}") for k, v in (("median", pm), ("q1", pq1), ("q3", pq3))},
            "at_change": {k: float(f"{v:.8g}") for k, v in (("median", cm), ("q1", cq1), ("q3", cq3))},
            "won": won, "of": len(both), "bound": bound, "verdict": verdict,
        })
        rows.append((
            name, metric["unit"],
            f"{fmt(pm)} [{fmt(pq1)}, {fmt(pq3)}]", f"{fmt(cm)} [{fmt(cq1)}, {fmt(cq3)}]",
            f"{(cm - pm) / scale * 100:+.2f}", f"{won}/{len(both)}", f"{bound * 100:g}", verdict,
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(head))]
    for r in rows:
        print("  " + "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())

    # What the sw-clock ratios are made of: a claim on one shows its
    # numerator and its denominator.
    logged = {side: [counts(workload, side, p) for p in range(1, pairs + 1)] for side in ("parent", "change")}
    rows = [("count", "parent median [min, max]", "change median [min, max]", "delta %")]
    for name in ("reference_ns", "get_sw_ns", "put_sw_ns"):
        values = [[c[name] for c in logged[side] if name in c] for side in ("parent", "change")]
        if not all(values):
            rows.append((name, "-", "-", "-"))
            continue
        pm, cm = (statistics.median(v) for v in values)
        spans = [f"{fmt(statistics.median(v))} [{fmt(min(v))}, {fmt(max(v))}]" for v in values]
        rows.append((name, *spans, f"{(cm - pm) / (pm or 1.0) * 100:+.2f}"))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    print("  sw-clock terms, from the logs' count lines (ns):")
    for r in rows:
        print("    " + "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())

if label:
    with open("BENCH_e2e.jsonl", "a") as out:
        for record in records:
            out.write(json.dumps(record, ensure_ascii=False) + "\n")
    print(f"\nrecorded {len(records)} lines as {label!r} in BENCH_e2e.jsonl")
sys.exit(1 if bad else 0)
EOF

if [ -n "$label" ]; then
    python3 scripts/claims_table.py >"$work/EXPERIMENTS.md" && cp "$work/EXPERIMENTS.md" EXPERIMENTS.md
fi
echo "e2e_pairs: raw result lines kept in $work/runs" >&2
exit $status
