"""Print EXPERIMENTS.md with its claims table rendered from BENCH_e2e.jsonl.

    python3 scripts/claims_table.py > EXPERIMENTS.md.new

The table goes between the two marker comments below. Per label it shows
every row whose verdict is not `within bound` and the label's worst
`within bound` row (the largest move against its metric, as a share of
its bound), and counts the rows it leaves out. `e2e_pairs.sh --record`
writes the output back; `docs_drift.sh` check 13 fails when it differs.
"""
import json
import os
import sys

BEGIN = "<!-- claims table: rendered by scripts/claims_table.py from BENCH_e2e.jsonl -->"
END = "<!-- end of claims table -->"


def delta_pct(r):
    """The change of the median in percent, or the one the prose gave."""
    p, c = r["at_parent"], r["at_change"]
    return (c["median"] - p["median"]) / (abs(p["median"]) or 1.0) * 100 if p and c else r.get("delta_pct")


def stats(side):
    if not side:
        return "–"
    return f"{side['median']:g}" + (f" [{side['q1']:g}, {side['q3']:g}]" if side["q1"] is not None else "")


def render(records, lower):
    def worsening(r):
        d = delta_pct(r)
        return float("-inf") if d is None else (d if lower.get(r["metric"], True) else -d) / (r["bound"] or 1.0)

    out = ["| PR | workload | metric | parent median [q1, q3] | change median [q1, q3] | Δ % | won | bound % "
           "| verdict | parent, seed, pairs × s | source | note |", "|---|---|---|---|---|---|---|---|---|---|---|---|"]
    left_out = []
    for label in dict.fromkeys(r["label"] for r in records):
        mine = [r for r in records if r["label"] == label]
        worst = max((r for r in mine if r["verdict"] == "within bound"), key=worsening, default=None)
        shown = [r for r in mine if r["verdict"] != "within bound" or r is worst]
        if len(mine) > len(shown):
            left_out.append(f"{label} {len(mine) - len(shown)}")
        for r in shown:
            d, unit = delta_pct(r), f" ({r['unit']})" if r["unit"] else ""
            won = "–" if r["won"] is None else f"{r['won']}/{r['of']}"
            bound = "–" if r["bound"] is None else f"{r['bound'] * 100:g}"
            source = f"`{r['source'][:7]}`" if r.get("source") else "–"
            out.append(
                f"| {r['label']} | `{r['workload']}` | `{r['metric']}`{unit} | {stats(r['at_parent'])} "
                f"| {stats(r['at_change'])} | {'–' if d is None else f'{d:+.2f}'} | {won} | {bound} "
                f"| {r['verdict']} | `{r['parent'][:7]}`, {r['seed']}, {r['pairs']} × {r['seconds']:g} "
                f"| {source} | {r.get('note', '')} |")
    return out + (["", "Rows left out, all `within bound`: " + "; ".join(left_out) + "."] if left_out else [])


root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
lower = {m["name"]: m["better"] == "lower" for m in json.load(open(f"{root}/BENCHMARK.json"))["end_to_end"]}
records = [json.loads(line) for line in open(f"{root}/BENCH_e2e.jsonl")]
text = open(f"{root}/EXPERIMENTS.md").read().split("\n")
if BEGIN not in text or END not in text:
    sys.exit("claims_table: EXPERIMENTS.md lacks the claims table's marker comments")
sys.stdout.write("\n".join(text[:text.index(BEGIN) + 1] + render(records, lower) + text[text.index(END):]))
