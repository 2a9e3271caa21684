"""Layer size sweep: the cells of ROADMAP.md's baseline table.

For ``gen_3sat`` at k = 3, 4, 5 it times parse, extract, ``use_apply`` (with
its configuration count), ``reply``, ``compute`` and ``trace`` on one seeded
formula; for random truth tables of arity 10, 12, 14 it times
``equivalence_check``. Each cell is the median of a few repeats.

    python3 perfbench/sweep.py --seed 1 --out perfbench/BENCH_baseline.json
    python3 perfbench/sweep.py --table perfbench/BENCH_baseline.json
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent))

import env  # noqa: E402

SAT_SIZES = {3: 3, 4: 3, 5: 1}  # k -> repeats
TT_SIZES = {10: 3, 12: 1, 14: 1}  # arity -> repeats
SAT_CELLS = ("parse", "extract", "use_apply", "reply", "compute", "trace")


def _median_ms(fn, repeats: int) -> tuple[float, object]:
    times, result = [], None
    for _ in range(repeats):
        start = perf_counter()
        result = fn()
        times.append((perf_counter() - start) * 1000)
    return statistics.median(times), result


def _sat_row(pglb, k: int, repeats: int, rng: random.Random) -> dict:
    clauses = 8 * k**3
    present = set(rng.sample(range(clauses), rng.randint(clauses // 40, clauses // 10)))
    inputs = [j in present for j in range(clauses)]
    program = pglb.sat3.gen_3sat(k)
    text = pglb.isa.render(program)
    thread = pglb.extraction.extract(program)
    use_family, reply_family = pglb.services.register_family(inputs, k)
    row = {"k": k, "instructions": len(program)}
    row["parse_ms"], _ = _median_ms(lambda: pglb.isa.parse(text), repeats)
    row["extract_ms"], _ = _median_ms(lambda: pglb.extraction.extract(program), repeats)
    row["use_apply_ms"], product = _median_ms(
        lambda: pglb.interaction.use_apply(thread, use_family), repeats
    )
    row["use_configs"] = len(product.states)
    row["reply_ms"], answer = _median_ms(lambda: pglb.interaction.reply(product, reply_family), repeats)
    row["compute_ms"], computed = _median_ms(lambda: pglb.interaction.compute(program, inputs, k), repeats)
    row["trace_ms"], steps = _median_ms(lambda: pglb.interaction.trace(program, inputs, k), repeats)
    row["trace_steps"] = len(steps)
    row["reply"] = str(computed)
    if computed != answer:
        raise AssertionError(f"k={k}: compute gave {computed}, use_apply + reply gave {answer}")
    return row


def _tt_row(pglb, arity: int, repeats: int, rng: random.Random) -> dict:
    entries = tuple(None if rng.random() < 0.1 else rng.random() < 0.5 for _ in range(2**arity))
    table = pglb.synthesis.PartialBooleanFunction(arity, entries)
    program = pglb.synthesis.compile_truth_table(table)
    verify_ms, report = _median_ms(lambda: pglb.oracle.equivalence_check(program, table), repeats)
    if not report.ok:
        raise AssertionError(f"arity {arity}: compiled table does not verify")
    return {"arity": arity, "instructions": len(program), "verify_ms": verify_ms, "inputs_swept": 2**arity}


def run_sweep(pglb, seed: int) -> dict:
    rng = random.Random(f"sweep:{seed}")
    return {
        "gen_3sat": [_sat_row(pglb, k, r, rng) for k, r in SAT_SIZES.items()],
        "equivalence_check": [_tt_row(pglb, a, r, rng) for a, r in TT_SIZES.items()],
    }


def sweep_metrics(sweep: dict) -> dict[str, tuple[float, str]]:
    """Flatten the sweep into per-layer metrics named sweep.k<k>.<cell> and sweep.tt<arity>.verify_ms."""
    metrics = {}
    for row in sweep["gen_3sat"]:
        for cell in SAT_CELLS:
            metrics[f"sweep.k{row['k']}.{cell}_ms"] = (row[f"{cell}_ms"], "ms")
        metrics[f"sweep.k{row['k']}.use_configs"] = (row["use_configs"], "count")
    for row in sweep["equivalence_check"]:
        metrics[f"sweep.tt{row['arity']}.verify_ms"] = (row["verify_ms"], "ms")
    return metrics


def render_table(record: dict) -> str:
    """The baseline table of ROADMAP.md, in markdown, from a sweep record."""
    lines = [
        "| workload | parse | extract | use_apply (configs) | reply | `compute` e2e | `trace` |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for row in record["sweep"]["gen_3sat"]:
        lines.append(
            f"| `gen_3sat` k={row['k']}, {row['instructions']} instr | {row['parse_ms']:.1f} "
            f"| {row['extract_ms']:.1f} | {row['use_apply_ms']:.1f} ({row['use_configs']:,}) "
            f"| {row['reply_ms']:.1f} | {row['compute_ms']:.1f} | {row['trace_ms']:.1f} |"
        )
    verify = " / ".join(f"{row['verify_ms']:.0f}" for row in record["sweep"]["equivalence_check"])
    arities = " / ".join(str(row["arity"]) for row in record["sweep"]["equivalence_check"])
    lines.append("")
    lines.append(f"`equivalence_check` on a random truth table takes {verify} ms at arity {arities}.")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, help="write the sweep record as JSON here")
    parser.add_argument("--table", type=Path, help="print the baseline table of a sweep record and exit")
    args = parser.parse_args(argv)
    if args.table:
        print(render_table(json.loads(args.table.read_text(encoding="utf-8"))))
        return 0
    try:
        pglb = env.load_pglb()
    except env.MissingProgram as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    record = {"env": env.environment(), "seed": args.seed, "sweep": run_sweep(pglb, args.seed)}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(render_table(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
