"""Markdown rendering of table results for EXPERIMENTS.md."""
from __future__ import annotations

from repro.exp.runner import Runner
from repro.exp.tables import TABLES


def table_markdown(result: dict) -> str:
    rows = result["rows"]
    if not rows:
        return f"### {result['title']}\n\n(no rows)\n"
    cols = list(rows[0].keys())
    lines = [f"### {result['title']}", ""]
    lines.append("| " + " | ".join(str(c) for c in cols) + " |")
    lines.append("|" + "|".join("---" for _ in cols) + "|")
    for r in rows:
        lines.append("| " + " | ".join(str(r.get(c, "")) for c in cols) + " |")
    lines.append("")
    return "\n".join(lines)


def all_tables_markdown(runner: Runner) -> dict[int, str]:
    return {n: table_markdown(TABLES[n](runner)) for n in sorted(TABLES)}


def emit(results_dir, table_no: int, result: dict) -> None:
    """Write one table's paper-vs-measured rows (txt + md) and echo it.
    Used by the benchmarks to populate bench_results/."""
    from repro.exp.tables import format_table

    text = format_table(result)
    (results_dir / f"table{table_no:02d}.txt").write_text(text + "\n")
    (results_dir / f"table{table_no:02d}.md").write_text(table_markdown(result))
    print("\n" + text)
