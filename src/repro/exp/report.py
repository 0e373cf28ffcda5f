"""Markdown rendering of the table results: the one rendering of the
paper-vs-measured rows, in ``bench_results/tableNN.md``."""
from __future__ import annotations


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


def emit(results_dir, table_no: int, result: dict) -> None:
    """Write one table's paper-vs-measured rows to
    ``results_dir/tableNN.md`` and echo them."""
    md = table_markdown(result)
    (results_dir / f"table{table_no:02d}.md").write_text(md)
    print("\n" + md)
