"""Table 1 (dataset statistics): generates all six datasets at bench scale.

AL runs are computed live and memoized on the session's Runner, so a
configuration an earlier table ran is reused; the benchmark measures the
table-harness end-to-end time and emits paper-vs-measured rows to
bench_results/table01.{txt,md}.
"""
from repro.exp.report import emit
from repro.exp.tables import table1


def test_table01(benchmark, bench_runner, results_dir):
    result = benchmark.pedantic(lambda: table1(bench_runner), rounds=1, iterations=1)
    assert result["rows"]
    emit(results_dir, 1, result)
