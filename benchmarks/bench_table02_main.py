"""Table 2 (main comparison): 8 methods x 5 datasets, all-pairs P/R/F1/RT.

AL runs are computed live and memoized on the session's Runner, so a
configuration an earlier table ran is reused; the benchmark measures the
table-harness end-to-end time and emits paper-vs-measured rows to
bench_results/table02.{txt,md}.
"""
from repro.exp.report import emit
from repro.exp.tables import table2


def test_table02(benchmark, bench_runner, results_dir):
    result = benchmark.pedantic(lambda: table2(bench_runner), rounds=1, iterations=1)
    assert result["rows"]
    emit(results_dir, 2, result)
