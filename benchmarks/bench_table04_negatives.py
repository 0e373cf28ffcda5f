"""Table 4 (ablation): labeled vs random blocker negatives.

AL runs are computed live and memoized on the session's Runner, so a
configuration an earlier table ran is reused; the benchmark measures the
table-harness end-to-end time and emits paper-vs-measured rows to
bench_results/table04.{txt,md}.
"""
from repro.exp.report import emit
from repro.exp.tables import table4


def test_table04(benchmark, bench_runner, results_dir):
    result = benchmark.pedantic(lambda: table4(bench_runner), rounds=1, iterations=1)
    assert result["rows"]
    emit(results_dir, 4, result)
