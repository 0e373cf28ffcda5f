"""Table 6 (ablation): candidate-set size small/medium/large.

AL runs are computed live and memoized on the session's Runner, so a
configuration an earlier table ran is reused; the benchmark measures the
table-harness end-to-end time and emits paper-vs-measured rows to
bench_results/table06.{txt,md}.
"""
from repro.exp.report import emit
from repro.exp.tables import table6


def test_table06(benchmark, bench_runner, results_dir):
    result = benchmark.pedantic(lambda: table6(bench_runner), rounds=1, iterations=1)
    assert result["rows"]
    emit(results_dir, 6, result)
