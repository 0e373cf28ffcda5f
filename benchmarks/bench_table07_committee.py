"""Table 7 (ablation): committee size N in {1,3,5}.

AL runs are computed live and memoized on the session's Runner, so a
configuration an earlier table ran is reused; the benchmark measures the
table-harness end-to-end time and emits paper-vs-measured rows to
bench_results/table07.{txt,md}.
"""
from repro.exp.report import emit
from repro.exp.tables import table7


def test_table07(benchmark, bench_runner, results_dir):
    result = benchmark.pedantic(lambda: table7(bench_runner), rounds=1, iterations=1)
    assert result["rows"]
    emit(results_dir, 7, result)
