"""Table 5 (ablation): contrastive vs classification vs triplet.

AL runs are computed live and memoized on the session's Runner, so a
configuration an earlier table ran is reused; the benchmark measures the
table-harness end-to-end time and emits paper-vs-measured rows to
bench_results/table05.{txt,md}.
"""
from repro.exp.report import emit
from repro.exp.tables import table5


def test_table05(benchmark, bench_runner, results_dir):
    result = benchmark.pedantic(lambda: table5(bench_runner), rounds=1, iterations=1)
    assert result["rows"]
    emit(results_dir, 5, result)
