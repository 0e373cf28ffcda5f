"""The paper's Tables 1-10 at bench scale, one case per table.

AL runs are computed live and memoized on the session's Runner, so a
configuration an earlier table ran is reused; each case measures its
table harness end to end and writes its paper-vs-measured rows to
bench_results/tableNN.md.
"""
import pytest

from repro.exp.report import emit
from repro.exp.tables import TABLES


@pytest.mark.parametrize("n", sorted(TABLES))
def test_table(benchmark, bench_runner, results_dir, n):
    result = benchmark.pedantic(lambda: TABLES[n](bench_runner), rounds=1, iterations=1)
    assert result["rows"]
    emit(results_dir, n, result)


def test_table03_shape(benchmark, bench_runner, results_dir):
    """The paper's headline: DIAL recalls far more cross-lingual
    duplicates than indexing the frozen pretrained embeddings."""

    def shape():
        dial = bench_runner.al_result("multilingual", blocking="dial")["final"]
        fixed = bench_runner.al_result("multilingual", blocking="paired_fixed")["final"]
        return dial, fixed

    dial, fixed = benchmark.pedantic(shape, rounds=1, iterations=1)
    assert dial["cand_recall"] > fixed["cand_recall"] + 5
