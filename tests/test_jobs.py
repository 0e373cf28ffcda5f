"""The one spark-submit entry point, ``jobs/paper_tables.py``: its
arguments and its table dispatch.

The job's ``main`` builds a session and stops it, so the tables run
here through ``run_tables``, the function ``main`` calls, against the
already-running session's test-profile Runner (running full tables is
the benchmarks' job).
"""
import importlib.util
import pathlib

import pytest

from repro.exp.report import table_markdown
from repro.exp.tables import TABLES, table1

JOB = pathlib.Path(__file__).resolve().parents[1] / "jobs" / "paper_tables.py"

# one case per table, named by what the table reports
TABLE_NAMES = {
    1: "table01_stats", 2: "table02_main", 3: "table03_multilingual",
    4: "table04_negatives", 5: "table05_objectives", 6: "table06_cand_size",
    7: "table07_committee", 8: "table08_selectors", 9: "table09_op_times",
    10: "table10_testing_time",
}


@pytest.fixture(scope="module")
def job():
    spec = importlib.util.spec_from_file_location(JOB.stem, JOB)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture
def fake_tables(job, monkeypatch):
    """Swap the job's table registry for stubs that record which table
    ran on which runner, in what order."""
    calls = []

    def stub(n):
        def table(runner):
            calls.append((n, runner))
            return {"title": f"Table {n}", "rows": [{"table": n}]}
        return table

    monkeypatch.setattr(job, "TABLES", {n: stub(n) for n in TABLES})
    return calls


def test_make_experiments_md_importable(job):
    """The job that writes every table to one directory imports."""
    assert callable(job.main) and callable(job.run_tables)
    assert job.parse_args(["--out", "tables"]).out == pathlib.Path("tables")


@pytest.mark.parametrize("n", sorted(TABLE_NAMES), ids=TABLE_NAMES.values())
def test_job_modules_importable(job, n, fake_tables):
    """``paper_tables.py N`` runs Table N, and only it."""
    assert job.parse_args([str(n)]).tables == [n]
    runner = object()
    job.run_tables(runner, job.parse_args([str(n)]).tables)
    assert fake_tables == [(n, runner)]


def test_job_count_matches_tables(job):
    """No N selects every table, 1-10; N is sorted and deduplicated."""
    assert sorted(TABLE_NAMES) == sorted(TABLES) == list(range(1, 11))
    args = job.parse_args([])
    assert args.tables == list(range(1, 11))
    assert (args.profile, args.seed, args.out) == ("bench", 0, None)
    assert job.parse_args(["3", "1", "3", "--profile", "test"]).tables == [1, 3]


def test_jobs_reference_each_table_number(job, fake_tables, capsys):
    """With no N the job runs each table once, in ascending order, on
    one Runner, and prints each one's markdown."""
    runner = object()
    job.run_tables(runner, job.parse_args([]).tables)
    assert fake_tables == [(n, runner) for n in range(1, 11)]
    out = capsys.readouterr().out
    for n in range(1, 11):
        assert f"### Table {n}\n" in out


@pytest.mark.parametrize("bad", ["0", "11"])
def test_unknown_table_number_is_an_argparse_error(job, bad, capsys):
    with pytest.raises(SystemExit) as exc:
        job.parse_args([bad])
    assert exc.value.code == 2
    assert f"no such table: [{bad}]" in capsys.readouterr().err


def test_out_writes_one_markdown_file_per_table(job, runner, tmp_path):
    out = tmp_path / "tables"
    job.run_tables(runner, [1], out)
    assert [p.name for p in out.iterdir()] == ["table01.md"]
    assert (out / "table01.md").read_text() == table_markdown(table1(runner))


def test_without_out_nothing_is_written(job, runner, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    job.run_tables(runner, [1])
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().out == table_markdown(table1(runner)) + "\n"
