"""Tests of the benchmark itself: generator, answer checks and tracing."""

import dataclasses
import importlib
import json
from collections import Counter
from pathlib import Path

import pytest

import localhom as lh
import localhom.cli  # noqa: F401  (jobs call lh.cli.main)

import answers
import corpus
import run
import tracing


def small_jobs(tmp_path, seed=5):
    jobs, _ = corpus.build(lh, "probe-grid", seed, tmp_path)
    keep = ("check-cone-rp2_6", "local-apex-cone-rp2_6", "check-triangle-plus-point",
            "check-builtin-torus7")
    return [j for j in jobs if j.name in keep]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_generator_writes_checked_corpus(tmp_path, workload):
    jobs, largest = corpus.build(lh, workload, 3, tmp_path)
    names = [j.name for j in jobs]
    assert len(names) == len(set(names)) and largest in names
    for job in jobs:
        argv = list(job.argv)
        for flag in ("--in", "--a", "--b", "--c", "--d"):
            if flag in argv:
                assert Path(argv[argv.index(flag) + 1]).is_file()


def label_free(job):
    e = job.expected
    return (
        job.kind,
        e.get("groups"),
        e.get("overall"),
        e.get("witness"),
        "witness_vertex" in e,
        sorted(Counter(e.get("categories", {}).values()).items()),
        e.get("nodes"),
    )


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_seed_changes_labels_not_answers(tmp_path, workload):
    one, largest = corpus.build(lh, workload, 1, tmp_path / "one")
    two, _ = corpus.build(lh, workload, 2, tmp_path / "two")
    assert [label_free(j) for j in one] == [label_free(j) for j in two]
    # Symmetric complexes such as sphere(n) read the same under any labelling;
    # the largest job's input has no such symmetry.
    argv = next(j.argv for j in one if j.name == largest)
    path = Path(argv[argv.index("--in") + 1])
    assert path.read_text() != (tmp_path / "two" / path.name).read_text()


def test_checker_counts_injected_wrong_answer(tmp_path):
    job = next(j for j in small_jobs(tmp_path) if j.name == "check-cone-rp2_6")
    _, diffs = run.run_job(lh, job)
    assert diffs == []
    wrong = dataclasses.replace(job, expected={**job.expected, "witness": [2, 1, []]})
    _, diffs = run.run_job(lh, wrong)
    assert diffs and diffs[0].startswith("witness:")
    loop = run.Loop(0)
    loop.record([(wrong.name, 0.1, diffs), (job.name, 0.1, [])])
    assert (loop.attempted, loop.failed, loop.correct) == (2, 1, False)


def test_known_defect_fails_but_keeps_run_correct(tmp_path):
    loop = run.Loop(0)
    loop.record(run.run_pass(lh, small_jobs(tmp_path)))
    assert loop.correct
    assert set(loop.failures) <= set(corpus.KNOWN_DEFECTS)


def test_payload_diff_reports_each_field():
    expected = {"groups": {1: (0, (2,))}}
    payload = {"groups": [{"degree": 0, "rank": 0, "torsion": []},
                          {"degree": 1, "rank": 1, "torsion": []}]}
    assert answers.diff("homology", expected, payload) == [
        "groups[1]: expected (0, (2,)), got (1, ())"
    ]


def test_traced_counts_repeat_and_patches_are_removed(tmp_path):
    homology_module = importlib.import_module("localhom.homology")
    original = homology_module.smith_normal_form
    counts = []
    for attempt in range(2):
        jobs = small_jobs(tmp_path / str(attempt))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run.run_pass(lh, jobs, tracer, "p")
        finally:
            tracer.uninstall()
        totals = tracing.LayerTotals(tracer.spans, {f"p:{j.name}" for j in jobs})
        assert totals.calls["cli.main"] == len(jobs)
        counts.append(totals.counts())
    assert counts[0] == counts[1]
    assert homology_module.smith_normal_form is original
    metrics = tracing.layer_metrics(totals, 0.0)
    assert [m[0] for m in tracing.LAYER_METRICS] == list(metrics)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in tracing.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "pass_s", "largest_job_s", "job_p50_ms", "peak_rss_mb", "success_rate"
    }
