"""The benchmark's own tests: tiny end-to-end runs, and checks that bite.

    python3 -m pytest -q perfbench

Each workload runs end to end at a tiny size, untraced and traced. Then its
outputs are altered one way at a time (a swapped top-1 word, a perturbed
map file, an off-by-one train_size, ...) and the workload's checks must
report each alteration, so that no check passes vacuously.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "experiment_maxmargin": workloads.ExperimentMaxMargin(
        world=workloads.Synth(n=400, clusters=4, d=12), n_anchors=3, test_size=10, epochs=2
    ),
    "diagnose_lsq": workloads.DiagnoseLsq(world=workloads.Synth(n=600, clusters=6, d=12), test_size=10),
    "translate_atlas": workloads.TranslateAtlas(
        world=workloads.Synth(n=300, clusters=4, d=12), queries=40, k=5
    ),
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_end_to_end(name, trace):
    result = run.run(TINY[name], seed=7, seconds=0, trace=trace)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        self_times = sum(values[f"{layer}_s"] for layer in spans.LAYERS)
        assert self_times + values["cli.other_s"] == pytest.approx(values["trace.wall_s"], abs=1e-9)


REPORTS = ["diagnose_lsq", "experiment_maxmargin"]


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """Each workload after one set-up and one checked run, outputs kept; made on first use."""
    made = {}

    def get(name: str):
        if name not in made:
            work = tmp_path_factory.mktemp(name)
            bench = run.Bench(TINY[name], seed=3, seconds=0, work=work / "w", results=work)
            bench.setup(0)
            _, out = bench.run_once(0)
            assert bench.problems == []
            made[name] = bench, out
        return made[name]

    return get


def altered(done, tmp_path, edit) -> list[str]:
    """Problems the workload's check reports after `edit` changes a copy of its outputs."""
    bench, out = done
    copy = tmp_path / out.name
    shutil.copytree(out, copy)
    edit(copy)
    _, problems = bench.w.check(bench.inputs, copy)
    return problems


def perturb_map(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    row = next(i for i, line in enumerate(lines) if i and not line.startswith("#"))
    values = lines[row].split()
    values[0] = repr(float(values[0]) + 0.5)
    lines[row] = " ".join(values)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def edit_rows(out: Path, change) -> None:
    """Apply `change` to each report row, in report.jsonl, report.tsv and the printed copy."""
    records = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
    rows = [r for r in records if "summary" not in r]
    for r in rows:
        change(r)
    (out / "report.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    tsv = (out / "report.tsv").read_text().splitlines()
    body = [line.split("\t") for line in tsv[1:len(rows) + 1]]
    for fields, r in zip(body, rows):
        fields[1], fields[2] = str(r["train_size"]), str(r["test_size"])
    text = "\n".join([tsv[0]] + ["\t".join(f) for f in body] + tsv[len(rows) + 1:]) + "\n"
    (out / "report.tsv").write_text(text)
    (out / "stdout.txt").write_text(text)


@pytest.mark.parametrize("name", sorted(TINY))
def test_unaltered_outputs_pass(name, finished, tmp_path):
    assert altered(finished(name), tmp_path, lambda out: None) == []


def off_by_one_train_size(r):
    r["train_size"] += 1


def nonzero_reference_delta(r):
    r["delta"] = 100.0 / r["test_size"]


def accuracy_off_the_grid(r):
    r["acc_global"] = 100.0 / r["test_size"] / 2


@pytest.mark.parametrize("name", REPORTS)
@pytest.mark.parametrize("change, expected", [
    (off_by_one_train_size, "train+test"),
    (nonzero_reference_delta, "delta"),
    (accuracy_off_the_grid, "multiple"),
])
def test_altered_report_row_is_caught(name, change, expected, finished, tmp_path):
    problems = altered(finished(name), tmp_path, lambda out: edit_rows(out, change))
    assert any(expected in p for p in problems), problems


@pytest.mark.parametrize("name", REPORTS)
def test_perturbed_map_file_is_caught(name, finished, tmp_path):
    problems = altered(finished(name), tmp_path, lambda out: perturb_map(sorted((out / "maps").glob("local_*"))[-1]))
    assert any("map_norm" in p for p in problems)


@pytest.mark.parametrize("name", REPORTS)
def test_printed_report_must_match_the_file(name, finished, tmp_path):
    def edit(out):
        (out / "stdout.txt").write_text((out / "stdout.txt").read_text() + "x\n")

    assert any("printed" in p for p in altered(finished(name), tmp_path, edit))


def test_locality_properties_are_checked(finished, tmp_path):
    bench, out = finished("diagnose_lsq")
    w = bench.w

    def zero_local_accuracy(r):
        r["acc_local"] = 0.0
        r["delta"] = -r["acc_reference"]

    problems = altered((bench, out), tmp_path, lambda o: edit_rows(o, zero_local_accuracy))
    assert any("local precision" in p for p in problems)

    def swap_end_maps(o):
        """Swap the two end anchors' maps and report pairwise cosines that fit the swap."""
        first, last = (o / "maps" / f"local_{a}.txt" for a in (w.anchors[0], w.anchors[-1]))
        text = first.read_text()
        first.write_text(last.read_text())
        last.write_text(text)
        lines = (o / "pairwise.tsv").read_text().splitlines()
        rows = [line.split("\t") for line in lines[1:]]
        for r in rows:
            ma, mb = (checks.read_map(o / "maps" / f"local_{a}.txt")[0] for a in r[:2])
            r[3] = repr(checks.matrix_cosine(ma, mb))
        (o / "pairwise.tsv").write_text("\n".join(lines[:1] + ["\t".join(r) for r in rows]) + "\n")

    def misreport(o):
        lines = (o / "pairwise.tsv").read_text().splitlines()
        fields = lines[1].split("\t")
        fields[3] = repr(float(fields[3]) - 0.01)
        (o / "pairwise.tsv").write_text("\n".join(lines[:1] + ["\t".join(fields)] + lines[2:]) + "\n")

    for edit, expected in ((swap_end_maps, "rank correlation"), (misreport, "pairwise")):
        copy = tmp_path / edit.__name__
        shutil.copytree(out, copy)
        edit(copy)
        problems = checks.check_locality(copy, w._desc, w._words, w._src, w.min_local_acc, w.max_rank_corr)
        assert any(expected in p for p in problems), (edit.__name__, problems)


def edit_translations(out: Path, change) -> None:
    lines = (out / "translations.tsv").read_text().splitlines()
    rows = [line.split("\t") for line in lines[1:]]
    change(rows)
    text = "\n".join([lines[0]] + ["\t".join(r) for r in rows]) + "\n"
    (out / "translations.tsv").write_text(text)
    (out / "stdout.txt").write_text(text)


def swap_top1_word(rows):
    rows[0][3], rows[1][3] = rows[1][3], rows[0][3]


def wrong_dispatch(rows):
    other = next(r[1] for r in rows if r[1] != rows[0][1])
    for r in rows:
        if r[0] == rows[0][0]:
            r[1] = other


def score_off_by_2e6(rows):
    rows[0][4] = f"{float(rows[0][4]) + 2e-6:.6f}"


@pytest.mark.parametrize("change, expected", [
    (swap_top1_word, "top-"), (wrong_dispatch, "dispatched"), (score_off_by_2e6, "scores"),
])
def test_altered_translation_is_caught(change, expected, finished, tmp_path):
    problems = altered(finished("translate_atlas"), tmp_path, lambda out: edit_translations(out, change))
    assert any(expected in p for p in problems), problems


def test_perturbed_atlas_map_is_caught(finished, tmp_path):
    bench, out = finished("translate_atlas")
    inputs = tmp_path / "inputs"
    shutil.copytree(bench.inputs, inputs)
    perturb_map(inputs / "atlas" / "map_0000.txt")
    assert any("ridge" in p for p in checks.check_atlas(inputs / "atlas", inputs / "world", bench.w.s, bench.w.lam))
    assert checks.check_translations(out, inputs / "atlas", inputs / "world", bench.w._queries, bench.w.k)


@pytest.mark.parametrize("name", sorted(TINY))
def test_altered_world_is_caught(name, finished, tmp_path):
    bench, _ = finished(name)
    world = bench.inputs / "world" if (bench.inputs / "world").is_dir() else bench.inputs
    copy = tmp_path / "world"
    shutil.copytree(world, copy)
    lines = (copy / "tgt.vec").read_text().splitlines()
    fields = lines[1].split(" ")
    fields[1] = repr(float(fields[1]) * 1.001)
    lines[1] = " ".join(fields)
    (copy / "tgt.vec").write_text("\n".join(lines) + "\n")
    words, src = checks.read_vec(copy / "src.vec")
    assert checks.world_problems(copy, words, src) == ["world targets are not G R(theta(x)) x"]


def test_self_time_subtracts_children():
    spans_ = [
        {"id": 0, "name": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "b", "parent": 0, "start": 1.0, "end": 3.0},
        {"id": 2, "name": "c", "parent": 0, "start": 4.0, "end": 8.0},
        {"id": 3, "name": "d", "parent": 2, "start": 5.0, "end": 6.0},
    ]
    assert spans.self_times(spans_) == [4.0, 2.0, 3.0, 1.0]


def test_without_sources_the_benchmark_refuses(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "diagnose_lsq", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
