"""Command-line interface: subcommands, file plumbing, exit codes."""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import egms
from egms import (
    STRATEGIES,
    EmbeddingStore,
    SampleMeta,
    filter_extremes,
    kmeans,
    load_embedding_store,
    load_sample_manifest,
    load_selection_manifest,
    resolve_ppls,
    write_embedding_store,
    write_sample_manifest,
)
from egms import cli
from egms.cli import main


@pytest.fixture()
def dataset(tmp_path):
    emb = tmp_path / "e.bin"
    man = tmp_path / "m.jsonl"
    rc = main(
        [
            "gen-synthetic",
            "--n", "240", "--dim", "5", "--blobs", "3", "--spread", "0.4",
            "--seed", "6",
            "--out-embeddings", str(emb),
            "--out-manifest", str(man),
        ]
    )
    assert rc == 0
    return emb, man


def test_gen_synthetic_outputs_load(dataset):
    emb, man = dataset
    store = load_embedding_store(emb)
    metas = load_sample_manifest(man)
    assert store.count == 240 and store.dim == 5
    assert len(metas) == 240


def test_select_round_trip(dataset, tmp_path, capsys):
    emb, man = dataset
    out = tmp_path / "sel.txt"
    rc = main(
        [
            "select",
            "--embeddings", str(emb), "--manifest", str(man),
            "--budget", "24", "--clusters", "3", "--candidates", "8",
            "--seed", "4", "--workers", "2", "--out", str(out), "--quiet",
        ]
    )
    assert rc == 0
    assert "selected 24" in capsys.readouterr().out
    manifest = load_selection_manifest(out)
    assert len(manifest.selected) == 24
    assert manifest.strategy == "exam"
    assert manifest.config.budget == 24


def test_select_emits_progress_lines(dataset, tmp_path, capsys):
    emb, man = dataset
    out = tmp_path / "sel.txt"
    rc = main(
        [
            "select",
            "--embeddings", str(emb), "--manifest", str(man),
            "--budget", "12", "--clusters", "3", "--candidates", "8",
            "--seed", "4", "--out", str(out),
        ]
    )
    assert rc == 0
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("progress ")]
    assert len(err_lines) == 12
    assert all("cluster=" in l and "step=" in l and "entropy=" in l for l in err_lines)


def test_select_deterministic_bytes(dataset, tmp_path):
    emb, man = dataset
    outs = []
    for name in ("a.txt", "b.txt"):
        out = tmp_path / name
        rc = main(
            [
                "select",
                "--embeddings", str(emb), "--manifest", str(man),
                "--budget", "20", "--clusters", "3", "--candidates", "8",
                "--seed", "11", "--workers", "3", "--out", str(out), "--quiet",
            ]
        )
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_centroid_dump(dataset, tmp_path, monkeypatch):
    import egms.cli
    import egms.sampler

    calls = []

    def counted_kmeans(*args, **kwargs):
        calls.append(args)
        return kmeans(*args, **kwargs)

    for module in (egms.sampler, egms.cli):
        monkeypatch.setattr(module, "kmeans", counted_kmeans, raising=False)
    emb, man = dataset
    out = tmp_path / "sel.txt"
    cents = tmp_path / "centroids.bin"
    rc = main(
        [
            "select",
            "--embeddings", str(emb), "--manifest", str(man),
            "--budget", "15", "--clusters", "4", "--seed", "2",
            "--out", str(out), "--dump-centroids", str(cents), "--quiet",
        ]
    )
    assert rc == 0
    assert len(calls) == 1  # the dump reuses the pipeline's clustering
    dumped = load_embedding_store(cents)
    assert dumped.count == 4 and dumped.dim == 5
    store = load_embedding_store(emb)
    kept = filter_extremes(resolve_ppls(load_sample_manifest(man)), 0.05, 0.05).kept
    direct = kmeans(store, kept, 4, 2).centroids
    assert np.array_equal(dumped.data, direct.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("strategy", ["random", "mid_score", "ccs", "exam_average_allocation", "mmd_minimize"])
def test_baseline_strategies(dataset, tmp_path, strategy):
    emb, man = dataset
    out = tmp_path / f"{strategy}.txt"
    rc = main(
        [
            "baseline", "--strategy", strategy,
            "--embeddings", str(emb), "--manifest", str(man),
            "--budget", "18", "--clusters", "3", "--candidates", "8",
            "--seed", "5", "--out", str(out), "--quiet", "--bins", "10",
        ]
    )
    assert rc == 0
    manifest = load_selection_manifest(out)
    assert len(manifest.selected) == 18
    assert manifest.strategy == strategy


def test_metrics_avg_rel(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("qa, 50.0, 40.0\nreason, 30.0, 60.0\n")
    rc = main(["metrics", "avg-rel", "--scores", str(scores)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "87.5000"


def test_diagnose(dataset, capsys):
    emb, man = dataset
    rc = main(
        [
            "diagnose", "--strategy", "exam", "--seeds", "2",
            "--embeddings", str(emb), "--manifest", str(man),
            "--budget", "20", "--clusters", "3", "--candidates", "8",
            "--seed", "1", "--quiet",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "gain_ratio_pct" in out and "exp_entropy_mean" in out


def test_diagnose_past_its_budget_limit_is_one_error_line(tmp_path):
    # 12,001 rows of one value: a budget the data can fill but whose
    # entropy would not fit in 4 GiB is refused before any run, with exit 1
    # and one error line, not a MemoryError traceback
    n = 12_001
    emb, man = tmp_path / "e.bin", tmp_path / "m.jsonl"
    write_embedding_store(emb, EmbeddingStore(np.arange(n, dtype=np.float32)[:, None]))
    man.write_text("".join(f'{{"id":"s{i}","ppl":2.0}}\n' for i in range(n)))
    proc = _console(
        ["diagnose", "--strategy", "exam", "--seeds", "1", "--embeddings", str(emb), "--manifest", str(man),
         "--budget", str(n), "--tails", "0,0"]
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: budget {n} is past diagnose's limit of 12000 samples: " \
        "the entropy of a selection that large would not fit in 4 GiB\n"
    assert proc.stdout == ""


def test_the_cli_holds_the_sample_manifest_in_under_40_bytes_a_record(tmp_path):
    # columns, not a SampleMeta a record (about 150 traced bytes each): the
    # ids as one string with int64 offsets and a float64 ppl and score column
    n = 20_000
    emb, man = tmp_path / "e.bin", tmp_path / "m.jsonl"
    write_embedding_store(emb, EmbeddingStore(np.zeros((n, 1), dtype=np.float32)))
    man.write_text("".join(f'{{"id":"s{i:06d}","ppl":{1.0 + i / n!r}}}\n' for i in range(n)))
    args = argparse.Namespace(embeddings=str(emb), manifest=str(man))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store, table = cli._load_inputs(args)
        retained = tracemalloc.get_traced_memory()[0] - before - store.data.nbytes
    finally:
        tracemalloc.stop()
    assert len(table) == n
    assert retained / n < 40


def test_the_cli_holds_loaded_nlls_in_about_8_bytes_a_token(tmp_path):
    # the table packs every record's NLLs into one float64 buffer: 8 bytes
    # a token plus int64 offsets; a tuple of Python floats a record would
    # take about 37 traced bytes a token
    n, tokens = 2000, 32
    emb, man = tmp_path / "e.bin", tmp_path / "m.jsonl"
    write_embedding_store(emb, EmbeddingStore(np.zeros((n, 1), dtype=np.float32)))
    nlls = [0.25 + j / 64 for j in range(tokens)]
    man.write_text("".join(json.dumps({"id": f"s{i}", "nlls": nlls}) + "\n" for i in range(n)))
    args = argparse.Namespace(embeddings=str(emb), manifest=str(man))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store, table = cli._load_inputs(args)
        retained = tracemalloc.get_traced_memory()[0] - before - store.data.nbytes
    finally:
        tracemalloc.stop()
    assert len(table) == n and table.nlls_of(n - 1).tolist() == nlls
    assert retained / (n * tokens) < 16


def test_the_cli_builds_no_sample_record(dataset, tmp_path, monkeypatch, capsys):
    # the CLI runs on the columnar table from load to manifest: a SampleMeta
    # built anywhere on the way would raise
    emb, man = dataset

    def refuse(self):
        raise AssertionError(f"SampleMeta {self.id!r} built")

    monkeypatch.setattr(SampleMeta, "__post_init__", refuse)
    inputs = ["--embeddings", str(emb), "--manifest", str(man), "--budget", "24", "--clusters", "3", "--quiet"]
    for argv in (
        ["select", *inputs, "--out", str(tmp_path / "sel.txt"), "--dump-centroids", str(tmp_path / "c.bin")],
        ["baseline", "--strategy", "mmd_minimize", *inputs, "--out", str(tmp_path / "mmd.txt")],
        ["diagnose", "--strategy", "exam", "--seeds", "2", *inputs],
    ):
        assert main(argv) == 0, argv[0]
    assert capsys.readouterr().err == ""


def test_missing_file_exits_1(tmp_path, capsys):
    rc = main(
        [
            "select",
            "--embeddings", str(tmp_path / "nope.bin"),
            "--manifest", str(tmp_path / "nope.jsonl"),
            "--budget", "5", "--out", str(tmp_path / "o.txt"),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_parameter_exits_1(dataset, tmp_path, capsys):
    emb, man = dataset
    rc = main(
        [
            "select",
            "--embeddings", str(emb), "--manifest", str(man),
            "--budget", "0", "--out", str(tmp_path / "o.txt"), "--quiet",
        ]
    )
    assert rc == 1


def test_sigma_whose_square_underflows_exits_1(dataset, tmp_path, capsys):
    emb, man = dataset
    rc = main(
        [
            "select",
            "--embeddings", str(emb), "--manifest", str(man),
            "--budget", "5", "--sigma", "1e-200", "--out", str(tmp_path / "o.txt"), "--quiet",
        ]
    )
    assert rc == 1
    assert "sigma" in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["select", "--budget", "5"])  # missing required flags
    assert exc.value.code == 1


def test_internal_invariant_exits_2(dataset, tmp_path, capsys, monkeypatch):
    from egms import InternalInvariantError
    import egms.cli

    def boom(*args, **kwargs):
        raise InternalInvariantError("synthetic corruption")

    monkeypatch.setattr(egms.cli, "select", boom)
    emb, man = dataset
    rc = main(
        [
            "select",
            "--embeddings", str(emb), "--manifest", str(man),
            "--budget", "5", "--out", str(tmp_path / "o.txt"), "--quiet",
        ]
    )
    assert rc == 2
    assert "internal error" in capsys.readouterr().err


def test_budget_over_population_exits_1(dataset, tmp_path, capsys):
    emb, man = dataset
    rc = main(
        [
            "select",
            "--embeddings", str(emb), "--manifest", str(man),
            "--budget", "1000", "--clusters", "3",
            "--out", str(tmp_path / "o.txt"), "--quiet",
        ]
    )
    assert rc == 1
    assert "post-filter" in capsys.readouterr().err


def _console(argv):
    """Run the CLI in a separate interpreter, as the console script runs."""
    src = str(Path(egms.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "egms.cli", *argv], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("command", ["select", "avg-rel"])
def test_non_utf8_input_exits_1_naming_the_line(dataset, tmp_path, command):
    # a separate interpreter, as the console script runs: an uncaught
    # exception would print a traceback on stderr
    emb, man = dataset
    if command == "select":
        lines = man.read_bytes().split(b"\n")
        lines[1] = lines[1].replace(b'"id":"', b'"id":"\xff', 1)
        bad = tmp_path / "bad.jsonl"
        argv = ["select", "--embeddings", str(emb), "--manifest", str(bad), "--budget", "5",
                "--out", str(tmp_path / "o.txt"), "--quiet"]
    else:
        lines = [b"qa, 50.0, 40.0", b"re\xffason, 30.0, 60.0", b""]
        bad = tmp_path / "bad.csv"
        argv = ["metrics", "avg-rel", "--scores", str(bad)]
    bad.write_bytes(b"\n".join(lines))
    proc = _console(argv)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert re.search(r"^error: .*\bline 2\b", proc.stderr, re.M), proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["select", "--out", "o.txt"],
        ["baseline", "--strategy", "exam_average_allocation", "--out", "o.txt"],
        ["diagnose", "--strategy", "exam", "--seeds", "2"],
    ],
)
def test_empty_dataset_exits_1_without_a_traceback(tmp_path, argv):
    # a 0-row store (magic, version 1, count 0, dim 4) and an empty manifest
    emb, man = tmp_path / "e.bin", tmp_path / "m.jsonl"
    emb.write_bytes(b"EGMS\x01\x00" + bytes(8) + b"\x04\x00\x00\x00")
    man.write_bytes(b"")
    argv = [str(tmp_path / a) if a == "o.txt" else a for a in argv]
    proc = _console([*argv, "--embeddings", str(emb), "--manifest", str(man), "--budget", "5"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert re.search(r"^error: ", proc.stderr, re.M), proc.stderr


def test_negative_gen_seed_exits_1_with_one_error_line(tmp_path, capsys):
    # as select's --seed -1 does: one error line, not numpy's ValueError
    rc = main(["gen-synthetic", "--n", "10", "--dim", "2", "--seed", "-1",
               "--out-embeddings", str(tmp_path / "e.bin"), "--out-manifest", str(tmp_path / "m.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "e.bin").exists()


@pytest.mark.parametrize("command", [["select"], ["baseline", "--strategy", "mmd_minimize"]])
def test_kernel_overflow_prints_only_progress_lines(tmp_path, command):
    # at spread 1e5 and sigma 1e-150, d^2 / (2 sigma^2) passes the float
    # range: the kernel entry is 0, and stderr stays the progress stream
    emb, man = tmp_path / "e.bin", tmp_path / "m.jsonl"
    assert main(["gen-synthetic", "--n", "200", "--dim", "4", "--blobs", "2", "--spread", "1e5",
                 "--out-embeddings", str(emb), "--out-manifest", str(man)]) == 0
    proc = _console([*command, "--embeddings", str(emb), "--manifest", str(man), "--budget", "20",
                     "--clusters", "2", "--sigma", "1e-150", "--out", str(tmp_path / "o.txt")])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert lines and all(line.startswith("progress ") for line in lines), proc.stderr


@pytest.mark.parametrize("nlls, problem", [([], "empty NLL sequence"), ([800.0], "perplexity overflowed to infinity")])
def test_bad_nll_sequence_is_one_error_line_naming_the_sample(dataset, tmp_path, nlls, problem):
    emb, man = dataset
    lines = man.read_text().splitlines()
    lines[1] = json.dumps({"id": "bad-nlls", "nlls": nlls})
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    proc = _console(["select", "--embeddings", str(emb), "--manifest", str(bad), "--budget", "5",
                     "--out", str(tmp_path / "o.txt"), "--quiet"])
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"error: sample 'bad-nlls' (row 1): {problem}"]


def _main_in_process(argv):
    """``main(argv)`` in this process: the exit code and the stderr lines, warnings included as lines."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, err.getvalue().splitlines() + [f"warning: {w.message}" for w in caught]


@st.composite
def _awkward_runs(draw):
    """Rows, perplexities and the ``select`` or ``baseline`` arguments of one run at the edges of valid input.

    Rows are blob points, with exact duplicates of one row or all one
    constant row, scaled and shifted by +-2^k. Sigma spans the range the
    kernel accepts; L may be |kept|; the budget may be 1, the whole
    population (every cluster takes its whole budget) or one more; m may be 1.
    """
    n, d = draw(st.integers(2, 60)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.normal(size=(3, d))[rng.integers(3, size=n)] + 0.1 * rng.normal(size=(n, d))
    shape = draw(st.sampled_from(["blobs", "duplicates", "constant"]))
    if shape == "duplicates":
        data[rng.random(n) < 0.5] = data[0]
    elif shape == "constant":
        data[:] = data[0]
    offset = draw(st.sampled_from([-1, 0, 1])) * 2.0 ** draw(st.integers(0, 40))
    data = data * draw(st.sampled_from([1.0, 1e-30, 1e30])) + offset
    ppls = rng.lognormal(0.8, 0.4, size=n)
    strategy = draw(st.sampled_from(("exam",) + STRATEGIES))
    tails = draw(st.sampled_from([(0.0, 0.0), (0.05, 0.05), (0.25, 0.1)]))
    filtered = strategy in ("exam", "exam_average_allocation")
    population = filter_extremes(ppls, *tails).kept.size if filtered else n
    budget = draw(st.one_of(st.sampled_from([1, population, population + 1]), st.integers(1, population)))
    clusters = draw(st.one_of(st.sampled_from([1, population]), st.integers(1, n)))
    sigma = draw(st.one_of(st.sampled_from([1e-160, 1e-150, 1e-3, 1e150, 1e300]), st.floats(0.01, 10.0)))
    m = draw(st.one_of(st.just(1), st.integers(1, n + 2)))
    argv = ["select"] if strategy == "exam" else ["baseline", "--strategy", strategy]
    argv += ["--budget", str(budget), "--clusters", str(clusters), "--candidates", str(m), "--sigma", repr(sigma)]
    argv += ["--tails", f"{tails[0]},{tails[1]}", "--seed", str(draw(st.integers(0, 9)))]
    return data, ppls, argv + (["--normalize"] if draw(st.booleans()) else [])


@settings(max_examples=800, deadline=None)
@given(_awkward_runs())
def test_awkward_inputs_keep_the_exit_code_and_stderr_contract(run):
    """Exit 0 or 1; stderr is progress lines, plus one ``error:`` line at exit 1; workers change no output."""
    data, ppls, argv = run
    with tempfile.TemporaryDirectory() as tmp:
        emb, man = Path(tmp) / "e.bin", Path(tmp) / "m.jsonl"
        write_embedding_store(emb, EmbeddingStore(data))
        write_sample_manifest(man, [SampleMeta(id=f"s{i}", ppl=float(p)) for i, p in enumerate(ppls)])
        runs = []
        for workers in (1, 2):
            out = Path(tmp) / f"sel-{workers}.txt"
            code, lines = _main_in_process(argv + ["--embeddings", str(emb), "--manifest", str(man),
                                                   "--workers", str(workers), "--out", str(out)])
            assert code in (0, 1), lines
            rest = [line for line in lines if not line.startswith("progress ")]
            assert len(rest) == code and all(line.startswith("error: ") for line in rest), lines
            if code == 0:
                load_selection_manifest(out)
            runs.append((code, lines, out.read_bytes() if code == 0 else None))
        assert runs[0] == runs[1]
