"""Tests for the command-line surface."""

import gc
import json
import os
import subprocess
import sys

import pytest

import qwalled
from qwalled.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    main,
    parse_bipartition,
)
from qwalled.combinat import Bipartition


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = os.path.dirname(os.path.dirname(os.path.abspath(qwalled.__file__)))


def run_process(*args, env=None, **kwargs):
    """``python -m qwalled.cli`` in its own process, the entry point that
    freezes the collector at exit, importing qwalled from this checkout."""
    return subprocess.run(
        [sys.executable, "-m", "qwalled.cli", *args],
        env=dict(os.environ, PYTHONPATH=SRC, **(env or {})), timeout=120,
        **kwargs)


def test_parse_bipartition():
    assert parse_bipartition("2,1/1") == Bipartition((2, 1), (1,))
    assert parse_bipartition("2/-") == Bipartition((2,), ())
    assert parse_bipartition("-/-") == Bipartition((), ())
    with pytest.raises(UsageError):
        parse_bipartition("2,1")
    with pytest.raises(UsageError):
        parse_bipartition("1,2/1")


def test_dims(capsys):
    code, out, _ = run_cli(capsys, "dims", "--r", "2", "--s", "1")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["dim"] == 6
    assert sorted(m["square"] for m in data["modules"]) == [1, 1, 4]
    assert data["ok"]


def test_dims_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "dims", "--r", "2", "--s", "1")
    _, out2, _ = run_cli(capsys, "dims", "--r", "2", "--s", "1")
    assert out1 == out2


def test_relations(capsys):
    code, out, _ = run_cli(capsys, "relations", "--r", "2", "--s", "2",
                           "--field", "q-power:2")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["ok"] and all(c["ok"] for c in data["checks"])


def test_cellular(capsys):
    code, out, _ = run_cli(capsys, "cellular", "--r", "2", "--s", "1")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["ok"] and data["basis"] and data["triangular"]


@pytest.mark.parametrize("anchors", ["0", "-1"])
def test_cellular_anchors_below_one_is_a_usage_error(capsys, anchors):
    # no anchor checks nothing, and -1 would slice off the last anchor
    code, out, err = run_cli(capsys, "cellular", "--r", "2", "--s", "1",
                             "--anchors", anchors)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_gram(capsys):
    code, out, _ = run_cli(capsys, "gram", "--r", "2", "--s", "1",
                           "1", "1/-")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["dim"] == 2 and not data["determinant_is_zero"]
    code, out, _ = run_cli(capsys, "gram", "--r", "2", "--s", "1",
                           "--field", "q-power:1", "1", "1/-")
    assert json.loads(out)["determinant_is_zero"]


def test_gram_bad_shape(capsys):
    code, _, err = run_cli(capsys, "gram", "--r", "2", "--s", "1",
                           "1", "2/-")
    assert code == EXIT_USAGE
    assert "error" in err


def test_gram_shape_parts_are_checked_as_given(capsys):
    # a zero part before a positive one is refused, naming the parts as
    # given; trailing zeros are dropped
    base = ["gram", "--r", "2", "--s", "1", "1"]
    for shape, parts in (("0,1/-", "(0, 1)"), ("1,0,2/-", "(1, 0, 2)")):
        code, out, err = run_cli(capsys, *base, shape)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert parts in err
    code, out, _ = run_cli(capsys, *base, "1,0/-")
    assert code == EXIT_OK and out == run_cli(capsys, *base, "1/-")[1]


@pytest.mark.parametrize("argv", [
    ["gram", "--r", "4", "--s", "3", "--field", "gfp:13,2,6",
     "--max-total", "7", "5", "1/-"],
    ["gram", "--r", "4", "--s", "3", "--max-total", "7", "1", "3/3"],
    ["branch", "--r", "3", "--s", "2", "1", "2/-/1"],
    ["branch", "--r", "1", "--s", "2", "0", "1/1,1"],
])
def test_label_is_checked_before_any_closure(argv, capsys, monkeypatch):
    import qwalled.cli

    def no_build(*args, **kwargs):
        raise AssertionError("closure before the label was checked")
    monkeypatch.setattr(qwalled.cli, "build_engine", no_build)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _counting_builds(monkeypatch):
    """Patch the CLI's build_engine to record (layer, dim) per closure."""
    import qwalled.cli
    built = []
    build = qwalled.cli.build_engine

    def counting(*args, **kwargs):
        engine = build(*args, **kwargs)
        built.append((engine.layer, engine.dim))
        return engine
    monkeypatch.setattr(qwalled.cli, "build_engine", counting)
    return built


def test_gram_closes_one_layer_quotient(capsys, monkeypatch):
    # at f = 1 the Gram form needs only the block e_1 B/J_2, of dimension
    # |D^1| 2! 2! = 9 * 4 = 36 at (3, 3); the top layers of (3, 2) and
    # (4, 3) close the blocks e^f B of dimension |D^f| = 6 and 24, but the
    # top layer at r = s has no block and closes the full algebra
    built = _counting_builds(monkeypatch)
    code, out, _ = run_cli(capsys, "gram", "--r", "3", "--s", "3",
                           "--field", "gfp:13,2,6", "1", "2/2")
    assert code == EXIT_OK and json.loads(out)["dim"] == 9
    assert built == [(1, 36)]
    built.clear()
    code, out, _ = run_cli(capsys, "gram", "--r", "3", "--s", "2",
                           "--field", "gfp:13,2,6", "2", "1/-")
    assert code == EXIT_OK and built == [(2, 6)]
    built.clear()
    code, out, _ = run_cli(capsys, "gram", "--r", "4", "--s", "3",
                           "--max-total", "7", "--field", "gfp:13,2,6",
                           "3", "1/-")
    assert code == EXIT_OK and built == [(3, 24)]
    built.clear()
    code, out, _ = run_cli(capsys, "gram", "--r", "2", "--s", "2",
                           "--field", "gfp:13,2,6", "2", "/")
    assert code == EXIT_OK and built == [(None, 24)]


# the stdout of f = 3 labels at r + s = 7 over GF(13), recorded when they
# still closed the full algebra (about 3.5 s each; 0.2 s through the block)
TOP_BLOCK_PINS = {
    ("gram", "--r", "4", "--s", "3", "3", "1/-"):
        "d619c2a09d89d86167ca77391cd0e360303bc6f8f5a3afec3e2c24319976cff3",
    ("gram", "--r", "3", "--s", "4", "--", "3", "-/1"):
        "51381ecc30e455e7e95de1a28d6e10f51d9dd9f6c93cee8a48487b7d9ae8049c",
    ("branch", "--r", "4", "--s", "3", "3", "1/-"):
        "a870025378e0baf0cce360cc99534f435bdfd294229250321da6153d2fbd89fe",
}


@pytest.mark.parametrize("argv", sorted(TOP_BLOCK_PINS))
def test_layer_three_output_pinned(argv, capsys):
    import hashlib
    code, out, _ = run_cli(capsys, *argv[:5], "--max-total", "7",
                           "--field", "gfp:13,2,6", *argv[5:])
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == TOP_BLOCK_PINS[argv]


def test_gram_quotient_is_size_guarded_and_not_cached(tmp_path, capsys,
                                                      monkeypatch):
    built = _counting_builds(monkeypatch)
    code, _, err = run_cli(capsys, "gram", "--r", "4", "--s", "3",
                           "--field", "gfp:13,2,6", "0", "4/3")
    assert code == EXIT_USAGE and "max-total" in err and built == []
    cache = tmp_path / "cache"
    code, out, _ = run_cli(capsys, "gram", "--r", "2", "--s", "2",
                           "--cache-dir", str(cache), "0", "2/1,1")
    assert code == EXIT_OK and json.loads(out)["dim"] == 1
    assert built == [(0, 4)] and not cache.exists()


def test_central(capsys):
    code, out, _ = run_cli(capsys, "central", "--r", "2", "--s", "1")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["ok"] and all(c["verified"] for c in data["characters"])


def test_central_reports_an_unverified_label(capsys, monkeypatch):
    # a label whose central character fails is reported with the closed
    # form scalar, unverified, and the call exits 1
    from qwalled.groundfield import GenericField
    from qwalled.repthy import RepError, central_character, central_scalar
    failing = Bipartition((1,), ())

    def fails_once(module):
        if module.label.shape == failing:
            raise RepError("not scalar")
        return central_character(module)
    monkeypatch.setattr(qwalled.cli, "central_character", fails_once)
    code, out, _ = run_cli(capsys, "central", "--r", "2", "--s", "1")
    assert code == EXIT_FAILURE
    data = json.loads(out)
    assert not data["ok"] and len(data["characters"]) == 3
    row, = [c for c in data["characters"] if not c["verified"]]
    assert (row["f"], row["shape"]) == (1, "1/-")
    label, = [lab for lab in qwalled.cli.cell_labels(2, 1)
              if lab.shape == failing]
    gen = GenericField()
    assert row["scalar"] == gen.to_text(central_scalar(label, gen))


def test_cellular_reports_a_failed_axiom(capsys, monkeypatch):
    # one wrong sigma image fails the involution axiom and the call
    import qwalled.cellular
    real_sigma = qwalled.cellular.sigma
    calls = []

    def perturbed(engine, vec):
        calls.append(vec)
        out = dict(real_sigma(engine, vec))
        if len(calls) == 1:
            engine.field.vec_iaxpy(out, engine.field.one, {0: engine.field.one})
        return out
    monkeypatch.setattr(qwalled.cellular, "sigma", perturbed)
    code, out, _ = run_cli(capsys, "cellular", "--r", "2", "--s", "1")
    assert code == EXIT_FAILURE
    data = json.loads(out)
    assert data["basis"] and data["triangular"]
    assert not data["involution"] and not data["ok"]
    assert len(data["failures"]) == 1


def test_simples(capsys):
    code, out, _ = run_cli(capsys, "simples", "--r", "1", "--s", "1",
                           "--field", "delta-zero")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["count"] == 1 and not data["quasi_hereditary"]


def test_semisimple_examples(capsys):
    code, out, _ = run_cli(capsys, "semisimple", "--r", "2", "--s", "1",
                           "--field", "q-power:1", "--mode", "both")
    assert code == EXIT_OK
    data = json.loads(out)
    assert not data["semisimple"]
    assert data["reason"] == "rho-power coincidence"
    code, out, _ = run_cli(capsys, "semisimple", "--r", "3", "--s", "1",
                           "--field", "delta-zero")
    assert json.loads(out)["semisimple"]


def test_semisimple_rho2_runs_both_signs(capsys):
    code, out, _ = run_cli(capsys, "semisimple", "--r", "2", "--s", "1",
                           "--field", "rho2:1")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all(not json.loads(line)["semisimple"] for line in lines)


def test_branch(capsys):
    code, out, _ = run_cli(capsys, "branch", "--r", "2", "--s", "1",
                           "1", "1/-")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["ok"] and [s["dim"] for s in data["sections"]] == [1, 1]


def test_branch_closes_one_layer_block(tmp_path, capsys, monkeypatch):
    # the cell module of a layer-1 label comes from the 12-dim block e_1
    # B/J_2 of B_{3,2}, as for gram; the cache is neither read nor written
    import qwalled.cli

    def no_cache(*args):
        raise AssertionError("cache file opened")
    monkeypatch.setattr(qwalled.cli, "_read_cache", no_cache)
    monkeypatch.setattr(qwalled.cli, "_write_cache", no_cache)
    built = _counting_builds(monkeypatch)
    cache = tmp_path / "cache"
    code, out, _ = run_cli(capsys, "branch", "--r", "3", "--s", "2",
                           "--cache-dir", str(cache), "1", "2/1")
    assert code == EXIT_OK and json.loads(out)["ok"]
    assert built == [(1, 12)] and not cache.exists()


def test_sweep(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--r", "2", "--s", "1",
                           "--amax", "3")
    assert code == EXIT_OK
    data = json.loads(out)
    assert len(data["points"]) == 14
    bad = {p["a"] for p in data["points"] if not p["semisimple"]}
    assert bad == {-1, 1}


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "dims", "--r", "4", "--s", "4")
    assert code == EXIT_USAGE and "max-total" in err
    code, _, err = run_cli(capsys, "dims", "--r", "2", "--s", "1",
                           "--field", "bogus")
    assert code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("spec", ["rational:abc", "gfp:7", "q-power:x",
                                  "gfp:7,1,2", "generic:abc", "generic:",
                                  "delta-zero:", "q-power:3:",
                                  "q-power:100000000000", "rho2:99999999999",
                                  "gfp:1000000000000000000000000000057,2,3",
                                  "rational:1e100000,2",
                                  "rational:2,1e-100000"])
def test_bad_field_is_a_usage_error(capsys, spec):
    # gfp:7,1,2 parses, but q^2 = 1 leaves delta undefined; the huge
    # exponents would make delta a polynomial with 10^11 terms, the huge
    # prime would take 10^15 trial divisions, and the huge rationals have
    # more digits than an int may print
    code, out, err = run_cli(capsys, "dims", "--r", "2", "--s", "1",
                             "--field", spec)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_closed_stdout_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_process("dims", "--r", "2", "--s", "1",
                           stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_BROKEN_PIPE
    assert proc.stderr == b""


@pytest.mark.parametrize("argv", [["dims", "--r", "3", "--s", "2"],
                                  ["branch", "--r", "3", "--s", "2",
                                   "1", "1,1/1"]])
def test_output_is_independent_of_the_hash_seed(argv):
    # labels, tableaux and coset reps are tuples keyed into dicts; no
    # output may depend on the order that string hashing gives them
    outs = []
    for seed in ("0", "1"):
        proc = run_process(*argv, env={"PYTHONHASHSEED": seed},
                           capture_output=True)
        assert proc.returncode == EXIT_OK and proc.stderr == b""
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and outs[0]


def test_cache_roundtrip(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, out1, _ = run_cli(capsys, "dims", "--r", "2", "--s", "1",
                            "--cache-dir", cache)
    assert code == EXIT_OK
    files = list((tmp_path / "cache").iterdir())
    assert len(files) == 1 and files[0].name.startswith("engine-r2-s1-")
    code, out2, _ = run_cli(capsys, "dims", "--r", "2", "--s", "1",
                            "--cache-dir", cache)
    assert code == EXIT_OK and out1 == out2
    # a cached engine is also good enough for matrix work
    code, out, _ = run_cli(capsys, "central", "--r", "2", "--s", "1",
                           "--cache-dir", cache)
    assert code == EXIT_OK and json.loads(out)["ok"]


@pytest.mark.parametrize("argv,expected", [
    (["dims", "--r", "2", "--s", "1"], EXIT_OK),
    (["dims", "--r", "0", "--s", "1"], EXIT_USAGE),
])
def test_in_process_call_keeps_the_collector(argv, expected, capsys):
    # only the process entry point (argv None) freezes the collector; a
    # caller passing argv keeps collecting its engine and cell-data cycles
    frozen = gc.get_freeze_count()
    code, _, _ = run_cli(capsys, *argv)
    assert code == expected
    assert gc.get_freeze_count() == frozen and gc.isenabled()


def test_cache_roundtrip_across_processes(tmp_path):
    # the entry point freezes the collector at exit: the cache file is
    # complete by then, and a second process reads it back
    argv = ["dims", "--r", "2", "--s", "1", "--cache-dir", str(tmp_path)]
    first = run_process(*argv, capture_output=True)
    assert first.returncode == EXIT_OK and first.stderr == b""
    path = _only_cache_file(tmp_path)
    written = path.stat()
    second = run_process(*argv, capture_output=True)
    assert second.returncode == EXIT_OK and second.stderr == b""
    assert second.stdout == first.stdout and json.loads(first.stdout)["ok"]
    # read, not rebuilt: a rebuild renames a new file into place
    assert path.stat().st_ino == written.st_ino
    assert path.stat().st_mtime_ns == written.st_mtime_ns


def test_usage_error_process_exits_2_with_one_line():
    proc = run_process("dims", "--r", "0", "--s", "1", capture_output=True)
    assert proc.returncode == EXIT_USAGE and proc.stdout == b""
    assert proc.stderr == b"error: r and s must be positive\n"


def test_failed_cache_write_leaves_no_file_or_descriptor(tmp_path,
                                                         monkeypatch):
    import qwalled.cli

    class Refused(Exception):
        pass

    def refuse(engine):
        raise Refused

    def lowest_free_descriptor():
        fd = os.open(os.devnull, os.O_RDONLY)
        os.close(fd)
        return fd

    monkeypatch.setattr(qwalled.cli, "engine_to_json", refuse)
    free = lowest_free_descriptor()
    with pytest.raises(Refused):
        main(["dims", "--r", "2", "--s", "1", "--cache-dir", str(tmp_path)])
    assert lowest_free_descriptor() == free
    assert list(tmp_path.iterdir()) == []


def test_text_and_csv_formats(capsys):
    code, out, _ = run_cli(capsys, "dims", "--r", "2", "--s", "1",
                           "--format", "text")
    assert code == EXIT_OK and "dim B_{2,1} = 6" in out
    code, out, _ = run_cli(capsys, "sweep", "--r", "2", "--s", "1",
                           "--format", "csv", "--amax", "1")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "a,rho,semisimple,reason,witnesses"


@pytest.mark.parametrize("argv", [
    ["cellular", "--r", "3", "--s", "3"],
    ["semisimple", "--r", "3", "--s", "3", "--mode", "gram"],
])
def test_csv_refused_before_any_work(capsys, monkeypatch, argv):
    import qwalled.cli

    def no_work(*args, **kwargs):
        raise AssertionError("field or engine work before the csv refusal")

    monkeypatch.setattr(qwalled.cli, "fields_from_spec", no_work)
    monkeypatch.setattr(qwalled.cli, "build_engine", no_work)
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert code == EXIT_USAGE and not out
    assert "csv output is not available for this command" in err


def test_gram_side_reuses_cached_engine(tmp_path, capsys, monkeypatch):
    # at (2, 1) every layer has a block, so the Gram side of semisimple and
    # sweep closes the two generic blocks once per run and leaves the cache
    # alone; dims still reuses the cached algebra
    import qwalled.cli
    cache = str(tmp_path / "cache")
    code, dims, _ = run_cli(capsys, "dims", "--r", "2", "--s", "1",
                            "--cache-dir", cache)
    assert code == EXIT_OK
    written = _only_cache_file(tmp_path / "cache").read_text()
    build = qwalled.cli.build_engine
    builds = []

    def blocks_only(r, s, field, layer=None):
        assert layer is not None, "closure of the full algebra"
        builds.append((field.spec_string(), layer))
        return build(r, s, field, layer=layer)

    monkeypatch.setattr(qwalled.cli, "build_engine", blocks_only)
    runs = [["semisimple", "--mode", "gram"],
            ["semisimple", "--mode", "both"],
            # over another field the Gram side still needs only the
            # generic blocks
            ["semisimple", "--field", "gfp:13,2,6", "--mode", "gram"],
            ["sweep", "--amax", "1"]]
    outs = []
    for argv in runs:
        builds.clear()
        code, out, _ = run_cli(capsys, argv[0], "--r", "2", "--s", "1",
                               "--cache-dir", cache, *argv[1:])
        assert code == EXIT_OK
        assert sorted(builds) == [("generic", 0), ("generic", 1)]
        outs.append(json.loads(out))
    assert outs[0]["semisimple"] and outs[1]["semisimple"]
    assert outs[2]["witnesses"] and len(outs[3]["points"]) == 6
    assert _only_cache_file(tmp_path / "cache").read_text() == written

    def no_closure(*args, **kwargs):
        raise AssertionError("closure on a warm cache")

    monkeypatch.setattr(qwalled.cli, "build_engine", no_closure)
    assert run_cli(capsys, "dims", "--r", "2", "--s", "1",
                   "--cache-dir", cache)[:2] == (EXIT_OK, dims)


def test_sweep_reports_verification_failure(capsys, monkeypatch):
    # Gram matrices that are never singular contradict the closed form at
    # the coincidence points
    import qwalled.repthy
    monkeypatch.setattr(qwalled.repthy, "gram_singular_labels",
                        lambda *args: [])
    code, out, err = run_cli(capsys, "sweep", "--r", "2", "--s", "1",
                             "--amax", "1")
    assert code == EXIT_FAILURE and out == ""
    assert err.startswith("verification failure:")


def test_sweep_has_no_field_option():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--r", "2", "--s", "1", "--field", "generic"])
    assert exc.value.code == EXIT_USAGE


def test_simples_size_guard(capsys, monkeypatch):
    import qwalled.cli
    classify = qwalled.cli.classify_simples
    calls = []
    monkeypatch.setattr(qwalled.cli, "classify_simples",
                        lambda *args: calls.append(args) or classify(*args))
    code, _, err = run_cli(capsys, "simples", "--r", "4", "--s", "4")
    assert code == EXIT_USAGE and "max-total" in err and calls == []
    _, _, err_dims = run_cli(capsys, "dims", "--r", "4", "--s", "4")
    assert err == err_dims
    code, out, _ = run_cli(capsys, "simples", "--r", "4", "--s", "4",
                           "--max-total", "8")
    # generically every label of (4, 4) is simple: 25 + 9 + 4 + 1 + 1
    assert code == EXIT_OK and json.loads(out)["count"] == 40
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["semisimple", "--r", "4", "--s", "3", "--mode", "gram"],
    ["sweep", "--r", "4", "--s", "3"],
])
def test_gram_side_size_guard(argv, capsys, monkeypatch):
    # the Gram side loads one engine per layer, and each load checks
    # --max-total before its closure
    import qwalled.cli

    def no_closure(*args, **kwargs):
        raise AssertionError("closure before the size guard")
    monkeypatch.setattr(qwalled.cli, "build_engine", no_closure)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert "max-total" in err and err.count("\n") == 1


def test_sweep_closes_blocks_not_the_algebra(capsys, monkeypatch):
    # at (3, 2) the nine generic Gram determinants come from the blocks of
    # dimensions 12, 12 and 6, each closed once for all 22 points; the
    # 120-dim algebra is never closed
    built = _counting_builds(monkeypatch)
    code, _, _ = run_cli(capsys, "sweep", "--r", "3", "--s", "2",
                         "--amax", "5")
    assert code == EXIT_OK
    assert sorted(built) == [(0, 12), (1, 12), (2, 6)]


def test_sweep_size_guard(capsys):
    code, _, err = run_cli(capsys, "sweep", "--r", "4", "--s", "4")
    assert code == EXIT_USAGE and "max-total" in err
    _, _, err_dims = run_cli(capsys, "dims", "--r", "4", "--s", "4")
    assert err == err_dims
    # the closed form needs no engine, so no bound applies
    code, out, _ = run_cli(capsys, "sweep", "--r", "4", "--s", "4",
                           "--mode", "closed_form", "--amax", "0")
    assert code == EXIT_OK and len(json.loads(out)["points"]) == 2


def test_sweep_amax(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--r", "2", "--s", "1",
                           "--amax", "0")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["amax"] == 0
    assert [(p["a"], p["rho"]) for p in data["points"]] \
        == [(0, "q^0"), (0, "-q^0")]
    code, out, err = run_cli(capsys, "sweep", "--r", "2", "--s", "1",
                             "--amax", "-1")
    assert code == EXIT_USAGE and out == "" and "amax" in err
    code, out, _ = run_cli(capsys, "sweep", "--r", "2", "--s", "1")
    assert code == EXIT_OK and json.loads(out)["amax"] == 3
    # the default r + s is held to the same bound
    code, out, err = run_cli(capsys, "sweep", "--r", "60", "--s", "50",
                             "--mode", "closed_form")
    assert code == EXIT_USAGE and out == "" and "amax" in err
    assert err.startswith("error: ") and err.count("\n") == 1


def _only_cache_file(cache):
    files = [p for p in cache.iterdir()]
    assert len(files) == 1
    return files[0]


def test_truncated_cache_is_rebuilt(tmp_path, capsys):
    argv = ["relations", "--r", "2", "--s", "1"]
    code, cold, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    cache = tmp_path / "cache"
    run_cli(capsys, *argv, "--cache-dir", str(cache))
    path = _only_cache_file(cache)
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(cache))
    assert code == EXIT_OK and out == cold and err == ""
    # the rebuilt engine was written back in full
    assert _only_cache_file(cache).read_text() == text


def test_cache_for_another_key_is_rebuilt(tmp_path, capsys):
    argv = ["dims", "--r", "1", "--s", "2"]
    code, cold, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    cache = tmp_path / "cache"
    run_cli(capsys, "dims", "--r", "2", "--s", "1", "--cache-dir", str(cache))
    wrong = _only_cache_file(cache)
    path = wrong.with_name(wrong.name.replace("-r2-s1-", "-r1-s2-"))
    wrong.rename(path)
    code, out, _ = run_cli(capsys, *argv, "--cache-dir", str(cache))
    assert code == EXIT_OK and out == cold
    assert '"r":1,"s":2' in path.read_text()


def test_edited_cache_is_rebuilt(tmp_path, capsys):
    # a coefficient edited in place leaves valid JSON for the right key;
    # only the CRC-32 on the first line tells the file is not what was
    # written.  The edited row is off the path of every basis word, so the
    # loader's basis-word check does not see it
    from qwalled.engine import engine_from_json
    from qwalled.groundfield import GenericField
    argv = ["relations", "--r", "2", "--s", "2"]
    code, cold, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK and json.loads(cold)["ok"]
    cache = tmp_path / "cache"
    run_cli(capsys, *argv, "--cache-dir", str(cache))
    path = _only_cache_file(cache)
    written = path.read_text()
    digest, body = written.split("\n", 1)
    data = json.loads(body)
    words = data["basis_words"]
    triplet = next(t for tok, triplets in sorted(data["act"].items())
                   for t in triplets if words[t[0]] + [tok] not in words)
    triplet[2] = "7" if triplet[2] != "7" else "5"
    edited = json.dumps(data, sort_keys=True, separators=(",", ":"))
    assert engine_from_json(edited, 2, 2, GenericField()).dim == 24
    path.write_text(digest + "\n" + edited)
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(cache))
    assert code == EXIT_OK and out == cold and err == ""
    assert path.read_text() == written


def test_flipped_digit_in_cache_is_rebuilt(tmp_path, capsys):
    # one digit of one coefficient changed in the file's text, as a bad
    # disk or copy might: the CRC-32 no longer matches, so the engine is
    # rebuilt and written back
    import re
    argv = ["relations", "--r", "2", "--s", "1", "--field", "gfp:13,2,6"]
    code, cold, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    cache = tmp_path / "cache"
    run_cli(capsys, *argv, "--cache-dir", str(cache))
    path = _only_cache_file(cache)
    written = path.read_text()
    digit = re.search(r'\[\d+,\d+,"(\d)', written).start(1)
    flipped = str((int(written[digit]) + 1) % 10)
    path.write_text(written[:digit] + flipped + written[digit + 1:])
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(cache))
    assert code == EXIT_OK and out == cold and err == ""
    assert path.read_text() == written


def _rename_g1(data):
    data["act"]["g7"] = data["act"].pop("g1")


def _drop_gs1(data):
    del data["act"]["gs1"]


def _column_99(data):
    data["act"]["e"][0][1] = 99


def _g5_in_a_word(data):
    data["basis_words"][-1][0] = "g5"


def _act_as_a_list(data):
    data["act"] = sorted(data["act"].items())


def _swap_g1_gs1_in_a_word(data):
    # every token valid, but the word is not the one of its basis vector
    word = max(data["basis_words"], key=len)
    word[:] = [{"g1": "gs1", "gs1": "g1"}.get(tok, tok) for tok in word]


def _zero_coefficient(data):
    # a stored zero breaks the kernels' contract that no vector holds one:
    # over GF(p) the prime kernel drops it, over Q(q, rho) it is copied
    # into every product with the row
    data["act"]["g1"].append([5, 0, "0"])


def _repeated_entry(data):
    data["act"]["g1"].append(list(data["act"]["g1"][0]))


def _edited_cache_is_rebuilt(tmp_path, capsys, argv, edit):
    """A cache file of argv edited into valid JSON under a valid CRC-32:
    the call prints what it prints with no cache, and writes the file
    back as it was."""
    import zlib
    code, cold, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    cache = tmp_path / "cache"
    run_cli(capsys, *argv, "--cache-dir", str(cache))
    path = _only_cache_file(cache)
    written = path.read_text()
    data = json.loads(written.split("\n", 1)[1])
    edit(data)
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    path.write_text("%08x\n%s" % (zlib.crc32(text.encode()), text))
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(cache))
    assert code == EXIT_OK and out == cold and err == ""
    assert path.read_text() == written


@pytest.mark.parametrize("edit", [_rename_g1, _drop_gs1, _column_99,
                                  _g5_in_a_word, _act_as_a_list,
                                  _swap_g1_gs1_in_a_word, _zero_coefficient,
                                  _repeated_entry],
                         ids=lambda f: f.__name__)
def test_cache_that_does_not_fit_the_algebra_is_rebuilt(tmp_path, capsys,
                                                        edit):
    # valid JSON under a valid CRC-32 whose tokens, indices, basis words or
    # coefficients do not fit B_{2,2}: the loader refuses it, and the
    # engine is rebuilt and written back; sigma reads the basis words, so a
    # wrong word loaded would fail the involution check of cellular.  Over
    # GF(13) a zero or a repeated entry loads to the same products, so only
    # the file left unrewritten would show it
    _edited_cache_is_rebuilt(tmp_path, capsys, [
        "cellular", "--r", "2", "--s", "2", "--field", "gfp:13,2,6"], edit)


def test_cache_with_a_zero_coefficient_over_q_q_rho_is_rebuilt(tmp_path,
                                                              capsys):
    # loaded, the zero in g1 would fail def.g[1,1]
    _edited_cache_is_rebuilt(tmp_path, capsys,
                             ["relations", "--r", "2", "--s", "2"],
                             _zero_coefficient)


def test_cli_never_imports_sympy(tmp_path):
    # values of R need no gcd, and the fractions that leave R are reduced
    # by the native heuristic gcd: importing the CLI, a GF(p) call, a
    # generic closure and the generic Gram determinants whose columns hold
    # no unit of R all leave sympy unloaded.  Start-up loads no standard
    # module that only some calls use: fractions waits for a rational
    # field and tempfile for the engine cache.  The cache's CRC-32 comes
    # from zlib, which every call loads anyway (argparse imports shutil),
    # and no call loads hashlib.  The child runs with -S, so that no site
    # hook preloads any of them.
    script = "\n".join([
        "import contextlib, io, sys",
        "import qwalled.cli",
        "LAZY = ('dataclasses', 'inspect', 'fractions', 'decimal',",
        "        'tempfile', 'hashlib', 'sympy')",
        "def call(argv):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert qwalled.cli.main(argv) == 0, argv",
        "    return [m for m in LAZY if m in sys.modules]",
        "assert [m for m in LAZY if m in sys.modules] == [], 'import'",
        # every layer stays eager, so that a tracer sees all of them
        "assert 'qwalled.repthy' in sys.modules",
        "for argv in (['gram', '--r', '2', '--s', '1', '--field',",
        "              'gfp:13,2,6', '1', '1/-'],",
        "             ['dims', '--r', '3', '--s', '2', '--field', 'generic'],",
        "             ['gram', '--r', '3', '--s', '2', '--field', 'generic',",
        "              '1', '2/1'],",
        "             ['gram', '--r', '3', '--s', '2', '--field', 'generic',",
        "              '2', '1/-'],",
        "             ['semisimple', '--r', '3', '--s', '2', '--field',",
        "              'generic', '--mode', 'gram'],",
        "             ['sweep', '--r', '2', '--s', '1', '--amax', '1']):",
        "    assert call(argv) == [], argv",
        "assert 'fractions' in call(['gram', '--r', '2', '--s', '1',",
        "                            '--field', 'rational:2,3', '1', '1/-'])",
        "assert 'zlib' in sys.modules",
        "cached = call(['dims', '--r', '2', '--s', '1', '--field',",
        "               'gfp:13,2,6', '--cache-dir', sys.argv[1]])",
        "assert 'tempfile' in cached and 'hashlib' not in cached, cached",
    ])
    proc = subprocess.run([sys.executable, "-S", "-c", script,
                           str(tmp_path / "cache")],
                          stderr=subprocess.PIPE,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert len(os.listdir(tmp_path / "cache")) == 1


@pytest.mark.parametrize("spec,mode,fields,closures", [
    ("rho2:1", "both", 2, 1),
    ("generic", "gram", 1, 1),
    ("gfp:5,2,2", "gram", 1, 0),
])
def test_semisimple_closes_the_generic_engine_at_most_once(
        spec, mode, fields, closures, capsys, monkeypatch):
    # the Gram side closes the generic blocks of layers 0, 1 and 2 once,
    # shared by both fields of rho2:1, and never the 120-dim algebra; GF(5)
    # with q = 2 stops below the quantum characteristic bound and needs no
    # engine
    import qwalled.cli
    built = []
    build = qwalled.cli.build_engine

    def counting(r, s, field, layer=None):
        built.append((field.spec_string(), layer))
        return build(r, s, field, layer=layer)
    monkeypatch.setattr(qwalled.cli, "build_engine", counting)
    code, out, _ = run_cli(capsys, "semisimple", "--r", "3", "--s", "2",
                           "--field", spec, "--mode", mode)
    assert code == EXIT_OK
    assert sorted(built) == [("generic", f) for f in (0, 1, 2)] * closures
    assert len(out.splitlines()) == fields


def test_gcd_failure_is_a_verification_failure(capsys, monkeypatch):
    # the f=1 determinant at (3, 2) reduces fractions outside R; a heuristic
    # gcd with no evaluation points left ends in one line and exit 1
    from qwalled import groundfield
    monkeypatch.setattr(groundfield, "HEU_GCD_MAX", 0)
    code, out, err = run_cli(capsys, "gram", "--r", "3", "--s", "2",
                             "--field", "generic", "1", "2/1")
    assert code == EXIT_FAILURE and out == ""
    assert err.startswith("verification failure: heuristic gcd failed")
    assert err.count("\n") == 1


def test_cache_dir_that_is_a_file_is_a_usage_error(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.write_text("not a directory")
    code, out, err = run_cli(capsys, "dims", "--r", "2", "--s", "1",
                             "--field", "generic", "--cache-dir", str(cache))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(cache) in err
    assert cache.read_text() == "not a directory"


def test_cache_file_that_is_a_directory_is_a_usage_error(tmp_path, capsys):
    cache = tmp_path / "cache"
    target = cache / "engine-r2-s1-generic-v1.json"
    target.mkdir(parents=True)
    code, out, err = run_cli(capsys, "dims", "--r", "2", "--s", "1",
                             "--field", "generic", "--cache-dir", str(cache))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(target) in err
    # the temp file is removed and the directory is left alone
    assert [p.name for p in cache.iterdir()] == [target.name]
    assert target.is_dir() and not any(target.iterdir())


@pytest.mark.parametrize("kind", ["file-is-a-directory", "dir-is-a-file"])
def test_unwritable_cache_fails_before_closure(tmp_path, capsys, monkeypatch,
                                               kind):
    import qwalled.cli

    def no_closure(*args, **kwargs):
        raise AssertionError("closure before the cache check")

    monkeypatch.setattr(qwalled.cli, "build_engine", no_closure)
    cache = tmp_path / "cache"
    target = cache / "engine-r3-s3-gfp_13_2_6-v1.json"
    if kind == "file-is-a-directory":
        target.mkdir(parents=True)
    else:
        cache.write_text("not a directory")
    code, out, err = run_cli(capsys, "dims", "--r", "3", "--s", "3",
                             "--field", "gfp:13,2,6", "--cache-dir", str(cache))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: cannot write the engine cache ")
    assert err.count("\n") == 1 and str(target) in err
