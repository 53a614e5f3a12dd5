"""Replay of canonical CLI outputs stored in data/golden_cli.json.

Each stored case is an argv with the exit code and the exact stdout it must
produce.  Regenerate the file (only when a change of output is intended)
with

    PYTHONPATH=src python tests/test_golden_cli.py --record
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from qwalled.cli import main
from qwalled.combinat import labels

DATA = Path(__file__).resolve().parent / "data" / "golden_cli.json"

SIZES = ((2, 1), (2, 2), (3, 1))
FIELDS = ("generic", "q-power:1", "q-power:0:neg", "rational:2,3",
          "gfp:13,2,6")


def _labels(r, s):
    """[f, shape] for every cell label; an empty first component is written
    as the empty string, since argparse takes "-/-" for an option."""
    def text(p, empty):
        return ",".join(map(str, p.parts)) or empty
    return [[str(f), "%s/%s" % (text(lam.first, ""), text(lam.second, "-"))]
            for f, lam in labels(r, s)]


def golden_argvs():
    out = []
    for r, s in SIZES:
        for field in FIELDS:
            base = ["--r", str(r), "--s", str(s), "--field", field]
            for cmd in ("dims", "relations", "cellular", "central",
                        "simples"):
                out.append([cmd] + base)
            out.append(["semisimple"] + base + ["--mode", "both"])
            for label in _labels(r, s):
                out.append(["gram"] + base + label)
                out.append(["branch"] + base + label)
        out.append(["sweep", "--r", str(r), "--s", str(s), "--amax", "2"])
    # csv and text output at (2, 1); cellular and semisimple have no csv
    # output, so their csv cases record the usage error
    for fmt in ("csv", "text"):
        for field in ("generic", "gfp:13,2,6"):
            base = ["--r", "2", "--s", "1", "--field", field,
                    "--format", fmt]
            for cmd in ("dims", "relations", "cellular", "central",
                        "simples"):
                out.append([cmd] + base)
            out.append(["semisimple"] + base + ["--mode", "both"])
            out.append(["gram"] + base + ["1", "1/-"])
            out.append(["branch"] + base + ["1", "1/-"])
        out.append(["sweep", "--r", "2", "--s", "1", "--amax", "2",
                    "--format", fmt])
    return out


def run_argv(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, buf.getvalue()


def _cases():
    if not DATA.exists():
        return []
    with open(DATA) as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", _cases(), ids=lambda c: " ".join(c["argv"]))
def test_golden_output(case):
    code, out = run_argv(case["argv"])
    assert code == case["code"]
    assert out == case["stdout"]


BENCH_EXPECTED = DATA.parents[2] / "perfbench" / "expected.json"


@pytest.mark.parametrize("shape", ["3/2", "3/1,1", "2,1/2", "2,1/1,1",
                                   "1,1,1/2", "1,1,1/1,1"])
def test_large_gram_matches_benchmark(shape):
    # the layer-1 Gram forms at (4, 3) over GF(13), closed on the 144-dim
    # block, print what the benchmark stores for them
    argv = ["gram", "--r", "4", "--s", "3", "--field", "gfp:13,2,6",
            "--max-total", "7", "1", shape]
    with open(BENCH_EXPECTED) as handle:
        expected = json.load(handle)[" ".join(argv)]
    assert run_argv(argv) == (0, expected)


def test_golden_set_is_complete():
    assert [c["argv"] for c in _cases()] == golden_argvs()


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    cases = []
    for argv in golden_argvs():
        code, out = run_argv(argv)
        cases.append({"argv": argv, "code": code, "stdout": out})
    DATA.parent.mkdir(exist_ok=True)
    with open(DATA, "w") as handle:
        json.dump(cases, handle, indent=1, sort_keys=True)
        handle.write("\n")
