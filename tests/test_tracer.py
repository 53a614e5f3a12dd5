"""The benchmark's tracer names program functions and attributes; a rename
or deletion in the program would otherwise show only in a traced run."""

import importlib
import importlib.util
from pathlib import Path

from qwalled.cellular import CellModule, cell_label, gram_matrix
from qwalled.combinat import Bipartition
from qwalled.engine import build_engine
from qwalled.groundfield import GenericField

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_span_resolves():
    for name in _tracer().SPANS:
        module, _, path = name.partition(".")
        owner = importlib.import_module("qwalled." + module)
        for attr in path.split("."):
            assert hasattr(owner, attr), name
            owner = getattr(owner, attr)
        assert callable(owner), name


def test_gram_matrix_memoizes_on_module():
    # the tracer counts Gram entries only for calls that find _gram None
    eng = build_engine(2, 1, GenericField())
    mod = CellModule(eng, cell_label(2, 1, 1, Bipartition((1,), ())))
    assert mod._gram is None
    gram = gram_matrix(mod)
    assert mod._gram is gram
    assert gram_matrix(mod) is gram
