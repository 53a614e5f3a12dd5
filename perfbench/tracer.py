"""Run one qwalled CLI call with spans around each layer's public functions.

    python3 perfbench/tracer.py SPANS_JSON <qwalled cli argv...>

The program itself is not changed: after ``import qwalled.cli`` every name
listed in SPANS is rebound, in each qwalled module that holds it (or on its
class, for methods), to a wrapper that records one span per call.  Then
``qwalled.cli.main(argv)`` runs as ``python3 -m qwalled.cli`` would, and
its stdout is left untouched so that it can be compared with an untraced
call.  At exit the spans and counts are written to SPANS_JSON as
``{"spans": [[name, start, end, parent], ...], "counts": {...}}``, where
parent is the index of the enclosing span or -1.
"""

import functools
import importlib
import json
import sys
import time

# Public functions, by module, whose calls become spans.
SPANS = (
    "cli.main",
    "engine.build_engine",
    "engine.engine_to_json",
    "engine.engine_from_json",
    "engine.verify_relations",
    "engine.central_element",
    "cellular.cellular_data",
    "cellular.cell_module",
    "cellular.validate_cell_datum",
    "cellular.gram_matrix",
    "cellular.gram_determinant",
    "cellular.radical_rank",
    "linalg.determinant",
    "linalg.matrix_rank",
    "linalg.Echelon.insert",
    "linalg.Echelon.express",
    "hecke.HeckeAlgebra.n_sym",
    "groundfield.transfer_from_generic",
    "repthy.semisimplicity",
    "repthy.gram_singular_labels",
    "repthy.central_character",
    "repthy.branching_check",
)

COUNTS = ("engine.dim", "cellular.gram_entries",
          "cache.bytes_written", "cache.bytes_read")


class Recorder:
    """Spans and counts of one traced process, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTS, 0)

    def wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            note = before(args) if before else None
            record = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after:
                after(args, result, note)
            return result
        return traced

    # count hooks: (args, result, value noted before the call)

    def _engine_dim(self, args, engine, _):
        self.counts["engine.dim"] = max(self.counts["engine.dim"], engine.dim)

    def _bytes_written(self, args, text, _):
        self.counts["cache.bytes_written"] += len(text.encode())

    def _bytes_read(self, args, engine, _):
        self.counts["cache.bytes_read"] += len(args[0].encode())
        self._engine_dim(args, engine, None)

    def _gram_entries(self, args, gram, fresh):
        if fresh:
            self.counts["cellular.gram_entries"] += args[0].dim ** 2

    def install(self):
        """Rebind every name in SPANS; returns the wrapped cli.main."""
        import qwalled.cli  # noqa: F401  (imports every layer)
        hooks = {
            "engine.build_engine": (None, self._engine_dim),
            "engine.engine_to_json": (None, self._bytes_written),
            "engine.engine_from_json": (None, self._bytes_read),
            # gram_matrix caches its result on the module; count only the
            # calls that compute it
            "cellular.gram_matrix": (
                lambda args: getattr(args[0], "_gram", None) is None,
                self._gram_entries),
        }
        modules = [m for n, m in sys.modules.items()
                   if n.startswith("qwalled.")]
        for name in SPANS:
            module, _, path = name.partition(".")
            owner = importlib.import_module("qwalled." + module)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            traced = self.wrap(name, original, *hooks.get(name, (None, None)))
            if classes:
                setattr(owner, attr, traced)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        return sys.modules["qwalled.cli"].main


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    cli_main = recorder.install()
    try:
        code = cli_main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as handle:
            json.dump({"spans": recorder.spans, "counts": recorder.counts},
                      handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
