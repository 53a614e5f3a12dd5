"""Command-line surface: build or cache engines, run the verification
suites, and emit tables and reports.

Field specs are parsed here and nowhere else.  Every command gets its
engines from layer_engine, which keeps them for the run: a label takes
the block of its layer wherever one exists, anything else the full
algebra, whose cache file it reads and writes; the cache code checks
only the file (its CRC-32), and engine_from_json judges its text.

Exit codes: 0 success, 1 verification failure, 2 usage error (including
a malformed field spec or a field where q - q^{-1} is not invertible), 141
when stdout is closed before the output is written (128 + SIGPIPE, the
status a shell reports for a writer killed by a closed pipe).

Every call is a fresh process.  Besides the mathematics it pays for the
interpreter and its site hooks, for compiling qwalled from source when
no bytecode can be written (PYTHONDONTWRITEBYTECODE=1; pip install . or
one python -m compileall src removes that) and for exit; the README's
"Start-up" gives the numbers.  At exit the interpreter would collect
every object the call made, only for the OS to take the memory back, so
main as the process entry point freezes the collector (gc.freeze) once
the output is written, whatever the exit code.  That is safe: no object
the program keeps needs a finalizer, and the cache file is closed and
renamed before main returns.  A caller that passes main its argv keeps a
normal collector.
"""

import argparse
import gc
import json
import math
import os
import re
import sys

from .combinat import Bipartition, CombinatError, Partition
from .engine import (
    SCHEMA_VERSION,
    EngineError,
    build_engine,
    engine_from_json,
    engine_to_json,
    verify_relations,
)
from .groundfield import (
    EXPONENT_MAX,
    FieldError,
    GenericField,
    OneVarField,
    fields_from_spec,
)
from .cellular import (
    CellularError,
    cell_label,
    cell_labels,
    cell_module,
    gram_determinant,
    gram_matrix,
    module_dimension,
    validate_cell_datum,
)
from .repthy import (
    RepError,
    branching_check,
    central_character,
    central_scalar,
    classify_simples,
    is_quasi_hereditary,
    semisimplicity,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141

DEFAULT_MAX_TOTAL = 6

# the commands whose reports have no table, and so no csv output
NO_CSV = ("cellular", "semisimple")


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# parsing helpers

def parse_bipartition(text):
    """Parse "<first>/<second>" with comma-separated parts; "-" or the
    empty string denote the empty partition."""
    if "/" not in text:
        raise UsageError("bipartition must look like 2,1/1 (use - for "
                         "an empty component)")
    first, _, second = text.partition("/")

    def component(part):
        part = part.strip()
        if part in ("", "-"):
            return Partition()
        try:
            return Partition(tuple(int(p) for p in part.split(",")))
        except (ValueError, CombinatError) as exc:
            raise UsageError("bad partition %r: %s" % (part, exc))

    return Bipartition(component(first), component(second))


def _config_label(config):
    shape = parse_bipartition(config.shape)
    try:
        return cell_label(config.r, config.s, config.f, shape)
    except CellularError as exc:
        raise UsageError(str(exc))


# ---------------------------------------------------------------------------
# engine cache

def _cache_path(config, field):
    name = "engine-r%d-s%d-%s-v%d.json" % (
        config.r, config.s,
        re.sub(r"[^A-Za-z0-9_.-]", "_", field.spec_string()),
        SCHEMA_VERSION)
    return os.path.join(config.cache_dir, name)


def _digest(text):
    """The first line of a cache file: the CRC-32 of the engine JSON.  It
    catches damage, not forgery: the file holds its own digest."""
    import zlib
    return "%08x" % zlib.crc32(text.encode())


def _read_cache(path, config, field):
    """The cached engine, or None when the file is missing, fails its
    CRC-32, or engine_from_json refuses its text."""
    try:
        # the file is ASCII as written; a damaged byte reads as U+FFFD,
        # which fails the CRC-32
        with open(path, errors="replace") as handle:
            digest, _, text = handle.read().partition("\n")
        if _digest(text) != digest:
            return None
        return engine_from_json(text, config.r, config.s, field)
    except (OSError, EngineError):
        return None


def _check_size(config):
    """Refuse r + s above --max-total before any work that grows with it."""
    if config.r + config.s > config.max_total:
        raise UsageError(
            "r + s = %d exceeds the size bound %d; raise it with "
            "--max-total if you accept the runtime"
            % (config.r + config.s, config.max_total))


def _write_cache(path, cache_dir, engine):
    import tempfile
    # serialized first, so that a failure there leaves no descriptor open
    text = engine_to_json(engine)
    # a rename is atomic, so no reader ever sees a partial file
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(_digest(text) + "\n" + text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def layer_engine(config, field, f=None):
    """The engine holding the cell modules of layer f: the block e^f
    B/J_{f+1}, or the full algebra when f is None or the layer has no
    block (the top layer at r = s).  Each engine is loaded once per run
    and kept in config.engines by (field, layer), so the fields of a spec
    and the points of a sweep share their Gram data.  Only the full
    algebra goes through the cache file; a block is closed afresh and
    never cached."""
    layer = None if f == config.r == config.s else f
    key = (field, layer)
    if key in config.engines:
        return config.engines[key]
    _check_size(config)
    if layer is not None or not config.cache_dir:
        engine = build_engine(config.r, config.s, field, layer=layer)
    else:
        path = _cache_path(config, field)
        engine = _read_cache(path, config, field)
        if engine is None:
            try:
                # a cache that cannot be written fails before the closure
                os.makedirs(config.cache_dir, exist_ok=True)
                if os.path.isdir(path):
                    raise IsADirectoryError("Is a directory")
                engine = build_engine(config.r, config.s, field)
                _write_cache(path, config.cache_dir, engine)
            except OSError as exc:
                raise UsageError("cannot write the engine cache %s: %s"
                                 % (path, exc.strerror or exc))
    config.engines[key] = engine
    return engine


# ---------------------------------------------------------------------------
# output

def _csv_line(values):
    return ",".join('"%s"' % v for v in values)


def emit(config, report, csv_rows=None, csv_columns=None, text_lines=None):
    if config.format == "json":
        return json.dumps(report, sort_keys=True, separators=(",", ":"))
    if config.format == "csv":
        lines = [",".join(csv_columns)]
        for row in csv_rows:
            lines.append(_csv_line(row.get(col, "") for col in csv_columns))
        return "\n".join(lines)
    return "\n".join(text_lines)


def _report(config, field=None, **items):
    """A report: the header keys every command shares, then the items."""
    report = {"schema_version": SCHEMA_VERSION, "command": config.command,
              "r": config.r, "s": config.s}
    if field is not None:
        report["field"] = field.spec_string()
    report.update(items)
    return report


def _shape_text(label):
    def part(p):
        return ",".join(str(x) for x in p) or "-"
    return "%s/%s" % (part(label.shape.first), part(label.shape.second))


def _label_text(label):
    return {"f": label.f,
            "first": list(label.shape.first),
            "second": list(label.shape.second)}


# ---------------------------------------------------------------------------
# subcommands; each returns (exit_code, output string)

def cmd_dims(config, field):
    engine = layer_engine(config, field)
    labels = cell_labels(config.r, config.s)
    rows = []
    total = 0
    for label in labels:
        dim = module_dimension(label, config.r, config.s)
        total += dim * dim
        rows.append({"f": label.f, "shape": _shape_text(label),
                     "dim": dim, "square": dim * dim})
    ok = engine.dim == math.factorial(config.r + config.s) == total
    report = _report(config, field, dim=engine.dim,
                     factorial=math.factorial(config.r + config.s),
                     modules=rows, sum_of_squares=total, ok=ok)
    text = ["dim B_{%d,%d} = %d" % (config.r, config.s, engine.dim)]
    text += ["  f=%d  %-12s dim %d" % (r["f"], r["shape"], r["dim"])
             for r in rows]
    return (EXIT_OK if ok else EXIT_FAILURE,
            emit(config, report, rows, ["f", "shape", "dim", "square"], text))


def cmd_relations(config, field):
    engine = layer_engine(config, field)
    checks = verify_relations(engine)
    rows = [{"name": name, "ok": ok} for name, ok in checks]
    ok = all(r["ok"] for r in rows)
    report = _report(config, field, checks=rows, ok=ok)
    text = ["%-14s %s" % (r["name"], "ok" if r["ok"] else "FAILED")
            for r in rows]
    return (EXIT_OK if ok else EXIT_FAILURE,
            emit(config, report, rows, ["name", "ok"], text))


def cmd_cellular(config, field):
    if config.anchors is not None and config.anchors < 1:
        raise UsageError("--anchors must be at least 1")
    engine = layer_engine(config, field)
    result = validate_cell_datum(engine, alternate_anchors=config.anchors)
    report = _report(config, field, basis=result["basis"],
                     involution=result["involution"],
                     triangular=result["triangular"],
                     failures=[str(x) for x in result["failures"]],
                     ok=result["ok"])
    text = ["basis: %s" % result["basis"],
            "involution: %s" % result["involution"],
            "triangular: %s" % result["triangular"]]
    return (EXIT_OK if result["ok"] else EXIT_FAILURE,
            emit(config, report, text_lines=text))


def cmd_gram(config, field):
    label = _config_label(config)
    module = cell_module(layer_engine(config, field, label.f), label)
    entries = [[field.to_text(e) for e in row] for row in gram_matrix(module)]
    det = gram_determinant(module)
    report = _report(config, field, label=_label_text(label), dim=module.dim,
                     entries=entries, determinant=field.to_text(det),
                     determinant_is_zero=field.raw_is_zero(det))
    if config.format == "csv":
        # a matrix has no column names, so no header line
        return EXIT_OK, "\n".join(_csv_line(row) for row in entries)
    text = ["G_{%d,%s}  (%d x %d)" % (label.f, _shape_text(label),
                                      module.dim, module.dim)]
    text += ["  ".join(row) for row in entries]
    text.append("det = %s" % report["determinant"])
    return EXIT_OK, emit(config, report, text_lines=text)


def cmd_central(config, field):
    engine = layer_engine(config, field)
    rows = []
    ok = True
    for label in cell_labels(config.r, config.s):
        try:
            cc = central_character(cell_module(engine, label))
            verified = True
            scalar = cc.scalar
        except RepError:
            verified = False
            ok = False
            scalar = central_scalar(label, field)
        rows.append({"f": label.f, "shape": _shape_text(label),
                     "scalar": field.to_text(scalar), "verified": verified})
    report = _report(config, field, characters=rows, ok=ok)
    text = ["f=%d  %-12s %s" % (r["f"], r["shape"], r["scalar"])
            for r in rows]
    return (EXIT_OK if ok else EXIT_FAILURE,
            emit(config, report, rows, ["f", "shape", "scalar", "verified"],
                 text))


def cmd_simples(config, field):
    # the label list grows with the number of bipartitions of r and s
    _check_size(config)
    labels = classify_simples(config.r, config.s, field)
    rows = [{"f": label.f, "shape": _shape_text(label)} for label in labels]
    report = _report(
        config, field,
        quantum_characteristic=str(field.quantum_characteristic()),
        quasi_hereditary=is_quasi_hereditary(config.r, config.s, field),
        simples=rows, count=len(rows))
    text = ["f=%d  %s" % (r["f"], r["shape"]) for r in rows]
    return EXIT_OK, emit(config, report, rows, ["f", "shape"], text)


def cmd_semisimple(config, field):
    # Gram determinants are taken over the generic field, then evaluated
    # in the field; the engines are loaded only when the Gram side runs
    generic = GenericField()
    verdict = semisimplicity(
        config.r, config.s, field, mode=config.mode,
        generic=lambda f: layer_engine(config, generic, f))
    report = _report(config, field, mode=config.mode,
                     semisimple=verdict.verdict,
                     reason=verdict.reason,
                     witnesses=[_label_text(w) for w in verdict.witnesses])
    text = ["semisimple: %s" % verdict.verdict,
            "reason: %s" % verdict.reason]
    text += ["witness: f=%d %s" % (w.f, _shape_text(w))
             for w in verdict.witnesses]
    return EXIT_OK, emit(config, report, text_lines=text)


def cmd_branch(config, field):
    label = _config_label(config)
    if config.r < 2:
        raise UsageError("branch needs r >= 2")
    result = branching_check(
        cell_module(layer_engine(config, field, label.f), label))
    sections = result["sections"]
    text = ["%s -> %d sections, dim %d" % (_shape_text(label),
                                           len(sections), result["dim"])]
    text += ["  %-7s f=%d %-12s dim %d" % (
        sec["kind"], sec["label"].f, _shape_text(sec["label"]), sec["dim"])
        for sec in sections]
    text.append("ok: %s" % result["ok"])
    rows = [dict(sec, label=_label_text(sec["label"]),
                 scalar=field.to_text(sec["scalar"])) for sec in sections]
    report = _report(config, field, **dict(
        result, label=_label_text(label), sections=rows,
        trace=field.to_text(result["trace"])))
    return (EXIT_OK if result["ok"] else EXIT_FAILURE,
            emit(config, report, rows, ["kind", "dim", "scalar"], text))


def cmd_sweep(config):
    amax = config.r + config.s if config.amax is None else config.amax
    if not 0 <= amax <= EXPONENT_MAX:
        raise UsageError("--amax (default r + s) must be between 0 and %d, "
                         "not %d" % (EXPONENT_MAX, amax))
    rows = []
    generic = GenericField()
    for a in range(-amax, amax + 1):
        for sign in (1, -1):
            point = OneVarField(a, sign)
            # Gram determinants are taken over the generic field once,
            # then evaluated at each point
            verdict = semisimplicity(
                config.r, config.s, point, mode=config.mode,
                generic=lambda f: layer_engine(config, generic, f))
            rows.append({
                "a": a,
                "rho": ("q^%d" % a) if sign > 0 else ("-q^%d" % a),
                "semisimple": verdict.verdict,
                "reason": verdict.reason,
                "witnesses": len(verdict.witnesses),
            })
    report = _report(config, mode=config.mode, amax=amax, points=rows,
                     ok=True)
    text = ["a=%-3d rho=%-6s semisimple=%s (%s)"
            % (r["a"], r["rho"], r["semisimple"], r["reason"]) for r in rows]
    return (EXIT_OK,
            emit(config, report, rows,
                 ["a", "rho", "semisimple", "reason", "witnesses"], text))


COMMANDS = {
    "dims": cmd_dims,
    "relations": cmd_relations,
    "cellular": cmd_cellular,
    "gram": cmd_gram,
    "central": cmd_central,
    "simples": cmd_simples,
    "semisimple": cmd_semisimple,
    "branch": cmd_branch,
}


# ---------------------------------------------------------------------------
# argument plumbing

def build_parser():
    parser = argparse.ArgumentParser(
        prog="qwalled",
        description="Exact computations in the two-parameter quantized "
                    "walled Brauer algebra.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, field=True):
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--s", type=int, required=True)
        if field:
            p.add_argument("--field", default="generic",
                           help="generic | q-power:<n>[:neg] | rho2:<a> | "
                                "delta-zero[:neg] | rational:<q>,<rho> | "
                                "gfp:<p>,<q>,<rho>")
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="json")
        p.add_argument("--cache-dir")
        p.add_argument("--max-total", type=int, default=DEFAULT_MAX_TOTAL,
                       help="largest allowed r+s (default %d)"
                            % DEFAULT_MAX_TOTAL)

    common(sub.add_parser("dims", help="basis and cell-module dimensions"))
    common(sub.add_parser("relations", help="defining relation suite"))
    p = sub.add_parser("cellular", help="cell datum axiom checks")
    common(p)
    p.add_argument("--anchors", type=int,
                   help="alternate anchors per label for axiom (c)")
    p = sub.add_parser("gram", help="Gram matrix and determinant")
    common(p)
    p.add_argument("f", type=int)
    p.add_argument("shape", help="bipartition, e.g. 2,1/1 or 2/-")
    common(sub.add_parser("central", help="central character table"))
    common(sub.add_parser("simples", help="simple-module labels"))
    p = sub.add_parser("semisimple", help="semisimplicity verdict")
    common(p)
    p.add_argument("--mode", choices=("closed_form", "gram", "both"),
                   default="closed_form")
    p = sub.add_parser("branch", help="restriction filtration report")
    common(p)
    p.add_argument("f", type=int)
    p.add_argument("shape", help="bipartition, e.g. 1/- ")
    p = sub.add_parser("sweep", help="rho^2 = q^{2a} verdict grid")
    common(p, field=False)
    p.add_argument("--amax", type=int,
                   help="sweep |a| <= amax (default r+s)")
    p.add_argument("--mode", choices=("closed_form", "gram", "both"),
                   default="both")
    return parser


def run(config):
    """Execute one subcommand; returns (exit_code, output string).  config
    is the namespace of build_parser, plus the attribute engines: the
    engines of this run by (field, layer), kept by layer_engine."""
    if config.r < 1 or config.s < 1:
        raise UsageError("r and s must be positive")
    if config.format == "csv" and config.command in NO_CSV:
        raise UsageError("csv output is not available for this command")
    if config.command == "sweep":
        return cmd_sweep(config)
    try:
        fields = fields_from_spec(config.field)
    except FieldError as exc:
        raise UsageError(str(exc))
    for field in fields:
        try:
            # every subcommand needs the loop parameter delta
            field.delta()
        except FieldError as exc:
            raise UsageError("field %s: %s" % (field.spec_string(), exc))
    outputs = []
    code = EXIT_OK
    for field in fields:
        c, out = COMMANDS[config.command](config, field)
        code = max(code, c)
        outputs.append(out)
    return code, "\n".join(outputs)


def main(argv=None):
    """Run one call; returns its exit code.  argv None means the process
    entry point (python -m qwalled.cli and the console script), which
    freezes the collector on every way out, as the module docstring says."""
    try:
        return _main(argv)
    finally:
        if argv is None:
            gc.freeze()


def _main(argv):
    config = build_parser().parse_args(argv)
    config.engines = {}
    try:
        code, output = run(config)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (EngineError, CellularError, RepError, FieldError) as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        return EXIT_FAILURE
    try:
        print(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so that the flush
        # at interpreter exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
