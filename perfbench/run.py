"""Benchmark of the qwalled command line.

Each workload is a fixed sequence of CLI calls.  Every call is a fresh
``python3 -m qwalled.cli`` process, and calls run one at a time: a closed
loop with one client.  The program is run from ``src/`` of the checkout
that holds this file.

    python3 perfbench/run.py                          # every workload
    python3 perfbench/run.py --workload sweep --seed 3 --seconds 30
    python3 perfbench/run.py --workload gfp-large --trace 1   # layer table
    python3 perfbench/run.py --selftest               # quick harness check
    python3 perfbench/run.py --record                 # rewrite expected.json

With ``--trace 0`` a run repeats the workload until ``--seconds`` would be
exceeded and reports the end-to-end metrics: ``scaled_wall_s`` (median over
passes of the wall time of all calls of the workload in sequence, scaled to
a reference CPU speed, see below), ``setup_s`` (median time from a fresh
interpreter to the end of ``import qwalled.cli``, scaled the same way) and
``peak_rss_mb`` (largest max-RSS of any call).  The unscaled times are
printed beside them as ``wall_s`` and ``setup_wall_s``.  With ``--trace 1``
it repeats pairs of one untraced and one traced pass (see tracer.py) and
reports per-layer self times, call counts and counts.

On a shared virtual machine the speed of a CPU can change by a factor of
two from one call to the next as the host's other load moves, and on a
2-vCPU Xeon guest two calls started at once on the two CPUs did not slow
together.  So the benchmark and every call it starts are pinned to one CPU,
and while a call runs the benchmark wakes every PROBE_EVERY_S to time a
fixed pure-Python loop (``probe``) on that same CPU, taking about 2 % of
it.  A call's scaled time is its wall time times the mean of PROBE_REF_S /
probe time over the call: the seconds it would take on a CPU that runs the
probe in PROBE_REF_S.  A change in the program's own speed moves the scaled
time as it moves the wall time; the probe does not depend on the program.

Every call must exit 0, every ``ok`` key in its JSON output must be true,
and its stdout must equal byte for byte the output stored in expected.json
for its argv; a traced call must also print what the untraced one printed.
Each failed call counts in ``failed`` and in fail_frac.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  The exit status is 1 if any check failed and 2 if the program is
not there to run.
"""

import argparse
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"
EXPECTED = HERE / "expected.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))
from tracer import COUNTS, SPANS  # noqa: E402

SETUP_PROBES = 5
CALL_TIMEOUT_S = 160
PROBE_EVERY_S = 0.05
PROBE_REF_S = 0.001

END_TO_END = {"scaled_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {}
for _span in SPANS:
    PER_LAYER[_span + ".self_s"] = "s"
    PER_LAYER[_span + ".calls"] = "count"
PER_LAYER.update({
    "engine.dim": "count",
    "cellular.gram_entries": "count",
    "cache.bytes_written": "bytes",
    "cache.bytes_read": "bytes",
    "cli.main.uncovered_share": "fraction",
    "trace.overhead_s": "s",
})


# ---------------------------------------------------------------------------
# workloads

def partitions(n, largest=None):
    """Partitions of n as tuples, largest part first."""
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    return [(k,) + rest for k in range(min(n, largest), 0, -1)
            for rest in partitions(n - k, k)]


def shapes(n1, n2):
    """Bipartitions of (n1, n2) in the CLI's text form, e.g. 2,1/-."""
    def text(p):
        return ",".join(map(str, p)) or "-"
    return ["%s/%s" % (text(a), text(b))
            for a in partitions(n1) for b in partitions(n2)]


def layer(r, s, fs):
    """[f, shape] cell labels of B_{r,s} with f in fs."""
    return [[str(f), sh] for f in fs for sh in shapes(r - f, s - f)]


def _session(r, s, field):
    """The CLI session of generic-session at (r, s); the seeded labels are
    drawn by contraction layer so that every seed does about the same
    work (at (3, 2) every f >= 1 cell module has dimension 6)."""
    base = ["--r", str(r), "--s", str(s), "--field", field]
    upper = layer(r, s, range(1, min(r, s) + 1))
    return [
        (["dims"] + base, [[]]),
        (["relations"] + base, [[]]),
        (["cellular"] + base, [[]]),
        (["central"] + base, [[]]),
        (["gram"] + base, upper),
        (["gram"] + base, layer(r, s, [0])),
        (["semisimple"] + base + ["--mode", "gram"], [[]]),
        (["branch"] + base, upper),
    ]


# name -> (uses a fresh --cache-dir, steps); a step is an argv prefix and
# the list of argv tails a seed chooses one from.  BENCHMARK.json says why
# each workload was chosen.
WORKLOADS = {
    "generic-session": (True, _session(3, 2, "generic")),
    "gfp-large": (False, [
        (["gram", "--r", "4", "--s", "3", "--field", "gfp:13,2,6",
          "--max-total", "7"], layer(4, 3, [1]))]),
    "sweep": (False, [(["sweep", "--r", "3", "--s", "2", "--amax", "5"],
                       [[]])]),
}
# A session at (2, 1) plus a small sweep, for --selftest only.
ALL_WORKLOADS = dict(WORKLOADS, selftest=(True, _session(2, 1, "generic") + [
    (["sweep", "--r", "2", "--s", "1", "--amax", "1"], [[]])]))


def draw_calls(steps, seed):
    rng = random.Random(seed)
    return [prefix + rng.choice(tails) for prefix, tails in steps]


def every_call(steps):
    calls = []
    for prefix, tails in steps:
        calls += [prefix + tail for tail in tails
                  if prefix + tail not in calls]
    return calls


# ---------------------------------------------------------------------------
# running calls

def probe():
    """Seconds taken by a fixed pure-Python loop on the current CPU."""
    start = time.perf_counter()
    counts = {}
    for i in range(4000):
        counts[i % 500] = counts.get(i % 500, 0) + i * 3
    return time.perf_counter() - start


def watch(proc, start):
    """Probe the CPU every PROBE_EVERY_S until proc ends, killing it past
    CALL_TIMEOUT_S; returns the end time and the mean of PROBE_REF_S /
    probe time."""
    speeds = []
    pidfd = os.pidfd_open(proc.pid)
    try:
        while not select.select([pidfd], [], [], PROBE_EVERY_S)[0]:
            if time.perf_counter() - start > CALL_TIMEOUT_S:
                proc.kill()
            speeds.append(PROBE_REF_S / probe())
    finally:
        os.close(pidfd)
    end = time.perf_counter()
    if not speeds:
        speeds.append(PROBE_REF_S / probe())
    return end, statistics.fmean(speeds)


def spawn(cmd, tmp, env):
    """Run cmd to completion; returns (exit code, stdout bytes, stderr
    bytes, seconds, scaled seconds, max RSS in MB)."""
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        try:
            end, speed = watch(proc, start)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
            end - start, (end - start) * speed, usage.ru_maxrss / 1024)


def ok_keys_true(doc):
    if isinstance(doc, dict):
        return all(v is True if k == "ok" else ok_keys_true(v)
                   for k, v in doc.items())
    if isinstance(doc, list):
        return all(ok_keys_true(v) for v in doc)
    return True


def check_call(argv, code, stdout, expected):
    """Reasons the call failed; empty when it passed."""
    problems = []
    if code != 0:
        problems.append("exit code %d" % code)
    try:
        docs = [json.loads(line) for line in stdout.decode().splitlines()]
    except ValueError:
        problems.append("stdout is not JSON lines")
    else:
        if not docs or not all(ok_keys_true(d) for d in docs):
            problems.append("an ok key is not true")
    if expected is None:
        return problems
    want = expected.get(" ".join(argv))
    if want is None:
        problems.append("no expected output stored")
    elif stdout != want.encode():
        problems.append("stdout differs from the expected output")
    return problems


class Runner:
    """Runs calls, checks them and keeps the tallies of one benchmark run."""

    def __init__(self, tmp, expected):
        self.tmp = tmp
        self.expected = expected
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0

    def fail(self, argv, problems, stderr=b""):
        self.failed += 1
        tail = stderr.decode(errors="replace").strip().splitlines()[-3:]
        print("FAILED %s: %s" % (" ".join(argv), "; ".join(problems)),
              *tail, sep="\n  ", file=sys.stderr)

    def call(self, argv, cache_dir=None, spans_path=None):
        """One checked CLI call; returns (stdout, seconds, scaled seconds,
        RSS MB)."""
        full = argv + (["--cache-dir", str(cache_dir)] if cache_dir else [])
        if spans_path is None:
            cmd = [sys.executable, "-m", "qwalled.cli"] + full
        else:
            cmd = [sys.executable, str(TRACER), str(spans_path)] + full
        code, out, err, seconds, scaled, rss = spawn(cmd, self.tmp, self.env)
        self.attempted += 1
        problems = check_call(argv, code, out, self.expected)
        if problems:
            self.fail(argv, problems, err)
        return out, seconds, scaled, rss

    def session(self, calls, uses_cache, traced=False):
        """All calls in sequence, with a fresh cache directory when the
        workload uses one; returns (stdouts, wall seconds, scaled seconds,
        peak RSS MB, per-call trace records)."""
        cache = Path(tempfile.mkdtemp(prefix="cache-", dir=self.tmp)) \
            if uses_cache else None
        outs, traces, peak, wall, scaled = [], [], 0.0, 0.0, 0.0
        try:
            for i, argv in enumerate(calls):
                spans = self.tmp / ("spans-%d.json" % i) if traced else None
                out, seconds, scaled_s, rss = self.call(argv, cache, spans)
                outs.append(out)
                wall += seconds
                scaled += scaled_s
                peak = max(peak, rss)
                if traced:
                    traces.append(read_trace(spans))
        finally:
            if cache:
                shutil.rmtree(cache)
        return outs, wall, scaled, peak, traces

    def setup_probe(self):
        """Seconds from spawning an interpreter to the end of its
        ``import qwalled.cli``, read on the shared monotonic clock, and
        the same scaled to the reference CPU speed."""
        clock = time.CLOCK_MONOTONIC
        code = ("import time, qwalled.cli; "
                "print(repr(time.clock_gettime(%d)))" % clock)
        start = time.clock_gettime(clock)
        rc, out, err, elapsed, scaled, _ = spawn(
            [sys.executable, "-c", code], self.tmp, self.env)
        if rc != 0:
            raise SystemExit("cannot import qwalled.cli:\n"
                             + err.decode(errors="replace"))
        seconds = float(out) - start
        return seconds, seconds * scaled / elapsed


def read_trace(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {"spans": [], "counts": dict.fromkeys(COUNTS, 0)}
    finally:
        if path.exists():
            path.unlink()


# ---------------------------------------------------------------------------
# measurement

def repeat(seconds, once):
    """Call once() until another call would end past `seconds`; at least
    one call.  Returns the list of results."""
    results = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        results.append(once())
        last = time.perf_counter() - t
        if time.perf_counter() - start + last > seconds:
            return results


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, calls, uses_cache, seconds):
    setups = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    reps = repeat(seconds, lambda: runner.session(calls, uses_cache))
    samples = {"scaled_wall_s": [scaled for _, _, scaled, _, _ in reps],
               "setup_s": [scaled for _, scaled in setups],
               "wall_s": [wall for _, wall, _, _, _ in reps],
               "setup_wall_s": [seconds for seconds, _ in setups]}
    metrics = {
        "scaled_wall_s": metric(statistics.median(samples["scaled_wall_s"]),
                                "s"),
        "setup_s": metric(statistics.median(samples["setup_s"]), "s"),
        "peak_rss_mb": metric(max(peak for _, _, _, peak, _ in reps), "MB"),
    }
    return metrics, samples


def layer_totals(trace):
    """{span name: [calls, self seconds]} and the summed duration of the
    cli.main spans of one call's trace."""
    spans = trace["spans"]
    self_s = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    totals = {name: [0, 0.0] for name in SPANS}
    main_s = 0.0
    for (name, start, end, _), own in zip(spans, self_s):
        totals[name][0] += 1
        totals[name][1] += own
        if name == "cli.main":
            main_s += end - start
    return totals, main_s


def per_layer(runner, calls, uses_cache, seconds):
    def pair():
        plain = runner.session(calls, uses_cache)
        traced = runner.session(calls, uses_cache, traced=True)
        for argv, a, b in zip(calls, plain[0], traced[0]):
            if a != b:
                runner.fail(argv, ["traced stdout differs from untraced"])
        return plain, traced

    pairs = repeat(seconds, pair)
    rows, shares = [], []
    for plain, (_, wall, _, _, traces) in pairs:
        row = dict.fromkeys(PER_LAYER, 0)
        main_s = 0.0
        shares.append([])
        for trace in traces:
            totals, main = layer_totals(trace)
            main_s += main
            shares[-1].append(totals["cli.main"][1] / main if main else 0.0)
            for name, (n, own) in totals.items():
                row[name + ".calls"] += n
                row[name + ".self_s"] += own
            for key in COUNTS:
                value = trace["counts"].get(key, 0)
                row[key] = max(row[key], value) if key == "engine.dim" \
                    else row[key] + value
        row["cli.main.uncovered_share"] = \
            row["cli.main.self_s"] / main_s if main_s else 0.0
        row["trace.overhead_s"] = wall - plain[1]
        rows.append(row)
    metrics = {name: metric(statistics.median(r[name] for r in rows), unit)
               for name, unit in PER_LAYER.items()}
    return metrics, [statistics.median(s) for s in zip(*shares)]


# ---------------------------------------------------------------------------
# reporting

def machine_facts():
    facts = {
        "nproc": os.cpu_count(),
        "cpu_model": None,
        "l3_cache": None,
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        // 2 ** 20,
        "python": platform.python_version(),
        "sympy": None,
        "commit": None,
        "loadavg_start": list(os.getloadavg()),
    }
    try:
        facts["sympy"] = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        pass
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                facts["l3_cache"] = (index / "size").read_text().strip()
        except OSError:
            pass
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            facts["commit"] = proc.stdout.strip()
    return facts


def print_end_to_end(name, seed, metrics, samples, calls, runner):
    print("%s  seed %d  %d calls per pass, closed loop, 1 client"
          % (name, seed, len(calls)))
    unscaled = [("wall_s", "s"), ("setup_wall_s", "s")]
    for key, unit in list(END_TO_END.items()) + unscaled:
        if key in samples:
            q1, q3 = quartiles(samples[key])
            value = statistics.median(samples[key])
            note = "median, q1 %.4f, q3 %.4f, n=%d" % (q1, q3,
                                                       len(samples[key]))
        else:
            value = metrics[key]["value"]
            note = "max over %d calls" % runner.attempted
        print("  %-13s %10.4f %-3s %s" % (key, value, unit, note))
    print("  %-13s %10.4f     %d failed of %d calls" % (
        "fail_frac", runner.failed / runner.attempted, runner.failed,
        runner.attempted))


def print_per_layer(name, seed, metrics, calls, shares):
    print("%s  seed %d  traced, medians over passes" % (name, seed))
    print("  %-36s %8s %10s" % ("span", "calls", "self_s"))
    for span in sorted(SPANS, key=lambda s: -metrics[s + ".self_s"]["value"]):
        print("  %-36s %8d %10.4f" % (
            span, metrics[span + ".calls"]["value"],
            metrics[span + ".self_s"]["value"]))
    for key in COUNTS + ("cli.main.uncovered_share", "trace.overhead_s"):
        print("  %-36s %19.4f %s" % (key, metrics[key]["value"],
                                     PER_LAYER[key]))
    print("  share of each cli.main that no child span covers:")
    for argv, share in zip(calls, shares):
        print("    %-60s %.4f" % (" ".join(argv), share))


# ---------------------------------------------------------------------------
# modes

def load_expected():
    with open(EXPECTED) as handle:
        return json.load(handle)


def measure(names, seed, seconds, trace, expected, tmp):
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    prefix = len(names) > 1
    for name in names:
        uses_cache, steps = ALL_WORKLOADS[name]
        calls = draw_calls(steps, seed)
        runner = Runner(tmp, expected)
        if trace:
            metrics, shares = per_layer(runner, calls, uses_cache, seconds)
            print_per_layer(name, seed, metrics, calls, shares)
        else:
            metrics, samples = end_to_end(runner, calls, uses_cache, seconds)
            print_end_to_end(name, seed, metrics, samples, calls, runner)
        result["attempted"] += runner.attempted
        result["failed"] += runner.failed
        for key, value in metrics.items():
            result["metrics"][(name + "." + key) if prefix else key] = value
    result["correct"] = result["failed"] == 0
    return result


def record(tmp):
    """Run every call any seed can draw and store its stdout."""
    expected = {}
    runner = Runner(tmp, None)
    for name, (uses_cache, steps) in ALL_WORKLOADS.items():
        calls = every_call(steps)
        outs, _, _, _, _ = runner.session(calls, uses_cache)
        for argv, out in zip(calls, outs):
            expected[" ".join(argv)] = out.decode()
        print("recorded %d calls of %s" % (len(calls), name))
    if runner.failed:
        return False
    with open(EXPECTED, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return True


def selftest(tmp):
    """Run the (2, 1) session through both modes, the output check and the
    metric printer, and check the harness against BENCHMARK.json."""
    expected = load_expected()
    problems = []
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != table:
            problems.append("BENCHMARK.json %s differs from run.py" % key)
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
        result = measure(["selftest"], 0, 1, trace, expected, tmp)
        if not result["correct"] or set(result["metrics"]) != set(table):
            problems.append("selftest run with --trace %d failed" % trace)
    argv = draw_calls(ALL_WORKLOADS["selftest"][1], 0)[0]
    print("a wrong stored output must be caught:", file=sys.stderr)
    runner = Runner(tmp, dict(expected, **{" ".join(argv): "wrong\n"}))
    runner.call(argv)
    if runner.failed != 1:
        problems.append("a wrong output passed the check")
    for problem in problems:
        print("selftest: " + problem, file=sys.stderr)
    print("selftest %s" % ("failed" if problems else "ok"))
    return not problems


def stop(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    # on SIGTERM, end the running call and remove the scratch directory
    signal.signal(signal.SIGTERM, stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="repeat to run several; default all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "qwalled" / "cli.py").is_file():
        print("error: %s/qwalled/cli.py not found" % SRC, file=sys.stderr)
        return 2
    facts = machine_facts()
    # the probes must run on the CPU that runs the calls
    facts["cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {facts["cpu"]})
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        # the first import writes the bytecode; nothing below times it
        Runner(tmp, None).setup_probe()
        if args.record:
            return 0 if record(tmp) else 1
        if args.selftest:
            return 0 if selftest(tmp) else 1
        result = measure(args.workload or list(WORKLOADS), args.seed,
                         args.seconds, args.trace, load_expected(), tmp)
    finally:
        shutil.rmtree(tmp)
    facts["loadavg_end"] = list(os.getloadavg())
    print("machine " + json.dumps(facts, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
