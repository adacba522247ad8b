"""End-to-end benchmark of the snowflake-embed CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload embed-snowflake --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload is a fixed list of commands (see ``workloads.py``) whose
inputs are generated from ``--seed`` and written before timing starts.  The
timed part is split over ``WORKERS`` fresh worker processes, started one
after another, so that no figure rests on the memory layout of a single
process.  A worker runs the commands through
``snowflake_embed.cli.main(argv)`` in a closed loop with one client: each
starts when the previous one returns.  One untimed full-size round comes
first, then timed rounds follow until about the worker's share of
``--seconds`` is spent (at least one round).  Every output is checked independently of
the program's own self-checks; a command whose exit code, failure type or
output disagrees with the verdict its input was built to have counts as
failed, which is counted and never fatal.
``correct`` turns false only when the program certifies something the
check refutes (a false "holds", a bad witness or a wrong coordinate set).

With ``--trace 0`` the last line reports the end-to-end metrics named in
BENCHMARK.json.  With ``--trace 1`` each worker repeats its timed rounds with
spans recorded around every public function of the package (``spans.py``)
and the last line reports the per-layer metrics, per round, plus the
tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NoReturn

# One BLAS thread, set before numpy loads: on a host whose few cores are
# shared with other work, a second BLAS thread waits on the scheduler and
# its time varies from run to run more than the program's.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = Path(".bench_work")
SETUP_SAMPLES = 5
#: Fresh processes that share the timed part of a run, one at a time.
WORKERS = 3


@dataclass
class Outcome:
    label: str
    latency_s: float
    cpu_s: float
    problem: str | None
    unsound: bool
    bytes_in: int
    bytes_out: int


def _fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _src() -> Path:
    src = ROOT / "src"
    if not (src / "snowflake_embed" / "cli.py").is_file():
        _fail(f"no src/snowflake_embed/cli.py under {ROOT}; run from the root of a checkout")
    return src


def _import_cli():
    """The CLI module from this checkout's src/, never from anywhere else."""
    src = _src()
    sys.path.insert(0, str(src))
    import snowflake_embed.cli as cli
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        _fail(f"imported snowflake_embed from {cli.__file__}, not from {src}")
    return cli


# ---------------------------------------------------------------------------
# one round


def _judge(cmd, code, raised: str | None) -> tuple[str | None, bool]:
    """(what went wrong or None, whether the program certified something false)."""
    if raised is not None:
        return f"{raised} escaped main", False
    try:
        with open(cmd.report, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        problem = cmd.check(code, report)
        payload = report["payload"]
        error = (payload.get("failure") or payload.get("violation") or {}).get("error")
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"exit {code} with a missing or malformed output: {exc!r}", False
    if problem is not None:
        return problem, True
    if code == 0 and cmd.expect_exit != 0:
        return f"exit 0 on an input built to fail with {cmd.expect_error or 'a witness'}", True
    if (code, error) != (cmd.expect_exit, cmd.expect_error):
        return f"exit {code} {error or ''}, expected exit {cmd.expect_exit} {cmd.expect_error or ''}", False
    return None, False


def run_round(cli, cmds, tracer=None) -> list[Outcome]:
    outcomes = []
    for cmd in cmds:
        for path in cmd.outputs:
            path.unlink(missing_ok=True)
        gc.collect()
        sink = io.StringIO()
        raised = None
        with redirect_stdout(sink), redirect_stderr(sink):
            if tracer is not None:
                tracer.enabled = True
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                code = cli.main(cmd.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # counted as a failed command, never fatal
                code, raised = None, type(exc).__name__
            latency = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
            if tracer is not None:
                tracer.enabled = False
        problem, unsound = _judge(cmd, code, raised)
        outcomes.append(Outcome(
            label=cmd.label,
            latency_s=latency,
            cpu_s=cpu,
            problem=problem,
            unsound=unsound,
            bytes_in=sum(p.stat().st_size for p in cmd.inputs),
            bytes_out=sum(p.stat().st_size for p in cmd.outputs if p.is_file()),
        ))
    return outcomes


def run_timed(cli, cmds, seconds: float) -> list[list[Outcome]]:
    """Whole rounds until the commands have run for about ``seconds``, checks
    excluded: a further round starts only if, at the mean round time so far,
    it ends nearer to ``seconds`` than stopping does (at least one round)."""
    done = []
    spent = 0.0
    while not done or spent + spent / len(done) / 2 < seconds:
        done.append(run_round(cli, cmds))
        spent += sum(o.latency_s for o in done[-1])
    return done


# ---------------------------------------------------------------------------
# set-up time


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters that import the CLI and run one tiny
    command of each subcommand."""
    from workloads import write_json

    tiny = WORK / "setup"
    tiny.mkdir(parents=True, exist_ok=True)
    cloud = write_json(tiny / "tiny.json", {"points": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]})
    group = write_json(tiny / "c2.group.json", {"dim": 1, "generators": [[[-1.0]]]})
    reps = write_json(tiny / "c2.reps.json", {"representatives": [[1.0], [2.0]]})
    argvs = [
        ["validate", str(cloud)],
        ["negtype", str(cloud), "--alpha", "0.5", "--strict"],
        ["embed", str(cloud), "--alpha", "0.5"],
        ["schoenberg", "--alpha", "0.5", "--t-grid", "1"],
        ["quotient-embed", str(group), str(reps)],
    ]
    snippet = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "from snowflake_embed.cli import main\n"
        f"sys.exit(max(main(argv) for argv in {argvs!r}))\n"
    )
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", snippet], cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            _fail(f"set-up commands exited {proc.returncode}: {proc.stderr.strip()}")
    return samples


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "seed": seed,
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# metrics


def _round_median(timed: list[list[Outcome]], field: str) -> float:
    """One round's total of ``field``, summed over commands from each
    command's median over the timed rounds, so that a slow outlier of one
    command in one round does not carry the whole round."""
    return sum(statistics.median(getattr(r[i], field) for r in timed)
               for i in range(len(timed[0])))


def end_to_end(timed: list[list[Outcome]], setup: list[float], peak_rss_mb: float) -> tuple[dict, dict]:
    latencies = [o.latency_s for r in timed for o in r]
    attempted = len(latencies)
    failed = sum(o.problem is not None for r in timed for o in r)
    values = {
        "wall_s": _round_median(timed, "latency_s"),
        "cmd_p50_s": statistics.median(latencies),
        # the slowest command (its median over rounds): a round has 7 to 10
        # commands of very different sizes, so a percentile with ten
        # samples beyond it would land on the fastest ones or not exist
        "cmd_tail_s": max(statistics.median(r[i].latency_s for r in timed)
                          for i in range(len(timed[0]))),
        "peak_rss_mb": peak_rss_mb,
        "cpu_s": _round_median(timed, "cpu_s"),
        "fail_ratio": failed / attempted,
        "ok_ratio": (attempted - failed) / attempted,
        "setup_s": statistics.median(setup) if setup else None,
    }
    notes = {  # unit, how it was taken
        "wall_s": ("s", f"one round of {len(timed[0])} commands, each its median of {len(timed)} round(s)"),
        "cmd_p50_s": ("s", f"median of {attempted} command latencies"),
        "cmd_tail_s": ("s", f"slowest of {len(timed[0])} commands, median of {len(timed)} round(s)"),
        "peak_rss_mb": ("MiB", f"largest ru_maxrss of the {WORKERS} worker processes"),
        "cpu_s": ("s", f"user + sys CPU of one round, each command its median of {len(timed)} round(s)"),
        "fail_ratio": ("ratio", f"{failed} of {attempted} commands"),
        "ok_ratio": ("ratio", f"{attempted - failed} of {attempted} commands"),
        "setup_s": ("s", f"median of {len(setup)} fresh interpreters"),
    }
    return values, notes


def per_layer(spans: dict, counts: dict, plain, traced) -> dict:
    rounds = len(traced)
    # counts per round; an allocation peak is a maximum over calls already
    values = {name: value if name.endswith(".peak_alloc_mb") else value / rounds
              for name, value in counts.items()}
    for name, span in spans.items():
        for field, value in span.items():
            values[f"{name}.{field}"] = value / rounds
    wall_plain = _round_median(plain, "latency_s")
    wall_traced = _round_median(traced, "latency_s")
    covered = values.get("cli.main.total_s", 0.0)
    values.update({
        "cli.bytes_in": sum(o.bytes_in for r in traced for o in r) / rounds,
        "cli.bytes_out": sum(o.bytes_out for r in traced for o in r) / rounds,
        "trace.wall_plain_s": wall_plain,
        "trace.wall_traced_s": wall_traced,
        "trace.overhead_s": wall_traced - wall_plain,
        "trace.main_covered_s": covered,
        # both sides summed over the same traced rounds
        "trace.main_covered_share": covered * rounds / sum(o.latency_s for r in traced for o in r),
        "trace.self_sum_s": sum(span["self_s"] for span in spans.values()) / rounds,
    })
    return values


# ---------------------------------------------------------------------------
# entry points


def _select(spec: list[dict], values: dict, default=None) -> dict:
    """Exactly the metrics named in BENCHMARK.json."""
    return {m["name"]: {"value": values[m["name"]] if default is None else values.get(m["name"], default),
                        "unit": m["unit"]} for m in spec}


def run_worker(args) -> None:
    """One worker: its own inputs, a warm-up round, its timed rounds and,
    with --trace 1, as many traced rounds; all as JSON on the last line."""
    cli = _import_cli()
    sys.path.insert(0, str(HERE))
    import numpy as np
    from workloads import WORKLOADS

    work = WORK / args.workload / f"worker{args.worker}"
    work.mkdir(parents=True)
    cmds = WORKLOADS[args.workload](np.random.default_rng(args.seed), work)
    run_round(cli, cmds)  # untimed warm-up at full size
    timed = run_timed(cli, cmds, args.seconds)
    result = {"timed": [[asdict(o) for o in r] for r in timed],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if args.trace:
        from spans import Tracer
        tracer = Tracer("snowflake_embed")
        tracer.install()
        try:
            traced = [run_round(cli, cmds, tracer) for _ in timed]
        finally:
            tracer.uninstall()
        result.update(traced=[[asdict(o) for o in r] for r in traced],
                      spans=dict(tracer.spans), counts=dict(tracer.counts))
    print(json.dumps(result))


def _start_worker(args, index: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds / WORKERS), "--trace", str(args.trace),
         "--worker", str(index)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        _fail(f"worker {index} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _merge_traces(parts: list[dict]) -> tuple[dict, dict]:
    """Span fields and counts summed over workers; allocation peaks maximal."""
    spans, counts = {}, {}
    for part in parts:
        for name, span in part["spans"].items():
            into = spans.setdefault(name, dict.fromkeys(span, 0))
            for field, value in span.items():
                into[field] += value
        for name, value in part["counts"].items():
            merge = max if name.endswith(".peak_alloc_mb") else (lambda a, b: a + b)
            counts[name] = merge(counts.get(name, 0), value)
    return spans, counts


def run_workload(args, spec: dict) -> dict:
    _src()
    env = environment(args.seed)
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        setup = [] if args.trace else measure_setup()
        parts = [_start_worker(args, i) for i in range(WORKERS)]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    timed = [[Outcome(**o) for o in r] for part in parts for r in part["timed"]]
    traced = [[Outcome(**o) for o in r] for part in parts for r in part.get("traced", [])]
    measured = traced or timed
    values, notes = end_to_end(timed, setup, max(part["peak_rss_mb"] for part in parts))
    print(f"bench: workload {args.workload}, seed {args.seed}: closed loop, one client, "
          f"{len(timed[0])} commands per round, {len(timed)} timed round(s) in {WORKERS} worker processes")
    print("env: " + json.dumps(env))
    for name, value in values.items():
        if value is not None:
            unit, note = notes[name]
            print(f"  {name:<12} {value:<12.6g} {unit:<6} {note}")
    for o in (o for r in measured for o in r if o.problem):
        print(f"  failed: {o.label}: {o.problem}{' (false certificate)' if o.unsound else ''}")
    print("commands: " + json.dumps({o.label: round(o.latency_s, 6) for o in timed[-1]}))

    if args.trace:
        spans, counts = _merge_traces(parts)
        values = per_layer(spans, counts, timed, traced)
        print("  span (per round)                              calls      self_s     total_s  errors")
        for name, span in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:<44} {span['calls'] / len(traced):>6g} {span['self_s'] / len(traced):>11.4f}"
                  f" {span['total_s'] / len(traced):>11.4f} {span['errors'] / len(traced):>7g}")
        print(f"  trace overhead {values['trace.overhead_s']:.4g} s per round; cli.main spans "
              f"cover {values['trace.main_covered_share']:.2%} of traced wall_s; span self "
              f"times sum to {values['trace.self_sum_s']:.6g} s of {values['trace.main_covered_s']:.6g} s")
    return {
        "correct": not any(o.unsound for r in measured for o in r),
        "attempted": sum(len(r) for r in measured),
        "failed": sum(o.problem is not None for r in measured for o in r),
        # a span never entered reads 0
        "metrics": (_select(spec["per_layer"], values, default=0) if args.trace
                    else _select(spec["end_to_end"], values)),
    }


def run_all(args, names) -> dict:
    """Every workload in a child process of its own, so peak RSS stays per workload."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            _fail(f"workload {name} exited {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }


def main() -> None:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _fail(f"no BENCHMARK.json under {ROOT}; run from the root of a checkout")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.worker is not None:
        run_worker(args)
        return
    result = run_all(args, names) if args.workload == "all" else run_workload(args, spec)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
