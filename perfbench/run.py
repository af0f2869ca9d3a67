"""Run one workload of the epicmp benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; epicmp is imported from its src/.  The
run repeats passes of the workload (see workloads.py) until S seconds of
timed work are done, then checks every output against the oracle.  The last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics from a traced run.  The lines before it print every
metric by name and unit, and perfbench/out/ gets the full record (with
spans when traced).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# name -> unit; every workload reports all of them (BENCHMARK.json)
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "models_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
CLAIM_TIMES = ("KT-PWW", "KT-P13", "KT-P12B", "KT-P12A", "KT-P14")
PER_LAYER = {
    "syntax.parse.calls": "count",
    "syntax.parse.self_s": "s",
    "semantics.extension.calls": "count",
    "semantics.extension.self_s": "s",
    "semantics.satisfies.calls": "count",
    "semantics.satisfies.self_s": "s",
    "kripke.load_model.calls": "count",
    "kripke.load_model.self_s": "s",
    "kripke.canonicalize.calls": "count",
    "kripke.canonicalize.self_s": "s",
    "kripke.save_model.calls": "count",
    "kripke.save_model.self_s": "s",
    "search.enumerate_models.yields": "count",
    "search.enumerate_models.self_s": "s",
    "search.frame_relations.misses": "count",
    "search.frame_relations.cold_s": "s",
    "search.check_validity.calls": "count",
    "search.check_validity.self_s": "s",
    "search.check_validity.models": "count",
    "search.check_validity.calls_per_bounds": "ratio",
    "search.check_schema.calls": "count",
    "search.check_schema.instances": "count",
    "search.check_schema.self_s": "s",
    "corpus.run_claim.self_s": "s",
    **{f"corpus.claim.{cid}.s": "s" for cid in CLAIM_TIMES},
    "cli.import_s": "s",
    "cli.numpy_loaded": "flag",
    **{f"layer.{m}.self_s": "s" for m in ("syntax", "kripke", "semantics",
                                          "search", "corpus", "cli",
                                          "bench")},
    "trace.spans": "count",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}
SETUP_SAMPLES = 5


def _env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def environment() -> dict[str, object]:
    """What a result was measured on; the checkout may not be a git repo."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "epicmp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def setup_seconds(modules: tuple[str, ...]) -> list[float]:
    """Fresh interpreter to 'modules imported', measured from outside."""
    out = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "setup", *modules],
            cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        out.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup of {modules} failed")
    return out


def clear_program_caches() -> None:
    """Start each pass as cold as a fresh CLI process would be."""
    from tracing import MODULES, public_functions
    for short in MODULES:
        mod = sys.modules.get(f"epicmp.{short}")
        for fn in public_functions(mod).values() if mod else ():
            # a traced wrapper keeps the cached original in __wrapped__
            for f in (fn, getattr(fn, "__wrapped__", None)):
                if hasattr(f, "cache_clear"):
                    f.cache_clear()
                    break


class Pass:
    """Timed execution of one pass, then its checks."""

    def __init__(self, wl, ops, tracer=None):
        self.kinds = [op.kind for op in ops]
        outputs: list[object] = []
        self.latency: list[float] = []
        clear_program_caches()
        start = time.perf_counter()
        for i, op in enumerate(ops):
            span = None
            if tracer is not None:
                tracer.op = i
                span = tracer.begin(f"bench.{wl.name}")
            t0 = time.perf_counter()
            try:
                out = wl.run(op, tracer)
            except Exception as exc:           # counted as a failed op
                out = exc
            self.latency.append(time.perf_counter() - t0)
            if span is not None:
                tracer.end(span)
            outputs.append(out)
        self.wall = time.perf_counter() - start
        self.models = 0
        self.failures: list[str] = []
        for op, out in zip(ops, outputs):
            if isinstance(out, Exception):
                self.failures.append(f"{op.kind}: {type(out).__name__}: "
                                     f"{out}")
                continue
            try:
                err, models = wl.check(op, out)
            except Exception as exc:
                err, models = f"{op.kind}: check raised {exc!r}", 0
            self.models += models
            if err:
                self.failures.append(err)


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_untraced(wl, seconds: float) -> tuple[list[Pass], dict]:
    setup = setup_seconds(wl.setup_modules)
    passes: list[Pass] = []
    while not passes or sum(p.wall for p in passes) < seconds:
        passes.append(Pass(wl, wl.next_pass()))
    latency = [x for p in passes for x in p.latency]
    usage = resource.RUSAGE_SELF if wl.in_process \
        else resource.RUSAGE_CHILDREN
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "models_per_s": statistics.median(p.models / p.wall for p in passes),
        "op_p50_ms": statistics.median(latency) * 1e3,
        "op_p99_ms": percentile(latency, 99) * 1e3,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
    }
    extras = {f"{wl.op_name}_per_s":
              len(latency) / sum(p.wall for p in passes)}
    for kind in sorted({k for p in passes for k in p.kinds}):
        lat = [x for p in passes for k, x in zip(p.kinds, p.latency)
               if k == kind]
        extras[f"{kind}_p50_ms"] = statistics.median(lat) * 1e3
        extras[f"{kind}_p99_ms"] = percentile(lat, 99) * 1e3
    samples = {"setup_s": setup, "pass_wall_s": [p.wall for p in passes],
               "op_latency_s": latency}
    return passes, {"metrics": metrics, "extras": extras, "samples": samples}


def run_traced(wl, seconds: float) -> tuple[list[Pass], dict]:
    """Each pass twice on the same inputs, untraced and traced, in
    alternating order (a process's first pass runs slower), until the
    untraced passes add up to half of `seconds`."""
    from tracing import Tracer, layer_metrics
    tracer = Tracer()
    plain: list[Pass] = []
    traced: list[Pass] = []
    pass_spans = []
    while not plain or sum(p.wall for p in plain) < seconds / 2:
        ops = wl.next_pass()
        for with_trace in (False, True) if len(plain) % 2 == 0 \
                else (True, False):
            if not with_trace:
                plain.append(Pass(wl, ops))
                continue
            tracer.spans, tracer.stack = [], []
            tracer.install()
            traced.append(Pass(wl, ops, tracer))
            tracer.uninstall()
            pass_spans.append(tracer.spans)
    per_pass = [layer_metrics(spans) for spans in pass_spans]
    metrics = {name: sum(m.get(name, 0.0) for m in per_pass) / len(per_pass)
               for name in PER_LAYER}
    metrics.update(wl.layer_extras())
    untraced = statistics.median(p.wall for p in plain)
    traced_wall = statistics.median(p.wall for p in traced)
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced
    metrics["trace.overhead_frac"] = (traced_wall - untraced) / untraced
    return plain + traced, {"metrics": metrics, "spans": pass_spans}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "epicmp" / "__init__.py").is_file():
        print(f"error: no epicmp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    (HERE / "out").mkdir(exist_ok=True)

    runner = run_traced if args.trace else run_untraced
    passes, result = runner(wl, args.seconds)
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.kinds) for p in passes)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": result["metrics"].get(name, 0.0),
                      "unit": unit} for name, unit in units.items()}
    extras = result.get("extras", {})
    extras["fail_frac"] = len(failures) / attempted

    env = environment()
    record = {"workload": wl.name, "why": wl.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "attempted": attempted, "failed": len(failures),
              "failures": failures[:50], "metrics": metrics,
              "extras": extras, "samples": result.get("samples"),
              "spans": result.get("spans")}
    out = HERE / "out" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))

    print(f"# {wl.name}: {wl.why}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for msg in failures[:10]:
        print(f"# FAILED {msg}")
    for name, m in metrics.items():
        print(f"{wl.name:<12} {name:<40} {m['value']:>16.6f} {m['unit']}")
    for name, value in extras.items():
        if isinstance(value, (int, float)):
            unit = "ms" if name.endswith("_ms") else \
                "1/s" if name.endswith("_per_s") else "ratio"
            print(f"{wl.name:<12} {name:<40} {value:>16.6f} {unit}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
