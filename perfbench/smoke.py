"""Fast self-check of the benchmark's own code; exits 1 on any problem.

    python3 perfbench/smoke.py

1. The oracle agrees with epicmp.semantics on the three shipped fixtures,
   and converts parsed formulas back to what it rendered.
2. A tiny size of every workload runs untraced, then traced, with no
   failed operation.
3. run.py's metric names and units match BENCHMARK.json.
"""

from __future__ import annotations

import json
import random
import sys
import time

import oracle
import run
import workloads


def check_oracle(problems: list[str]) -> None:
    sys.path.insert(0, str(run.SRC))
    from epicmp.kripke import load_model
    from epicmp.semantics import extension
    from epicmp.syntax import parse

    rng = random.Random(0)
    for name, m in oracle.fixtures().items():
        program_model = load_model((run.ROOT / "fixtures" /
                                    f"{name}.km").read_text())
        if not oracle.same_model(oracle.model_from_program(program_model),
                                 m):
            problems.append(f"{name}: oracle copy differs from the fixture")
        for _ in range(150):
            f = workloads.random_formula(rng, m.agents, m.atoms, 6)
            parsed = parse(oracle.render(f))
            if oracle.from_program(parsed) != f:
                problems.append(f"{name}: round trip of {oracle.render(f)}")
            want = set(oracle.world_names(m, oracle.extension(m, f)))
            if extension(program_model, parsed) != want:
                problems.append(f"{name}: oracle and semantics disagree on "
                                f"{oracle.render(f)}")


def check_workloads(problems: list[str]) -> None:
    (run.HERE / "out").mkdir(exist_ok=True)
    tiny = {name: cls(seed=7, tiny=True)
            for name, cls in workloads.WORKLOADS.items()}
    inputs = {name: wl.next_pass() for name, wl in tiny.items()}
    from tracing import Tracer
    for traced in (False, True):
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.install()
        for name, wl in tiny.items():
            start = time.perf_counter()
            p = run.Pass(wl, inputs[name], tracer)
            label = f"{name} ({'traced' if traced else 'untraced'})"
            print(f"smoke {label}: {len(p.kinds)} ops, {p.models} models, "
                  f"{len(p.failures)} failed, "
                  f"{time.perf_counter() - start:.2f}s")
            problems.extend(f"{label}: {msg}" for msg in p.failures)
            if p.models == 0:
                problems.append(f"{label}: no models counted")
    if tracer is not None and not tiny["cli_cold"].layer_extras():
        problems.append("cli_cold: traced children reported nothing")


def check_metric_lists(problems: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, ours in (("end_to_end", run.END_TO_END),
                      ("per_layer", run.PER_LAYER)):
        theirs = {m["name"]: m["unit"] for m in spec[key]}
        if theirs != ours:
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    names = {w["name"] for w in spec["workloads"]}
    if not names <= set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json names a workload workloads.py lacks")


def main() -> int:
    problems: list[str] = []
    check_oracle(problems)
    check_workloads(problems)
    check_metric_lists(problems)
    for msg in problems:
        print(f"PROBLEM {msg}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
