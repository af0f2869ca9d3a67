"""The benchmark's five workloads.

A workload hands out passes, a pass being a list of operations: the fixed
unit of work the run repeats until its time is up.  `run` performs one
operation against epicmp (timed by the caller); `check` compares its output
with the oracle afterwards, outside the timed region, and returns an error
message (or None) and the number of models the operation covered.

Inputs for `registry`, `scan_kt4` and `iso_search` are fixed; the seed draws
the `model_check` queries and the `cli_cold` argument mix.  Each class says
in `why` what the workload is for.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    kind: str
    payload: object


def _epicmp(name: str):
    """An epicmp module, looked up at call time so traced wrappers apply."""
    return importlib.import_module(f"epicmp.{name}")


def _bounds(frame: str, agents: int, max_worlds: int, atoms: tuple[str, ...],
            mod_iso: bool = False):
    return _epicmp("search").SearchBounds(
        _epicmp("kripke").FrameClass[frame], n_agents=agents,
        max_worlds=max_worlds, atoms=atoms, mod_iso=mod_iso)


def _search_op(payload):
    text, frame, agents, max_worlds, atoms, mod_iso = payload
    f = _epicmp("syntax").parse(text)
    return _epicmp("search").check_validity(
        f, _bounds(frame, agents, max_worlds, atoms, mod_iso))


def _no_countermodel(outcome, expected: int) -> tuple[str | None, int]:
    models = getattr(outcome, "models_checked", None)
    if models is None:
        return f"expected no countermodel, got {type(outcome).__name__}", 0
    if models != expected:
        return f"models_checked {models}, expected {expected}", models
    return None, models


class Workload:
    name = ""
    why = ""
    # modules a fresh interpreter imports before the first operation
    setup_modules: tuple[str, ...] = ()
    op_name = "ops"          # plural, for the <op_name>_per_s rate
    in_process = True        # False: peak RSS is that of child processes

    def __init__(self, seed: int, tiny: bool = False):
        self.rng = random.Random(seed)
        self.tiny = tiny

    def next_pass(self) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op, tracer=None):
        raise NotImplementedError

    def check(self, op: Op, output) -> tuple[str | None, int]:
        raise NotImplementedError

    def layer_extras(self) -> dict[str, float]:
        return {}


# --- registry ---------------------------------------------------------------

# Per claim: frame, agents, world bound, atoms, distinct instances, and how
# many of those instances have a countermodel.  models_checked must equal
# (instances - refuted) * closed_form_count(bounds).
CLAIMS = {
    "KT-AX-PC-K": ("KT", 2, 3, ("p", "q"), 16, 0),
    "KT-AX-PC-S": ("KT", 2, 3, ("p", "q"), 64, 0),
    "KT-AX-PC-CONTRA": ("KT", 2, 3, ("p", "q"), 16, 0),
    "KT-AX-NEC-DK": ("KT", 2, 3, ("p", "q"), 9, 0),
    "KT-AX-DIST-DK": ("KT", 2, 3, ("p", "q"), 48, 0),
    "KT-AX-VERACITY": ("KT", 2, 3, ("p", "q"), 12, 0),
    "KT-AX-INCL": ("KT", 2, 3, (), 5, 0),
    "KT-AX-ADD": ("KT", 2, 3, (), 27, 0),
    "KT-AX-TRANS": ("KT", 2, 3, (), 27, 0),
    "KT-AX-KT1": ("KT", 2, 3, ("p", "q"), 36, 0),
    "KT-AX-NEC-CK": ("KT", 2, 3, ("p", "q"), 9, 0),
    "KT-AX-DIST-CK": ("KT", 2, 3, ("p", "q"), 48, 0),
    "KT-AX-FIXPOINT": ("KT", 2, 3, ("p", "q"), 12, 0),
    "KT-AX-INDUCTION": ("KT", 2, 3, ("p", "q"), 12, 0),
    "S4-AX-POSINTRO": ("S4", 2, 3, ("p", "q"), 12, 0),
    "S5-AX-POSINTRO": ("S5", 2, 4, ("p", "q"), 12, 0),
    "S5-AX-NEGINTRO": ("S5", 2, 4, ("p", "q"), 12, 0),
    "S5-AX-KNOWNSUP": ("S5", 2, 4, (), 9, 0),
    "S5-P2": ("S5", 2, 4, (), 9, 0),
    "S5-P3A": ("S5", 2, 4, (), 9, 0),
    "S5-P3B": ("S5", 2, 4, (), 9, 0),
    "S5-P4": ("S5", 2, 4, (), 9, 0),
    "S5-P5": ("S5", 2, 4, (), 9, 0),
    "S5-P6A": ("S5", 2, 4, (), 9, 0),
    "S5-P6B": ("S5", 2, 4, (), 9, 0),
    "S5-P6C": ("S5", 2, 4, (), 9, 0),
    "S5-P7": ("S5", 2, 4, (), 9, 0),
    "S5-P10": ("S5", 2, 4, (), 4, 0),
    "S5-P11": ("S5", 2, 4, (), 4, 0),
    "S5-P16B": ("S5", 2, 4, (), 9, 0),
    "S5-P16C": ("S5", 2, 4, (), 9, 0),
    "S5-OBS3": ("S5", 2, 4, (), 1, 1),
    "S5-OBS4A": ("S5", 2, 4, (), 1, 1),
    "S5-OBS4B": ("S5", 2, 4, (), 1, 1),
    "S5-OBS5": ("S5", 3, 4, (), 1, 1),
    "S5-STRICT-TEAM": ("S5", 3, 4, (), 1, 1),
    "S5-STRICT-ADD": ("S5", 3, 4, (), 1, 1),
    "KT-MONO": ("KT", 2, 3, ("p", "q"), 20, 0),
    "KT-OBS2A": ("KT", 2, 3, (), 9, 0),
    "KT-OBS2B": ("KT", 2, 3, (), 9, 0),
    "KT-OBS2C": ("KT", 2, 3, (), 9, 0),
    "KT-P12A": ("KT", 3, 3, (), 211, 0),
    "KT-P12B": ("KT", 3, 3, (), 211, 0),
    "KT-P13": ("KT", 3, 3, (), 211, 0),
    "KT-P14": ("KT", 3, 3, (), 79, 0),
    "KT-PWW": ("KT", 3, 3, (), 343, 0),
    "KT-ACK": ("KT", 2, 3, (), 9, 0),
    "S4-P8": ("S4", 2, 3, (), 4, 0),
    "S4-P16A": ("S4", 2, 3, (), 9, 0),
    "S4-KS-FAIL": ("S4", 2, 4, (), 9, 4),
    "KT-P15A": ("KT", 2, 3, ("p", "q"), 24, 0),
    "KT-P15B": ("KT", 2, 3, ("p", "q"), 36, 0),
    "KT-P15C": ("KT", 2, 3, ("p", "q"), 36, 0),
}

# A small cross-section for the smoke check: valid and refuted claims on
# all three frames, schemas with and without constraints.
TINY_CLAIMS = ("KT-AX-INCL", "KT-OBS2A", "S5-P2", "S5-P10", "S5-OBS3",
               "S5-OBS5", "S4-P8", "S4-KS-FAIL")


class Registry(Workload):
    name = "registry"
    why = ("the 53-claim registry as corpus.run_all() runs it: 1,735 small "
           "searches that rescan a few bounds, where schema batching and "
           "hash-consing should show")
    setup_modules = ("epicmp.corpus",)
    op_name = "corpus_runs"

    def next_pass(self) -> list[Op]:
        return [Op("corpus", TINY_CLAIMS if self.tiny else None)]

    def run(self, op: Op, tracer=None):
        corpus = _epicmp("corpus")
        if op.payload is None:
            return corpus.run_all()
        return [corpus.run_claim(cid) for cid in op.payload]

    def check(self, op: Op, reports) -> tuple[str | None, int]:
        errors, models = [], 0
        ids = op.payload or tuple(CLAIMS)
        if [r.claim_id for r in reports] != list(ids):
            errors.append("claims missing, added or out of order")
        for report in reports:
            err = self._check_claim(report)
            models += report.models_checked
            if err:
                errors.append(err)
        return "; ".join(errors) or None, models

    def _check_claim(self, report) -> str | None:
        cid = report.claim_id
        if cid not in CLAIMS:
            return f"{cid}: not in the benchmark's claim table"
        frame, agents, max_worlds, atoms, n_inst, n_refuted = CLAIMS[cid]
        claim = _epicmp("corpus").REGISTRY[cid]
        b = claim.bounds
        got = (str(b.frame), b.n_agents, b.max_worlds, tuple(b.atoms))
        if got != (frame, agents, max_worlds, atoms):
            return f"{cid}: bounds {got} changed"
        models = report.models_checked
        expected = (n_inst - n_refuted) * oracle.closed_form_count(
            frame, agents, max_worlds, len(atoms))
        if not report.ok:
            return f"{cid}: FAIL {report.details}"
        if report.n_instances != n_inst:
            return f"{cid}: {report.n_instances} instances, expected {n_inst}"
        if models != expected:
            return f"{cid}: models_checked {models}, expected {expected}"
        if n_refuted == 0:
            if report.countermodel is not None:
                return f"{cid}: unexpected countermodel"
            return None
        return _check_countermodel(cid, report.countermodel,
                                   oracle.from_program(claim.formula),
                                   frame, agents, max_worlds, atoms)


def _check_countermodel(label: str, found, f, frame: str, agents: int,
                        max_worlds: int, atoms) -> str | None:
    """found must be the oracle's first countermodel, same witness."""
    if found is None:
        return f"{label}: no countermodel reported"
    want, witness, _ = oracle.first_countermodel(f, frame, agents,
                                                 max_worlds, atoms)
    got = oracle.model_from_program(found.model)
    if want is None:
        return f"{label}: oracle finds no countermodel"
    if not oracle.same_model(got, want):
        return f"{label}: countermodel is not the first in enumeration order"
    if found.witness != want.worlds[witness]:
        return f"{label}: witness {found.witness}, expected " \
               f"{want.worlds[witness]}"
    if witness in oracle.extension(got, f):
        return f"{label}: witness does not falsify the formula"
    return None


# --- scan_kt4 ---------------------------------------------------------------

class ScanKT4(Workload):
    name = "scan_kt4"
    why = ("one 268,468,290-model reflexive scan with no schema sharing: "
           "operator tabulation and frame symmetry should move it, schema "
           "batching should not")
    setup_modules = ("epicmp.search", "epicmp.syntax")
    op_name = "searches"
    FORMULA = "[{a} <= {b}] -> (K{b} p -> K{a} p)"

    def next_pass(self) -> list[Op]:
        worlds = 3 if self.tiny else 4
        return [Op("search", (self.FORMULA, "KT", 2, worlds, ("p",), False))]

    def run(self, op: Op, tracer=None):
        return _search_op(op.payload)

    def check(self, op: Op, outcome) -> tuple[str | None, int]:
        _, frame, agents, worlds, atoms, _ = op.payload
        return _no_countermodel(outcome, oracle.closed_form_count(
            frame, agents, worlds, len(atoms)))


# --- iso_search -------------------------------------------------------------

class IsoSearch(Workload):
    name = "iso_search"
    why = ("mod_iso searches that visit every isomorphism class: the heavy "
           "path through enumerate_models, canonicalize and per-model "
           "extension")
    setup_modules = ("epicmp.search", "epicmp.syntax")
    op_name = "searches"
    CASES = (
        ("[{a} <= {b}] -> (K{b} p -> K{a} p)", "KT", 2, 3),
        ("D{a,b} p -> D{a,b} D{a,b} p", "S4", 2, 3),
        ("~K{a} p -> K{a} ~K{a} p", "S5", 2, 4),
    )

    def next_pass(self) -> list[Op]:
        return [Op("search", (text, frame, agents,
                              worlds - 1 if self.tiny else worlds, ("p",),
                              True))
                for text, frame, agents, worlds in self.CASES]

    def run(self, op: Op, tracer=None):
        return _search_op(op.payload)

    def check(self, op: Op, outcome) -> tuple[str | None, int]:
        _, frame, agents, worlds, atoms, _ = op.payload
        return _no_countermodel(outcome, oracle.burnside_count(
            frame, agents, worlds, len(atoms)))


# --- model_check ------------------------------------------------------------

CLOSURES = ((), ("reflexive",), ("symmetric",), ("reflexive", "transitive"),
            ("reflexive", "symmetric", "transitive"))


def _group(rng: random.Random, agents) -> tuple[str, ...]:
    return tuple(sorted(rng.sample(agents, rng.randint(1, min(3,
                                                               len(agents))))))


def random_formula(rng: random.Random, agents, atoms, depth: int):
    """Every operator, all four comparisons; at most `depth` deep."""
    if depth == 0 or rng.random() < 0.12:
        if rng.random() < 0.7:
            return ("atom", rng.choice(atoms))
        return ("cmp", rng.choice(oracle.CMP_OPS), _group(rng, agents),
                _group(rng, agents))
    kind = rng.choice(("not", "and", "or", "imp", "iff", "K", "D", "C", "CD"))
    sub = random_formula(rng, agents, atoms, depth - 1)
    if kind == "not":
        return ("not", sub)
    if kind in oracle.BINARY:
        return (kind, sub, random_formula(rng, agents, atoms, depth - 1))
    if kind == "K":
        return ("K", rng.choice(agents), sub)
    if kind == "CD":
        groups = {_group(rng, agents) for _ in range(rng.randint(1, 3))}
        return ("CD", tuple(sorted(groups)), sub)
    return (kind, _group(rng, agents), sub)


def random_model(rng: random.Random) -> tuple[oracle.Model, str]:
    """A 4-16 world, 3-4 agent, 3 atom model: (closed model, its .km text,
    which may carry a closure line instead of the closed pairs)."""
    n = rng.randint(4, 16)
    agents = oracle.AGENT_POOL[:rng.randint(3, 4)]
    atoms = ("p", "q", "r")
    worlds = tuple(f"w{i}" for i in range(n))
    closure = rng.choice(CLOSURES)
    density = rng.uniform(0.05, 0.35)
    raw = {a: frozenset((i, j) for i in range(n) for j in range(n)
                        if rng.random() < density) for a in agents}
    val = {a: frozenset(i for i in range(n) if rng.random() < 0.5)
           for a in atoms}
    text = oracle.render_model(oracle.Model(worlds, agents, raw, atoms, val),
                               closure)
    closed = {a: oracle.close(raw[a], n, closure) for a in agents}
    return oracle.Model(worlds, agents, closed, atoms, val), text


class ModelCheck(Workload):
    name = "model_check"
    why = ("seeded load_model -> parse -> extension queries on 4-16 world "
           "models: north-star question 1, where the parser and the int "
           "evaluator do most of the work")
    setup_modules = ("epicmp.kripke", "epicmp.syntax", "epicmp.semantics")
    op_name = "queries"
    BATCH = 50

    def next_pass(self) -> list[Op]:
        ops = []
        for _ in range(10 if self.tiny else self.BATCH):
            model, text = random_model(self.rng)
            f = random_formula(self.rng, model.agents, model.atoms, 8)
            ops.append(Op("query", (text, oracle.render(f), model, f)))
        return ops

    def run(self, op: Op, tracer=None):
        text, ftext = op.payload[:2]
        m = _epicmp("kripke").load_model(text)
        f = _epicmp("syntax").parse(ftext)
        return _epicmp("semantics").extension(m, f)

    def check(self, op: Op, output) -> tuple[str | None, int]:
        _, ftext, model, f = op.payload
        want = set(oracle.world_names(model, oracle.extension(model, f)))
        if output != want:
            return f"extension of {ftext}: {sorted(output)} " \
                   f"!= {sorted(want)}", 1
        return None, 1


# --- cli_cold ---------------------------------------------------------------

# The README's examples, stdout byte for byte, and exit codes.
README_CASES = (
    (("eval", "-m", "fixtures/fig3.km", "-w", "u", "-f", "[{a} < {b}]"),
     "true\n", 0),
    (("valid", "-m", "fixtures/fig3.km", "-f", "[{b} < {a}]",
      "--show-extension"), "false\nextension: s\n", 1),
    (("classify", "-m", "fixtures/fig2.km"),
     "agent a: reflexive transitive\nagent b: reflexive transitive\n"
     "overall: S4\n", 0),
    (("search", "--frame", "s5", "--agents", "2", "-f",
      "[{b} <= {a}] -> D{b} [{b} <= {a}]"),
     "NO COUNTERMODEL up to bound (255 models)\n", 0),
    (("search", "--frame", "s4", "--agents", "2", "-f",
      "[{b} <= {a}] -> D{b} [{b} <= {a}]"),
     "agents: a b\nworlds: w0 w1\natoms:\n"
     "rel a: (w0,w0) (w0,w1) (w1,w1)\n"
     "rel b: (w0,w0) (w0,w1) (w1,w0) (w1,w1)\nwitness: w0\n", 1),
)


# The README searches' formula, [{b} <= {a}] -> D{b} [{b} <= {a}].
_B_LEQ_A = ("cmp", "<=", ("b",), ("a",))
README_SEARCH_FORMULA = ("imp", _B_LEQ_A, ("D", ("b",), _B_LEQ_A))

# The first README search with --mod-iso: one model per isomorphism class,
# through enumerate_models, canonicalize and per-model extension.
MOD_ISO_CASE = (("search", "--frame", "s5", "--agents", "2", "--mod-iso",
                 "-f", "[{b} <= {a}] -> D{b} [{b} <= {a}]"),
                f"NO COUNTERMODEL up to bound "
                f"({oracle.burnside_count('S5', 2, 4, 0)} models)\n", 0)


def _search_models(args) -> int:
    """Models a search covers: the isomorphism classes with --mod-iso, the
    whole bound when nothing is found, else every model up to and
    including the first countermodel (world bound: the CLI default, 4 on
    s5 and 3 otherwise)."""
    frame = args[args.index("--frame") + 1].upper()
    agents = int(args[args.index("--agents") + 1])
    worlds = 4 if frame == "S5" else 3
    if "--mod-iso" in args:
        return oracle.burnside_count(frame, agents, worlds, 0)
    _, _, visited = oracle.first_countermodel(
        README_SEARCH_FORMULA, frame, agents, worlds, ())
    return visited


class CliCold(Workload):
    name = "cli_cold"
    why = ("fresh `python -m epicmp.cli` processes: eval/valid/classify on "
           "the fixtures, the README searches and one --mod-iso search, "
           "where import time dominates")
    setup_modules = ("epicmp.cli",)
    op_name = "invocations"
    in_process = False
    SEEDED = 4

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.fixtures = oracle.fixtures()
        self.extras: list[dict] = []
        self._models: dict[tuple, int] = {}

    def _seeded(self) -> Op:
        name = self.rng.choice(sorted(self.fixtures))
        m = self.fixtures[name]
        path = f"fixtures/{name}.km"
        command = self.rng.choice(("eval", "eval", "valid", "classify"))
        if command == "classify":
            return Op("eval", (("classify", "-m", path),
                               oracle.classify_text(m), 0))
        f = random_formula(self.rng, m.agents, m.atoms, 5)
        ext = oracle.extension(m, f)
        if command == "eval":
            w = self.rng.randrange(m.n)
            holds = w in ext
            return Op("eval", (("eval", "-m", path, "-w", m.worlds[w], "-f",
                              oracle.render(f)),
                             "true\n" if holds else "false\n",
                             0 if holds else 1))
        holds = len(ext) == m.n
        args = ("valid", "-m", path, "-f", oracle.render(f))
        out = "true\n" if holds else "false\n"
        if self.rng.random() < 0.5:
            args += ("--show-extension",)
            out += "extension: " + " ".join(oracle.world_names(m, ext)) + "\n"
        return Op("eval", (args, out, 0 if holds else 1))

    def next_pass(self) -> list[Op]:
        seeded = [self._seeded() for _ in range(1 if self.tiny else
                                                 self.SEEDED)]
        cases = (README_CASES[2:] if self.tiny else README_CASES) \
            + (MOD_ISO_CASE,)
        readme = [Op("search" if args[0] == "search" else "eval",
                     (args, out, code)) for args, out, code in cases]
        return seeded + readme

    def run(self, op: Op, tracer=None):
        args = op.payload[0]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        if tracer is None:
            cmd = [sys.executable, "-m", "epicmp.cli", *args]
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=120)
            return proc.returncode, proc.stdout
        with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
            out_file = Path(tmp) / "trace.json"
            cmd = [sys.executable, str(HERE / "child.py"), "cli",
                   str(out_file), *args]
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=120)
            child = json.loads(out_file.read_text())
        tracer.merge(child["spans"])
        self.extras.append({"kind": op.kind, "import_s": child["import_s"],
                            "numpy": child["numpy_loaded"]})
        return proc.returncode, proc.stdout

    def check(self, op: Op, output) -> tuple[str | None, int]:
        args, want_out, want_code = op.payload
        code, out = output
        if (code, out) != (want_code, want_out):
            return f"{' '.join(args)}: exit {code} {out!r}, expected " \
                   f"exit {want_code} {want_out!r}", 0
        if op.kind != "search":
            return None, 1
        if args not in self._models:
            self._models[args] = _search_models(args)
        return None, self._models[args]

    def layer_extras(self) -> dict[str, float]:
        if not self.extras:
            return {}
        evals = [e["numpy"] for e in self.extras if e["kind"] == "eval"]
        return {
            "cli.import_s": sum(e["import_s"] for e in self.extras)
            / len(self.extras),
            "cli.numpy_loaded": max(evals) if evals else 0,
        }


WORKLOADS = {w.name: w for w in (Registry, ScanKT4, IsoSearch, ModelCheck,
                                 CliCold)}
