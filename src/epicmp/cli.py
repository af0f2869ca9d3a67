"""Command-line front end.

Subcommands: eval, valid, classify, search, corpus, close.  Exit codes:
0 for true / valid / no countermodel / all claims pass, 1 for the negative
answer, 2 for any usage, parse, model or bounds error and for any internal
error.  A formula gets its answer however deeply it nests.  Searches run
on one thread; `search` and `corpus` accept `--jobs N` (N at least 1) for
compatibility, and it never changes the output.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from pathlib import Path
from typing import Sequence, TextIO

# Only the modules every command reads load here; each command imports
# the rest: `eval` and `valid` the numpy-free `semantics`, `search` the
# numpy sweep, and `corpus` both.
from .kripke import (BoundsError, CorpusError, FrameClass, KripkeModel,
                     ModelError, apply_closure, classify_frame, load_model,
                     save_model)
from .syntax import FormulaError, atom_names, parse

_FRAME_DEFAULT_WORLDS = {FrameClass.S5: 4, FrameClass.S4: 3,
                         FrameClass.KT: 3}

# A search bound this large gets a size note.
_LARGE_SEARCH_MODELS = 10 ** 8


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors through our exit-2 path."""

    def error(self, message):
        raise _CliError(f"{self.prog}: {message}")


def _load(path: str) -> KripkeModel:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc
    return load_model(text)


def _frame(name: str) -> FrameClass:
    frame = FrameClass.__members__.get(name.upper())
    if frame not in _FRAME_DEFAULT_WORLDS:
        raise _CliError(f"unknown frame class {name!r} "
                        f"(choose kt, s4 or s5)")
    return frame


def _cmd_eval(args, out: TextIO, err: TextIO) -> int:
    from .semantics import satisfies
    m = _load(args.model)
    f = parse(args.formula)
    result = satisfies(m, args.world, f, strict_atoms=args.strict_atoms)
    print("true" if result else "false", file=out)
    return 0 if result else 1


def _cmd_valid(args, out: TextIO, err: TextIO) -> int:
    from .semantics import extension
    m = _load(args.model)
    f = parse(args.formula)
    # one evaluation gives both the verdict and the extension
    holds = extension(m, f, strict_atoms=args.strict_atoms)
    result = len(holds) == m.n_worlds
    print("true" if result else "false", file=out)
    if args.show_extension:
        names = " ".join(w for w in m.worlds if w in holds)
        print(f"extension: {names}", file=out)
    return 0 if result else 1


def _cmd_classify(args, out: TextIO, err: TextIO) -> int:
    m = _load(args.model)
    report = classify_frame(m)
    for agent, flags in zip(report.agents, report.flags):
        props = [name for name in ("reflexive", "transitive", "symmetric",
                                   "euclidean") if getattr(flags, name)]
        print(f"agent {agent}: " + (" ".join(props) if props else "-"),
              file=out)
    print(f"overall: {report.overall}", file=out)
    return 0


def _cmd_search(args, out: TextIO, err: TextIO) -> int:
    from .search import (NoCountermodelUpTo, SearchBounds, check_validity,
                         count_models)
    f = parse(args.formula)
    frame = _frame(args.frame)
    max_worlds = args.max_worlds
    if max_worlds is None:
        max_worlds = _FRAME_DEFAULT_WORLDS[frame]
    bounds = SearchBounds(frame=frame, n_agents=args.agents,
                          max_worlds=max_worlds,
                          atoms=tuple(sorted(atom_names(f))),
                          mod_iso=args.mod_iso)
    size = count_models(bounds)
    if size >= _LARGE_SEARCH_MODELS:
        print(f"note: {frame} enumeration at {max_worlds} worlds is large: "
              f"up to {size} models", file=err)
    outcome = check_validity(f, bounds)
    if isinstance(outcome, NoCountermodelUpTo):
        print(f"NO COUNTERMODEL up to bound "
              f"({outcome.models_checked} models)", file=out)
        return 0
    out.write(save_model(outcome.model, witness=outcome.witness))
    return 1


def _cmd_corpus(args, out: TextIO, err: TextIO) -> int:
    from .corpus import REGISTRY, Verdict, run_all, run_claim
    frame = _frame(args.frame) if args.frame else None
    if args.id is not None:
        reports = [run_claim(args.id)]
    else:
        reports = run_all(frame=frame)
    header = (f"{'id':<16} {'frame':<5} {'expected':<15} {'result':<6} "
              f"{'instances':>9} {'models':>12} {'time':>8}")
    print(header, file=out)
    print("-" * len(header), file=out)
    failures = 0
    for rep in reports:
        expected = ("no-countermodel"
                    if rep.expected == Verdict.VALID_UP_TO_BOUND
                    else "countermodel")
        result = "PASS" if rep.ok else "FAIL"
        if not rep.ok:
            failures += 1
        print(f"{rep.claim_id:<16} {REGISTRY[rep.claim_id].frame!s:<5} "
              f"{expected:<15} {result:<6} {rep.n_instances:>9} "
              f"{rep.models_checked:>12} {rep.elapsed:>7.2f}s", file=out)
        for line in rep.details:
            print(f"    {line}", file=out)
    if failures:
        print(f"FAILED: {failures} of {len(reports)} claims", file=out)
        return 1
    print(f"all claims passed ({len(reports)}/{len(reports)})", file=out)
    return 0


def _cmd_close(args, out: TextIO, err: TextIO) -> int:
    m = _load(args.model)
    props = tuple(p for p in args.props.split(",") if p)
    out.write(save_model(apply_closure(m, props)))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="epicmp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a formula at a world")
    p.add_argument("-m", "--model", required=True, help="model file")
    p.add_argument("-w", "--world", required=True, help="world name")
    p.add_argument("-f", "--formula", required=True, help="formula text")
    p.add_argument("--strict-atoms", action="store_true",
                   help="error on atoms the model does not declare")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("valid", help="check truth at every world")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("-f", "--formula", required=True)
    p.add_argument("--show-extension", action="store_true",
                   help="also print the worlds where the formula holds")
    p.add_argument("--strict-atoms", action="store_true")
    p.set_defaults(func=_cmd_valid)

    p = sub.add_parser("classify", help="report per-agent relation "
                                        "properties and the frame class")
    p.add_argument("-m", "--model", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("search", help="look for a countermodel up to a "
                                      "world bound")
    p.add_argument("--frame", required=True, help="kt, s4 or s5")
    p.add_argument("--agents", required=True, type=int,
                   help="size of the agent pool a,b,c,d")
    p.add_argument("--max-worlds", type=int, default=None,
                   help="world bound (default: 4 for s5, 3 otherwise)")
    p.add_argument("--mod-iso", action="store_true",
                   help="count models up to isomorphism")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; runs on one thread")
    p.add_argument("-f", "--formula", required=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("corpus", help="run the built-in claim registry")
    only = p.add_mutually_exclusive_group()
    only.add_argument("--id", help="run a single claim")
    only.add_argument("--frame", help="only claims on this frame")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; runs on one thread")
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("close", help="apply closure properties and print "
                                     "the result")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("--props", required=True,
                   help="comma-separated: reflexive,symmetric,transitive")
    p.set_defaults(func=_cmd_close)
    return parser


def run_command(argv: Sequence[str], out: TextIO | None = None,
                err: TextIO | None = None) -> int:
    """Run one CLI invocation; returns the exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        if getattr(args, "jobs", 1) < 1:
            raise _CliError("--jobs must be at least 1")
        return args.func(args, out, err)
    except (_CliError, FormulaError, ModelError, BoundsError,
            CorpusError) as exc:
        print(f"error: {exc}", file=err)
        return 2


def main() -> None:
    # epicmp calls no BLAS routine, so numpy need not start OpenBLAS's
    # thread pool; that start is a large share of a short command's time.
    # Set before any command imports numpy; a user's own setting wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        code = run_command(sys.argv[1:])
    except Exception:
        # an internal fault must not exit 0 or 1, which are answers
        traceback.print_exc()
        print("error: internal error", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
