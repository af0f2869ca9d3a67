"""Command-line tests driven through run_command with captured streams,
plus end-to-end checks through `main`: the exit code for unknown agents,
and, in separate processes, the verdict on deeply nested formulas (no
depth is too deep to parse or evaluate), exit 2 on an internal error, and
the console script.

The console-script check reads the `epicmp` entry point declared in
pyproject.toml, writes the wrapper an installer would generate for it, and
runs that wrapper as `epicmp` in a separate process against this checkout's
`src/`, so it needs no installed copy. Where an `epicmp` is installed on
PATH, that script is run through the same assertions too."""

import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import epicmp.cli as cli
import epicmp.semantics as semantics
from epicmp.cli import run_command
from epicmp.kripke import load_model_witness, save_model
from epicmp.semantics import satisfies
from epicmp.syntax import parse

ROOT = Path(__file__).resolve().parent.parent
FIG1 = str(ROOT / "fixtures" / "fig1.km")
FIG2 = str(ROOT / "fixtures" / "fig2.km")
FIG3 = str(ROOT / "fixtures" / "fig3.km")


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# --- eval ----------------------------------------------------------------

def test_eval_true():
    code, out, err = run("eval", "-m", FIG3, "-w", "u",
                         "-f", "[{a} < {b}]")
    assert (code, out, err) == (0, "true\n", "")


def test_eval_false():
    code, out, err = run("eval", "-m", FIG3, "-w", "s",
                         "-f", "[{a} < {b}]")
    assert (code, out, err) == (1, "false\n", "")


def test_eval_unknown_world_is_a_usage_error():
    code, out, err = run("eval", "-m", FIG3, "-w", "x", "-f", "H1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "'x'" in err


def test_eval_undeclared_atom_defaults_false_unless_strict():
    code, out, _ = run("eval", "-m", FIG3, "-w", "s", "-f", "zzz")
    assert (code, out) == (1, "false\n")
    code, out, err = run("eval", "-m", FIG3, "-w", "s", "-f", "zzz",
                         "--strict-atoms")
    assert code == 2
    assert "zzz" in err


def test_eval_parse_error():
    code, _, err = run("eval", "-m", FIG3, "-w", "s", "-f", "p & ")
    assert code == 2
    assert err.startswith("error:")


def test_eval_missing_model_file():
    code, _, err = run("eval", "-m", "no-such.km", "-w", "s", "-f", "p")
    assert code == 2
    assert "no-such.km" in err


def test_eval_model_file_that_is_not_utf8(tmp_path):
    """Undecodable bytes are a model-file error (exit 2), not an internal
    crash with a traceback."""
    bad = tmp_path / "bad.km"
    bad.write_bytes(b"\xff\xfe")
    proc = _cli_process("eval", "-m", str(bad), "-w", "s", "-f", "p")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: cannot read {bad}: ")
    assert "Traceback" not in proc.stderr


# --- valid ----------------------------------------------------------------

def test_valid_true():
    code, out, _ = run("valid", "-m", FIG1, "-f", "[{a,b} < {c}]")
    assert (code, out) == (0, "true\n")


def test_valid_false_with_extension():
    code, out, _ = run("valid", "-m", FIG3, "-f", "[{b} < {a}]",
                       "--show-extension")
    assert code == 1
    assert out == "false\nextension: s\n"


def test_valid_extension_lists_worlds_in_model_order():
    code, out, _ = run("valid", "-m", FIG3, "-f", "H1 | T1",
                       "--show-extension")
    assert (code, out) == (0, "true\nextension: s t u\n")


def test_valid_show_extension_evaluates_the_formula_once(monkeypatch):
    """The README example: the verdict comes from the extension, so the
    formula is evaluated once, not once for each."""
    calls = []
    mask = semantics._extension_mask

    def counting(*args):
        calls.append(args)
        return mask(*args)

    monkeypatch.setattr(semantics, "_extension_mask", counting)
    code, out, err = run("valid", "-m", FIG3, "-f", "[{b} < {a}]",
                         "--show-extension")
    assert (code, out, err) == (1, "false\nextension: s\n", "")
    assert len(calls) == 1


# --- classify -------------------------------------------------------------

def test_classify_fig2():
    code, out, _ = run("classify", "-m", FIG2)
    assert code == 0
    assert out == ("agent a: reflexive transitive\n"
                   "agent b: reflexive transitive\n"
                   "overall: S4\n")


def test_classify_fig1():
    code, out, _ = run("classify", "-m", FIG1)
    assert code == 0
    assert out.endswith("overall: S5\n")
    assert "agent c: reflexive transitive symmetric euclidean\n" in out


# --- search ---------------------------------------------------------------

KS = "[{b} <= {a}] -> D{b} [{b} <= {a}]"


def test_search_no_countermodel_exact_output():
    code, out, err = run("search", "--frame", "s5", "--agents", "2",
                         "-f", KS)
    assert (code, err) == (0, "")
    assert out == "NO COUNTERMODEL up to bound (255 models)\n"


def test_search_countermodel_output_reparses_and_falsifies():
    code, out, err = run("search", "--frame", "s4", "--agents", "2",
                         "-f", KS)
    assert (code, err) == (1, "")
    m, witness = load_model_witness(out)
    assert witness == "w0"
    assert m.n_worlds == 2
    assert not satisfies(m, witness, parse(KS))
    # printed text is exactly the canonical serialization
    assert out == save_model(m, witness=witness)


def test_search_large_reflexive_bound_warns_on_stderr():
    code, out, err = run("search", "--frame", "kt", "--agents", "1",
                         "--max-worlds", "4", "-f", "D{a} p -> p")
    assert code == 0
    # 1 agent, atom p: sum over n of 2^(n*n - n) relations * 2^n valuations
    assert out == "NO COUNTERMODEL up to bound (66066 models)\n"
    assert err.startswith("note:")
    assert "66066 models" in err


def test_search_jobs_output_is_byte_identical():
    for formula in (KS, "C{a,b} p -> D{a} p"):
        for mod_iso in ((), ("--mod-iso",)):
            argv = ("search", "--frame", "s4", "--agents", "2", *mod_iso,
                    "-f", formula)
            runs = [run(*argv, "--jobs", jobs) for jobs in ("1", "2", "8")]
            assert runs[0] == runs[1] == runs[2]


def test_search_rejects_bad_parameters():
    code, _, err = run("search", "--frame", "t", "--agents", "2", "-f", "p")
    assert code == 2 and "frame" in err
    code, _, err = run("search", "--frame", "kt", "--agents", "2",
                       "--max-worlds", "9", "-f", "p")
    assert code == 2 and "max_worlds" in err
    code, _, err = run("search", "--frame", "kt", "--agents", "2",
                       "--jobs", "0", "-f", "p")
    assert code == 2 and "--jobs" in err
    code, _, err = run("search", "--frame", "kt", "--agents", "2",
                       "-f", "D{z} p")
    assert code == 2 and "'z'" in err


@pytest.mark.parametrize("formula", ["D{z} p", "K{z} H1", "C{a,z} H1",
                                     "CD[{a};{z}] H1", "[{a} <= {z}]"])
@pytest.mark.parametrize("command", [("eval", "-w", "s"), ("valid",)])
def test_unknown_agent_is_a_usage_error(command, formula, monkeypatch,
                                        capsys):
    monkeypatch.setattr(sys, "argv", ["epicmp", command[0], "-m", FIG3,
                                      *command[1:], "-f", formula])
    with pytest.raises(SystemExit) as exit_:
        cli.main()
    assert exit_.value.code == 2
    assert capsys.readouterr() == ("", "error: unknown agent 'z'\n")


@pytest.mark.parametrize("argv", [
    ("search", "--frame", "none", "--agents", "1", "-f", "p"),
    ("corpus", "--frame", "none")])
def test_frame_none_is_a_usage_error(argv, monkeypatch, capsys):
    """`none` is a `FrameClass` but no frame class to search or filter
    claims by: the search must not die on its default world bound, nor
    the corpus pass zero claims."""
    monkeypatch.setattr(sys, "argv", ["epicmp", *argv])
    with pytest.raises(SystemExit) as exit_:
        cli.main()
    assert exit_.value.code == 2
    assert capsys.readouterr() == (
        "", "error: unknown frame class 'none' (choose kt, s4 or s5)\n")


# --- corpus ---------------------------------------------------------------

def test_corpus_single_claim():
    code, out, err = run("corpus", "--id", "S5-OBS4A")
    assert (code, err) == (0, "")
    assert "S5-OBS4A" in out and "PASS" in out
    assert out.rstrip().endswith("all claims passed (1/1)")


def test_corpus_unknown_id():
    code, _, err = run("corpus", "--id", "NOPE")
    assert code == 2
    assert "NOPE" in err


# --- close ----------------------------------------------------------------

RAW = """\
agents: a
worlds: w0 w1
atoms: p
rel a: (w0,w1)
val p: w1
"""


def test_close_produces_the_requested_frame(tmp_path):
    src = tmp_path / "raw.km"
    src.write_text(RAW)
    code, out, _ = run("close", "-m", str(src), "--props",
                       "reflexive,symmetric,transitive")
    assert code == 0
    closed = tmp_path / "closed.km"
    closed.write_text(out)
    code, out2, _ = run("classify", "-m", str(closed))
    assert code == 0
    assert out2.endswith("overall: S5\n")
    code, out3, _ = run("eval", "-m", str(closed), "-w", "w0",
                        "-f", "~D{a} p")
    assert (code, out3) == (0, "true\n")


# --- exit code 2 for every failure ----------------------------------------

_TOO_DEEP = {
    "600-nested-not": "~" * 600 + "p",
    "5000-conjuncts": " & ".join(["p"] * 5000),
    "5000-parentheses": "(" * 5000 + "p" + ")" * 5000,
}
_DEEP_COMMANDS = {
    "eval": ["eval", "-m", FIG3, "-w", "s"],
    "search": ["search", "--frame", "s5", "--agents", "1",
               "--max-worlds", "2"],
}


def _cli_process(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "epicmp.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)


@pytest.mark.parametrize("formula", sorted(_TOO_DEEP))
@pytest.mark.parametrize("command", sorted(_DEEP_COMMANDS))
def test_formula_too_deep_to_evaluate_exits_2(command, formula):
    """Every formula here is equivalent to p.  Hashing and evaluating the
    first two used to overflow the stack and exit 2, and parsing the
    third; now they get p's verdict: false at s of fig3, and the same
    countermodel as a search for p."""
    _assert_verdict_of_p(command, _TOO_DEEP[formula])


def _assert_verdict_of_p(command, formula):
    proc = _cli_process(*_DEEP_COMMANDS[command], "-f", formula)
    assert proc.returncode == 1
    assert proc.stderr == ""
    if command == "eval":
        assert proc.stdout == "false\n"
    else:
        plain = _cli_process(*_DEEP_COMMANDS[command], "-f", "p")
        assert plain.returncode == 1
        assert proc.stdout == plain.stdout


@pytest.mark.parametrize("command", sorted(_DEEP_COMMANDS))
def test_formula_too_deep_to_parse_exits_2(command):
    """2,000 nested `~` overflowed the recursive parser's stack and exited
    2; the parser keeps explicit stacks now, so the formula gets p's
    verdict."""
    _assert_verdict_of_p(command, "~" * 2000 + "p")


def test_main_exits_2_on_an_internal_error(monkeypatch, capsys):
    def broken(argv):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "run_command", broken)
    monkeypatch.setattr(sys, "argv", ["epicmp", "eval"])
    with pytest.raises(SystemExit) as exit_:
        cli.main()
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "ValueError: boom" in err
    assert err.rstrip().endswith("error: internal error")


# --- usage errors and packaging ------------------------------------------

def test_missing_subcommand_and_unknown_flag():
    code, _, err = run()
    assert code == 2 and err.startswith("error:")
    code, _, err = run("eval", "-m", FIG3, "--bogus")
    assert code == 2


def _declared_entry_point(name):
    """(module, attr) of console script `name` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read `name = "mod:attr"`
        scripts, section = {}, None
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("["):
                section = line
            elif section == "[project.scripts]" and "=" in line:
                key, _, value = line.partition("=")
                scripts[key.strip()] = value.strip().strip("\"'")
    else:
        scripts = tomllib.loads(text)["project"]["scripts"]
    module, _, attr = scripts[name].partition(":")
    return module, attr


def test_console_script_is_installed_and_works(tmp_path):
    module, attr = _declared_entry_point("epicmp")
    wrapper = tmp_path / "epicmp"
    wrapper.write_text(f"#!{sys.executable}\n"
                       "import sys\n"
                       f"from {module} import {attr}\n"
                       f"sys.exit({attr}())\n")
    wrapper.chmod(0o755)
    env = dict(os.environ,
               PATH=os.pathsep.join(
                   filter(None, [str(tmp_path), os.environ.get("PATH")])),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")])))
    assert shutil.which("epicmp", path=env["PATH"]) == str(wrapper)
    installed = shutil.which("epicmp")
    for exe in ["epicmp"] + ([installed] if installed else []):
        for world, code, out in (("u", 0, "true\n"), ("s", 1, "false\n")):
            proc = subprocess.run([exe, "eval", "-m", FIG3, "-w", world,
                                   "-f", "[{a} < {b}]"],
                                  capture_output=True, text=True, env=env)
            assert (proc.returncode, proc.stdout, proc.stderr) == \
                (code, out, ""), exe
