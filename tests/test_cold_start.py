"""What a fresh `epicmp` process loads, and the lazy package surface.

`import epicmp` loads no submodule, and `import epicmp.cli` only the
numpy-free `kripke` and `syntax`; each command imports what it uses, so
`eval`, `valid`, `classify`, `close` and `--help` never load numpy, and
neither does `import epicmp.semantics`.  Every test module
imports numpy in-process, so only a fresh interpreter shows an eager
import creeping back: those checks run `_PROBE` in a subprocess.

The probe also records `OPENBLAS_NUM_THREADS` at the moment numpy's
import begins: the CLI defaults it to 1 (epicmp calls no BLAS routine),
a user's own value wins, and library imports leave the environment
alone."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import epicmp

ROOT = Path(__file__).resolve().parent.parent
FIG2 = str(ROOT / "fixtures" / "fig2.km")
FIG3 = str(ROOT / "fixtures" / "fig3.km")

# Runs `epicmp ARGV` through `epicmp.cli.main` (or only the imports, when
# ARGV is null) and prints, as the last stdout line, the exit code, the
# epicmp and numpy modules loaded before and after, the environment before
# and after, and OPENBLAS_NUM_THREADS as numpy's import began ("unset" if
# it was not set, null if numpy never loaded).  With BREAK set, run_command
# raises, to reach main's internal-error path.
_PROBE = """
import json, os, sys

class NumpySpy:
    blas = None
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and NumpySpy.blas is None:
            NumpySpy.blas = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
        return None

sys.meta_path.insert(0, NumpySpy())
argv, imports, broken = json.loads(sys.argv[1])
env_before = dict(os.environ)

def loaded():
    return sorted(m for m in sys.modules
                  if m == "numpy" or m.split(".")[0] == "epicmp")

for name in imports:
    __import__(name)
before = loaded()
code = None
if argv is not None:
    import epicmp.cli as cli
    if broken:
        def run_command(argv):
            raise ValueError("boom")
        cli.run_command = run_command
    sys.argv = ["epicmp", *argv]
    try:
        cli.main()
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "before": before, "after": loaded(),
                  "env_kept": dict(os.environ) == env_before,
                  "blas": NumpySpy.blas}))
"""


def _probe(argv=None, imports=(), broken=False, blas=None):
    """(result dict, stdout before it, stderr) of `_PROBE` in a fresh
    interpreter with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE,
         json.dumps([argv, list(imports), broken])],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    *out, last = proc.stdout.splitlines(keepends=True)
    return json.loads(last), "".join(out), proc.stderr


# --- which modules a fresh process loads ----------------------------------

@pytest.mark.parametrize("imports, loaded", [
    (("epicmp",), ["epicmp"]),
    (("epicmp.cli",), ["epicmp", "epicmp.cli", "epicmp.kripke",
                       "epicmp.syntax"]),
    (("epicmp.semantics",), ["epicmp", "epicmp.kripke", "epicmp.semantics",
                             "epicmp.syntax"]),
])
def test_package_and_cli_imports_load_no_numpy(imports, loaded):
    result, _, err = _probe(imports=imports)
    assert err == ""
    assert result["after"] == loaded
    assert result["env_kept"]


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["classify", "-m", FIG2],
    ["close", "-m", FIG3, "--props", "reflexive"],
    ["eval", "-m", FIG3, "-w", "u", "-f", "[{a} < {b}]"],
    ["valid", "-m", FIG3, "-f", "H1 | T1", "--show-extension"],
])
def test_commands_that_need_no_numpy_never_load_it(argv):
    result, out, err = _probe(argv)
    assert (result["code"], err) == (0, "")
    assert out
    assert "numpy" not in result["after"]
    assert result["blas"] is None


# The README's first search: it loads numpy, through `search`.
_SEARCH = ["search", "--frame", "s5", "--agents", "2",
           "-f", "[{b} <= {a}] -> D{b} [{b} <= {a}]"]
_SEARCH_OUT = "NO COUNTERMODEL up to bound (255 models)\n"


def test_search_loads_numpy_with_one_blas_thread():
    result, out, err = _probe(_SEARCH)
    assert (result["code"], out, err) == (0, _SEARCH_OUT, "")
    assert "numpy" in result["after"]
    assert "epicmp.search" in result["after"]
    assert "epicmp.corpus" not in result["after"]
    assert result["blas"] == "1"


# --- the BLAS default -------------------------------------------------------

def test_users_blas_setting_wins():
    result, out, _ = _probe(_SEARCH, blas="3")
    assert (result["code"], out) == (0, _SEARCH_OUT)
    assert result["blas"] == "3"
    assert result["env_kept"]


@pytest.mark.parametrize("imports", [("epicmp.search",),
                                     ("epicmp", "epicmp.corpus")])
def test_library_imports_keep_the_environment(imports):
    result, _, err = _probe(imports=imports)
    assert err == ""
    assert "numpy" in result["after"]
    assert result["blas"] == "unset"
    assert result["env_kept"]


def test_run_command_keeps_the_environment():
    """Only `main`, the process entry point, sets the BLAS default;
    `run_command` is what a library caller uses."""
    code = ("import os, epicmp.cli as cli\n"
            "before = dict(os.environ)\n"
            f"cli.run_command(['eval', '-m', {FIG3!r}, '-w', 'u', "
            "'-f', 'p'])\n"
            "assert dict(os.environ) == before\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "false\n", "")


# --- exit codes when search and corpus are not loaded yet -----------------

@pytest.mark.parametrize("argv, message", [
    (["search", "--frame", "kt", "--agents", "9", "-f", "p"],
     "n_agents must be 1..4, got 9"),
    (["corpus", "--id", "nope"], "unknown claim id 'nope'"),
])
def test_search_and_corpus_errors_exit_2_in_a_fresh_process(argv, message):
    result, out, err = _probe(argv, imports=("epicmp.cli",))
    assert "epicmp.search" not in result["before"]
    assert "epicmp.corpus" not in result["before"]
    assert (result["code"], out, err) == (2, "", f"error: {message}\n")


def test_internal_error_exits_2_in_a_fresh_process():
    result, out, err = _probe(["eval"], imports=("epicmp.cli",),
                              broken=True)
    assert "numpy" not in result["after"]
    assert (result["code"], out) == (2, "")
    assert "ValueError: boom" in err
    assert err.rstrip().endswith("error: internal error")


# --- the lazy package surface -----------------------------------------------

# Where each exported name is defined, written out independently of the
# package's own table.
_HOMES = {
    "syntax": ("Formula", "parse", "render", "expand_sugar"),
    "kripke": ("KripkeModel", "Relation", "FrameClass", "FrameReport",
               "load_model", "save_model", "classify_frame",
               "apply_closure"),
    "semantics": ("satisfies", "valid_in_model", "extension"),
    "search": ("SearchBounds", "NoCountermodelUpTo", "Countermodel",
               "check_validity", "check_formulas"),
}


def test_all_lists_every_exported_name_once():
    names = [n for names in _HOMES.values() for n in names]
    assert sorted(epicmp.__all__) == sorted(names + ["__version__"])
    assert len(set(epicmp.__all__)) == len(epicmp.__all__)


def test_dir_lists_all_of_all():
    assert set(epicmp.__all__) <= set(dir(epicmp))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from epicmp import *", namespace)
    assert [n for n in epicmp.__all__ if n not in namespace] == []
    assert namespace["__version__"] == epicmp.__version__


@pytest.mark.parametrize("home", sorted(_HOMES))
def test_each_name_is_its_home_modules_object(home):
    mod = importlib.import_module(f"epicmp.{home}")
    for name in _HOMES[home]:
        assert getattr(epicmp, name) is getattr(mod, name), name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        epicmp.nope
    assert not hasattr(epicmp, "nope")
