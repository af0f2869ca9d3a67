"""Fresh-interpreter helpers the benchmark runs as subprocesses.

    child.py setup MODULE...          import the modules, print "ready"
    child.py cli OUT_JSON ARGS...     run `epicmp ARGS` with tracing on and
                                      write its spans to OUT_JSON

Both expect PYTHONPATH to hold the checkout's src/ directory.
"""

import importlib
import json
import sys
import time


def _setup(modules: list[str]) -> None:
    for name in modules:
        importlib.import_module(name)
    print("ready", flush=True)


def _cli(out_path: str, args: list[str]) -> None:
    start = time.perf_counter()
    cli = importlib.import_module("epicmp.cli")
    import_s = time.perf_counter() - start

    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    sys.argv = ["epicmp", *args]
    code = 0
    try:
        cli.main()
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(out_path, "w") as fh:
            json.dump({"spans": tracer.spans, "import_s": import_s,
                       "numpy_loaded": int("numpy" in sys.modules)}, fh)
    sys.exit(code)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        _setup(sys.argv[2:])
    else:
        _cli(sys.argv[2], sys.argv[3:])
