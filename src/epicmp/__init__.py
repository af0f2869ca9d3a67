"""Model checking and bounded countermodel search for multi-agent
epistemic logic with pooled (distributed) knowledge, common knowledge,
group-as-agent common knowledge and group-strength comparison operators.

The names below load their module on first use (PEP 562), so importing
the package loads none of them: `search` imports numpy, and a command
that does not search should not pay for it."""

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it
_HOMES = {
    "Formula": "syntax", "parse": "syntax", "render": "syntax",
    "expand_sugar": "syntax",
    "KripkeModel": "kripke", "Relation": "kripke", "FrameClass": "kripke",
    "FrameReport": "kripke", "load_model": "kripke", "save_model": "kripke",
    "classify_frame": "kripke", "apply_closure": "kripke",
    "satisfies": "semantics", "valid_in_model": "semantics",
    "extension": "semantics",
    "SearchBounds": "search", "NoCountermodelUpTo": "search",
    "Countermodel": "search", "check_validity": "search",
    "check_formulas": "search",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
