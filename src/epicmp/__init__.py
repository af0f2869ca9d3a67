"""Model checking and bounded countermodel search for multi-agent
epistemic logic with pooled (distributed) knowledge, common knowledge,
group-as-agent common knowledge and group-strength comparison operators."""

from .kripke import (FrameClass, FrameReport, KripkeModel, Relation,
                     apply_closure, classify_frame, load_model, save_model)
from .search import (Countermodel, NoCountermodelUpTo, SearchBounds,
                     check_formulas, check_schema, check_validity)
from .semantics import extension, satisfies, valid_in_model
from .syntax import Formula, expand_sugar, parse, render

__version__ = "0.1.0"

__all__ = [
    "Formula", "parse", "render", "expand_sugar",
    "KripkeModel", "Relation", "FrameClass", "FrameReport",
    "load_model", "save_model", "classify_frame", "apply_closure",
    "satisfies", "valid_in_model", "extension",
    "SearchBounds", "NoCountermodelUpTo", "Countermodel",
    "check_validity", "check_formulas", "check_schema",
    "__version__",
]
