"""Cost bounds for a higher-order fold language.

Three layers: an instrumented interpreter whose cost is the size of the
evaluation derivation (interp), a translation of programs into recurrences
over costs and potentials (translate, complexity), and a differential
harness that checks measured runs against the denoted bounds (harness), on
programs from the random program generator (gen).
"""

from .complexity import ctypecheck, denote
from .gen import ProbeConfig, gen_typed_term
from .harness import campaign_trials, check_program, tabulate
from .interp import eval_expr
from .parser import parse
from .syntax import to_source
from .translate import translate, translate_ty
from .typecheck import typecheck

__version__ = "0.1.0"

__all__ = [
    "ProbeConfig",
    "campaign_trials",
    "check_program",
    "ctypecheck",
    "denote",
    "eval_expr",
    "gen_typed_term",
    "parse",
    "tabulate",
    "to_source",
    "translate",
    "translate_ty",
    "typecheck",
    "__version__",
]
