"""Translation-validation subsystem: grammar-directed program generation,
an N-way differential oracle over every semantic route the repo offers,
and a delta-debugging minimizer that turns any divergence into a small,
seed-pinned regression case.

The three pieces compose into the ``repro fuzz`` CLI and the standing
correctness gate every future backend must pass:

* :mod:`~repro.validate.progen` — seeded generator of well-formed source
  programs (tunable nesting, goto density incl. irreducible CFGs, array
  ops, alias declarations, integer ranges) plus input vectors;
* :mod:`~repro.validate.oracle` — runs one program through the AST
  interpreter, the CFG interpreter, and every legal translation schema
  under the step/packed simulator loops (cached and uncached), and
  classifies any disagreement;
* :mod:`~repro.validate.reduce` — ddmin-style shrinking of a diverging
  program at statement/block granularity, emitting a replayable repro;
* :mod:`~repro.validate.fuzz` — the budgeted fuzzing driver behind
  ``repro fuzz``, wired into the obs metrics/span layers.
"""

from .fuzz import Finding, FuzzReport, run_fuzz
from .oracle import (
    DETERMINISTIC_METRIC_FIELDS,
    Divergence,
    OracleReport,
    assign_blame,
    check_batch_routes,
    check_program,
    legal_schemas,
)
from .progen import GeneratedProgram, GenKnobs, generate
from .reduce import (
    MinimizeResult,
    RegressionFormatError,
    minimize,
    parse_regression,
    parse_regression_strict,
    write_regression,
)

__all__ = [
    "DETERMINISTIC_METRIC_FIELDS",
    "Divergence",
    "Finding",
    "FuzzReport",
    "GenKnobs",
    "GeneratedProgram",
    "MinimizeResult",
    "OracleReport",
    "RegressionFormatError",
    "assign_blame",
    "check_batch_routes",
    "check_program",
    "generate",
    "legal_schemas",
    "minimize",
    "parse_regression",
    "parse_regression_strict",
    "run_fuzz",
    "write_regression",
]
