"""frfc-analyzer: AST-grade static analysis for the FRFC simulator.

Semantic successor to the textual rules of tools/frfc_lint.py: rules
run over a parsed intermediate representation (IR) of every
translation unit named in CMake's compile_commands.json, so they see
inheritance, call expressions, declarations, and the include graph
rather than lines of text.

The IR (see ir.py) comes from a self-contained C++ tokenizer + scope
parser (lexer.py, frontend_internal.py) with no dependencies beyond
the Python 3 standard library, tuned to this codebase's idiom, so the
analyzer runs anywhere Python 3 does.

Rule families (tools/frfc_analyzer/rules/):

  next-wake        every Clocked descendant that overrides tick() must
                   override nextWake() (real inheritance walk)
  determinism.*    no mutable namespace-scope statics, thread_local,
                   std::random_device, rand()/srand()/time(), wall
                   clocks, or unordered-container iteration in src/
  fault-rng.*      probability draws and "fault.*" key literals only
                   inside the fault framework (call-expression based)
  hot-container    no std::unordered_map/std::map/std::deque types —
                   including through aliases — in src/frfc, src/vc
  config.*         Config::get<T>/scope call-site harvest into
                   docs/config_schema.json plus three cross-checks
                   (documented, actually-read, resolver coverage)
  metric.*         MetricRegistry attach-site harvest into
                   docs/metric_schema.json, dotted-path grammar,
                   duplicate paths, documented root namespaces
  layering.*       declared module DAG (layers.conf) checked against
                   the actual ``#include`` graph of src/

Findings are suppressed either inline (``// frfc-analyzer:
allow(<rule>): <reason>``) or through the audited baseline file
tools/frfc_analyzer.suppressions. Output is text or SARIF-shaped JSON
(``--json out=<file>``).

Exit status: 0 clean, 1 findings, 2 usage/setup error.
"""

__version__ = "1.0.0"

from .cli import main  # noqa: E402,F401  (re-export for __main__)
