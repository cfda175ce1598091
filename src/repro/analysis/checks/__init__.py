"""Built-in analysis rules.

Importing this package registers every rule in
:data:`repro.analysis.rules.ANALYSIS_RULES`, which is why it is the one
package that imports its own submodules.  Each module
holds one rule, grounded in a real past incident (see
``docs/static-analysis.md`` for the catalog and the history).
"""

from repro.analysis.checks import (  # noqa: F401  (registration side effects)
    determinism,
    digest,
    locking,
    registry_coverage,
    serialization,
    suppression_hygiene,
)
