"""Certificate-producing decision engine for existential sentences over
Laurent series fields F_q((t)) with F_q(t) parameters and uniformizer t.

Quantified variables range over the valuation ring F_q[[t]]; constants may be
arbitrary F_q(t) values.  Verdicts are SAT with a Hensel-certified witness,
UNSAT with a refuting truncation level or radical-membership cofactors, or an
explicit UNKNOWN when a budget runs out.

The package exports the three names a caller needs to decide a sentence;
everything else is imported from its module.
"""

from .ff import FqContext
from .frontend import decide
from .truncation import RunConfig

__all__ = ["FqContext", "RunConfig", "decide"]
