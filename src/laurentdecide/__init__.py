"""Certificate-producing decision engine for existential sentences over
Laurent series fields F_q((t)) with F_q(t) parameters and uniformizer t.

Quantified variables range over the valuation ring F_q[[t]]; constants may be
arbitrary F_q(t) values.  Verdicts are SAT with a Hensel-certified witness,
UNSAT with a refuting truncation level or radical-membership cofactors, or an
explicit UNKNOWN when a budget runs out.
"""

from .ff import FqContext, FqElem, fq_context
from .frontend import ParseError, Sentence, decide, eliminate_valuation_atoms, parse, to_systems
from .hensel import (
    CertificateError,
    HenselCertificate,
    PerturbBudget,
    certify_liftable,
    newton_lift,
    smooth_perturb,
)
from .ideal import (
    GroebnerBasis,
    RadicalCertificate,
    buchberger,
    dimension,
    ideal_membership,
    normal_form,
    radical_membership,
    squarefree_part,
)
from .poly import (
    MultiPoly,
    PolyRing,
    RationalFunction,
    RationalFunctionField,
    UniPoly,
    jacobian,
    to_rational_coeffs,
    total_degree,
)
from .resolve import (
    AffineSystem,
    BlowupChart,
    RegularityReport,
    RunConfig,
    blow_up_origin,
    decide_existential,
    descend,
    regularity_check,
)
from .series import AtLeast, TruncatedSeries, evaluate, invert_unit, valuation
from .truncation import (
    WeilRestriction,
    decide_positive,
    solve_finite,
    weil_restrict,
)
from .verdict import Verdict

__version__ = "0.1.0"

__all__ = [
    "AffineSystem",
    "AtLeast",
    "BlowupChart",
    "CertificateError",
    "FqContext",
    "FqElem",
    "GroebnerBasis",
    "HenselCertificate",
    "MultiPoly",
    "ParseError",
    "PerturbBudget",
    "PolyRing",
    "RadicalCertificate",
    "RationalFunction",
    "RationalFunctionField",
    "RegularityReport",
    "RunConfig",
    "Sentence",
    "TruncatedSeries",
    "UniPoly",
    "Verdict",
    "WeilRestriction",
    "blow_up_origin",
    "buchberger",
    "certify_liftable",
    "decide",
    "decide_existential",
    "decide_positive",
    "descend",
    "dimension",
    "eliminate_valuation_atoms",
    "evaluate",
    "fq_context",
    "ideal_membership",
    "invert_unit",
    "jacobian",
    "newton_lift",
    "normal_form",
    "parse",
    "radical_membership",
    "regularity_check",
    "smooth_perturb",
    "solve_finite",
    "squarefree_part",
    "to_rational_coeffs",
    "to_systems",
    "total_degree",
    "valuation",
    "weil_restrict",
]
