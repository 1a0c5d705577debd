"""Verdicts: SAT with witness + certificate, UNSAT with machine-checkable
evidence (a refuting truncation level or radical-membership cofactors),
UNKNOWN with a reason code and the trace of budget decisions."""

from __future__ import annotations

from dataclasses import dataclass, field

from .hensel import HenselCertificate
from .ideal import RadicalCertificate

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


@dataclass
class Verdict:
    status: str
    witness: tuple | None = None            # TruncatedSeries vector (SAT)
    certificate: HenselCertificate | None = None
    inequation_valuation: int | None = None  # exact valuation of g at the witness
    refuted_at: int | None = None           # truncation level (UNSAT)
    radical: RadicalCertificate | None = None  # radical evidence (UNSAT)
    reason: str | None = None               # reason code (UNKNOWN)
    branches: list | None = None            # sub-verdicts of a case split
    trace: list = field(default_factory=list)
    system: object = None                   # the AffineSystem the witness refers to

    def __post_init__(self):
        # real exceptions, not asserts: python -O must not drop these guards
        if self.status not in (SAT, UNSAT, UNKNOWN):
            raise ValueError(f"unknown verdict status {self.status!r}")
        if self.status == SAT and self.certificate is None:
            raise ValueError("SAT verdicts always carry a certificate")
        if self.status == UNSAT and not (
            self.refuted_at is not None
            or self.radical is not None
            or (self.branches and all(b.is_unsat for b in self.branches))
        ):
            raise ValueError("UNSAT verdicts always carry evidence")

    @property
    def is_sat(self):
        return self.status == SAT

    @property
    def is_unsat(self):
        return self.status == UNSAT

    @property
    def is_unknown(self):
        return self.status == UNKNOWN
