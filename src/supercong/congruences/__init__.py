"""Congruence catalog, exact identities and the verification engine."""

from .columns import CaseBlock, VerificationReport
from .engine import SuiteReport, run_suite, verify_family_case
from .families import CongruenceFamily, family_catalog, family_ids, get_family
from .identities import ExactIdentity, IdentityResult, identity_catalog, identity_ids, run_identities
from .report import dumps_json, report_to_dict, write_csv, write_json
from .sums import TERM_KINDS, truncated_sum

__all__ = [
    "CaseBlock",
    "CongruenceFamily",
    "ExactIdentity",
    "IdentityResult",
    "SuiteReport",
    "TERM_KINDS",
    "VerificationReport",
    "dumps_json",
    "family_catalog",
    "family_ids",
    "get_family",
    "identity_catalog",
    "identity_ids",
    "report_to_dict",
    "run_identities",
    "run_suite",
    "truncated_sum",
    "verify_family_case",
    "write_csv",
    "write_json",
]
