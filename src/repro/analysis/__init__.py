"""Analyses of the sharing substrate: information-theoretic and static.

Two complementary verification layers live here:

* :mod:`repro.analysis.secrecy` verifies the paper's perfect-secrecy
  claim (Sec. II-B) *exactly* -- not statistically -- by enumerating
  the full joint distribution of (secret, observed shares) over small
  prime fields and computing entropies and mutual information in
  closed form.
* :mod:`repro.analysis.framework` is the static-analysis substrate and
  the one analyser front end (discovery, directives, reports, the
  command line) shared by the determinism linter (``repro.lint``)
  and the secret-taint analysis (:mod:`repro.analysis.taint`), which
  proves the *implementation* honours that secrecy by tracking where
  raw secret bytes flow.
"""

from repro.analysis.secrecy import (
    SecrecyReport,
    entropy,
    joint_distribution,
    mutual_information,
    verify_perfect_secrecy,
)

__all__ = [
    "entropy",
    "mutual_information",
    "joint_distribution",
    "verify_perfect_secrecy",
    "SecrecyReport",
]
