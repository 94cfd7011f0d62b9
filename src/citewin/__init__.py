"""Citation-window sensitivity analysis for field-normalized university
productivity rankings: corpus loading, the columnar analysis, rank-stability
statistics and permutation testing. The one-year definitions in citewin.impact
and citewin.productivity are the written reference, imported only by path."""

__version__ = "0.1.0"

from .corpus import Corpus
from .errors import AnalysisError, CitewinError, IntegrityError, MissingInputError, ParseError
from .ingest import RepresentativityReport, load_corpus, representativity_filter
from .npc import (NpcCombinedResult, PermTestResult, UdaGroups, npc_fisher_combine, top_partition,
                  two_sample_perm_test)
from .sensitivity import ShiftStats, StabilitySummary
from .synth import SynthConfig, generate

__all__ = [
    "__version__",
    "AnalysisError",
    "CitewinError",
    "Corpus",
    "IntegrityError",
    "MissingInputError",
    "NpcCombinedResult",
    "ParseError",
    "PermTestResult",
    "RepresentativityReport",
    "SynthConfig",
    "ShiftStats",
    "StabilitySummary",
    "UdaGroups",
    "generate",
    "load_corpus",
    "npc_fisher_combine",
    "representativity_filter",
    "top_partition",
    "two_sample_perm_test",
]
