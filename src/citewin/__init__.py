"""Citation-window sensitivity analysis for field-normalized university
productivity rankings: corpus model, impact normalization, productivity
engine, rank-stability statistics, and permutation testing."""

__version__ = "0.1.0"

from .corpus import (
    AuthorshipLink,
    Corpus,
    FieldTaxonomy,
    PublicationRecord,
    ResearcherRecord,
    build_corpus,
)
from .errors import (
    AnalysisError,
    CitewinError,
    IntegrityError,
    MissingInputError,
    ParseError,
)
from .impact import MedianTable, article_impact_index, compute_median_table
from .ingest import RepresentativityReport, load_corpus, representativity_filter
from .npc import (
    NpcCombinedResult,
    PermTestResult,
    UdaGroups,
    npc_fisher_combine,
    top_partition,
    two_sample_perm_test,
)
from .productivity import (
    NationalBaseline,
    ProductivityCell,
    UdaProductivity,
    national_baseline,
    scientific_strength,
    sds_productivity,
    uda_productivity,
)
from .sensitivity import ShiftStats, StabilitySummary
from .synth import SynthConfig, generate

__all__ = [
    "__version__",
    "AnalysisError",
    "AuthorshipLink",
    "CitewinError",
    "Corpus",
    "FieldTaxonomy",
    "IntegrityError",
    "MedianTable",
    "MissingInputError",
    "NationalBaseline",
    "NpcCombinedResult",
    "ParseError",
    "PermTestResult",
    "ProductivityCell",
    "PublicationRecord",
    "RepresentativityReport",
    "ResearcherRecord",
    "SynthConfig",
    "ShiftStats",
    "StabilitySummary",
    "UdaGroups",
    "UdaProductivity",
    "article_impact_index",
    "build_corpus",
    "compute_median_table",
    "generate",
    "load_corpus",
    "national_baseline",
    "npc_fisher_combine",
    "representativity_filter",
    "scientific_strength",
    "sds_productivity",
    "top_partition",
    "two_sample_perm_test",
    "uda_productivity",
]
