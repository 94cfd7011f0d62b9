"""Citation-window sensitivity analysis for field-normalized university
productivity rankings: corpus loading, the columnar analysis, rank-stability
statistics and permutation testing. The one-year definitions in citewin.impact
and citewin.productivity are the written reference, imported only by path."""

__version__ = "0.1.0"

# the module of each export, imported on first use (PEP 562): `import citewin` loads none
_EXPORTS = {
    "corpus": ("Corpus",),
    "errors": ("AnalysisError", "CitewinError", "IntegrityError", "MissingInputError",
               "ParseError"),
    "ingest": ("RepresentativityReport", "load_corpus", "representativity_filter"),
    "npc": ("NpcCombinedResult", "PermTestResult", "UdaGroups", "npc_fisher_combine",
            "top_partition", "two_sample_perm_test"),
    "synth": ("SynthConfig", "generate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["__version__", *_HOME]


def __getattr__(name: str) -> object:
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
