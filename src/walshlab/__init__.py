"""Computational laboratory for Walsh-function correlation bounds.

Sieved arithmetic tables, exact Walsh spectra, trigonometric coefficient
norms, band-limited substitutes, bilinear sum objects, and the inequality
checkers that audit each bound with explicit or fitted constants.

Public names resolve lazily: `import walshlab` loads no module but
_version, and each name imports its defining module on first use.
"""

import importlib

from ._version import __version__

# defining module -> the public names it exports
_EXPORTS = {
    "approximant": ("ApproximantConfig", "SampledApproximant", "band_profile",
                    "build_approximant", "l2_error", "trapezoid_eta"),
    "fwht": ("max_correlation", "prefix_max_correlations", "spectrum", "theorem_scan"),
    "lemmas": ("ScanConfig", "check_lemma1", "check_lemma2", "check_lemma3",
               "check_lemma4", "check_lemma5", "check_lemma6", "run_scan",
               "scan_lemma_at", "summarize"),
    "limits": ("ResourceLimitError", "resolve_max_mem_gib"),
    "report": ("CSV_HEADER", "CheckReport", "ReportColumns", "RunManifest", "emit_csv",
               "expand", "manifest_from_json", "manifest_to_json", "parse_csv",
               "report_from_dict"),
    "sieve": ("ArithmeticSequence", "dump_sequence", "load_sequence", "sequence"),
    "sums": ("BilinearConfig", "CarryResult", "QuadFormResult", "SplitConfig",
             "SplitResult", "bilinear_sum", "carry_report", "carry_truncation_rate",
             "cauchy_schwarz_chain", "coefficient_table", "quadform_report",
             "shifted_quadratic_form", "spectral_split", "split_report", "type1_report"),
    "walsh": ("FullRange", "Interval", "ResidueClass", "WalshMask", "all_mask_l1",
              "all_mask_sup", "coefficient_values", "l1_accumulate", "magnitude_row",
              "sup_norm", "walsh_signs", "walsh_table"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(__all__)
