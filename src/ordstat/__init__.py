"""Exact p-functions over finite trials, randomized and mid p-values, and
lexicographically cascaded two-sample rank tests with exact permutation
enumeration in rational arithmetic.

The names below are the package's public API. Importing the package loads
none of its modules: each name is read from its module when first asked for
(PEP 562), so ``from ordstat import induce_phat`` loads the trial layer and
not the rank tests, and a command line run loads only the layers its
command uses. ``from ordstat import trial`` imports that module as usual.
"""

_EXPORTS = {
    "order": """DEFAULT_PRECISION EmptyTupleError LexTuple OrderError Ordering OrdValue Rank Rational Score
        ShapeMismatchError compare exact_fraction format_ord lex_tuple shape to_rational""",
    "trial": """FiniteTrial InvalidPFunctionError InvalidStatisticError InvalidTrialError MissingOutcomeError
        PFunction PFunctionClass ScaleBelowOneError Statistic TheoremCheckError TrialError Validity
        check_idempotence classify_pfunction induce_phat induced_measure product_trial pvalue_kinds
        scale_pfunction""",
    "randomized": """EpsOutOfRangeError RandomizedPFunction ROutOfRangeError build_randomized draw_uniform_r
        exactness_cdf exactness_sweep lex_equivalence_check mid_pfunction mid_pvalue midp_validity_check
        randomized_pvalue""",
    "ranktests": """AttainableSet CascadeStatistic CompareContext Component DegenerateSpreadError
        DuplicateObservationsError InvalidCascadeError MonteCarloResult RankTestError SizeLimitError
        TCascadeNotExactError TieGroup TwoSample attainable_pvalues attainable_set exact_perm_pvalue
        mc_gaussian_pvalue observed_cascade_value rank_sum scheme_scores score_sum student_t x_ranks""",
    "files": """TrialParseError format_rational load_trial load_two_sample parse_rational parse_trial_document
        parse_two_sample""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    """The exported ``name``, read from its module on every access, so a name patched there is the one returned."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
