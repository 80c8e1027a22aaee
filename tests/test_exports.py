"""The package's lazily resolved exports: the same names and objects as its modules define."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import ordstat

# Every name the package exported when it imported all of its modules, by the module it came from.
EXPORTED = {
    "order": "DEFAULT_PRECISION EmptyTupleError LexTuple OrderError Ordering OrdValue Rank Rational Score"
             " ShapeMismatchError compare exact_fraction format_ord lex_tuple shape to_rational",
    "trial": "FiniteTrial InvalidPFunctionError InvalidStatisticError InvalidTrialError MissingOutcomeError"
             " PFunction PFunctionClass ScaleBelowOneError Statistic TheoremCheckError TrialError Validity"
             " check_idempotence classify_pfunction induce_phat induced_measure product_trial pvalue_kinds"
             " scale_pfunction",
    "randomized": "EpsOutOfRangeError RandomizedPFunction ROutOfRangeError build_randomized draw_uniform_r"
                  " exactness_cdf exactness_sweep lex_equivalence_check mid_pfunction mid_pvalue"
                  " midp_validity_check randomized_pvalue",
    "ranktests": "AttainableSet CascadeStatistic CompareContext Component DegenerateSpreadError"
                 " DuplicateObservationsError InvalidCascadeError MonteCarloResult RankTestError SizeLimitError"
                 " TCascadeNotExactError TieGroup TwoSample attainable_pvalues attainable_set exact_perm_pvalue"
                 " mc_gaussian_pvalue observed_cascade_value rank_sum scheme_scores score_sum student_t x_ranks",
    "files": "TrialParseError format_rational load_trial load_two_sample parse_rational parse_trial_document"
             " parse_two_sample",
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names.split()]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_export_is_its_modules_object(module, name):
    assert getattr(ordstat, name) is getattr(import_module(f"ordstat.{module}"), name)


def test_all_and_dir_list_the_exports():
    names = [name for _, name in NAMES]
    assert sorted(ordstat.__all__) == sorted(names)
    assert set(dir(ordstat)) >= {*names, "__version__"}
    namespace = {}
    exec("from ordstat import *", namespace)
    assert all(namespace.pop(name) is getattr(ordstat, name) for name in names)
    assert set(namespace) == {"__builtins__"}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'ordstat' has no attribute 'induce'"):
        getattr(ordstat, "induce")
    assert not hasattr(ordstat, "cmd_induce")
    with pytest.raises(ImportError):
        exec("from ordstat import no_such_name", {})


def test_one_theorem_check_error_for_both_layers():
    from ordstat import order, ranktests, trial

    assert trial.TheoremCheckError is ranktests.TheoremCheckError is order.TheoremCheckError
    assert issubclass(ranktests.TheoremCheckError, trial.TrialError)
    assert ranktests.SizeLimitError is order.SizeLimitError and issubclass(order.SizeLimitError, order.RankTestError)


# Runs in a fresh interpreter: names from the package load only their own layer, and submodules import as before.
FRESH_PROBE = """
import json, sys
from ordstat import induce_phat
loaded = sorted(name for name in sys.modules if name.startswith("ordstat."))
from ordstat import ranktests, trial
print(json.dumps([loaded, induce_phat is trial.induce_phat, type(ranktests).__name__, ranktests.__name__]))
"""


def test_names_and_submodules_in_a_fresh_interpreter():
    src = str(Path(ordstat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", FRESH_PROBE], capture_output=True, text=True, env=env, check=True)
    assert json.loads(done.stdout) == [["ordstat.order", "ordstat.trial"], True, "module", "ordstat.ranktests"]
