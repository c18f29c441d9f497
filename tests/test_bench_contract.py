"""The names perfbench/tracing.py wraps and reads must exist in the package.

The tracer patches module attributes by name, so a rename or a deleted
helper would only show up as a crash of `perfbench/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

from supercong import curves
from supercong.congruences import families, identity_ids, run_identities, run_suite
from supercong.congruences.families import family_ids
from supercong.congruences.sums import TERM_KINDS

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves():
    tracing = _load_tracing()
    for module_name, attr, layer in tracing.SPANS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
        assert layer in tracing.LAYERS, (attr, layer)
    assert set(tracing.TAGS) <= {attr for _m, attr, _l in tracing.SPANS}


def test_metric_name_lists_match_the_catalogs():
    tracing = _load_tracing()
    assert tuple(tracing.TERM_KINDS) == tuple(TERM_KINDS)
    assert list(tracing.IDENTITY_IDS) == identity_ids()
    assert set(tracing.TRACKED_FAMILIES) <= set(family_ids())
    for cached in (curves._chi_table, curves.central_binomials_mod, families._binom_mod_matrix, families._weight_residues):
        cached.cache_info()


def test_traced_run_records_sums_and_restores():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_suite([7, 11], ["E1.3", "E1.8", "E1.11"])
        results = run_identities(["I1", "I4"], 4)
    finally:
        tracer.restore()
    assert tracer.unrestored() == []
    metrics, _tables = tracing.layer_metrics(tracer, results, 0)
    assert metrics["sums.calls"][0] > 0
    assert metrics["sums.terms"][0] > 0
    assert metrics["sums.central_double.s"][0] > 0
    assert metrics["identities.cases"][0] == sum(r.checked for r in results)
