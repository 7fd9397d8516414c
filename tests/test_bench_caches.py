"""The benchmark runs many commands in one process and clears every
functools cache of the package between its operations; the homology cache
must be one it finds, and no command may find what an earlier one left."""

import importlib
import importlib.util
from pathlib import Path

from finitetopo.cli import main
from finitetopo.complexes import order_complex
from finitetopo.homology import _poset_homology

ROOT = Path(__file__).resolve().parent.parent
homology_module = importlib.import_module("finitetopo.homology")


def test_the_benchmark_clears_the_homology_cache():
    spec = importlib.util.spec_from_file_location("perfbench_measure", ROOT / "perfbench" / "measure.py")
    measure = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(measure)
    assert _poset_homology in measure._caches()


def test_a_command_repeated_in_one_process_does_the_same_work(monkeypatch, tmp_path):
    """The second `verify --batch` over the shipped fixtures reaches Smith
    normal form, and builds order complexes, as often as the first: each
    command starts with every cache empty.  Emptying a cache resets its
    counts, so the order complex counts read after a run are that run's."""
    calls = []
    snf = homology_module.smith_normal_form
    monkeypatch.setattr(homology_module, "smith_normal_form", lambda *a: calls.append(1) or snf(*a))
    counts, built = [], []
    for run in range(2):
        calls.clear()
        assert main(["verify", "--batch", str(ROOT / "fixtures"), "--out", str(tmp_path / f"{run}.json")]) == 0
        counts.append(len(calls))
        info = order_complex.cache_info()
        built.append((info.hits, info.misses))
    assert counts[0] == counts[1] > 0
    assert built[0] == built[1] and built[0][1] > 0
