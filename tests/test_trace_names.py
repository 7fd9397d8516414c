"""The benchmark's tracer wraps functions of the package by name; a rename
under src/ must not silently drop a span."""

import importlib
import importlib.util
from pathlib import Path

import pytest

# the tracer patches every traced module, the command line's included, so
# each test that installs it needs finitetopo.cli loaded, even run alone
import finitetopo.cli  # noqa: F401

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.parametrize("module_name, cls_name, attr", [entry[:3] for entry in _tracer_module().TRACED])
def test_every_traced_name_resolves(module_name, cls_name, attr):
    owner = importlib.import_module(module_name)
    if cls_name is not None:
        # the tracer patches the class's own attribute, not an inherited one
        assert attr in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))


def test_reading_through_the_kind_table_records_every_load_span():
    """The table calls each reader through its module-level name, so a
    traced read records the reader's own span and those of the readers it
    calls, as a direct call of the reader does."""
    from finitetopo import fixtures as fx
    from finitetopo import formats

    payloads = {f.kind: fx.fixture_payload(f)["data"] for f in fx.all_fixtures() if f.kind in formats.KINDS}
    tracer = _tracer_module().Tracer()

    def load_spans(read):
        before = len(tracer.spans)
        read()
        return sum(1 for record in tracer.spans[before:] if record[0] == "formats.load")

    tracer.install()
    try:
        for kind, data in sorted(payloads.items()):
            reader = getattr(formats, kind.replace("-", "_") + "_from_json")
            direct = load_spans(lambda: reader(data, kind))
            assert direct > 0
            assert load_spans(lambda: formats.object_from_json(kind, data, kind)) == direct, kind
    finally:
        tracer.uninstall()


def test_a_traced_mapper_run_records_its_pull_back():
    """The pipeline calls the pull-back through its module-level name, so
    the tracer's wrapper sees it."""
    from finitetopo import mapper

    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        mapper.mapper_completion(mapper.circle_sample(), mapper.parse_filter("x"), mapper.IntervalCover(4, 0.3), 0.15)
    finally:
        tracer.uninstall()
    assert [record[0] for record in tracer.spans].count("mapper.pullback") == 1


def test_every_homology_read_records_a_span():
    """The oracle's screen and each local datum of the homology version
    read homology through homology(), which the tracer wraps."""
    from finitetopo import cylinder, reduction
    from finitetopo import fixtures as fx

    tracer = _tracer_module().Tracer()
    fixture = fx.get_fixture("homology-relation")
    r = fixture.build()
    tracer.install()
    try:
        reduction.triviality_oracle(fx.six_cycle().down_set("y0"), reduction.DEFAULT_BUDGET)
        cylinder.verify_homology_equivalence(r, fixture.params["degree"])
    finally:
        tracer.uninstall()
    names = [record[0] for record in tracer.spans]
    parents = [names[record[4]] for record in tracer.spans if record[0] == "homology.homology"]
    # one read per local datum, then the two whole sides
    assert parents == ["reduction.oracle"] + ["cylinder.verify"] * (len(r.source) + len(r.target) + 2)
