"""The functions the benchmark's layer tracer wraps, by module and name.

The benchmark times each layer by replacing these module attributes with
wrappers after curvelab is imported.  A renamed or moved function would
make its per-layer metric read 0 with no error, so each name is checked
here.  The pairs are copied from the tracer's target list rather than
imported, so the benchmark's files stay independent of the test suite.
"""

import importlib

import pytest
from click.testing import CliRunner

from curvelab import cli, suites

# suite function -> the suite name the CLI takes
SUITE_FUNCTIONS = {
    "check_simplicial": "simplicial",
    "verify_lipschitz_lifting": "lipschitz-lifting",
    "verify_ball2_isometry": "ball2-isometry",
    "verify_local_covering": "local-covering",
    "transfer_pentagons": "pentagon-transfer",
    "check_support_sets": "support-sets",
    "check_relations": "relations",
}

TARGETS = [
    ("curvelab.farey", "distance"),
    ("curvelab.farey", "word_matrix"),
    ("curvelab.farey", "farey_window"),
    ("curvelab.farey", "sample_closure"),
    ("curvelab.quotient", "build_quotient"),
    *[("curvelab.suites", fn) for fn in SUITE_FUNCTIONS],
    ("curvelab.curves", "intersection_number"),
    ("curvelab.triangulation", "Triangulation.flip"),
    ("curvelab.triangulation", "Triangulation.flip_coords"),
    ("curvelab.s5windows", "build_window"),
    ("curvelab.s5windows", "enumerate_pentagons"),
    ("curvelab.mcg", "apply_word"),
    ("curvelab.arc2", "classify_triangle"),
    ("curvelab.arc2", "fill_triangle"),
    ("curvelab.arc2", "epsilon_arc"),
    ("curvelab.serialize", "canonical_json"),
]


@pytest.mark.parametrize("module, attribute", TARGETS,
                         ids=[f"{m}:{a}" for m, a in TARGETS])
def test_target_resolves(module, attribute):
    owner = importlib.import_module(module)
    for part in attribute.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("name, suite", SUITE_FUNCTIONS.items())
def test_verify_calls_the_suite_through_its_module(monkeypatch, name, suite):
    # a wrapper installed in ``suites`` after import must see the CLI's call
    calls = []
    original = getattr(suites, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(suites, name, wrapper)
    args = ["verify", "--instance", "s5", "--word-bound", "1", "--sample", "a",
            "--suites", suite]
    result = CliRunner().invoke(cli.main, args, catch_exceptions=False)
    assert result.exit_code in (0, 1)
    assert calls == [name]
