"""Self-test of the outside-in tracer. Run with ``python3 -m pytest perfbench``.

The counts below are only reachable if calls made *inside* hingekit are
intercepted: ``flex_path`` reaches ``forward_kinematics`` through
``frame_residual`` and ``frame_map_jacobian``, and one sweep sample builds
its isometries inside ``chain``.
"""

import sys

import run

run.prepare()

from tracer import Tracer  # noqa: E402


def _bindings():
    return {
        (name, attr): id(value)
        for name, mod in sys.modules.items()
        if name == "hingekit" or name.startswith("hingekit.")
        for attr, value in vars(mod).items()
    }


def test_flex_path_and_drift_count_81_forward_kinematics_calls():
    assert run.self_test()["flex_fk_calls"] == run.SELFTEST_FLEX_FK_CALLS == 81


def test_one_endpoint_sweep_sample_constructs_15_isometries():
    assert run.self_test()["sweep_sample_isometries"] == run.SELFTEST_SAMPLE_ISOMETRIES == 15


def test_tracer_restores_every_binding_and_counts_errors_once():
    import hingekit.geometry
    import hingekit.linkage

    before = _bindings()
    init = hingekit.geometry.Isometry.__init__
    with Tracer() as tr:
        try:
            hingekit.linkage.cycle_to_linkage([])
        except IndexError:
            pass
    assert _bindings() == before
    assert hingekit.geometry.Isometry.__init__ is init
    assert dict(tr.errors) == {"linkage": 1}
