"""A re-imported `choreo` must not keep the previous copy alive.

The benchmark re-imports the package to time set-up; anything outside the
package that holds one of its classes (typing's cache of subscripted
generics, for one) would pin every earlier copy of every module."""

import gc
import importlib
import sys
import weakref


def _choreo_modules() -> list[str]:
    return [m for m in sys.modules if m == "choreo" or m.startswith("choreo.")]


def _use_a_fresh_copy() -> tuple[weakref.ref, weakref.ref]:
    for name in _choreo_modules():
        del sys.modules[name]
    choreo = importlib.import_module("choreo")
    G = importlib.import_module("choreo.protocols.gmw")
    report = choreo.run_centralized(
        choreo.Choreography(lambda b, c: G.mpc(b, c)),
        choreo.census_of(["p1", "p2"]),
        G.parse_circuit("(and (in p1) (in p2))"),
        inputs={"p1": [True], "p2": [True]},
    )
    assert report.ok
    return weakref.ref(choreo.locations.Census), weakref.ref(G.InputWire)


def test_a_reimported_package_leaves_the_old_copy_collectable():
    saved = {name: sys.modules[name] for name in _choreo_modules()}
    try:
        refs = _use_a_fresh_copy()
    finally:
        for name in _choreo_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
