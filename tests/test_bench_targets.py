"""The benchmark tracer's wrap targets must exist in the program.

``bench/child.py --trace 1`` patches every ``(module, attr)`` it lists; a
refactor that moves, renames or inherits one of them would only show up as
a traced benchmark failure.  This test catches it in the unit suite.
"""
import importlib
import importlib.util
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"


def _child():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module: str, attr: str) -> bool:
    owner = importlib.import_module(module)
    if "." in attr:
        # the tracer reads the class's own __dict__, so an inherited name fails there
        cls_name, name = attr.split(".")
        return name in vars(getattr(owner, cls_name, object))
    return callable(getattr(owner, attr, None))


def test_every_traced_target_resolves():
    child = _child()
    targets = [
        (module, attr)
        for table in (child.SPANS, child.LEAVES)
        for group in table.values()
        for module, attr in group
    ]
    assert len(targets) > 20
    assert [t for t in targets if not _resolves(*t)] == []
