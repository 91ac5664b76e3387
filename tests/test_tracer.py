"""perfbench/tracer.py traces the package by swapping module attributes.

Each (module, attribute) it names must exist in debtkit, or every traced
benchmark pass fails; some are imported only so that the tracer finds them.
"""

import importlib
import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist_and_are_restored():
    tracer = _load_tracer()
    modules = {name: importlib.import_module(f"debtkit.{name}")
               for name, _, _ in tracer.TARGETS}
    originals = {(name, attr): getattr(modules[name], attr)
                 for name, attr, _ in tracer.TARGETS}
    recorder = tracer.Tracer()
    recorder.install()
    try:
        for (name, attr), fn in originals.items():
            assert getattr(modules[name], attr) is not fn, (name, attr)
        modules["regress"].ols([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
    finally:
        recorder.uninstall()
    assert [span[1] for span in recorder.take()] == ["regress.ols"]
    for (name, attr), fn in originals.items():
        assert getattr(modules[name], attr) is fn, (name, attr)
