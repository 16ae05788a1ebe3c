import warnings
from pathlib import Path

import pytest

import bisac

SOURCES = sorted(Path(bisac.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_compiles_without_warnings(path):
    # compile the text itself: importing could reuse cached bytecode and
    # so never show a warning raised at compile time
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")
