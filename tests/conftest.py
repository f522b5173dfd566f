import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the release-gate results where capture cannot swallow them."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in RESULTS:
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{name}: {status} ({detail})")


@pytest.fixture
def tiny_tokenizer_dir() -> Path:
    """A miniature merge-based vocabulary over plain ASCII bytes, the golden
    table's: seven merges (``t h``, ``h e``, ``th e``, ``e r``, ``i n``, ``r e``,
    ``a n``) over the 94 printable ASCII characters, which byte-level BPE
    maps to themselves."""
    return DATA_DIR / "golden" / "tok"
