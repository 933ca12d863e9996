import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

KITE_TEXT = "v:4; a 1 2; b 1 3; c 1 4; d 2 3; e 3 4"


@pytest.fixture
def pb():
    import parkbetti

    return parkbetti


@pytest.fixture
def kite(pb):
    return pb.parse_graph(KITE_TEXT)
