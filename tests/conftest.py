import os
import pathlib

import pytest


@pytest.fixture
def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, so a
    subprocess imports the package under test without an install."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)
