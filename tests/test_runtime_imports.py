"""The runtime needs numpy alone.

A fresh interpreter imports ``hypalign.cli``, the entry point of every
command, and lists the modules that the import loaded.  Outside the standard
library only numpy's and the package's own may appear; scipy, which the tests
use as an oracle, must not.  A heavy import added back to the package fails
here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import hypalign

_PROBE = """
import json, sys
before = set(sys.modules)
import hypalign.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _loaded_by_cli_import() -> list[str]:
    src = str(Path(hypalign.__file__).parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _PROBE], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path}).stdout
    return json.loads(out)


def test_cli_import_loads_no_scipy_and_nothing_beyond_numpy():
    loaded = _loaded_by_cli_import()
    assert "hypalign.cli" in loaded
    top_level = {name.partition(".")[0] for name in loaded}
    assert "scipy" not in top_level
    assert top_level - set(sys.stdlib_module_names) <= {"numpy", "hypalign"}
