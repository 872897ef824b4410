"""Suite-wide test settings.

Property tests run under one deterministic ``hypothesis`` profile: examples
derive from each test's source rather than a random seed, nothing is read
from or written to an example database, and there is no per-example
deadline, whose timing would depend on the host's load.  Hypothesis also
caches the constants it reads from the package's source; that cache goes to
the temporary directory, so a test run leaves no ``.hypothesis/`` in the
checkout.
"""

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "hypalign-hypothesis")
settings.register_profile(
    "hypalign", derandomize=True, database=None, deadline=None, max_examples=60
)
settings.load_profile("hypalign")
