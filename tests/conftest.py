"""One hypothesis profile for every property in the suite.

Runs are derandomized, so a failure repeats on every machine; no example
database is written, and no example has a deadline, since the oracle and
decompose cases take tens of milliseconds on a slow host.  Each property
sets only its own max_examples.
"""

from hypothesis import settings

settings.register_profile("padlab", derandomize=True, deadline=None, database=None)
settings.load_profile("padlab")
