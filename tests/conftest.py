"""pytest loads this file before any test module.

ldlkit is imported here, before anything imports numpy, so that the suite
runs under the package's BLAS policy, as the CLI does: one thread unless
the environment sets a count.  A test module that imported numpy first
would leave BLAS at numpy's default thread count, and each forked stage
would run that many threads beside the calling process.
"""

import ldlkit  # noqa: F401
