"""Suite-wide settings.

Hypothesis draws every example from a fixed seed (``derandomize``) and
keeps no example database, so a run, in CI or here, tries the same
examples each time and leaves nothing in the checkout; a failure then
reproduces on the next run.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
