"""One hypothesis profile for every property test: no deadline, no example
database and derandomized draws, so each run replays the same examples.
Each ``@settings`` keeps only its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("matchflip", deadline=None, database=None, derandomize=True)
settings.load_profile("matchflip")
