"""The hypothesis profile every @given test runs under.

No deadline: a drawn complex can take far longer than another of the same
strategy, and the budgets that matter are the examples each test asks for.
"""

from hypothesis import settings

settings.register_profile("discmorse", deadline=None)
settings.load_profile("discmorse")
