"""Shared test settings.

One hypothesis profile for the whole suite: no per-example deadline, since
the speed of a shared host can swing by ~1.8x within minutes and a deadline
then fails correct code at random; and no example database, so a test run
writes nothing into the checkout.
"""

from hypothesis import settings

settings.register_profile("jobmarket", deadline=None, database=None)
settings.load_profile("jobmarket")
