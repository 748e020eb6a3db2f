# Comment-only header: not code.

STATES = ("off", "on")
