"""Synthetic interrupt dispatch.

An interrupt handler runs under the interrupt's proxy activity until
the handler binds it to a real one.
"""

def dispatch(vector, cpu):
    # Switch to the vector's proxy label first.
    cpu.current.set(proxies.label(vector))
    vector.handler()
