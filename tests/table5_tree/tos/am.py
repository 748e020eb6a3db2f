"""Synthetic active messages: the sender's activity rides in the header."""

HEADER_BYTES = 11


def send(msg, cpu):
    msg.header.activity = cpu.get()
    return msg
