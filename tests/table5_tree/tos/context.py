"""Synthetic task context: binding a proxy once the real activity is known."""


def on_packet(radio, packet):
    radio.proxy = None
    handler = radio.activity.bind
    return handler(packet.label)
