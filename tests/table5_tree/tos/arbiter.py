"""Synthetic arbiter: the resource takes on its user's activity."""

def grant(resource, client):
    resource.activity.set(client.label)
    resource.powerstate.set(1)
    resource.bind(client)


def release(resource):
    resource.powerstate.set_bits(0x1, 0)
    return resource
