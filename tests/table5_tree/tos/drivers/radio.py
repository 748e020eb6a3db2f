"""Synthetic radio driver.

Multi-line docstring whose body mentions activity.set, bind( and proxy,
none of which count.
"""


class Radio:
    """A radio whose receive path starts under its own label."""

    def start_rx(self):
        self.activity.add(self.rx_label)
        self.listening = True

    def stop_rx(self):
        self.activity.remove(self.rx_label)
        self.listening = False
