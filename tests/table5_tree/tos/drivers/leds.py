"""Synthetic LED driver: each LED is a power-state variable."""


class Leds:
    def on(self, index):
        self.powerstate.set(index, 1)  # one record per change

    def off(self, index):
        self.powerstate.set(index, 0)
