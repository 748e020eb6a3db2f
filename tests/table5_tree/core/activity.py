"""Synthetic activity device.

Docstring lines never count.
"""


class ActivityDevice:
    def set(self, label):
        self.label = label
