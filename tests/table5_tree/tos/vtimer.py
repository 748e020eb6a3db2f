'''Synthetic virtual-timer module (single-quoted docstrings).'''


class VirtualTimer:
    '''A timer that fires under the activity it was armed with.

    Multi-line, single-quoted.
    '''

    def fire(self):
        label = self.timer_activity.get()  # the armed label
        self.callback(label)
