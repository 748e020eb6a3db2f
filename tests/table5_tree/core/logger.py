"""Synthetic logger."""


class Logger:
    def record(self, entry_type, res_id, value):
        self.entries.append((entry_type, res_id, value))
