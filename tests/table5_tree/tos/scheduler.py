"""Synthetic scheduler module for the table5 counting tests.

Never imported: table5 only reads its lines.
"""

# A comment line naming cpu_activity, never counted.


def post(task, cpu_activity):
    """Queue a task."""
    saved = cpu_activity.get()
    task.run()
    restore(saved_activity=saved)
