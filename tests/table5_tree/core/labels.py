"""Synthetic activity labels."""

LABEL_BITS = 16
