"""Shared helpers: units, small record/report utilities, the process
start method."""
