"""Shared helpers: units, small record/report utilities."""
