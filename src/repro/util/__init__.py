"""Shared utilities: validation helpers, lazy package re-exports and
the process's peak memory reading."""

from repro.util.validation import require, require_non_negative, require_positive

__all__ = ["require", "require_non_negative", "require_positive"]
