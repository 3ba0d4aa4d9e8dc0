"""Bundled scenario configs shipped with the package."""

from __future__ import annotations

from pathlib import Path

_NAMES = ("fig1", "fig2")


def available() -> tuple[str, ...]:
    return _NAMES


def bundled_path(name: str) -> Path | None:
    """Resolve a bundled scenario by name ('fig1' or 'fig1.json'); the
    configs are installed as files beside this module."""
    stem = name[:-5] if name.endswith(".json") else name
    if stem not in _NAMES:
        return None
    return Path(__file__).with_name(f"{stem}.json")
