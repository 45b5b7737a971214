"""The six fixed workloads, by name (later issues cite these names)."""

from . import (dml_mix, fleet_mix, needle_wide, scan_heavy, serve_repeat,
               sketch_like)

WORKLOADS = {module.NAME: module for module in (
    needle_wide, scan_heavy, fleet_mix, sketch_like, dml_mix, serve_repeat)}
