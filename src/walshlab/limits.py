"""Resource guards shared by sieves, transforms, synthesis, and the CLI.

Every dense object in this package lives on a 2^lam grid, so one byte-budget
check covers sieving, transform accumulators, and report-driving scans.  The
budget defaults to 2 GiB (lam = 28 with 8-byte accumulators) and can be
widened per call, per CLI flag, or through the WSL_MAX_MEM_GIB environment
variable.
"""

from __future__ import annotations

import os

DEFAULT_MAX_MEM_GIB = 2.0
ENV_MAX_MEM = "WSL_MAX_MEM_GIB"

# Synthesis is one length-2^lam inverse FFT, but its complex samples, the
# forward transform of the band audit and the exact magnitude row it is
# compared with are not charged to any byte guard yet; this cap bounds them
# until one does.
SYNTHESIS_LAMBDA_CAP = 18


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds the configured memory budget."""


def resolve_max_mem_gib(explicit: float | None = None) -> float:
    """Budget resolution order: explicit argument, environment, default."""
    if explicit is not None:
        return float(explicit)
    env = os.environ.get(ENV_MAX_MEM)
    if env:
        return float(env)
    return DEFAULT_MAX_MEM_GIB


def require_table_bytes(
    lam: int,
    bytes_per_entry: int = 8,
    max_mem_gib: float | None = None,
    what: str = "table",
) -> int:
    """Check that a length-2^lam table fits the memory budget.

    Returns the byte requirement; raises ResourceLimitError naming it when it
    exceeds the budget.  bytes_per_entry defaults to 8 because transforms
    accumulate in 64-bit cells even when storage is narrower.
    """
    if lam < 1:
        raise ValueError(f"lam must be a positive bit length, got {lam}")
    budget = int(resolve_max_mem_gib(max_mem_gib) * 2**30)
    need = (1 << lam) * bytes_per_entry
    if need > budget:
        raise ResourceLimitError(
            f"{what} at lambda={lam} requires {need} bytes "
            f"({bytes_per_entry} per entry over 2^{lam}); "
            f"budget is {budget} bytes "
            f"(raise --max-mem-gib or {ENV_MAX_MEM} to override)"
        )
    return need
