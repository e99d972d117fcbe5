"""Rule modules: importing this package populates the registry."""

from . import (  # noqa: F401
    idkeys,
    pickle_safety,
    rhs_restore,
    rng,
    set_iteration,
    worker_state,
)
