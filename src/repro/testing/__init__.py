"""First-class verification subsystem: oracles, strategies, differential.

Three layers, each usable on its own:

* :mod:`repro.testing.oracles` — dense brute-force references (MTTKRP via
  the full Khatri-Rao product, reconstruction error by explicit
  subtraction, proximity operators against their variational definition,
  ADMM KKT-residual certificates);
* :mod:`repro.testing.strategies` — seeded adversarial input generators
  whose every output is replayable from a compact spec string;
* :mod:`repro.testing.differential` — the sweep runner that executes one
  logical computation across every backend × threads × slab × byte-budget
  combination and reports disagreements with seed-replay commands.

``python -m repro.testing.differential`` is the fuzz/replay CLI; the
pytest wiring lives in ``tests/test_differential.py`` (fast tier-1
subset, ``-m fuzz`` extended sweep).  See ``docs/testing.md``.
"""

from .differential import (
    BackendSpec,
    Disagreement,
    SweepReport,
    compare_factor_sets,
    compare_fits,
    mttkrp_backend_specs,
    replay_command,
    run_admm_sweep,
    run_mttkrp_sweep,
    run_prox_sweep,
)
from .oracles import (
    KKTCertificate,
    ProxCheck,
    check_prox,
    dense_reconstruction,
    kkt_certificate,
    mttkrp_oracle,
    relative_error_oracle,
)
from .strategies import (
    FLAVORS,
    TensorCase,
    case_from_spec,
    constraint_cases,
    factors_for,
    format_spec,
    make_case,
    options_grid,
    parse_spec,
    tensor_cases,
)

__all__ = [
    "BackendSpec",
    "Disagreement",
    "FLAVORS",
    "KKTCertificate",
    "ProxCheck",
    "SweepReport",
    "TensorCase",
    "case_from_spec",
    "check_prox",
    "compare_factor_sets",
    "compare_fits",
    "constraint_cases",
    "dense_reconstruction",
    "factors_for",
    "format_spec",
    "kkt_certificate",
    "make_case",
    "mttkrp_backend_specs",
    "mttkrp_oracle",
    "options_grid",
    "parse_spec",
    "relative_error_oracle",
    "replay_command",
    "run_admm_sweep",
    "run_mttkrp_sweep",
    "run_prox_sweep",
    "tensor_cases",
]
