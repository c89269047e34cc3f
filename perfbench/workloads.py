"""The benchmark's workloads: fixed lists of ``skinwave`` command lines.

Each run is one ``skinwave.cli.main(argv)`` call.  ``run.py`` adds
``--out <dir>`` itself, so every run writes its default outputs into its own
directory.  ``expect`` pins the classification a run must report; ``None``
asks only for a complete, finite report.  ``pair`` names two runs of one
workload whose ``trajectory.csv`` files must agree (the default route and
the expm cross-check).

The pins come from the acceptance suite and the preset comments.  ``fig1d``
is near the critical launch velocity and unpinned by design; ``fig5b``,
``fig5c`` and ``sm-meet`` carry no pinned outcome either.
"""

from __future__ import annotations

WORKLOADS = {
    # One Hamiltonian shared by four launch momenta: the exact chain
    # symmetrizer, the heavy emit (13 MB density.csv per run) and
    # decomposition reuse all show here; the oracle is analytic (~1 ms).
    # fig3 is left out: it is fig1c under another name.
    "continuum-chain": {
        "runs": [
            {"label": "fig1a", "argv": ["preset", "fig1a"], "expect": "stuck"},
            {"label": "fig1b", "argv": ["preset", "fig1b"], "expect": "reflected"},
            {"label": "fig1c", "argv": ["preset", "fig1c"], "expect": "reflected"},
            {"label": "fig1d", "argv": ["preset", "fig1d"], "expect": None},
        ],
        "pair": None,
    },
    # Five distinct two-band Hamiltonians in six runs (fig5c reuses fig4's):
    # the SSH similarity eigh, and the only real share of the O(frames^2)
    # lattice oracle.  Chain-only changes should leave it unchanged.
    "two-band": {
        "runs": [
            {"label": "fig4", "argv": ["preset", "fig4"], "expect": "stuck"},
            {"label": "fig5b", "argv": ["preset", "fig5b"], "expect": None},
            {"label": "fig5c", "argv": ["preset", "fig5c"], "expect": None},
            {"label": "sm-meet", "argv": ["preset", "sm-meet"], "expect": None},
            {
                "label": "sm-spread-slow",
                "argv": ["preset", "sm-spread-slow"],
                "expect": "reflected",
            },
            {"label": "sm-spread-fast", "argv": ["preset", "sm-spread-fast"], "expect": "stuck"},
        ],
        "pair": None,
    },
    # The non-uniform family: the only traffic on the generic eig route and
    # on the dense expm route, each run cross-checking the other.
    "boundary-routes": {
        "runs": [
            {"label": "sm-boundary", "argv": ["preset", "sm-boundary"], "expect": "stuck"},
            {
                "label": "sm-boundary-expm",
                "argv": ["preset", "sm-boundary", "--method", "expm"],
                "expect": "stuck",
            },
        ],
        "pair": ["sm-boundary", "sm-boundary-expm"],
    },
}

# default and expm trajectories may differ by at most this much in log-norm
# and peak position (1.8e-11 and 1.9e-9 measured on sm-boundary)
PAIR_TOLERANCE = 1e-7
