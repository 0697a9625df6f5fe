"""Two-phase permutation optimisation over noisy objectives.

Phase 1 climbs by insertion sweeps while inducing ranking constraints from
statistically significant neighbouring comparisons; phase 2 anneals from the
climbing optimum with candidates steered into the constraint-satisfying
subspace.
"""
