"""Quadratic big-brother oracle for the cpf tests.

The direct construction: per component, the full member-by-member distance
matrix and a scan over each sample's denser predecessors. It needs O(m^2)
memory for a component of m samples, so the tests call it on small inputs
only; cpf.big_brother must equal it exactly on parent and omega.
"""

import numpy as np
from scipy.spatial.distance import cdist

from spatialcpf.cpf import BigBrother, DensityEstimate
from spatialcpf.errors import ParameterError
from spatialcpf.graph import ComponentLabels


def big_brother(features: np.ndarray, density: DensityEstimate,
                components: ComponentLabels) -> BigBrother:
    """Nearest strictly-denser same-component neighbor for every sample.

    Density ties qualify when the candidate has the lower index; distance
    ties resolve toward the lower index. The per-component density maximum
    gets parent -1 and omega +inf.
    """
    features = np.asarray(features, dtype=float)
    n = features.shape[0]
    if components.n != n:
        raise ParameterError("component labeling does not match feature count")
    parent = np.full(n, -1, dtype=np.int64)
    omega = np.full(n, np.inf)
    log_density = density.log_density

    for comp in range(components.n_components):
        members = np.flatnonzero(components.labels == comp)
        m = members.size
        if m == 1:
            continue
        # Sort by descending density, ascending index on ties; predecessors in
        # this order are exactly the qualifying big-brother candidates.
        order = np.lexsort((members, -log_density[members]))
        ranked = members[order]
        pts = features[ranked]
        dmat = cdist(pts, pts)
        for pos in range(1, m):
            cand_d = dmat[pos, :pos]
            best = cand_d.min()
            tied = np.flatnonzero(cand_d == best)
            choice = ranked[tied[np.argmin(ranked[tied])]] if tied.size > 1 else ranked[tied[0]]
            i = ranked[pos]
            parent[i] = choice
            omega[i] = best
    return BigBrother(parent=parent, omega=omega)
