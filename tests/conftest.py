import numpy as np
import pytest

from critherm import ensemble_spectrum, protocol_sim, sensitivity


@pytest.fixture
def forward_model_calls(monkeypatch):
    """Count forward-model evaluations: the number of temperatures of every
    line_centers call (from any module that calls it) and the temperature
    rows solved, one per D that transition_pairs is given."""
    calls = {"batches": [], "rows": 0}
    centers = ensemble_spectrum.line_centers
    solve_rows = ensemble_spectrum.transition_pairs

    def count_batch(asm, temps, sites, m=None):
        calls["batches"].append(len(temps))
        return centers(asm, temps, sites, m)

    def count_rows(d, *args):
        calls["rows"] += np.size(d)
        return solve_rows(d, *args)

    for module in (ensemble_spectrum, sensitivity, protocol_sim):
        monkeypatch.setattr(module, "line_centers", count_batch)
    monkeypatch.setattr(ensemble_spectrum, "transition_pairs", count_rows)
    return calls
