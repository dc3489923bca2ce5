import numpy as np
import pytest

from critherm import ensemble_spectrum, sensitivity


@pytest.fixture
def forward_model_calls(monkeypatch):
    """Count forward-model evaluations: the number of temperatures of every
    line-centre call (_line_centers, which every line_centers call makes
    once and the design sweep calls per composition) and the temperature
    rows solved, one per D that transition_pairs is given."""
    calls = {"batches": [], "rows": 0}
    batched = ensemble_spectrum._line_centers
    solve_rows = ensemble_spectrum.transition_pairs

    def count_batch(asm, temps, sites, m):
        calls["batches"].append(len(temps))
        return batched(asm, temps, sites, m)

    def count_rows(d, *args):
        calls["rows"] += np.size(d)
        return solve_rows(d, *args)

    for module in (ensemble_spectrum, sensitivity):
        monkeypatch.setattr(module, "_line_centers", count_batch)
    monkeypatch.setattr(ensemble_spectrum, "transition_pairs", count_rows)
    return calls
