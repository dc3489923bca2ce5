import pytest

from critherm import ensemble_spectrum, protocol_sim


@pytest.fixture
def forward_model_calls(monkeypatch):
    """Count forward-model evaluations: the number of temperatures of every
    line_centers call and every temperature row solved."""
    calls = {"batches": [], "rows": 0}
    batched = ensemble_spectrum.line_centers
    solve_row = ensemble_spectrum.transition_pairs

    def count_batch(asm, temps, sites):
        calls["batches"].append(len(temps))
        return batched(asm, temps, sites)

    def count_row(*args):
        calls["rows"] += 1
        return solve_row(*args)

    for module in (ensemble_spectrum, protocol_sim):
        monkeypatch.setattr(module, "line_centers", count_batch)
    monkeypatch.setattr(ensemble_spectrum, "transition_pairs", count_row)
    return calls
