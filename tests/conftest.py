import numpy as np
import pytest

from paretotsp import trainer


@pytest.fixture
def diverge_on_call(monkeypatch):
    """`diverge_on_call(k)` makes the k-th `reinforce_iteration` call of the
    test (counting from 1) start from an actor whose `dec.Wq` is all NaN, so
    that iteration diverges in the tape-free sampling loop."""
    def arm(k: int) -> None:
        real, calls = trainer.reinforce_iteration, []

        def iteration(weights, actor, *rest):
            calls.append(None)
            if len(calls) == k:
                actor.params["dec.Wq"].data = np.full_like(actor.params["dec.Wq"].data, np.nan)
            return real(weights, actor, *rest)

        monkeypatch.setattr(trainer, "reinforce_iteration", iteration)
    return arm
