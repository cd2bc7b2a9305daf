"""Save/load contract check shared by the model test modules."""


def assert_state_roundtrip(original, blank, steps, data):
    """``original`` is saved and restored into ``blank``; both are then
    advanced through the same (target_time, seed) schedule, each step a
    ``reseed`` then a ``run``, and must agree on every observation
    likelihood. The first diverging step fails the assertion."""
    blank.load(original.save())
    for idx, (target, seed) in enumerate(steps):
        for model in (original, blank):
            model.reseed(seed)
            model.run(target)
        a = original.log_observe(data)
        b = blank.log_observe(data)
        assert a == b, f"log_observe diverged at step {idx}: {a!r} != {b!r}"
