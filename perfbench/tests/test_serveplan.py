import serveplan


def test_grid_space():
    grids = serveplan.distinct_grids()
    assert len(grids) == 63 * 7 - 1
    assert serveplan.WARMUP not in grids
    keys = {(tuple(g["workloads"]), tuple(g["deadline_fracs"])) for g in grids}
    assert len(keys) == len(grids)


def test_plan_is_deterministic_per_seed():
    assert serveplan.build_plan(7, 200) == serveplan.build_plan(7, 200)
    assert serveplan.build_plan(7, 200) != serveplan.build_plan(8, 200)


def test_repeat_share_and_targets():
    plans = serveplan.build_plan(3, 250)
    assert sum(len(p) for p in plans) == 250
    distinct = []
    for plan in plans:
        seen = []
        for i, entry in enumerate(plan):
            grid = {k: entry[k] for k in ("workloads", "deadline_fracs")}
            if entry["repeat"]:
                assert (i + 1) % serveplan.REPEAT_EVERY == 0
                assert grid in seen[-serveplan.RECENT:]  # the client's own recent grid
            else:
                seen.append(grid)
        distinct += seen
        assert sum(e["repeat"] for e in plan) == len(plan) // serveplan.REPEAT_EVERY
    # no distinct grid is sent twice, not even by two different clients
    keys = [(tuple(g["workloads"]), tuple(g["deadline_fracs"])) for g in distinct]
    assert len(set(keys)) == len(keys)


def test_plan_size_never_exceeds_the_grid_space():
    biggest = serveplan.plan_size(10_000)
    serveplan.build_plan(0, biggest)  # must not run out of distinct grids
    assert serveplan.plan_size(10) == 10 * serveplan.REQUESTS_PER_SECOND
