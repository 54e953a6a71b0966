"""Content-address keys: stability, sensitivity, canonical form."""

import pytest

from repro.errors import CacheError
from repro.runtime import hashing
from repro.runtime.dag import ExperimentSpec, MachineSpec, build_task_graph
from repro.simulator import Machine, SCALE_CONFIG, TransitionCostModel, XSCALE_3
from repro.simulator.dvs import OperatingPoint, ModeTable, make_mode_table
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def machine():
    return Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel())


class TestCanonicalJson:
    def test_key_order_does_not_matter(self):
        assert (hashing.stable_hash({"a": 1, "b": 2})
                == hashing.stable_hash({"b": 2, "a": 1}))

    def test_distinct_values_distinct_hashes(self):
        assert hashing.stable_hash({"a": 1}) != hashing.stable_hash({"a": 2})

    def test_floats_hash_losslessly(self):
        assert (hashing.stable_hash(0.1 + 0.2)
                != hashing.stable_hash(0.3))

    def test_non_json_values_rejected(self):
        with pytest.raises(CacheError):
            hashing.canonical_json({"bad": {1, 2}})

    def test_nan_rejected(self):
        with pytest.raises(CacheError):
            hashing.canonical_json(float("nan"))


class TestMachineFingerprint:
    def test_same_machine_same_fingerprint(self, machine):
        other = Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel())
        assert (hashing.stable_hash(hashing.machine_fingerprint(machine))
                == hashing.stable_hash(hashing.machine_fingerprint(other)))

    def test_table_name_is_not_part_of_identity(self, machine):
        renamed = ModeTable([OperatingPoint(p.frequency_hz, p.voltage)
                             for p in XSCALE_3], name="other-name")
        other = Machine(SCALE_CONFIG, renamed, TransitionCostModel())
        assert (hashing.machine_fingerprint(machine)
                == hashing.machine_fingerprint(other))

    def test_capacitance_changes_fingerprint(self, machine):
        other = Machine(SCALE_CONFIG, XSCALE_3,
                        TransitionCostModel(capacitance_f=5e-6))
        assert (hashing.machine_fingerprint(machine)
                != hashing.machine_fingerprint(other))

    def test_levels_change_fingerprint(self, machine):
        other = Machine(SCALE_CONFIG, make_mode_table(7), TransitionCostModel())
        assert (hashing.machine_fingerprint(machine)
                != hashing.machine_fingerprint(other))


class TestArtifactKeys:
    def test_profile_key_is_stable(self, machine):
        source = get_workload("adpcm").source
        key1 = hashing.profile_key(source, "default", 0, machine)
        key2 = hashing.profile_key(source, "default", 0, machine)
        assert key1 == key2
        assert len(key1) == 64 and all(c in "0123456789abcdef" for c in key1)

    def test_source_edit_invalidates(self, machine):
        source = get_workload("adpcm").source
        assert (hashing.profile_key(source, "default", 0, machine)
                != hashing.profile_key(source + " ", "default", 0, machine))

    def test_seed_and_category_matter(self, machine):
        source = get_workload("mpeg").source
        base = hashing.profile_key(source, "no_b", 0, machine)
        assert base != hashing.profile_key(source, "with_b", 0, machine)
        assert base != hashing.profile_key(source, "no_b", 1, machine)

    def test_kinds_never_collide(self, machine):
        source = get_workload("adpcm").source
        assert (hashing.profile_key(source, "default", 0, machine)
                != hashing.schedule_key(source, "default", 0, machine, 0.5))
        assert (hashing.schedule_key(source, "default", 0, machine, 0.5)
                != hashing.run_summary_key(source, "default", 0, machine, 0.5))

    def test_deadline_fraction_matters(self, machine):
        source = get_workload("adpcm").source
        assert (hashing.schedule_key(source, "default", 0, machine, 0.5)
                != hashing.schedule_key(source, "default", 0, machine, 0.7))


def _stage_keys(experiments, solver_backend="auto") -> dict[str, str]:
    graph = build_task_graph(experiments, solver_backend=solver_backend)
    return {t.task_id: t.cache_key for t in graph.tasks.values()
            if t.cache_key}


class TestPinnedStageKeys:
    """The keys a sweep stores artifacts under, pinned to literal values:
    computing the machine fingerprint once per machine, or any other
    change to how keys are built, must not move a single byte.  Only a
    ``KEY_VERSION`` bump may change these (and then the pins with it)."""

    SUITE = ("adpcm", "epic", "ghostscript", "gsm", "mpeg", "mpg123")

    @pytest.mark.parametrize("machine, backend, profile_key, digest", [
        (MachineSpec(), "auto",
         "90f5712bae9362357c79fda2fbd198d65e6ee09c5ceb1d13de5ed834cd017abe",
         "99a9c4462bb67509dd7c5355dd708b68615f7f643afe012f64fef90f8aef3d11"),
        (MachineSpec(levels=7, capacitance_uf=5.0), "continuous",
         "4023169547aefbf98871738160932d6cec971763e1a6a8ad91b4d3ea1ea9b041",
         "fb331b4d62b33a3a9888725b9077424f627de7cb2802a7061703609cb1c0f1ec"),
    ])
    def test_paper_suite_keys(self, machine, backend, profile_key, digest):
        keys = _stage_keys([ExperimentSpec(w, f, machine=machine)
                            for w in self.SUITE for f in (0.35, 0.7)],
                           solver_backend=backend)
        assert len(keys) == 30
        shared = f"profile:adpcm.default.s0.{machine.table_tag}" \
                 f".c{machine.capacitance_uf:g}"
        assert keys[shared] == profile_key
        assert hashing.stable_hash(keys) == digest

    def test_taskgraph_keys(self):
        from repro.taskgraph.pipeline import TaskGraphExperimentSpec

        keys = _stage_keys([
            TaskGraphExperimentSpec(shape=shape, tasks=5, cores=cores,
                                    deadline_frac=frac)
            for shape in ("fork-join", "layered") for cores in (1, 2)
            for frac in (0.0, 0.5)])
        assert len(keys) == 18
        assert hashing.stable_hash(keys) == (
            "6c7b6eddded2c5060be24711ba04ee8cae32b10a056ac89d84ef32b892943882")

    def test_memoized_fingerprint_is_the_built_machines(self):
        for spec in (MachineSpec(), MachineSpec(levels=7, capacitance_uf=5.0)):
            assert spec.fingerprint() == hashing.machine_fingerprint(
                spec.build())


class TestPinnedRequestKeys:
    """Served request identities, pinned to literal values: the canonical
    document, its key and the job id a body gets must not move when the
    grid rules move between modules.  Each stored request must also
    re-parse onto the key it was admitted under."""

    @pytest.mark.parametrize("endpoint, body, canonical, key, experiments", [
        ("sweep", {"workload": "adpcm", "deadline_frac": 0.5},
         '{"capacitance_uf":10.0,"category":null,"deadline_fracs":[0.5],'
         '"levels":["xscale-3"],"seed":0,"solver_backend":"auto",'
         '"solver_budget_s":null,"version":1,"workloads":["adpcm"]}',
         "d8df9fce704d10929b3bb08cad68970ddc59ee48de48a62d24ee0f67ad90de33",
         1),
        ("optimize", {"workload": "mpeg", "deadline_fracs": 1,
                      "levels": None, "solver_backend": "native",
                      "solver_budget_s": 2},
         '{"capacitance_uf":10.0,"category":null,"deadline_fracs":[1.0],'
         '"levels":["xscale-3"],"seed":0,"solver_backend":"native",'
         '"solver_budget_s":2.0,"version":1,"workloads":["mpeg"]}',
         "8ff5951a2b6afd70c191c6e58a97a8197fc8a5b4688c776c1382b767bfaa8b4d",
         1),
        ("sweep", {"workloads": ["mpeg", "mpeg"],
                   "deadline_fracs": [0.7, 0.35, 0.7],
                   "levels": [7, "xscale"], "category": "with_b",
                   "seed": 3, "capacitance_uf": 5},
         '{"capacitance_uf":5.0,"category":"with_b","deadline_fracs":'
         '[0.35,0.7],"levels":["xscale-3",7],"seed":3,"solver_backend":'
         '"auto","solver_budget_s":null,"version":1,"workloads":["mpeg"]}',
         "b62703710adaf5aa474c5324a9115394caf3bf48c01984b8e542d29c765bb6c4",
         4),
        ("sweep", {"workloads": ["gsm", "adpcm", "gsm"], "deadline_frac": 0,
                   "levels": [13, 3, "xscale-3", 3], "tenant": "x",
                   "wait": True},
         '{"capacitance_uf":10.0,"category":null,"deadline_fracs":[0.0],'
         '"levels":["xscale-3",3,13],"seed":0,"solver_backend":"auto",'
         '"solver_budget_s":null,"version":1,"workloads":["adpcm","gsm"]}',
         "3a7b6d500a15fadf739c9df0f37f747970636f757a13a591bd1b8e7e1e4af3c3",
         6),
        ("taskgraph", {"shapes": ["layered", "fork-join"], "tasks": 5,
                       "cores": [2, 1, 2], "deadline_fracs": [0.5, 0.0]},
         '{"capacitance_uf":10.0,"cores":[1,2],"deadline_fracs":[0.0,0.5],'
         '"levels":["xscale-3"],"seed":0,"shapes":["fork-join","layered"],'
         '"solver_backend":"auto","solver_budget_s":null,"tasks":5,'
         '"type":"taskgraph","version":1}',
         "d2fe6d222c695715ec2b8038629d52018b2c312d16d3df83d3209ba4530e4340",
         8),
        ("taskgraph", {"shape": "kernels", "levels": [13, "xscale-3"],
                       "seed": 2, "capacitance_uf": 2.5,
                       "solver_backend": "scipy"},
         '{"capacitance_uf":2.5,"cores":[1,2],"deadline_fracs":[0.35,0.7],'
         '"levels":["xscale-3",13],"seed":2,"shapes":["kernels"],'
         '"solver_backend":"scipy","solver_budget_s":null,"tasks":6,'
         '"type":"taskgraph","version":1}',
         "7b4ccafa12c6d2a7a839bfd8887cf8e7b1e17c54fe640b676dc878e19c3aaa2c",
         8),
    ])
    def test_request_keys(self, endpoint, body, canonical, key, experiments):
        from repro.serve.protocol import (
            canonical_json,
            from_canonical,
            parse_request,
        )

        parsed = parse_request(body, endpoint=endpoint)
        assert canonical_json(parsed.canonical) == canonical
        assert parsed.request_key == key
        assert parsed.job_id == f"job-{key[:16]}"
        assert len(parsed.experiments) == experiments
        recovered = from_canonical(parsed.canonical)
        assert recovered.request_key == key
        assert ([e.experiment_id for e in recovered.experiments]
                == [e.experiment_id for e in parsed.experiments])
