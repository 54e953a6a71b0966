"""Request canonicalization: same science, same key — and only then."""

import json

import pytest

from repro.errors import ProtocolError
from repro.runtime.dag import StreamGrid, build_task_graph
from repro.serve.protocol import from_canonical, parse_request


class TestCanonicalization:
    def test_field_order_is_irrelevant(self):
        a = parse_request({"workloads": ["adpcm"], "deadline_fracs": [0.5]})
        b = parse_request(
            b'{"deadline_fracs": [0.5], "workloads": ["adpcm"]}')
        assert a.request_key == b.request_key

    def test_explicit_defaults_do_not_change_identity(self):
        a = parse_request({"workloads": ["adpcm"], "deadline_fracs": [0.5]})
        b = parse_request({"workloads": ["adpcm"], "deadline_fracs": [0.5],
                           "seed": 0, "capacitance_uf": 10.0,
                           "solver_backend": "auto", "levels": None})
        assert a.request_key == b.request_key

    def test_axes_are_sorted_and_deduplicated(self):
        a = parse_request({"workloads": ["gsm", "adpcm", "gsm"],
                           "deadline_fracs": [0.7, 0.35, 0.7]})
        b = parse_request({"workloads": ["adpcm", "gsm"],
                           "deadline_fracs": [0.35, 0.7]})
        assert a.request_key == b.request_key

    def test_tenant_and_wait_are_not_identity(self):
        a = parse_request({"workloads": ["adpcm"], "deadline_fracs": [0.5],
                           "tenant": "alice", "wait": True})
        b = parse_request({"workloads": ["adpcm"], "deadline_fracs": [0.5],
                           "tenant": "bob"})
        assert a.request_key == b.request_key
        assert a.tenant == "alice" and a.wait
        assert b.tenant == "bob" and not b.wait

    def test_singular_and_plural_spellings_agree(self):
        a = parse_request({"workload": "adpcm", "deadline_frac": 0.5},
                          endpoint="optimize")
        b = parse_request({"workloads": ["adpcm"], "deadline_fracs": [0.5]})
        assert a.request_key == b.request_key

    def test_different_science_different_key(self):
        a = parse_request({"workloads": ["adpcm"], "deadline_fracs": [0.5]})
        b = parse_request({"workloads": ["adpcm"], "deadline_fracs": [0.5],
                           "seed": 1})
        c = parse_request({"workloads": ["adpcm"], "deadline_fracs": [0.5],
                           "levels": [7]})
        assert len({a.request_key, b.request_key, c.request_key}) == 3

    def test_job_id_is_a_key_prefix(self):
        parsed = parse_request({"workloads": ["adpcm"],
                                "deadline_fracs": [0.5]})
        assert parsed.job_id == f"job-{parsed.request_key[:16]}"


class TestValidation:
    def rejects(self, document, fragment, endpoint="sweep"):
        with pytest.raises(ProtocolError, match=fragment):
            parse_request(document, endpoint=endpoint)

    def test_rejects_unknown_fields(self):
        self.rejects({"workloads": ["adpcm"], "wibble": 1}, "unknown")

    def test_rejects_unknown_workload(self):
        self.rejects({"workloads": ["doom"]}, "unknown workload")

    def test_rejects_bad_deadline(self):
        self.rejects({"workloads": ["adpcm"], "deadline_fracs": [1.5]},
                     "outside")

    def test_rejects_bad_levels(self):
        self.rejects({"workloads": ["adpcm"], "levels": [1]},
                     "at least two")

    def test_rejects_bad_backend(self):
        self.rejects({"workloads": ["adpcm"], "solver_backend": "cplex"},
                     "solver_backend")

    def test_rejects_bad_category(self):
        self.rejects({"workloads": ["adpcm"], "category": "imaginary"},
                     "category")

    def test_rejects_non_json(self):
        with pytest.raises(ProtocolError, match="valid JSON"):
            parse_request(b"{nope")

    def test_rejects_missing_required_fields(self):
        self.rejects({"deadline_frac": 0.5}, "workload",
                     endpoint="optimize")
        self.rejects({"workload": "adpcm"}, "deadline_frac",
                     endpoint="optimize")

    def test_enforces_grid_limit(self):
        document = {"workloads": ["adpcm", "gsm"],
                    "deadline_fracs": [0.1, 0.2, 0.3]}
        parse_request(document, max_grid=6)
        with pytest.raises(ProtocolError, match="at most 4"):
            parse_request(document, max_grid=4)

    def test_http_status_is_400(self):
        try:
            parse_request({"workloads": ["doom"]})
        except ProtocolError as error:
            assert error.status == 400


class TestGridEquivalence:
    def test_experiments_match_cli_sweep_grid(self):
        """A served request expands to the exact CLI sweep grid."""
        parsed = parse_request({"workloads": ["adpcm", "gsm"],
                                "deadline_fracs": [0.35, 0.7],
                                "levels": ["xscale", 7]})
        cli_grid = StreamGrid(
            workloads=("adpcm", "gsm"), deadline_fracs=(0.35, 0.7),
            levels=(None, 7)).experiments()
        assert ([e.experiment_id for e in parsed.experiments]
                == [e.experiment_id for e in cli_grid])

    def test_expansion_round_trips_canonical_json(self):
        parsed = parse_request({"workloads": ["adpcm"],
                                "deadline_fracs": [0.5]})
        again = from_canonical(json.loads(json.dumps(parsed.canonical)))
        assert again.request_key == parsed.request_key
        assert [e.experiment_id for e in again.experiments] \
            == [e.experiment_id for e in parsed.experiments]

    def test_graph_builds_from_served_experiments(self):
        parsed = parse_request({"workloads": ["adpcm"],
                                "deadline_fracs": [0.35, 0.7]})
        graph = build_task_graph(list(parsed.experiments))
        assert len(graph.experiments) == 2
