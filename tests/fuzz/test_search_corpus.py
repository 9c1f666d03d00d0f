"""The search loop and its corpus: determinism, resume, persistence.

The acceptance property in miniature: two sessions with the same master
seed and budget write byte-identical corpus directories, and a session
interrupted midway and resumed continues the identical trajectory.
These run a handful of real simulations each, so budgets stay tiny.
"""

import json
from pathlib import Path

import pytest

from repro.fuzz.corpus import Corpus
from repro.fuzz.search import FuzzSession, run_fuzz, seed_specs
from repro.runner.spec import RunSpec

SEED = 7
#: enough iterations for the search to actually discover new behaviour
#: at this seed, while keeping the module's wall time in seconds
ITERATIONS = 12


def tree_bytes(root: Path) -> dict:
    """Relative path -> file bytes for every file under ``root``."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


@pytest.fixture(scope="module")
def fuzzed(tmp_path_factory):
    """One completed session, shared by the read-only assertions."""
    root = tmp_path_factory.mktemp("fuzz") / "corpus"
    report = run_fuzz(root, SEED, iterations=ITERATIONS)
    return root, report


class TestDeterminism:
    def test_same_seed_same_budget_byte_identical(self, fuzzed, tmp_path):
        root, _ = fuzzed
        rerun = tmp_path / "corpus"
        run_fuzz(rerun, SEED, iterations=ITERATIONS)
        assert tree_bytes(rerun) == tree_bytes(root)

    def test_resume_continues_the_identical_trajectory(self, fuzzed, tmp_path):
        root, _ = fuzzed
        split = tmp_path / "corpus"
        run_fuzz(split, SEED, iterations=4)
        run_fuzz(split, SEED, iterations=ITERATIONS - 4, resume=True)
        assert tree_bytes(split) == tree_bytes(root)


class TestGuards:
    def test_fresh_session_refuses_an_existing_corpus(self, fuzzed):
        root, _ = fuzzed
        with pytest.raises(FileExistsError):
            run_fuzz(root, SEED, iterations=1)

    def test_resume_refuses_a_different_seed(self, fuzzed):
        root, _ = fuzzed
        with pytest.raises(ValueError) as excinfo:
            run_fuzz(root, SEED + 1, iterations=1, resume=True)
        assert "seed" in str(excinfo.value)


class TestReport:
    def test_totals_are_consistent(self, fuzzed):
        root, report = fuzzed
        totals = report["totals"]
        assert totals["seed"] == SEED
        assert totals["iterations"] == ITERATIONS
        assert totals["corpus_entries"] > len(seed_specs())
        assert totals["new_beyond_seed"] > 0
        assert totals["new_beyond_seed"] == \
            totals["signatures"] - totals["seed_signatures"]
        assert totals["failures"] == 0  # the real system is invariant-clean
        assert totals["unshrinkable"] == 0

    def test_report_file_matches_the_returned_report(self, fuzzed):
        root, report = fuzzed
        on_disk = json.loads((root / "report.json").read_text())
        assert on_disk == report

    def test_heatmap_cells_account_for_every_iteration(self, fuzzed):
        root, report = fuzzed
        runs = sum(cell["runs"] for cell in report["heatmap"])
        assert runs == ITERATIONS  # seed specs are not heatmap cells


class TestCorpusPersistence:
    def test_round_trip_preserves_entries_state_and_coverage(self, fuzzed):
        root, _ = fuzzed
        reloaded = Corpus(root).load()
        original = Corpus(root).load()
        assert reloaded.state == original.state
        assert reloaded.entries == original.entries
        assert reloaded.coverage.to_dict() == original.coverage.to_dict()
        specs = reloaded.specs()
        assert all(isinstance(spec, RunSpec) for spec in specs)
        assert [s.key for s in specs] == \
            [entry["key"] for entry in reloaded.entries]

    def test_unsupported_state_schema_is_rejected(self, tmp_path):
        corpus = Corpus(tmp_path / "corpus")
        corpus.state["schema"] = 99
        corpus.save()
        with pytest.raises(ValueError):
            Corpus(corpus.root).load()

    @pytest.mark.parametrize("name, text, message", [
        ("state.json", "[]", "state.json: not a JSON object"),
        ("state.json", '{"schema": 1', "state.json: not JSON"),
        ("coverage.json", "5", "coverage.json: not a JSON object"),
        ("coverage.json", '{"signatures": {"s": 1}}',
         "coverage.json: not a coverage map"),
        ("corpus.jsonl", '{"spec": {}}\n[1]\n',
         "corpus.jsonl:2: not a JSON object"),
        ("corpus.jsonl", '{"spec": {}}\n{"sp', "corpus.jsonl:2: not a JSON"),
        ("corpus.jsonl", '{"spec": {}}\n{"key": "k"}\n',
         "corpus.jsonl: entry 2: not a corpus entry"),
    ])
    def test_damaged_file_is_named(self, tmp_path, name, text, message):
        corpus = Corpus(tmp_path / "corpus")
        corpus.save()
        (corpus.root / name).write_text(text)
        with pytest.raises(ValueError, match=message):
            Corpus(corpus.root).load()

    @pytest.mark.parametrize("key, value", [
        ("iterations_done", "3"),
        ("failures", None),
        ("heatmap", []),
    ])
    def test_malformed_state_field_is_named(self, tmp_path, key, value):
        corpus = Corpus(tmp_path / "corpus")
        corpus.state[key] = value
        corpus.save()
        with pytest.raises(ValueError, match=f"state.json: '{key}' must"):
            Corpus(corpus.root).load()

    def test_seed_entries_come_first_in_discovery_order(self, fuzzed):
        root, _ = fuzzed
        corpus = Corpus(root).load()
        origins = [entry["origin"] for entry in corpus.entries]
        n_seed = len(seed_specs())
        assert origins[:n_seed] == [f"seed:{j}" for j in range(n_seed)]
        assert all(origin.startswith("iter:") for origin in origins[n_seed:])


class TestSessionStart:
    def test_seed_corpus_establishes_the_baseline(self, tmp_path):
        session = FuzzSession(tmp_path / "corpus", SEED)
        session.start()
        assert len(session.corpus.entries) == len(seed_specs())
        assert session.corpus.state["seed"] == SEED
        assert session.corpus.state["seed_signatures"] == \
            len(session.corpus.coverage)
