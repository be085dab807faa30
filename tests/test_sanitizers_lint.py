"""repro.lint: the determinism/consistency static pass.

Two halves: the shipped tree must be clean, and each hazard class must
actually be caught — a lint rule that never fires on its own fixture
is dead code.
"""

from pathlib import Path

import pytest

from repro.sanitizers.lint import run_lint

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"


def codes_for(path: Path):
    return [finding.code for finding in run_lint([path])]


class TestShippedTreeClean:
    def test_src_repro_is_lint_clean(self):
        findings = run_lint([SRC])
        assert findings == [], "\n".join(f.render() for f in findings)


class TestHazardFixtures:
    @pytest.mark.parametrize(
        "fixture, code",
        [
            ("sim/det001_wall_clock.py", "DET001"),
            ("sim/det002_random.py", "DET002"),
            ("core/det003_set_iteration.py", "DET003"),
            ("core/det004_id_ordering.py", "DET004"),
            ("tp001_unknown_tracepoint.py", "TP001"),
            ("tp002_arity_mismatch.py", "TP002"),
            ("err001_unknown_errno.py", "ERR001"),
            ("slot001_missing_slots.py", "SLOT001"),
            ("sim/slot002_unpicklable_state.py", "SLOT002"),
            ("sched001_direct_heap.py", "SCHED001"),
            ("sched001_heapq_imports.py", "SCHED001"),
            ("imp001_unused_import.py", "IMP001"),
        ],
    )
    def test_each_hazard_class_is_caught(self, fixture, code):
        findings = run_lint([FIXTURES / fixture])
        assert code in [f.code for f in findings], (
            f"{fixture} should trip {code}; got "
            + "\n".join(f.render() for f in findings)
        )

    def test_det001_flags_both_import_forms(self):
        codes = codes_for(FIXTURES / "sim" / "det001_wall_clock.py")
        assert codes.count("DET001") == 2  # import time + from datetime

    def test_det003_does_not_flag_sorted_wrapping(self):
        findings = run_lint([FIXTURES / "core" / "det003_set_iteration.py"])
        flagged_lines = {f.line for f in findings}
        text = (FIXTURES / "core" / "det003_set_iteration.py").read_text()
        sorted_line = next(
            i
            for i, line in enumerate(text.splitlines(), start=1)
            if "sorted(set(items))" in line
        )
        assert sorted_line not in flagged_lines

    def test_det004_spares_insertion_ordered_dict_keys(self):
        findings = run_lint([FIXTURES / "core" / "det004_id_ordering.py"])
        # Three hazards in bad(); the id()-keyed dict in fine() is legal.
        assert [f.code for f in findings] == ["DET004"] * 3

    def test_determinism_rules_scoped_to_zones(self):
        # The same wall-clock import outside sim/core/oskernel is not a
        # finding: reporting layers may timestamp things.
        out_of_zone = FIXTURES / "tp001_unknown_tracepoint.py"
        assert "DET001" not in codes_for(out_of_zone)

    def test_slot002_spares_getstate_and_pragma(self):
        findings = run_lint(
            [FIXTURES / "sim" / "slot002_unpicklable_state.py"]
        )
        slot002 = [f for f in findings if f.code == "SLOT002"]
        # Exactly the three hazards in Holder; Exempt defines
        # __getstate__ and Allowed carries the pragma.
        assert len(slot002) == 3, "\n".join(f.render() for f in slot002)

    def test_slot002_scoped_to_snapshot_zones(self):
        # The same closure stash outside a snapshot zone is fine:
        # reporting layers are never pickled into a checkpoint.
        out_of_zone = codes_for(FIXTURES / "slot002_out_of_zone.py")
        assert "SLOT002" not in out_of_zone

    def test_allow_pragma_suppresses_in_place(self):
        findings = run_lint([FIXTURES / "sim" / "allow_pragma.py"])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_sched001_catches_every_mutation_form(self):
        findings = run_lint([FIXTURES / "sched001_direct_heap.py"])
        sched = [f for f in findings if f.code == "SCHED001"]
        # Exactly the six hazards in bad(); fine() uses the engine API,
        # a non-_heap heapq push, a pragma, and a read.
        assert len(sched) == 6, "\n".join(f.render() for f in sched)
        # The same mutators imported by bare name, ``as`` alias or
        # module alias: exactly the four calls in bad().
        aliased = FIXTURES / "sched001_heapq_imports.py"
        sched = [f for f in run_lint([aliased]) if f.code == "SCHED001"]
        text = aliased.read_text().splitlines()
        expected = [
            number
            for number, line in enumerate(text, start=1)
            if "# finding:" in line
        ]
        assert [f.line for f in sched] == expected, "\n".join(
            f.render() for f in sched
        )

    def test_imp001_flags_exactly_the_unread_imports(self):
        fixture = FIXTURES / "imp001_unused_import.py"
        findings = [f for f in run_lint([fixture]) if f.code == "IMP001"]
        # json, deque and Fraction.  A __future__ import, a string
        # annotation, an __all__ entry, an attribute chain's root, a
        # pragma and a function-level import are all fine.
        assert sorted(f.message.split("'")[1] for f in findings) == [
            "Fraction", "deque", "json",
        ], "\n".join(f.render() for f in findings)

    def test_sched001_applies_outside_determinism_zones(self):
        # Unlike DET*, heap mutation is a finding anywhere — a plugin
        # or reporting layer poking a _heap breaks the model checker
        # just as thoroughly as core code doing it.
        findings = run_lint([FIXTURES / "sched001_direct_heap.py"])
        assert any(f.code == "SCHED001" for f in findings)

    def test_sched001_exempts_only_the_engine_itself(self):
        engine = SRC / "sim" / "engine.py"
        assert "SCHED001" not in codes_for(engine)
        # The snapshot restore path compacts a quiesced heap and must
        # carry explicit pragmas rather than an implicit exemption.
        snapshot = (SRC / "sim" / "snapshot.py").read_text()
        assert "lint: allow(SCHED001)" in snapshot

    def test_whole_fixture_dir_reports_every_class(self):
        findings = run_lint([FIXTURES])
        codes = {f.code for f in findings}
        assert codes >= {
            "DET001", "DET002", "DET003", "DET004",
            "TP001", "TP002", "ERR001", "SLOT001", "SCHED001", "IMP001",
        }
        # Findings are sorted and carry renderable locations.
        rendered = [f.render() for f in findings]
        assert rendered == sorted(rendered) or all(
            ":" in line for line in rendered
        )
        for finding in findings:
            assert finding.line > 0
            assert finding.path.endswith(".py")
