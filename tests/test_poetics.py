import pytest

from imagepoet.errors import DataError
from imagepoet.poetics import (FormReport, PoeticLexicon, load_lexicon,
                               load_pattern, reverse_line, validate_form,
                               validate_rhyme, validate_structure,
                               validate_tones)

from poetics_cases import ALL_STAR, CASES, PAT1, STRICT_PASS, lexicon


def signatures(violations):
    return {(v.rule, v.line, v.position) for v in violations}


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_truth_table(case):
    report = validate_form(case.poem, case.pattern,
                           lexicon(case.tones_extra), 4, 3,
                           first_line_optional=case.first_optional)
    assert (report.structure_ok, report.tone_ok, report.rhyme_ok) == case.flags
    assert signatures(report.violations) == case.violations
    assert report.passed == (case.flags == (True, True, True))


def test_validators_are_pure():
    case = CASES[0]
    lex = lexicon()
    first = validate_form(case.poem, case.pattern, lex, 4, 3)
    second = validate_form(case.poem, case.pattern, lex, 4, 3)
    assert signatures(first.violations) == signatures(second.violations)
    assert (first.structure_ok, first.tone_ok, first.rhyme_ok) == \
           (second.structure_ok, second.tone_ok, second.rhyme_ok)


def test_adding_either_entries_is_monotone():
    # Every tone violation a richer lexicon resolves must already exist in
    # the poorer one; upgrades never create new violations.
    poem = [[13, 5, 0], [0, 14, 1], [0, 0, 0], [13, 0, 1]]
    pattern = ["PPP", "ZZZ", "***", "PZP"]
    poor = lexicon()
    rich = lexicon({13: "E", 14: "E"})
    poor_v = signatures(validate_tones(poem, pattern, poor))
    rich_v = signatures(validate_tones(poem, pattern, rich))
    assert rich_v <= poor_v


def test_wildcarding_cells_is_monotone():
    poem = STRICT_PASS
    lex = lexicon()
    assert not validate_tones(poem, PAT1, lex)
    for i in range(4):
        for j in range(3):
            weakened = [row[:j] + "*" + row[j + 1:] if k == i else row
                        for k, row in enumerate(PAT1)]
            assert not validate_tones(poem, weakened, lex)
    assert not validate_tones(poem, ALL_STAR, lex)


class TestReverseLine:
    def test_basic(self):
        assert reverse_line([1, 2, 3]) == [3, 2, 1]

    def test_involution(self):
        line = [5, 1, 4, 1, 5]
        assert reverse_line(reverse_line(line)) == line

    def test_empty(self):
        assert reverse_line([]) == []


class TestStructureDirect:
    def test_pass(self):
        assert validate_structure([[0] * 7] * 4, 4, 7) == []

    def test_line_count(self):
        violations = validate_structure([[0] * 7] * 3, 4, 7)
        assert signatures(violations) == {("line-count", 0, 0)}

    def test_line_length_position(self):
        poem = [[0] * 7, [0] * 6, [0] * 7, [0] * 7]
        violations = validate_structure(poem, 4, 7)
        assert signatures(violations) == {("line-length", 2, 0)}


class TestRhymeDirect:
    def test_spec_example_optional_first(self):
        lex = PoeticLexicon({}, {1: 1, 2: 1})
        poem = [[9, 9, 9], [0, 0, 1], [9, 9, 9], [0, 0, 2]]
        assert validate_rhyme(poem, lex, first_line_optional=True) == []

    def test_mismatch_flagged(self):
        lex = PoeticLexicon({}, {1: 1, 2: 2})
        poem = [[9, 9, 1], [0, 0, 1], [9, 9, 9], [0, 0, 2]]
        violations = validate_rhyme(poem, lex, first_line_optional=True)
        assert signatures(violations) == {("rhyme", 4, 3)}

    def test_required_first_line_blamed(self):
        lex = PoeticLexicon({}, {1: 1, 2: 2})
        poem = [[9, 9, 2], [0, 0, 1], [9, 9, 9], [0, 0, 1]]
        violations = validate_rhyme(poem, lex, first_line_optional=False)
        assert signatures(violations) == {("rhyme", 1, 3)}


class TestFiles:
    def test_lexicon_round_trip(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("# tones and rhymes\n"
                        "0\tP\t1\n"
                        "5\tZ\t-\n"
                        "10\tE\t2\n", encoding="utf-8")
        lex = load_lexicon(str(path))
        assert lex.tone(0) == "P" and lex.rhyme(0) == 1
        assert lex.tone(5) == "Z" and lex.rhyme(5) is None
        assert lex.tone(10) == "E" and lex.rhyme(10) == 2

    @pytest.mark.parametrize("bad", [
        "0\tP",                 # missing field
        "x\tP\t1",              # bad id
        "0\tQ\t1",              # bad tone
        "0\tP\tx",              # bad rhyme
        "0\tP\t-1",             # negative rhyme
        "0\tP\t1\n0\tZ\t2",     # repeated id
    ])
    def test_lexicon_errors(self, bad, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text(bad + "\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_lexicon(str(path))

    def test_pattern_round_trip(self, tmp_path):
        path = tmp_path / "pattern.txt"
        path.write_text("# header\nPZ*\nZPP\n**Z\nZPP\n", encoding="utf-8")
        assert load_pattern(str(path), 4, 3) == PAT1

    def test_pattern_errors(self, tmp_path):
        path = tmp_path / "pattern.txt"
        path.write_text("PZQ\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_pattern(str(path))
        path.write_text("PZ*\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_pattern(str(path), 4, 3)


def test_report_lines_mention_every_violation():
    case = next(c for c in CASES if c.name == "tone_and_rhyme_fail")
    report = validate_form(case.poem, case.pattern, lexicon(), 4, 3)
    text = "\n".join(report.lines())
    assert "tones FAIL" in text and "rhyme FAIL" in text
    assert text.count("violation:") == len(case.violations)
    assert isinstance(report, FormReport)
