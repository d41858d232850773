"""Rule-based quatrain form validation: structure, tones, rhyme.

Tones are P (level), Z (downward) or E (either); pattern cells are P, Z
or the wildcard *.  Rhyme categories are small integers.  Validators are
pure and report violations as data; nothing here steers generation.

Lexicon file: one entry per line, ``char_id<TAB>tone<TAB>rhyme`` with
tone in {P, Z, E} and rhyme a nonnegative integer or ``-`` for absent;
character ids are unique.
Pattern file: one line per poem line, chars_per_line symbols over
{P, Z, *}.  Blank lines and ``#`` comments are ignored in both.
"""

import dataclasses
import io

from .errors import DataError

PING = "P"
ZE = "Z"
EITHER = "E"
ANY = "*"


@dataclasses.dataclass(frozen=True)
class Violation:
    rule: str           # "line-count" | "line-length" | "tone" |
                        # "unknown-tone" | "rhyme" | "unknown-rhyme"
    line: int           # 1-based line number (0 for poem-level rules)
    position: int = 0   # 1-based character position, 0 if not positional
    detail: str = ""

    def __str__(self):
        where = "line %d" % self.line if self.line else "poem"
        if self.position:
            where += " char %d" % self.position
        return "%s (%s): %s" % (self.rule, where, self.detail)


@dataclasses.dataclass
class PoeticLexicon:
    tones: dict      # char id -> "P" | "Z" | "E"
    rhymes: dict     # char id -> rhyme category (int)

    def tone(self, char_id):
        return self.tones.get(char_id)

    def rhyme(self, char_id):
        return self.rhymes.get(char_id)


@dataclasses.dataclass
class FormReport:
    structure_ok: bool
    tone_ok: bool
    rhyme_ok: bool
    violations: list

    @property
    def passed(self):
        return self.structure_ok and self.tone_ok and self.rhyme_ok

    def lines(self):
        """Human-readable report lines."""
        out = ["structure %s" % ("ok" if self.structure_ok else "FAIL"),
               "tones %s" % ("ok" if self.tone_ok else "FAIL"),
               "rhyme %s" % ("ok" if self.rhyme_ok else "FAIL")]
        out += ["violation: %s" % v for v in self.violations]
        return out


def validate_structure(poem, lines_per_poem, chars_per_line):
    """Exactly L lines of exactly G characters each."""
    violations = []
    if len(poem) != lines_per_poem:
        violations.append(Violation("line-count", 0,
                                    detail="%d lines, expected %d"
                                    % (len(poem), lines_per_poem)))
    for i, line in enumerate(poem, start=1):
        if len(line) != chars_per_line:
            violations.append(Violation("line-length", i,
                                        detail="%d chars, expected %d"
                                        % (len(line), chars_per_line)))
    return violations


def validate_tones(poem, pattern, lexicon):
    """Each character's tone must satisfy its pattern cell.

    A ``*`` cell accepts anything.  At a P or Z cell, tone E passes, the
    matching tone passes, and a character missing from the tone table is
    an unknown-tone violation.
    """
    violations = []
    for i, (line, row) in enumerate(zip(poem, pattern), start=1):
        for j, (char_id, cell) in enumerate(zip(line, row), start=1):
            if cell == ANY:
                continue
            tone = lexicon.tone(char_id)
            if tone is None:
                violations.append(Violation("unknown-tone", i, j,
                                            "char %d has no tone entry"
                                            % char_id))
            elif tone != EITHER and tone != cell:
                violations.append(Violation("tone", i, j,
                                            "tone %s where %s required"
                                            % (tone, cell)))
    return violations


def validate_rhyme(poem, lexicon, first_line_optional=True):
    """Last characters of lines 2 and 4 (and optionally 1) must share a
    rhyme category.

    Line 2 anchors the comparison (it is always required), so a required
    first line that disagrees is reported against line 1, not line 2.
    Rule lines beyond the poem's length (short desk-scale forms) are
    simply not checked.
    """
    violations = []
    required = [2, 4] if first_line_optional else [1, 2, 4]
    required = [n for n in required if n <= len(poem)]
    cats = {}
    for line_no in required:
        char_id = poem[line_no - 1][-1]
        cat = lexicon.rhyme(char_id)
        if cat is None:
            violations.append(Violation("unknown-rhyme", line_no,
                                        len(poem[line_no - 1]),
                                        "char %d has no rhyme entry"
                                        % char_id))
        else:
            cats[line_no] = cat
    if cats:
        anchor = 2 if 2 in cats else sorted(cats)[0]
        for line_no in sorted(cats):
            if line_no != anchor and cats[line_no] != cats[anchor]:
                violations.append(Violation("rhyme", line_no,
                                            len(poem[line_no - 1]),
                                            "category %d, line %d has %d"
                                            % (cats[line_no], anchor,
                                               cats[anchor])))
    return violations


def validate_form(poem, pattern, lexicon, lines_per_poem, chars_per_line,
                  first_line_optional=True):
    """Full report; tone and rhyme checks run only on structure-valid poems."""
    structural = validate_structure(poem, lines_per_poem, chars_per_line)
    if structural:
        return FormReport(False, False, False, structural)
    tonal = validate_tones(poem, pattern, lexicon)
    rhyming = validate_rhyme(poem, lexicon, first_line_optional)
    return FormReport(True, not tonal, not rhyming,
                      tonal + rhyming)


def reverse_line(chars):
    """Exact reversal; involutive."""
    return list(reversed(list(chars)))


def text_lines(path):
    """(line number, line) for each line of a UTF-8 text file, split as
    text mode splits them.  A byte sequence that is not UTF-8 is a
    DataError naming the file and the line that holds it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError("%s:%d: not UTF-8 text"
                        % (path, data.count(b"\n", 0, exc.start) + 1))
    return enumerate(io.StringIO(text, newline=None), start=1)


def content_lines(path):
    """(line number, stripped line) for each line of a text file that is
    neither blank nor a ``#`` comment."""
    for number, raw in text_lines(path):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield number, line


def claim_key(first_lines, key, path, number, what):
    """Record that key first appears at line number of path; a repeated
    key is a DataError naming both lines."""
    if key in first_lines:
        raise DataError("%s:%d: repeated %s %r (first at line %d)"
                        % (path, number, what, key, first_lines[key]))
    first_lines[key] = number


def load_lexicon(path):
    """Parse a tone/rhyme lexicon file into a PoeticLexicon."""
    tones, rhymes, first_lines = {}, {}, {}
    for number, line in content_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError("%s:%d: expected 3 tab-separated fields"
                            % (path, number))
        char_field, tone, rhyme = parts
        try:
            char_id = int(char_field)
        except ValueError:
            raise DataError("%s:%d: bad character id %r"
                            % (path, number, char_field))
        if tone not in (PING, ZE, EITHER):
            raise DataError("%s:%d: tone must be P, Z or E, got %r"
                            % (path, number, tone))
        claim_key(first_lines, char_id, path, number, "character id")
        tones[char_id] = tone
        if rhyme != "-":
            try:
                category = int(rhyme)
            except ValueError:
                raise DataError("%s:%d: bad rhyme category %r"
                                % (path, number, rhyme))
            if category < 0:
                raise DataError("%s:%d: rhyme category must be nonnegative"
                                % (path, number))
            rhymes[char_id] = category
    return PoeticLexicon(tones, rhymes)


def load_pattern(path, lines_per_poem=None, chars_per_line=None):
    """Parse a tonal pattern file into a list of symbol rows."""
    rows = []
    for number, line in content_lines(path):
        for symbol in line:
            if symbol not in (PING, ZE, ANY):
                raise DataError("%s:%d: pattern symbol must be P, Z or *, "
                                "got %r" % (path, number, symbol))
        rows.append(line)
    if lines_per_poem is not None and len(rows) != lines_per_poem:
        raise DataError("%s: %d pattern rows, expected %d"
                        % (path, len(rows), lines_per_poem))
    if chars_per_line is not None:
        for i, row in enumerate(rows, start=1):
            if len(row) != chars_per_line:
                raise DataError("%s: pattern row %d has %d symbols, "
                                "expected %d" % (path, i, len(row),
                                                 chars_per_line))
    return rows
