import json

import numpy as np
import pytest

from imagepoet.datapipe import (ConceptLexicon, ImageRecord, PoemRecord,
                                build_samples, extract_concepts,
                                image_keywords, keyword_recall, load_corpus,
                                load_concept_lexicon, load_feature_file,
                                match_pairs, save_concept_lexicon, split_pool,
                                write_feature_file)
from imagepoet.errors import ConfigError, DataError, DomainError

LEXICON = ConceptLexicon({
    "water": {(1, 2), (3,)},
    "tree": {(4, 5)},
    "moon": {(6,)},
    "mountain": {(7, 8, 9)},
})


class TestExtractConcepts:
    def test_planted_realization_found(self):
        assert "water" in extract_concepts([0, 1, 2, 0], LEXICON)

    def test_empty_lexicon(self):
        assert extract_concepts([1, 2, 3], ConceptLexicon()) == set()

    def test_exactly_the_planted_labels(self):
        line = [4, 5, 6, 7, 8, 9]  # tree, moon, mountain; no water
        assert extract_concepts(line, LEXICON) == {"tree", "moon", "mountain"}

    def test_subsequence_must_be_contiguous(self):
        assert "water" not in extract_concepts([1, 0, 2], LEXICON)
        assert "mountain" not in extract_concepts([7, 8], LEXICON)


class TestMatchPairs:
    def test_overlap_matches(self):
        images = [ImageRecord("img", "", ["water", "tree"])]
        poems = [PoemRecord("p", [(3, 0, 0)])]
        assert match_pairs(images, poems, LEXICON) == [("img", "p", 0)]

    def test_disjoint_no_match(self):
        images = [ImageRecord("img", "", ["moon"])]
        poems = [PoemRecord("p", [(3, 0, 0)])]
        assert match_pairs(images, poems, LEXICON) == []

    def test_planted_corpus_matches_brute_force(self):
        concept_sets = [["water"], ["tree"], ["moon"], ["water", "moon"],
                        ["mountain"]]
        images = [ImageRecord("i%d" % k, "", c)
                  for k, c in enumerate(concept_sets)]
        line_bank = [(1, 2, 0), (4, 5, 0), (6, 0, 0), (7, 8, 9), (0, 0, 0)]
        poems = [PoemRecord("p%d" % k, [line_bank[k], line_bank[(k + 1) % 5]])
                 for k in range(5)]
        got = match_pairs(images, poems, LEXICON)
        expected = []
        for image in images:
            for poem in poems:
                for idx, line in enumerate(poem.lines):
                    if set(image.concepts) & extract_concepts(line, LEXICON):
                        expected.append((image.image_id, poem.poem_id, idx))
        assert got == sorted(expected)


def write_corpus(tmp_path, images, poems, name="corpus.jsonl"):
    path = tmp_path / name
    with open(path, "w", encoding="utf-8") as fh:
        for img in images:
            fh.write(json.dumps({"image_id": img[0], "feature_path": img[1],
                                 "concepts": img[2]}) + "\n")
        for poem_id, lines in poems:
            fh.write(json.dumps({"poem_id": poem_id,
                                 "lines": [list(l) for l in lines]}) + "\n")
    return str(path)


@pytest.fixture
def corpus(tmp_path, rng):
    features = rng.uniform_array(12, -1, 1).reshape(4, 3).astype(np.float32)
    write_feature_file(str(tmp_path / "img0.vfgr"), features)
    write_feature_file(str(tmp_path / "img1.vfgr"), features * 2.0)
    images = [("img0", "img0.vfgr", ["water"]),
              ("img1", "img1.vfgr", ["tree", "moon"])]
    poems = [("p0", [(1, 2, 0), (4, 5, 0), (6, 0, 0), (3, 0, 0)]),
             ("p1", [(0, 0, 0), (0, 3, 0), (0, 0, 0), (0, 0, 6)])]
    return write_corpus(tmp_path, images, poems)


class TestBuildSamples:
    def test_one_sample_per_line_with_true_preceding(self, corpus):
        images, poems = load_corpus(corpus)
        matches = [("img0", "p0", 0)]
        samples = build_samples(matches, images, poems, LEXICON)
        assert len(samples) == 4
        assert samples[0].preceding == ()
        assert samples[0].target == (1, 2, 0)
        assert samples[1].preceding == (1, 2, 0)
        assert samples[3].preceding == (1, 2, 0, 4, 5, 0, 6, 0, 0)
        assert all(s.keywords == [(1, 2), (3,)] for s in samples)

    def test_sample_count_is_matches_times_lines(self, corpus):
        images, poems = load_corpus(corpus)
        matches = match_pairs(images, poems, LEXICON)
        samples = build_samples(matches, images, poems, LEXICON)
        assert len(samples) == len(matches) * 4

    def test_missing_feature_file_names_the_image(self, corpus, tmp_path):
        images, poems = load_corpus(corpus)
        images[0].feature_path = str(tmp_path / "gone.vfgr")
        with pytest.raises(DataError) as info:
            build_samples([("img0", "p0", 0)], images, poems, LEXICON)
        assert "img0" in str(info.value)

    def test_mismatched_feature_grid_names_the_file(self, corpus, tmp_path):
        write_feature_file(str(tmp_path / "img1.vfgr"),
                           np.zeros((5, 3), dtype=np.float32))
        images, poems = load_corpus(corpus)
        matches = match_pairs(images, poems, LEXICON)
        assert matches[-1][0] == "img1"
        with pytest.raises(DataError) as info:
            build_samples(matches, images, poems, LEXICON)
        assert "img1.vfgr" in str(info.value)
        assert "img0.vfgr" in str(info.value)

    def test_rebuild_from_reloaded_corpus_is_identical(self, corpus):
        def build():
            images, poems = load_corpus(corpus)
            matches = match_pairs(images, poems, LEXICON)
            return build_samples(matches, images, poems, LEXICON)

        first, second = build(), build()
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert np.array_equal(a.features, b.features)
            assert (a.keywords, a.preceding, a.target) == \
                   (b.keywords, b.preceding, b.target)


class TestKeywordRecall:
    POEM = [(1, 2, 0), (4, 5, 0)]

    def test_half_recalled(self):
        value = keyword_recall(self.POEM,
                               ["water", "tree", "moon", "mountain"], LEXICON)
        assert value == 0.5

    def test_all_recalled(self):
        assert keyword_recall(self.POEM, ["water", "tree"], LEXICON) == 1.0

    def test_unknown_label_counts_against(self):
        assert keyword_recall(self.POEM, ["water", "nosuch"], LEXICON) == 0.5

    def test_empty_concepts_rejected(self):
        with pytest.raises(DomainError):
            keyword_recall(self.POEM, [], LEXICON)

    def test_appending_characters_never_decreases(self, rng):
        concepts = ["water", "tree", "moon", "mountain"]
        poem = [(0, 0, 0)]
        last = keyword_recall(poem, concepts, LEXICON)
        for _ in range(40):
            poem[-1] = poem[-1] + (rng.below(10),)
            now = keyword_recall(poem, concepts, LEXICON)
            assert now >= last
            last = now


class TestSplitPool:
    def test_everything_to_train(self):
        samples = list(range(10))
        train, valid, test = split_pool(samples, (1.0, 0.0, 0.0), seed=1)
        assert sorted(train) == samples and valid == [] and test == []

    def test_same_seed_same_split(self):
        samples = list(range(50))
        a = split_pool(samples, (0.8, 0.1, 0.1), seed=9)
        b = split_pool(samples, (0.8, 0.1, 0.1), seed=9)
        assert a == b
        c = split_pool(samples, (0.8, 0.1, 0.1), seed=10)
        assert a != c

    def test_rounding_rule(self):
        samples = list(range(103))
        train, valid, test = split_pool(samples, (0.8, 0.1, 0.1), seed=3)
        assert (len(train), len(valid), len(test)) == (83, 10, 10)

    def test_disjoint_and_exhaustive(self):
        samples = list(range(37))
        train, valid, test = split_pool(samples, (0.5, 0.25, 0.25), seed=4)
        assert sorted(train + valid + test) == samples

    def test_bad_fractions(self):
        with pytest.raises(ConfigError):
            split_pool([1], (0.5, 0.2, 0.2), seed=1)
        with pytest.raises(ConfigError):
            split_pool([1], (1.5, -0.25, -0.25), seed=1)

    def test_non_finite_fraction_rejected(self):
        with pytest.raises(ConfigError, match="nan"):
            split_pool([1], (float("nan"), float("nan"), 0.0), seed=1)


class TestFeatureFiles:
    def test_round_trip(self, tmp_path, rng):
        grid = rng.uniform_array(12, -1, 1).reshape(3, 4).astype(np.float32)
        path = str(tmp_path / "grid.vfgr")
        write_feature_file(path, grid)
        loaded = load_feature_file(path)
        assert loaded.shape == (3, 4)
        assert loaded.dtype == np.float64
        assert np.array_equal(loaded, grid.astype(np.float64))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.vfgr"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(DataError):
            load_feature_file(str(path))

    def test_truncated_payload(self, tmp_path, rng):
        grid = rng.uniform_array(12, -1, 1).reshape(3, 4)
        path = tmp_path / "cut.vfgr"
        write_feature_file(str(path), grid)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(DataError):
            load_feature_file(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_feature_file(str(tmp_path / "absent.vfgr"))


class TestCorpusFiles:
    def test_relative_feature_paths_resolve(self, corpus):
        images, poems = load_corpus(corpus)
        assert len(images) == 2 and len(poems) == 2
        grid = load_feature_file(images[0].feature_path)
        assert grid.shape == (4, 3)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text("{not json}\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_corpus(str(path))

    def test_unknown_record_kind(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text(json.dumps({"who": "me"}) + "\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_corpus(str(path))

    @pytest.mark.parametrize("record", [
        {"image_id": "i", "concepts": "c1"},
        {"poem_id": "p", "lines": "234"},
        {"poem_id": "p", "lines": ["234", "567"]},
    ])
    def test_string_in_place_of_a_list_is_malformed(self, tmp_path, record):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="bad.jsonl:1: malformed record"):
            load_corpus(str(path))

    @pytest.mark.parametrize("record", [{"image_id": "i"},
                                        {"poem_id": "p", "lines": []}])
    def test_repeated_id_names_both_lines(self, tmp_path, record):
        path = tmp_path / "twice.jsonl"
        path.write_text(2 * (json.dumps(record) + "\n"), encoding="utf-8")
        with pytest.raises(DataError, match=r"twice\.jsonl:2: repeated "
                           r"(image|poem) id '.' \(first at line 1\)"):
            load_corpus(str(path))

    def test_structure_validation(self, tmp_path):
        path = write_corpus(tmp_path, [],
                            [("p", [(1, 2), (3, 4)])], name="short.jsonl")
        with pytest.raises(DataError):
            load_corpus(path, lines_per_poem=4)
        with pytest.raises(DataError):
            load_corpus(path, lines_per_poem=2, chars_per_line=3)
        images, poems = load_corpus(path, lines_per_poem=2, chars_per_line=2)
        assert poems[0].lines == [(1, 2), (3, 4)]


class TestConceptLexiconFiles:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "concepts.tsv")
        save_concept_lexicon(LEXICON, path)
        loaded = load_concept_lexicon(path)
        assert loaded.labels() == LEXICON.labels()
        for label in LEXICON.labels():
            assert loaded.of(label) == LEXICON.of(label)

    def test_bad_lines(self, tmp_path):
        path = tmp_path / "concepts.tsv"
        for bad in ("water", "water\t1+x", "water\t", "water\t1\nwater\t2"):
            path.write_text(bad + "\n", encoding="utf-8")
            with pytest.raises(DataError):
                load_concept_lexicon(str(path))

    def test_image_keywords_sorted_deterministic(self):
        image = ImageRecord("i", "", ["tree", "water"])
        assert image_keywords(image, LEXICON) == [(1, 2), (3,), (4, 5)]
