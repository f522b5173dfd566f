import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidtext.config import PipelineConfig
from vidtext.corruption import (
    FILLER_LEXICON,
    CorruptionCounters,
    PronunciationTable,
    corrupt_document,
    derive_seed,
    normalize_words,
    strip_punctuation,
)
from vidtext.tokenizers import ByteTokenizer


def test_strip_punctuation_removes_unicode_punct():
    assert strip_punctuation("hello!") == "hello"
    assert strip_punctuation("'quoted'") == "quoted"
    assert strip_punctuation("co-op:") == "coop"
    assert strip_punctuation("¿que?") == "que"  # inverted question mark


def test_normalize_lowercases_and_drops_emptied_words():
    assert normalize_words(["Hello,", "WORLD", "...", "it's"]) == [
        "hello",
        "world",
        "its",
    ]


@given(st.lists(st.text(max_size=8), max_size=10))
@settings(max_examples=100)
def test_normalize_idempotent(words):
    once = normalize_words(words)
    assert normalize_words(once) == once


def test_zero_probability_config_is_pure_normalization():
    words = ["First,", "SECOND", "third!"]
    cfg = PipelineConfig(replace_prob=0.0, filler_prob=0.0)
    assert corrupt_document(words, cfg) == normalize_words(words)


def test_same_seed_same_output():
    cfg = PipelineConfig(replace_prob=0.3, filler_prob=0.2)
    words = ["one", "two", "three", "four", "five"] * 4
    tok = ByteTokenizer()
    table = PronunciationTable.empty()
    assert corrupt_document(words, cfg, 42, table, tok) == corrupt_document(
        words, cfg, 42, table, tok
    )


def test_different_seed_usually_differs():
    words = ["one", "two", "three", "four", "five"] * 10
    tok = ByteTokenizer()
    table = PronunciationTable.empty()
    cfg = PipelineConfig(replace_prob=0.5)
    a = corrupt_document(words, cfg, 1, table, tok)
    b = corrupt_document(words, cfg, 2, table, tok)
    assert a != b


def test_replacement_requires_tokenizer():
    cfg = PipelineConfig(replace_prob=0.5)
    with pytest.raises(ValueError, match="tokenizer"):
        corrupt_document(["word"], cfg, 0, PronunciationTable.empty(), None)


def test_homophone_substitution_uses_table():
    table = PronunciationTable.from_groups([("there", "their")])
    cfg = PipelineConfig(replace_prob=1.0, homophone_share=1.0, filler_prob=0.0)
    out = corrupt_document(["there"], cfg, 0, table, ByteTokenizer())
    assert out == ["their"]


def test_homophone_miss_falls_through_to_random():
    # No table entry for the word: the replacement must still happen.
    cfg = PipelineConfig(replace_prob=1.0, homophone_share=1.0, filler_prob=0.0)
    ctr = CorruptionCounters()
    out = corrupt_document(
        ["zqx"], cfg, 0, PronunciationTable.empty(), ByteTokenizer(), counters=ctr
    )
    assert len(out) == 1 and out[0] != "zqx"
    assert ctr.replaced == 1
    assert ctr.random_replacements == 1
    assert ctr.homophone_replacements == 0


class LetterTokenizer:
    """One token per lowercase letter; decode/encode round trips exactly."""

    vocab_size = 26
    special_ids = frozenset()

    def encode(self, text):
        return [ord(c) - 97 for c in text]

    def decode(self, ids):
        return "".join(chr(97 + i) for i in ids)


def test_random_replacement_preserves_token_count():
    tok = LetterTokenizer()
    cfg = PipelineConfig(replace_prob=1.0, homophone_share=0.0, filler_prob=0.0)
    out = corrupt_document(["abcd"], cfg, 5, PronunciationTable.empty(), tok)
    assert len(tok.encode(out[0])) == len(tok.encode("abcd"))


def test_fillers_come_from_lexicon_and_extend_length():
    cfg = PipelineConfig(replace_prob=0.0, filler_prob=1.0)
    out = corrupt_document(["a", "b"], cfg)
    assert len(out) == 4 and out[1::2] == ["a", "b"]
    assert set(out[0::2]) <= set(FILLER_LEXICON)


def test_counters_accumulate():
    cfg = PipelineConfig(replace_prob=1.0, homophone_share=0.0, filler_prob=1.0)
    ctr = CorruptionCounters()
    corrupt_document(
        ["x", "y", "z"], cfg, 0, PronunciationTable.empty(), ByteTokenizer(), counters=ctr
    )
    assert ctr.words_in == 3
    assert ctr.replaced == 3
    assert ctr.fillers == 3


def test_derive_seed_is_stable_and_id_sensitive():
    assert derive_seed(7, "doc-1") == derive_seed(7, "doc-1")
    assert derive_seed(7, "doc-1") != derive_seed(7, "doc-2")
    assert derive_seed(7, "doc-1") != derive_seed(8, "doc-1")


# ---------------------------------------------------------------------------
# pronunciation table


CMU_SNIPPET = """\
;;; comment line
READ  R EH1 D
RED  R EH1 D
READ(2)  R IY1 D
REED  R IY1 D
BLUE  B L UW1
BLEW  B L UW1
LONELY  L OW1 N L IY0
"""


def test_cmu_parse_groups_by_pronunciation(tmp_path):
    path = tmp_path / "dict.txt"
    path.write_text(CMU_SNIPPET, encoding="latin-1")
    table = PronunciationTable.from_cmu_file(str(path))
    assert table.homophones("red") == ("read",)
    assert set(table.homophones("read")) == {"red", "reed"}
    assert table.homophones("blue") == ("blew",)
    assert table.homophones("lonely") == ()
    assert table.homophones("missing") == ()


def test_from_groups_symmetric():
    table = PronunciationTable.from_groups([("to", "too", "two")])
    assert set(table.homophones("too")) == {"to", "two"}
    assert set(table.homophones("two")) == {"to", "too"}
