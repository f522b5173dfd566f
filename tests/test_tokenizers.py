import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidtext.tokenizers import (
    ByteBpeTokenizer,
    ByteTokenizer,
    load_tokenizer,
    tokenize_words,
)


def test_byte_tokenizer_round_trip():
    tok = ByteTokenizer()
    for text in ("hello", "café", "", "a b"):
        assert tok.decode(tok.encode(text)) == text


def test_byte_tokenizer_vocab_and_specials():
    tok = ByteTokenizer()
    assert tok.vocab_size == 257
    assert tok.special_ids == frozenset({256})


@given(st.text(max_size=20))
@settings(max_examples=100)
def test_byte_tokenizer_round_trips_arbitrary_text(text):
    tok = ByteTokenizer()
    assert tok.decode(tok.encode(text)) == text


def test_bpe_applies_merges_in_rank_order(tiny_tokenizer_dir):
    tok = load_tokenizer(str(tiny_tokenizer_dir))
    assert isinstance(tok, ByteBpeTokenizer)
    # "the" merges t+h first (rank 0), then th+e (rank 2): one token.
    ids = tok.encode("the")
    assert len(ids) == 1
    assert tok.decode(ids) == "the"


def test_bpe_unmerged_text_falls_back_to_chars(tiny_tokenizer_dir):
    tok = load_tokenizer(str(tiny_tokenizer_dir))
    ids = tok.encode("dog")
    assert len(ids) == 3
    assert tok.decode(ids) == "dog"


def test_bpe_longer_word_mixes_merged_and_single(tiny_tokenizer_dir):
    tok = load_tokenizer(str(tiny_tokenizer_dir))
    ids = tok.encode("thin")
    # th (merge), i+n -> in (merge).
    assert len(ids) == 2
    assert tok.decode(ids) == "thin"


def test_load_tokenizer_none_gives_byte_fallback():
    assert isinstance(load_tokenizer(None), ByteTokenizer)


def test_load_tokenizer_missing_files(tmp_path):
    with pytest.raises(FileNotFoundError, match="vocab.json"):
        load_tokenizer(str(tmp_path))


@pytest.mark.parametrize(
    "vocab,merges,where,message",
    [
        ('{"a": 0, "b": -1}', "", "vocab", "id of 'b' must be a non-negative integer, got -1"),
        ('{"a": "x"}', "", "vocab", "id of 'a' must be a non-negative integer, got 'x'"),
        ('{"a": true}', "", "vocab", "id of 'a' must be a non-negative integer, got True"),
        ('["a"]', "", "vocab", "vocabulary must be an object of token ids, got ['a']"),
        ("{}", "", "vocab", "vocabulary holds no token"),
        ('{"a": 0}', "#version: 1\na b c\n", "merges", "line 2: expected 2 tokens, got 'a b c'"),
    ],
)
def test_a_bad_tokenizer_file_is_named_when_it_loads(tmp_path, vocab, merges, where, message):
    (tmp_path / "vocab.json").write_text(vocab, encoding="utf-8")
    (tmp_path / "merges.txt").write_text(merges, encoding="utf-8")
    path = tmp_path / ("vocab.json" if where == "vocab" else "merges.txt")
    sep = ": " if where == "vocab" else " "
    with pytest.raises(ValueError) as info:
        load_tokenizer(tmp_path)
    assert str(info.value) == f"{path}{sep}{message}"


def test_a_negative_token_id_is_fatal_not_a_data_error(capsys, tmp_path, data_dir):
    from vidtext.cli import main

    (tmp_path / "vocab.json").write_text('{"b": -1}', encoding="utf-8")
    (tmp_path / "merges.txt").write_text("", encoding="utf-8")
    argv = ["segment", "--tokenizer", str(tmp_path), "--input", str(data_dir / "golden_input.jsonl")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path / 'vocab.json'}: id of 'b' must be a non-negative integer, got -1\n"


def test_tokenize_words_tokens_inherit_word_spans():
    tok = ByteTokenizer()
    ids, word_index, starts, ends = tokenize_words([["hi", "there"], [0.0, 0.6], [0.5, 1.2]], tok)
    assert ids == list(b"hithere")
    assert word_index == [0] * 2 + [1] * 5
    assert starts == [0.0] * 2 + [0.6] * 5
    assert ends == [0.5] * 2 + [1.2] * 5


def test_tokenize_words_skips_empty_words():
    tok = ByteTokenizer()
    tokens = tokenize_words([["", "ok"], [0.0, 0.2], [0.1, 0.4]], tok)
    # Word indices still refer to the original list positions.
    assert tokens == [list(b"ok"), [1, 1], [0.2, 0.2], [0.4, 0.4]]
