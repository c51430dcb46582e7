from topicsteer import fixtures
from topicsteer.fixtures import build

SHIPPED = {path.name: path for path in (fixtures.toy_model_path(), fixtures.topic_model_path(), fixtures.corpus_path())}


def test_builder_reproduces_the_shipped_fixtures(tmp_path, capsys):
    # A change to the stemmer, expand_word or the builder must not alter the committed files unnoticed.
    assert build.main(["--out-dir", str(tmp_path)]) == 0
    for name, shipped in SHIPPED.items():
        assert (tmp_path / name).read_bytes() == shipped.read_bytes(), name
    assert capsys.readouterr().out.splitlines() == [
        "vocabulary: 226 tokens; articles: 25",
        "greedy steered means by shift: {0.0: 0.11111111111111112, 2.0: 0.336, 5.0: 0.6715555555555555}",
        "beam(4) steered mean at shift 5: 0.7498",
        "unsteered-topic mean at shift 5: 0.0000",
    ]
