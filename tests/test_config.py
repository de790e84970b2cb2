import pytest

from cdlp.config import canonical_config_text, load_canonical_model, parse_config
from cdlp.errors import ConfigError, DimensionError

from support import render_config

MINIMAL = "[net]\nchannels=1\nheight=4\nwidth=4\n\n[connected]\noutputs=2\nactivation=linear"


def test_minimal_config():
    model = parse_config(MINIMAL)
    assert len(model.layers) == 1
    assert model.layers[0].kind == "connected"
    assert model.layers[0].outputs == 2
    assert model.input_dims == (1, 4, 4)


def test_canonical_config_has_eleven_layers():
    model = load_canonical_model()
    assert len(model.layers) == 11
    assert canonical_config_text().count("[") == 12  # [net] plus 11 layer sections
    assert model.geometry[10].out_dims == (10,)


def test_non_numeric_value_names_the_line():
    text = "[net]\nchannels=1\nheight=4\nwidth=4\n[connected]\noutputs=abc\nactivation=linear"
    with pytest.raises(ConfigError, match="line 6") as err:
        parse_config(text)
    assert err.value.line == 6


def test_unknown_section():
    with pytest.raises(ConfigError, match=r"unknown section \[dense\]"):
        parse_config("[net]\nchannels=1\nheight=1\nwidth=1\n[dense]\noutputs=2")


def test_missing_required_key():
    with pytest.raises(ConfigError, match="missing required key 'activation'"):
        parse_config("[net]\nchannels=1\nheight=1\nwidth=1\n[connected]\noutputs=2")


def test_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'groups'"):
        parse_config(MINIMAL + "\ngroups=2")


def test_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config(MINIMAL + "\noutputs=3")


def test_net_must_come_first():
    with pytest.raises(ConfigError, match=r"\[net\]"):
        parse_config("[connected]\noutputs=2\nactivation=linear")


def test_comments_and_whitespace():
    text = "# header\n[net]\nchannels = 1  # one\nheight=4\nwidth=4\n\n[softmax]\n"
    model = parse_config(text)
    assert model.layers[0].kind == "softmax"


def test_non_ascii_rejected():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("[net]\nchannels=1 \nheight=1\nwidth=1\n[softmax]")


def test_branch_section():
    text = (
        "[net]\nchannels=1\nheight=2\nwidth=2\n"
        "[connected]\noutputs=8\nactivation=relu\n"
        "[branch]\nbranches=2\n"
        "[connected]\noutputs=4\nactivation=linear\n"
    )
    model = parse_config(text)
    assert model.branch is not None
    assert model.branch.branch_layer_index == 1
    assert model.branch.branch_count == 2


def test_branch_without_following_layer():
    with pytest.raises(ConfigError, match="followed by at least one layer"):
        parse_config(MINIMAL + "\n[branch]\nbranches=2")


def test_branch_count_one_rejected():
    text = MINIMAL.replace("[connected]", "[branch]\nbranches=1\n[connected]")
    with pytest.raises(ConfigError, match="branches must be >= 2"):
        parse_config(text)


def test_geometry_errors_surface_as_dimension_errors():
    text = "[net]\nchannels=1\nheight=5\nwidth=5\n[maxpool]\nsize=2\nstride=2"
    with pytest.raises(DimensionError):
        parse_config(text)


def test_config_without_layers():
    with pytest.raises(ConfigError, match="no layers"):
        parse_config("[net]\nchannels=1\nheight=1\nwidth=1")


def test_render_round_trip_canonical():
    model = load_canonical_model()
    assert parse_config(render_config(model)) == model


def test_render_round_trip_branched():
    text = (
        "[net]\nchannels=2\nheight=4\nwidth=4\n"
        "[convolutional]\nfilters=2\nkernel_size=3\nstride=1\npadding=1\nactivation=relu\n"
        "[connected]\noutputs=8\nactivation=relu\n"
        "[branch]\nbranches=4\n"
        "[connected]\noutputs=8\nactivation=linear\n"
    )
    model = parse_config(text)
    again = parse_config(render_config(model))
    assert again == model
    assert parse_config(render_config(again)) == again


NET = "[net]\nchannels=1\nheight=4\nwidth=4\n"


@pytest.mark.parametrize(
    "text, message, line",
    [
        (NET.replace("\n", "\u2028", 1), "non-ASCII line separator", None),
        (NET + "[connected\noutputs=2", "malformed section header '[connected'", 5),
        (NET + "[softmax]\nsoftmax", "expected key=value, got 'softmax'", 6),
        ("channels=1\n" + NET, "key=value before any section", 1),
        (NET + "[softmax]\n" + NET, "duplicate [net] section", 6),
        (MINIMAL.replace("[connected]", "[branch]\nbranches=2\n[branch]\nbranches=2\n[connected]"),
         "duplicate [branch] section", 8),
        (NET + "[connected]\noutputs=1_6\nactivation=relu",
         "non-numeric value '1_6' for 'outputs'", 6),
    ],
    ids=["line-separator", "header", "no-equals", "before-section", "second-net", "second-branch",
         "digit-separator"],
)
def test_each_config_error_names_its_line(text, message, line):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")
