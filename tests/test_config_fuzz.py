"""Property test: no one-key mutation of a bundled config crashes the program."""

import configparser
import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from se5nav.cli import EXIT_CONFIG, EXIT_OK, main
from se5nav.observer import DivergenceError
from se5nav.scenario import bundled_config_path, parse_scenario, run_scenario

STEREO = bundled_config_path("stereo")
GPS = bundled_config_path("gps")


def _bundled_keys():
    """(config, section, key) of every key in the bundled configs."""
    out = []
    for path in (STEREO, GPS):
        ini = configparser.ConfigParser()
        ini.read(path)
        out += [(path, section, key) for section in ini.sections() for key in ini.options(section)]
    return out


FUZZ_VALUES = ["nan", "inf", "-1", "0", "1e300", "1e-300", "1, 2", "abc", ""]


@st.composite
def mutated_configs(draw):
    """Text of a bundled config with one key set to a hostile value, or with
    a misspelt copy of one key added; and whether the key was misspelt."""
    path, section, key = draw(st.sampled_from(_bundled_keys()))
    ini = configparser.ConfigParser()
    ini.read(path)
    misspelt = draw(st.booleans())
    if misspelt:
        i = draw(st.integers(0, len(key) - 1))
        typo = key[:i] + key[i + 1:] if len(key) > 1 else key + key
        ini[section][typo] = "5"
    else:
        ini[section][key] = draw(st.sampled_from(FUZZ_VALUES))
    return ini, misspelt


class TestConfigFuzz:
    """Any one-key mutation of a bundled config either fails validation with
    exit 2 or runs a short horizon raising nothing but DivergenceError."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(mutated_configs())
    def test_validate_or_run(self, tmp_path_factory, case):
        ini, misspelt = case
        path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
        with open(path, "w") as fh:
            ini.write(fh)
        code = main(["validate", str(path)])
        assert code in (EXIT_OK, EXIT_CONFIG)
        if misspelt:
            assert code == EXIT_CONFIG
        if code == EXIT_OK:
            cfg = parse_scenario(path)
            cfg = dataclasses.replace(cfg, duration=10 * cfg.observer.dt)
            try:
                run_scenario(cfg)
            except DivergenceError:
                pass
