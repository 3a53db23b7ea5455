"""Property test: no one-key mutation of a bundled config crashes the program."""

import configparser
import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from se5nav.cli import EXIT_CONFIG, EXIT_OK, main
from se5nav.observer import DivergenceError
from se5nav.scenario import (
    _MAX_RUN_BYTES,
    _TRUTH_FLOATS_PER_STEP,
    bundled_config_path,
    parse_scenario,
    run_scenario,
)

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


def _horizon_keys():
    """(config, section, key) of the keys that set the step count and the
    channel strides: duration and dt, and a rate added to any channel."""
    out = []
    for path in (STEREO, GPS):
        ini = configparser.ConfigParser()
        ini.read(path)
        out += [(path, "observer", "duration"), (path, "observer", "dt")]
        out += [(path, section, "rate") for section in ini.sections() if section.startswith("channel.")]
    return out


FUZZ_VALUES = ["nan", "inf", "-1", "0", "1e300", "1e-300", "1, 2", "abc", ""]
# values that validate on one side of the step and stride bounds: 3000 s
# fits on stereo.cfg's dt and not on gps.cfg's, 1e-7 s steps fit on
# neither, and a 100 Hz channel fits a short run where a 0.01 Hz one fits
# neither config's duration
HORIZON_VALUES = {"duration": ["3000"], "dt": ["1e-7", "2e-4"], "rate": ["100", "0.01"]}


@st.composite
def mutated_configs(draw):
    """Text of a bundled config with one key set to a hostile value, or with
    a misspelt copy of one key added; and whether the key was misspelt."""
    keys = st.one_of(st.sampled_from(_bundled_keys()), st.sampled_from(_horizon_keys()))
    path, section, key = draw(keys)
    ini = configparser.ConfigParser()
    ini.read(path)
    misspelt = draw(st.booleans())
    if misspelt:
        i = draw(st.integers(0, len(key) - 1))
        typo = key[:i] + key[i + 1:] if len(key) > 1 else key + key
        ini[section][typo] = "5"
    else:
        ini[section][key] = draw(st.sampled_from(FUZZ_VALUES + HORIZON_VALUES.get(key, [])))
    return ini, misspelt


class TestConfigFuzz:
    """Any one-key mutation of a bundled config either fails validation with
    exit 2 or runs a short horizon raising nothing but DivergenceError. The
    configured horizon is checked by validation only: a config that
    validates holds its truth within the memory bound."""

    @settings(derandomize=True, deadline=None, max_examples=300)
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
            assert 8 * _TRUTH_FLOATS_PER_STEP * cfg.duration / cfg.observer.dt <= _MAX_RUN_BYTES
            cfg = dataclasses.replace(cfg, duration=min(cfg.duration, max(10 * cfg.observer.dt, 0.02)))
            try:
                run_scenario(cfg)
            except DivergenceError:
                pass
