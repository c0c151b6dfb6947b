"""Property test over the config tables: a non-numeric value for any
numeric key of any section is refused with a message naming that key
and section.  Needs hypothesis (the ``test`` extra); skipped without it."""
import string

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fastpart.config import ConfigError, parse_config  # noqa: E402
from test_config import NUMERIC_KEYS, _config, _with_value  # noqa: E402


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(NUMERIC_KEYS),
       value=st.text(alphabet=string.ascii_letters, min_size=1))
def test_non_numeric_value_names_its_key_and_section(tmp_path, case, value):
    kind, section, key = case
    assume(value != "oracle" or key != "tv_star")
    path = _with_value(_config(tmp_path, kind), tmp_path / "bad.cfg", section, key, value)
    with pytest.raises(ConfigError) as exc:
        parse_config(path)
    assert f"'{key}' in [{section}]" in str(exc.value)
