"""Byte pins of the JSON codec: scenario texts and stored record payloads.

Store keys hash a scenario's canonical JSON and the store keeps the codec's
output verbatim, so a codec change that reorders fields or turns an int into
a float would silently re-key (or re-write) every store entry.
``codec_bytes.json`` holds, as captured before the codec was rebuilt around
per-type plans:

* ``scenarios``: the canonical (``sort_keys``) ``to_dict()`` text of every
  registered scenario at its default arguments;
* ``payloads``: one stored payload each of a model record, a multi-cluster
  simulation record and a zoo simulation record, exactly as
  :meth:`repro.store.ResultStore.put` wrote them.

A deliberate layout change re-captures the fixture in the same commit and
bumps ``STORE_SCHEMA`` (or the package version) so old stores read as misses.
"""

import json
from pathlib import Path

import pytest

from repro import api
from repro.store import ResultStore

FIXTURE = json.loads(Path(__file__).with_name("codec_bytes.json").read_text())


@pytest.mark.parametrize("name", sorted(FIXTURE["scenarios"]))
def test_registered_scenario_encodes_to_the_pinned_text(name):
    text = FIXTURE["scenarios"][name]
    assert json.dumps(api.scenario(name).to_dict(), sort_keys=True) == text


@pytest.mark.parametrize("name", sorted(FIXTURE["scenarios"]))
def test_pinned_scenario_text_round_trips(name):
    text = FIXTURE["scenarios"][name]
    rebuilt = api.Scenario.from_dict(json.loads(text))
    assert rebuilt == api.scenario(name)
    assert json.dumps(rebuilt.to_dict(), sort_keys=True) == text


@pytest.mark.parametrize("backend", ["sqlite"])
@pytest.mark.parametrize("label", sorted(FIXTURE["payloads"]))
def test_stored_payload_decodes_and_re_encodes_byte_for_byte(label, backend, tmp_path):
    text = FIXTURE["payloads"][label]
    key = json.loads(text)["key"]
    source = ResultStore(tmp_path / "source", backend=backend)
    source.backend.write_text(key, text)
    record = source.get(key)
    assert record is not None and record.engine in ("model", "sim")
    copy = ResultStore(tmp_path / "copy", backend=backend)
    copy.put(key, record)
    assert copy.backend.read_text(key) == text
