"""The built-in games are pinned by the bytes of their spec files.

Every fixture and the property tests' random specs are built from formulas
by one builder; the acceptance gate's figures rest on those exact tables.
The hashes are of ``write_spec``'s output, which writes every table with 17
significant digits, so any change to a table's values or shape shows.
"""

import hashlib

import pytest

from confgame import fixtures, gameio

FIXTURE_SHA256 = {
    "t1": "a3c73c6b0d84de1c67d91e2ac677d78cb8663c8f8a159aa76def882d14a832e0",
    "t1-noiseless": "1a29f7296fd5747e65d43f41fe11b74cc7e7c5236be375e8a932be3147447442",
    "t1-zero": "d3a21893fc98b9fed23c371c05825b1e9eeac22526cf3798946c7a2bfea426c7",
    "t2": "78a47f3b29b04ca5fe212de51d250affae55a9382b5b19abfa41a3ebc1897eec",
    "t2-h1": "2c200002b85e8f33c331dfd9b1264c98282b3979d04a0cb6611526bca9bba51f",
    "t2-h3": "f30c47d9cb6c44e36129d5cfa642928d65e233eec27be4b88cb8806f69de629e",
    "negative-control": "9e8f1a4882c784bf118ec4ea9be228780ba111ee56e2e6efe6f7dceaf662e8a0",
}
# random_valid_spec(seed, n_states)
RANDOM_SHA256 = {
    (0, 1): "549ae3c81df05e96463bb062999186dcd038fee66bd251027445743fbf5feb86",
    (1, 2): "90923a28f5a8396f6fda388208bb205bc19c895b26c79212aca669b61cbe3184",
    (2, 3): "3c7078fecfaad4a3c161011756b9d1ee9964c8c3a9d5a8ad46d058a0222a3408",
    (7, 1): "a5bc4be878fc0f559572c58b9f06b4014e11147dc35b84ade8eee24325d9c8f0",
    (13, 2): "3ed77d1a4439fde500c0865ea36212c0a7f0bb7c780c5b3d01a2b61cf3942eaf",
    (42, 3): "6bfd8750f3a3b45b4c13e1e145046ee9668cd8d590d014b5b6ab30ae8bc52aa4",
}


def _sha256(spec, tmp_path) -> str:
    path = tmp_path / "spec"
    gameio.write_spec(spec, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_fixture_is_pinned():
    assert FIXTURE_SHA256.keys() == fixtures.FIXTURES.keys()


@pytest.mark.parametrize("name", FIXTURE_SHA256)
def test_fixture_spec_bytes(tmp_path, name):
    assert _sha256(fixtures.get_fixture(name), tmp_path) == FIXTURE_SHA256[name]


@pytest.mark.parametrize("seed, n_states", RANDOM_SHA256)
def test_random_valid_spec_bytes(tmp_path, seed, n_states):
    assert _sha256(fixtures.random_valid_spec(seed, n_states), tmp_path) == RANDOM_SHA256[(seed, n_states)]
