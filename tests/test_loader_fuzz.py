"""Every artifact loader under byte-level corruption: a truncated, overwritten
or bit-flipped file either raises LoadError or loads to an object with
finite values that saves and loads back equal."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slimnav import pathoracle, slimnet, worldsim
from slimnav.errors import LoadError


def _world(path):
    grid = worldsim.generate_world((16, 16, 8), resolution=0.5, density=0.1, seed=3)
    worldsim.save_world(grid, path, config_hash="cafe0123")


def _paths(path):
    pathoracle.save_paths([[(1, 2, 3), (2, 2, 3), (3, 3, 3)], [(5, 5, 5)]], path)


def _dataset(path):
    rng = np.random.default_rng(4)
    ds = pathoracle.LabeledDataset(fifo_vectors=rng.normal(size=(3, 2 * worldsim.OBS_WIDTH)),
                                   targets=rng.normal(size=(3, 3)), depth=2)
    pathoracle.save_dataset(ds, path, config_hash="deadbeef")


def _weights(path):
    spec = slimnet.MLPSpec(u=6, q=(8, 5), v=2, output_activation="bounded",
                           output_low=(0.0, -1.0), output_high=(1.0, 1.0))
    slimnet.save_weights(slimnet.SlimmableMLP(spec, seed=5), path, config_hash="beef")


def _world_key(loaded):
    grid, found = loaded
    assert math.isfinite(grid.resolution) and math.isfinite(grid.density)
    return (grid.dims, grid.resolution, grid.seed, grid.density,
            grid.occupancy.tobytes(), found)


def _dataset_key(loaded):
    ds, found = loaded
    assert np.isfinite(ds.fifo_vectors).all() and np.isfinite(ds.targets).all()
    return (ds.fifo_vectors.shape, ds.fifo_vectors.tobytes(), ds.targets.tobytes(),
            ds.depth, ds.p_f, ds.p_d, found)


def _weights_key(loaded):
    net, found = loaded
    assert np.isfinite(net.params).all()
    return net.spec, net.seed, net.params.tobytes(), found


def _save_with_hash(save):
    return lambda loaded, path: save(loaded[0], path, config_hash=loaded[1])


# name -> (write an artifact, its loader, save what the loader returned, a
# comparable key of a loaded artifact, lines before the payload)
ARTIFACTS = {
    "world": (_world, worldsim.load_world, _save_with_hash(worldsim.save_world),
              _world_key, 2),
    "paths": (_paths, pathoracle.load_paths, pathoracle.save_paths, lambda p: p, 0),
    "dataset": (_dataset, pathoracle.load_dataset,
                _save_with_hash(pathoracle.save_dataset), _dataset_key, 1),
    "weights": (_weights, slimnet.load_weights, _save_with_hash(slimnet.save_weights),
                _weights_key, 2),
}

FLOAT32_VALUES = [np.nan, np.frombuffer(bytes.fromhex("0100807f"), dtype="<f4")[0],  # sNaN
                  np.inf, -np.inf, 3.4e38, 1e-45, -0.0]


@st.composite
def mutation(draw, size, payload):
    kind = draw(st.sampled_from(["truncate", "overwrite", "flip", "float"]))
    if kind == "truncate":
        return kind, draw(st.integers(0, size - 1)), b""
    lo = draw(st.sampled_from([0, payload]))
    if kind == "float":
        # a whole float32 record value, aligned within the payload
        slot = draw(st.integers(0, (size - payload) // 4 - 1))
        value = draw(st.sampled_from(FLOAT32_VALUES))
        return kind, payload + 4 * slot, np.array([value], dtype="<f4").tobytes()
    pos = draw(st.integers(lo, size - 1))
    if kind == "flip":
        return kind, pos, bytes([1 << draw(st.integers(0, 7))])
    return kind, pos, draw(st.binary(min_size=1, max_size=min(4, size - pos)))


def _apply(blob: bytes, mutations) -> bytes:
    out = bytearray(blob)
    for kind, pos, data in mutations:
        if pos >= len(out):         # an earlier truncation removed the spot
            continue
        if kind == "truncate":
            del out[pos:]
        elif kind == "flip":
            out[pos] ^= data[0]
        else:
            out[pos:pos + len(data)] = data[:len(out) - pos]
    return bytes(out)


@pytest.mark.filterwarnings("error")        # a loader may not warn, e.g. on a signaling NaN
@pytest.mark.parametrize("name", sorted(ARTIFACTS))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_loader_rejects_or_round_trips_corrupt_bytes(name, data, tmp_path):
    write, load, save, key, payload_lines = ARTIFACTS[name]
    src = tmp_path / "artifact"
    write(src)
    blob = src.read_bytes()
    payload = sum(len(ln) for ln in blob.splitlines(keepends=True)[:payload_lines])
    muts = data.draw(st.lists(mutation(len(blob), payload), min_size=1, max_size=3))
    bad = tmp_path / "corrupt"
    bad.write_bytes(_apply(blob, muts))
    try:
        loaded = load(bad)
    except LoadError:
        return
    again = tmp_path / "again"
    save(loaded, again)
    assert key(load(again)) == key(loaded)
