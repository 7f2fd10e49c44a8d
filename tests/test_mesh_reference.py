"""Mesh builders against meshes recorded before the quadric chart was
rewritten.

``data/mesh_reference.json`` holds, for the centred meshes of
``test_meshverify``'s ``test_other_signatures`` setup over m = 2..5, every
a and c in {-1, 0, 1}, and for the default affine and link meshes, the
SHA-256 of the little-endian bytes of the mesh's vertices, params and
faces; for a mesh that does not build, the name of the error it raises.  A centred mesh is its family's chart evaluated on lifted rows, so
a change of chart must leave every vertex where it was.  The digests were
recorded with numpy 2.4 on x86-64 and must be met bit for bit.

Re-record (only when a mesh is meant to change) with
``PYTHONPATH=src python tests/test_mesh_reference.py``.
"""

import json
import os
from functools import partial

import pytest

from conftest import digest_le
from slevolve import NumericalError, ValidationError, affine, centred
from slevolve.meshverify import mesh_affine, mesh_centred, mesh_link

REFERENCE = os.path.join(os.path.dirname(__file__), "data",
                         "mesh_reference.json")


def _centred(m, a, c):
    if a == m:
        params = centred.CentredParams(m, a, (1.0,) * m, 0.2, c=c)
        span = 0.4
    else:
        alphas, _ = centred.normalize_lambda([1.0 + 0.1 * j
                                              for j in range(m)], a)
        params = centred.CentredParams(m, a, alphas, 0.3, c=c)
        span = 1.0
    return mesh_centred(params, c, (0.0, span), resolution=(5, 9))


MESHES = {f"centred({m},{a},{c:g})": partial(_centred, m, a, c)
          for m in range(2, 6) for a in range(1, m + 1)
          for c in (-1.0, 0.0, 1.0)}
MESHES["affine"] = lambda: mesh_affine(affine.AffineParams(
    4, 2, centred.symmetric_alphas(3, 2), 0.4), (0.0, 2.0))
MESHES["link"] = lambda: mesh_link((1.2, 2.0, 3.0), 0.4)


def _digests(build):
    """Digests of the mesh's vertices, params and faces; the error's name
    where the builder refuses the parameters or its path fails."""
    try:
        mesh = build()
    except (ValidationError, NumericalError) as exc:
        return type(exc).__name__
    return {name: digest_le(getattr(mesh, name))
            for name in ("vertices", "params", "faces")}


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def test_reference_covers_every_mesh(reference):
    assert sorted(reference) == sorted(MESHES)


@pytest.mark.parametrize("key", sorted(MESHES))
def test_mesh_bitwise(key, reference):
    assert _digests(MESHES[key]) == reference[key]


if __name__ == "__main__":
    with open(REFERENCE, "w") as fh:
        json.dump({key: _digests(build) for key, build in MESHES.items()},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
