"""Golden CLI outputs: the sha256 of what `bcp` prints for fixed generated
instances, `time-ms:` lines removed.  A refactor must leave every digest
unchanged; a deliberate output change updates the digest and says why."""

import hashlib

import pytest

from bcp.cli import run_cli
from bcp.instances import generate, write_instance

# (case id, family, n, weight range, seed, arguments after the instance,
#  sha256 of stdout, sha256 of the dumped model or None)
CASES = [
    ("solve-spider", "spider", 61, (1, 1), 0,
     ["solve", "--k", "3"],
     "2e0c2e62b75156326973b9d961ab6ed69248744d8d09e73cb1b3de4c35dde407", None),
    ("solve-tree", "random-tree", 40, (1, 9), 2,
     ["solve", "--k", "4"],
     "2b9883610a7d86beb9948f6f7b9fea88f19d8d9aca7ab6323d30bb8e54664097", None),
    ("solve-grid", "grid", 36, (1, 5), 3,
     ["solve", "--k", "5"],
     "298699173e27ffd7302d46796c685b79b45b15c6a1c3f3aae81d126c1700eadb", None),
    ("solve-star", "star", 30, (1, 20), 4,
     ["solve", "--k", "3"],
     "b10ad127f0eabe5273c1bad6382abd528d10b670f0823a0e22635476b65a397a", None),
    ("solve-tree-plus-edges", "tree-plus-edges", 50, (1, 9), 5,
     ["solve", "--k", "6"],
     "1bd11d03852b34ef06f5e544826014d3dd73184ff8641da69ea2a6e453c9d74f", None),
    ("solve-spider-weighted", "spider", 200, (1, 3), 6,
     ["solve", "--k", "7"],
     "28b42b95ac0ad9831202ed271e3ffd9f9861986ddb9941eb4096e1ed870820a0", None),
    ("solve-eps-tree", "random-tree", 40, (1, 50), 7,
     ["solve", "--k", "3", "--epsilon", "1/4"],
     "9847f44cb43674c867b6fc99fd787d4c73c8aeb7737c7722c2027dedf1c15f33", None),
    ("solve-eps-star", "star", 25, (1, 9), 8,
     ["solve", "--k", "4", "--epsilon", "1/2"],
     "b9e75145ed5baa50ec55b53c08ff083c4bc605ff5bd6c60f1a5c42c428f5594e", None),
    ("exact-minmax", "tree-plus-edges", 10, (1, 9), 9,
     ["exact", "--objective", "minmax", "--k", "3"],
     "57f354fcfd9e27eaf167c767950e34b8e15e8c2c5d8cfb59752f5496dfb27ea8", None),
    ("exact-maxmin", "grid", 9, (1, 5), 10,
     ["exact", "--objective", "maxmin", "--k", "3"],
     "aaaa814533410f8fd328bb3844b2059dc6e8a7228637009f4f2c5854f8a91c9c", None),
    ("exact-minmax-tree", "random-tree", 11, (1, 9), 11,
     ["exact", "--objective", "minmax", "--k", "4"],
     "7665b307bab6bdd1d5ca9563bbe6762673dd4954f2e2276d2a2911455905ac4b", None),
    ("fpt-tree-plus-edges", "tree-plus-edges", 12, (1, 1), 12,
     ["fpt-maxmin", "--k", "3", "--dump-model", "model.txt"],
     "e7d35b11c89113902684db5e4ba22846aede2632c70e14c09e2a68df26b70a3d",
     "cec62badd74f7b60b37fd23c57c53bd4fa41e90b752774ef26f76aefd1735c6f"),
    # Both grids reach n // k on a split of their DFS tree: no node is
    # searched and the cut pool is empty.
    ("fpt-grid", "grid", 15, (1, 1), 13,
     ["fpt-maxmin", "--k", "3", "--dump-model", "model.txt"],
     "14ea15d5a24a865f4be483735d0338b02afbabef9d2b85c16d39a888f361bf07",
     "10871cdf8bc5831bfe2c1bf219a9466d2f948fe9531023ba99effa204ab0df3e"),
    # A given cover and no dumped model: no `model dumped to` line.
    ("fpt-grid-cover", "grid", 12, (1, 1), 14,
     ["fpt-maxmin", "--k", "3", "--cover", "0,2,5,7,8,10"],
     "b6771fac3d2bfc74413fd48a96a50f14eb6d89f275e38eabc7daf561e59cfddc", None),
    # Value 7 below the cap of 8: the search visits 13,920 nodes and pools
    # 467 cuts.
    ("fpt-tree-search", "random-tree", 24, (1, 1), 1,
     ["fpt-maxmin", "--k", "3", "--dump-model", "model.txt"],
     "b765ffdfb5a645629a4fbb8bf1aeb0d201f7b46c49b01d2e310395c093eed855",
     "02edc67c16f1fd3455da21fb6f021814c9ed194457baa95ac317f6e94a1dca72"),
    # k above the cover size: the same split of G's DFS tree cuts its last
    # k - 1 preorder vertices off as singletons, value one vertex's weight.
    ("fpt-star-above-cover", "star", 9, (1, 1), 15,
     ["fpt-maxmin", "--k", "4", "--dump-model", "model.txt"],
     "050a3ee2d2c3b6c9383c287145fc8ad21948029f8870dd49d67228caef613a98",
     "eab3f6800f5d70a5836b993880a2769e89db19771c7d1258a554016994ad617d"),
    ("fpt-spider-above-cover", "spider", 13, (2, 2), 16,
     ["fpt-maxmin", "--k", "8", "--dump-model", "model.txt"],
     "4ad417944578d599b3eba9f35c59d3d8cd133f5be4ff1c40f97ada255564de2a",
     "ff5434309fba4c2be4e4f7c5f009a5b7f20c852f4ef2fd129cede5797014014d"),
    # Ends with certificate SingletonTop.
    ("solve-spider-singleton-top", "spider", 6, (1, 9), 3,
     ["solve", "--k", "3"],
     "ea359659d3a58d47b4d988db52a730f5f728918d6e8ffa44331961e94a7e7255", None),
    # A star center u with ell = k - 1 components: {u} alone is a class,
    # and the certificate is StarOptimal with the average bound; the value
    # 3 is above the optimum 2, as u's class is not the heaviest.
    ("solve-tree-star-core-alone", "random-tree", 11, (1, 1), 2,
     ["solve", "--k", "6"],
     "210d6ec6f73d02def810d33c11d836643bf0687a909e41cb5ade4c0b06c5ae33", None),
    # The same star at k = ell + 3: {u} and the components, then two
    # singletons split off.
    ("solve-tree-star-fan", "random-tree", 11, (1, 1), 2,
     ["solve", "--k", "8"],
     "a67d85e0dec599bd6160d363754e56f9e0853e1448297eeb461638fe1eb86a80", None),
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "family, n, weights, seed, args, out_digest, dump_digest",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_cli_output_digest(
    tmp_path, monkeypatch, capsys, family, n, weights, seed, args, out_digest, dump_digest
):
    # Relative file names, so the printed paths are the same everywhere.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.bcp").write_text(write_instance(generate(family, n, weights, seed)))
    assert run_cli([args[0], "g.bcp", *args[1:]]) == 0
    out = capsys.readouterr().out
    kept = "".join(
        line for line in out.splitlines(keepends=True) if not line.startswith("time-ms:")
    )
    dump = tmp_path / "model.txt"
    assert sha256(kept) == out_digest
    assert (sha256(dump.read_text()) if dump.exists() else None) == dump_digest
