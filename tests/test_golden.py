"""Pinned bytes of the files that `spikeradar synth` and `encode ttfs` write.

The synthetic generator, its top-k denoising and the TTFS encoder use
exactly rounded arithmetic only, so these files are the same on every
platform, and a rewrite of any of them must leave them byte for byte as
they are. run_record.json is left out: it holds timestamps and paths.
"""

import hashlib

from spikeradar.cli import main

GOLDEN = {
    "maps/ex00000.bin": "19e2b43d8876430f93720e8008a43ad251f97eecb0ccb0c3f65db4882c3d808f",
    "maps/ex00001.bin": "0ec58e0b9731cbef01c5d93de60fe7f541690d44f2a126da8ecc55429192534c",
    "maps/ex00002.bin": "7d73b6fe21d32db76c52de5a61733c959988cd638492acaa9294bb4a11fd5ad9",
    "maps/ex00003.bin": "25d6fc8efb18f3f39e691dc0f8aa9a1e828cdec298f0a3b3bbe7c95930b36091",
    "maps/ex00004.bin": "fb2f7ad4bf8a55c3ce5c82eeb8b4d07a59b853730c75402a91e051b2bcc3a62e",
    "maps/ex00005.bin": "0993d2f10e7365d6fafff1545c2c394fc996015e950ef428251927e55b0a78fe",
    "maps/manifest.json": "650447fc0d56ade30fca7b95c70db4b3419f021cef5e1c2bcf8b9bb7ad87ca78",
    "spikes/ex00000.bin": "24aa3971f873e3edba12b95f5dc56645562e1c0df54bfe9bbd3c625761b8b38e",
    "spikes/ex00001.bin": "da82a43f7ffb5b6ffbeb7b0be1fca81c4b43d8f1eb80f5e29a3b77928a43cd46",
    "spikes/ex00002.bin": "0aeec9386c5550a21c0e65fd8575ddc83ee3a739f8ad0a7d875e945b13221937",
    "spikes/ex00003.bin": "621afb08147600e20c2af9c718eeb40285b0797066a7effe28a40aa6e369898c",
    "spikes/ex00004.bin": "078af24285bd8e89d229553679a224cf165878f5e985021917cd84881f912c8a",
    "spikes/ex00005.bin": "4b19240e06c934757879bcf1e25a03a6885d1a0ad53c96e8be8059fe4f7da827",
    "spikes/manifest.json": "81950dad46c97e93e2e56aa1bcdf0f281cf94e0468a87ff83df77da18200f9ef",
}


def test_synth_and_ttfs_files_match_their_golden_digests(tmp_path, capsys):
    assert main(["synth", "--classes", "3", "--per-class", "2", "--seed", "11",
                 "--out", str(tmp_path / "maps")]) == 0
    assert main(["encode", "ttfs", "--input", str(tmp_path / "maps"),
                 "--tinf", "4", "--out", str(tmp_path / "spikes")]) == 0
    capsys.readouterr()
    written = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    got = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in written if p.name != "run_record.json"}
    assert got == GOLDEN
    assert len(written) == len(GOLDEN) + 2  # and one run record per command
