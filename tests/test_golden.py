"""Golden digests of replicate CSVs: every diagnostic x scheme pair.

A short grid (population 32, dimensionality 10, 200 generations, every
generation recorded, base seed 1, one replicate per pair) runs through
the same entry point as ``evodiags run``, and the SHA-256 of each CSV
must equal the pinned value. A refactor that keeps these bytes keeps
every random stream, every metric and the CSV format; a change that
moves a digest changes a stream and must say so.

The grid runs twice, the second time counting the novelty archive in
the metrics. Only novelty keeps an archive, so the other schemes must
write the same bytes in both grids, and novelty has its own digests.

To print fresh digests after a deliberate stream change:
``PYTHONPATH=src:tests python tests/test_golden.py``.
"""

import hashlib
from pathlib import Path

import pytest

from evodiags.cli import ExperimentConfig, all_diagnostic_names, all_scheme_names, run_experiment

GRID = dict(replicates=1, base_seed=1, pop_size=32, generations=200, dim=10,
            stride=1, workers=1)

DIGESTS = {
    "contradictory-objectives-valleys__lexicase__rep0.csv":
        "da47eba387eaa811a0f5e61d9d66ba43fb22eee0c406099cd0b0948b8d759623",
    "contradictory-objectives-valleys__novelty__rep0.csv":
        "86046691b1345bfca3c91397b79387ffa8bfbe15dd89151dfedc311877ebd664",
    "contradictory-objectives-valleys__nsga__rep0.csv":
        "3b8743214689b74d75b1393701b9487cc981114b46ce0889ecbeabd2a28186e4",
    "contradictory-objectives-valleys__random__rep0.csv":
        "caa3e875518e40f71099537a1bdf6c178e01fa485bf2093080d2445b91f58d78",
    "contradictory-objectives-valleys__sharing-genotypic__rep0.csv":
        "1d7aa09e483f32b4f28eeb12f2d1075d5b4386bbfd12384151a8b3c1df8736cf",
    "contradictory-objectives-valleys__sharing-phenotypic__rep0.csv":
        "ec87a5cf1b7237e4f6f96e87280c15b8565084af1ef0d3bd13085fc388dfc4a7",
    "contradictory-objectives-valleys__tournament__rep0.csv":
        "5c9caec07e4c2735e16dbea6c5a23a8873c3c6defd80eaf4c5db9d4f1ce96a27",
    "contradictory-objectives-valleys__truncation__rep0.csv":
        "8a4752113fffd5eed1e5f293b968877358f320f62cb0f77ecbb04ae2ea661acf",
    "contradictory-objectives__lexicase__rep0.csv":
        "22f1c372ffbbd112a90914c9fcab2ac1aee5c8199a729c9d5473b0f3668d6496",
    "contradictory-objectives__novelty__rep0.csv":
        "2139dee667f1edd3c7f3b65b8b64637bf4fa9ad34b0123ec673210870fdd8b23",
    "contradictory-objectives__nsga__rep0.csv":
        "7a8cd629efc67f9c4d46e4ef4b3e8f32662085e374190c2e78edfc928746534b",
    "contradictory-objectives__random__rep0.csv":
        "c1e725c4ffb6d76127b2f63eb88a2624d623ad38a548939b3dcaa14e0bd2b43f",
    "contradictory-objectives__sharing-genotypic__rep0.csv":
        "d472a065d7a1ff644d31f887e720587a414c0a9d84b199b1c89e4dbcaf611c92",
    "contradictory-objectives__sharing-phenotypic__rep0.csv":
        "189fd13955213e8cb5a70d689960cc4ad84457d32fce17753b27d7e6244c2c62",
    "contradictory-objectives__tournament__rep0.csv":
        "9873e9eb46679067afe46b92914ba060efbf07115db7b0ed12407e3069cdb2f5",
    "contradictory-objectives__truncation__rep0.csv":
        "fa95723241dd2ff299290105ec285bfbdf300b1ff43f93cb758089a1a2a0d53d",
    "exploitation-rate__lexicase__rep0.csv":
        "aa47edac446cdda3b7eb5f3fd01d2c88c8d2cd66b04956278aa117726bf9476e",
    "exploitation-rate__novelty__rep0.csv":
        "5a2d95869da6d6a3bc58ab8d2c923aba764081ab28101a7989a717e2093c5cfc",
    "exploitation-rate__nsga__rep0.csv":
        "70fab82e72088dbf1fa2065c21a1e5eaf63e62dd03545f238c204a6d628bc9f7",
    "exploitation-rate__random__rep0.csv":
        "2d6435fd2526d5073df73b2f1bca281ba7fd289b08d770f5853b596e59c58247",
    "exploitation-rate__sharing-genotypic__rep0.csv":
        "afc048d6b27fe4db7b2077115cf1967387c868397ffbbbb640166eb6ddd816ed",
    "exploitation-rate__sharing-phenotypic__rep0.csv":
        "d211016a6695a6e503b20d6c4740ff7808d8d3e8a1c100abb85e9c5c64edfd5e",
    "exploitation-rate__tournament__rep0.csv":
        "12037cc4204336abc8e838e6e13877618d240a19c445a38c6a0f7f2103a0c38f",
    "exploitation-rate__truncation__rep0.csv":
        "39fa69a2dc7c06d973a78ae4e944db916aadb80f5bc75a27580a93da44f4f9db",
    "multipath-exploration__lexicase__rep0.csv":
        "a21b1a3f75ca36a8d08d6a4f9d124017caa42729cfc8043ce9261be7508929bc",
    "multipath-exploration__novelty__rep0.csv":
        "b8a2da47f8852117c2b80203be5489113e3e18cf22a064d6b45e1182495ef6e7",
    "multipath-exploration__nsga__rep0.csv":
        "11bf03a7bb9dc7a945d12d5dff6791eb4e99dc087e246e97bf08814b0a287641",
    "multipath-exploration__random__rep0.csv":
        "f86be7c68d882925f666c9d76e7a356ffa1c958247aeaaf72dfb04f2ec521d4e",
    "multipath-exploration__sharing-genotypic__rep0.csv":
        "e6329eccdba5bb05720b5d9cbcc2f52f7ab0849d3679f53de478431385a9b7c8",
    "multipath-exploration__sharing-phenotypic__rep0.csv":
        "8d97a1fcb05131c9ebfdfb8ab1af533a3955c3b2a35d3ac91dc923a73872ac7c",
    "multipath-exploration__tournament__rep0.csv":
        "05137adef6d28a6fd5c3463e22e9ef29d2be4e1c0754adedbb1bdaaa7812aff8",
    "multipath-exploration__truncation__rep0.csv":
        "858acfbc06a2d1684b68113a5eaa150c1830985b2357a205d125366860d462cc",
    "multipath-valleys__lexicase__rep0.csv":
        "45a9efbce5e8e25dfd0a5e95bc588c1f119bf8ceff81b18a956c04f587625f1b",
    "multipath-valleys__novelty__rep0.csv":
        "c7936c7142822c19440ef660b0dd25b21316d79972f3efc6e131e0a9b8035995",
    "multipath-valleys__nsga__rep0.csv":
        "5b40edd5e4dbc7986e70f0608c0a789f6a05cede6a3be6b7e4b1d39cbe1e960c",
    "multipath-valleys__random__rep0.csv":
        "2af226cd9dc16b6d8805bae84b18857ff529705f2f5c83de13541c25d2f1ee5f",
    "multipath-valleys__sharing-genotypic__rep0.csv":
        "c2dc6566269fea82752413ea7d7b4cae655f52aed1aee99a2e04b87e436ec8b8",
    "multipath-valleys__sharing-phenotypic__rep0.csv":
        "21fc7295cdac53f36e4f2ed401595bab58861beda797a3d738829b40cb1632bc",
    "multipath-valleys__tournament__rep0.csv":
        "9803055b581e0a2a1c0fd9896789552ebee9e0a1800b14df1a03764be8c2f2d9",
    "multipath-valleys__truncation__rep0.csv":
        "a9df1ff055ee7bf42de78616601b53147ee70137a184aeb9aa7c9445d61c6f0e",
    "ordered-exploitation-valleys__lexicase__rep0.csv":
        "a2b00c35717fe885baf0c130dee56a8ff60ec489c19d7e289528d71ea02c82c0",
    "ordered-exploitation-valleys__novelty__rep0.csv":
        "f5588caefe6751e2e6bf5faed3241e9049ba4c8c065c6704540ffc45386d0308",
    "ordered-exploitation-valleys__nsga__rep0.csv":
        "6c09d77d14f4da3330edbca91fc8f80b491fad6cc97e7a807048321ba0968003",
    "ordered-exploitation-valleys__random__rep0.csv":
        "4406571b6ce997d1d25a598adeb3d7b12692189fccfd9dfa0dffa424b58e1cd1",
    "ordered-exploitation-valleys__sharing-genotypic__rep0.csv":
        "fb39e410d53b980937cf5bbf6e5799ed2e52ccce70204d929fd1ef36fba591ad",
    "ordered-exploitation-valleys__sharing-phenotypic__rep0.csv":
        "08ec3120d1bcbe43331ad5b6db3608d0df2afa659bd833ad56a3d594fe5232a1",
    "ordered-exploitation-valleys__tournament__rep0.csv":
        "0947888f0b8f9f8b26e981320478b910c7a8f533869f310d04714ee3b9b9530e",
    "ordered-exploitation-valleys__truncation__rep0.csv":
        "cd4c554d73abec989aea1d36614d1ed7107213936c24141257314f54e6b967d3",
    "ordered-exploitation__lexicase__rep0.csv":
        "149d47ff6194d85be2efbd780a2d91478b1e9defa4e866ad9821cf45eaa5f434",
    "ordered-exploitation__novelty__rep0.csv":
        "6422af78bac639b2d72cf42da4e74a54e940bf18d1334356a7acce128d9ff5a7",
    "ordered-exploitation__nsga__rep0.csv":
        "4da66d3e371730cdb90392ded7225beaa91b1cd58e37cb3104e627f200be59a5",
    "ordered-exploitation__random__rep0.csv":
        "ebd73cc4798e38d00aeacefb727cfc5e432d27e80d6ee8ca414ef5fc674f3bc9",
    "ordered-exploitation__sharing-genotypic__rep0.csv":
        "13e85cb3c8ebc8af248304324a211b7296a784f3550207c9d6730d35b119238c",
    "ordered-exploitation__sharing-phenotypic__rep0.csv":
        "ce40b39417adf735cf1a0e3df65bb980a9175df17eb1c4689131bc10b676322d",
    "ordered-exploitation__tournament__rep0.csv":
        "4eac08f2f81770b99ebe2bed224d804be3d557e02a41dfc7507d1a68387fa33f",
    "ordered-exploitation__truncation__rep0.csv":
        "88b9e07e180de614cb49dbb1052e3c604f861f15e4a3c379c2b7b9a5af8bbbff",
    "valley-crossing__lexicase__rep0.csv":
        "279a756ab342b1c7328921a92707021e4265c37a227e3e225df0e93796064ee6",
    "valley-crossing__novelty__rep0.csv":
        "813653d0d534b23b0bb89fcca46d0585a08e17259d23495279de91219e93f6b8",
    "valley-crossing__nsga__rep0.csv":
        "c330ef0042af55d9158e077dc235a931970ddeb8fd01201500bec7374a3c168b",
    "valley-crossing__random__rep0.csv":
        "353cffa72159e88fc58ab599f7b75604059d682eb811cb350e39dfdd648d5cda",
    "valley-crossing__sharing-genotypic__rep0.csv":
        "ba0c3a95f78daf492805683901d85bce5b6c9749c384286d0834aecd06e5affb",
    "valley-crossing__sharing-phenotypic__rep0.csv":
        "da909a93969b8ef499f678ca3dfd2651c045523e5767f2dd83f10e930ba45b66",
    "valley-crossing__tournament__rep0.csv":
        "b449019b48c47fa21a5059d89bd1347abc27c3a0b2a36d155df10d187dfc14c8",
    "valley-crossing__truncation__rep0.csv":
        "5d346530e969a73e2c8060e22d2ed685d39dffc7299e39387f383672bfd4b7a6",
}

ARCHIVE_DIGESTS = {
    "contradictory-objectives-valleys__novelty__rep0.csv":
        "450fe2bf3bbda78b688587a783ed3269211d659d1b136be505d37cdf397d2993",
    "contradictory-objectives__novelty__rep0.csv":
        "863f9ac26afe06fdcdfc11e6b604254da9a88c7262da1c0e2a5973471fc008e2",
    "exploitation-rate__novelty__rep0.csv":
        "5a2d95869da6d6a3bc58ab8d2c923aba764081ab28101a7989a717e2093c5cfc",
    "multipath-exploration__novelty__rep0.csv":
        "ce8ab4fc0841e9059bcb0c42a5eba7b7045f49cc7f3e1bb1867ab79b911698b0",
    "multipath-valleys__novelty__rep0.csv":
        "57916c40b7cc730ed8f2598509ee185c1583753be785001e8fef2b548e31c6ae",
    "ordered-exploitation-valleys__novelty__rep0.csv":
        "f5588caefe6751e2e6bf5faed3241e9049ba4c8c065c6704540ffc45386d0308",
    "ordered-exploitation__novelty__rep0.csv":
        "6422af78bac639b2d72cf42da4e74a54e940bf18d1334356a7acce128d9ff5a7",
    "valley-crossing__novelty__rep0.csv":
        "813653d0d534b23b0bb89fcca46d0585a08e17259d23495279de91219e93f6b8",
}


def grid_digests(out: Path, include_archive: bool) -> dict[str, str]:
    config = ExperimentConfig(
        diagnostics=all_diagnostic_names(), schemes=all_scheme_names(),
        output_dir=str(out), include_archive=include_archive, **GRID)
    assert run_experiment(config) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.glob("*.csv"))}


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    return grid_digests(tmp_path_factory.mktemp("plain"), include_archive=False)


@pytest.fixture(scope="module")
def archived(tmp_path_factory):
    return grid_digests(tmp_path_factory.mktemp("archived"), include_archive=True)


def test_every_pair_writes_its_pinned_bytes(plain):
    assert len(DIGESTS) == 64
    assert plain == DIGESTS


def test_archive_counts_only_for_novelty(plain, archived):
    assert archived.keys() == plain.keys()
    novelty = {name: digest for name, digest in archived.items()
               if "__novelty__" in name}
    assert novelty == ARCHIVE_DIGESTS
    assert len(novelty) == 8
    for name, digest in archived.items():
        if name not in novelty:
            assert digest == plain[name], name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for label, flag in (("DIGESTS", False), ("ARCHIVE_DIGESTS", True)):
            digests = grid_digests(Path(tmp) / label, flag)
            print(f"{label} = {{")
            for name, digest in digests.items():
                if not flag or "__novelty__" in name:
                    print(f'    "{name}":\n        "{digest}",')
            print("}\n")
