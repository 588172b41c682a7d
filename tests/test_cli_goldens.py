"""Byte-identity of every engine-backed subcommand's outputs.

Each config below runs through `cli.main`; the sha256 digests of its
series.csv and summary.json were recorded before the engines drew their
steps from raw Philox words (drift-free to bernstein-free: before the
engines became one step kernel per model with observers), so a change to
the draw or the kernel that moves any seeded number fails here.  The five
*-farey goldens of backtrack, z-sum, bernstein, midpoint and diagonal were
recorded from the change that first ran those subcommands on SL(2,Z), with
its Farey Gromov products; they pin that code, not an older one.  The four
translation-decay summary digests were re-recorded when the exact Farey
translation length replaced the horizon estimate: their summaries lost the
`non_stabilized` diagnostic and are otherwise equal, and their series
digests are the original ones.  The package version is masked in
summary.json, so a version bump alone does not break the pins.

`SUITE_GOLDENS` pin `props` and `calibrate` on both models the same way.
They were recorded while the instance samplers still drew one RNG value
per letter or generator step, before those draws were batched; the two
`props` seeds are ones where a suite fails, so the pins also hold the
failure counts and the exit code 4.
"""

import hashlib
import json

import pytest

from hypwalk import __version__, cli

FREE_UNIFORM = [["a", 0.25], ["A", 0.25], ["b", 0.25], ["B", 0.25]]
# three words: the index draw needs Lemire's threshold (3 is not a power of two)
FREE_THREE = [["a", 0.5], ["b", 0.3], ["AB", 0.2]]
FREE_MULTI = [["ab", 0.2], ["BA", 0.2], ["a", 0.15], ["A", 0.15],
              ["bab", 0.1], ["BAB", 0.1], ["b", 0.05], ["B", 0.05]]
FAREY_UNIFORM = [["[[1,1],[0,1]]", 0.25], ["[[1,0],[1,1]]", 0.25],
                 ["[[1,-1],[0,1]]", 0.25], ["[[1,0],[-1,1]]", 0.25]]
FAREY_FIVE = [["[[1,1],[0,1]]", 0.3], ["[[1,0],[1,1]]", 0.2], ["[[1,-1],[0,1]]", 0.2],
              ["[[1,0],[-1,1]]", 0.2], ["[[2,1],[1,1]]", 0.1]]

# (id, subcommand, config without output_path, series digest, summary digest)
GOLDENS = [
    ("lp-free", "linear-progress",
     {"model": "free", "distribution": FREE_UNIFORM, "seed": 11, "samples": 3000,
      "L": 0.25, "n_grid": [10, 20, 40, 60]},
     "de413a95b85cdf4cbac8483efb6354bd6ab0aef857b7466a8879a7b094221f6c",
     "f1acab301ad15651271afcc1a264ee8ba54f899ec1eda0fd70c8920305896b13"),
    ("lp-free-multi", "linear-progress",
     {"model": "free", "distribution": FREE_MULTI, "seed": 12, "samples": 2000,
      "L": 0.5, "n_grid": [5, 15, 25]},
     "d1923e8c77f0bd9bed35199b22ad4fcdc3a715bffe3b3e68ad340e4ed2e6e250",
     "84407454876d778adbd799adaef9e2242194c4660d392a391c496b18c8b252d5"),
    ("lp-farey", "linear-progress",
     {"model": "farey", "distribution": FAREY_UNIFORM, "seed": 13, "samples": 1500,
      "L": 0.05, "n_grid": [10, 20, 30]},
     "1bcb893f6fcfaa3ebd9c2aa23ed65f2f078b891b84d646e4b08d0de57d4c6c5e",
     "21eb133d04e6afc84d1cfac32a9623a8b8798ea3000ffac8554b64ae80a7c198"),
    ("shadow-free", "shadow-decay",
     {"model": "free", "distribution": FREE_THREE, "seed": 14, "samples": 2500,
      "n_grid": [10, 20], "center_distance": 8, "r_grid": [1.0, 2.0, 3.0, 4.0, 5.0]},
     "4c95c22c963b8e328a8bee1c025d9565806a5f3d9eb5d8dcd50901d0ba382bde",
     "8724bce4ddacf0aa58d978c5248bde007dfd66df51e19bc9e6107284dddd07dc"),
    ("shadow-farey", "shadow-decay",
     {"model": "farey", "distribution": FAREY_FIVE, "seed": 15, "samples": 1200,
      "n_grid": [10, 20], "center_distance": 6, "r_grid": [1.0, 2.0, 3.0, 4.0]},
     "b88e7be8216de84bd26274c9b721e97759a336d4696612c0b30abc7c7b58fc23",
     "9b8cc6f23fbcbf89b81144bc29b3120ea49e0d05a3d7a032d3df6e1ec804db22"),
    ("diagonal-free", "diagonal",
     {"model": "free", "distribution": FREE_THREE, "seed": 16, "samples": 2500,
      "n": 30, "r_grid": [1.0, 2.0, 3.0, 4.0, 5.0]},
     "238bc8d1941b2ef701f2a55030a6fa9e7802a50e40df1f754ef68c4258b38fea",
     "bc20883ee8d9ad8b8da16fd820938ba80f3e977b4256491d97f5c2c495651f5e"),
    ("z-sum-free", "z-sum",
     {"model": "free", "distribution": FREE_MULTI, "seed": 17, "samples": 2000,
      "k": 3, "L_factor": 2.0, "n_grid": [2, 4, 6, 8]},
     "63418d59eaf88e14ee2e1b03b014278a57a2f0633340a581b67362f58157191f",
     "e259a627874a4ed8442bb127e261570a1a86d4bbfb559fe70382966b34d3f0e9"),
    ("tdecay-b0-free", "translation-decay",
     {"model": "free", "distribution": FREE_UNIFORM, "seed": 18, "samples": 2500,
      "B": 0.0, "n_grid": [2, 4, 6, 8]},
     "a94e1071ef61f1b71726f89bb0b1ee2e3a02bcb715c70f8338a15f809601240a",
     "47286d6327bbb215ac8f65d3b29e44fdae8a24b22c2cdbc6a58cdcfdcb602292"),
    ("tdecay-b2-free", "translation-decay",
     {"model": "free", "distribution": FREE_UNIFORM, "seed": 19, "samples": 2500,
      "B": 2.0, "n_grid": [4, 8, 12]},
     "5ad05c5e1c2f100a6de0ac3908dfa445fb1d46e5f4c80af333711fcc2baa8a5c",
     "b4d4d6328c4877d5be0754aaede30630d0c51fbb796def3b93abc9110e830099"),
    ("tdecay-b0-farey", "translation-decay",
     {"model": "farey", "distribution": FAREY_FIVE, "seed": 20, "samples": 2000,
      "B": 0.0, "n_grid": [5, 10, 15, 20]},
     "eb8ff360cab2e1a191c4e690c6797ebebe6e19cf28a4498e5137d3376adaef36",
     "7d9e12d85816a34a29eb99b05f1ac64506ab50c9bef399e53b58033db5db20cb"),
    ("tdecay-b1-farey", "translation-decay",
     {"model": "farey", "distribution": FAREY_UNIFORM, "seed": 21, "samples": 150,
      "B": 1.0, "n_grid": [3, 6, 9]},
     "6e854cb19e5e813f8dae5ef5a20bfc4b9d6582b733af6e0df99ce5c6b3269f61",
     "39cd71cb3ed9962423db3d14ab6907936382c5b64e74e2fb4030c7f34f4f186a"),
    # recorded before the engines became one step kernel per model with observers
    ("drift-free", "drift",
     {"model": "free", "distribution": FREE_MULTI, "seed": 22, "samples": 2000, "n": 40},
     "957e369f41947febae1d8f7853d6e5facc6ce8a85318a9dad71afa5a47e9fbf9",
     "3729122707b20d2b521f87b57e47739069f5a177d877dc1cccd6cd6f084ea533"),
    ("drift-farey", "drift",
     {"model": "farey", "distribution": FAREY_FIVE, "seed": 23, "samples": 800, "n": 25},
     "ec8622d7c4c5dba28c6e557521d9095eb3c9e161888b95cf571de42aee4f3d56",
     "177d93be1edc2c0ea901142ee42dd32183ef2a2a86fe5f117710ceb95017f250"),
    ("backtrack-free", "backtrack",
     {"model": "free", "distribution": FREE_THREE, "seed": 24, "samples": 1500,
      "k": 4, "n": 40},
     "e3e5eaccecdcfaec64ef10cfe39d8674e8bb01e6636fb2180e3cf1ae45fcde92",
     "11f41ed275db6659f4b2f609e0e56e0f1022e5f4697e7646f83b3cb82fa7c629"),
    ("bernstein-free", "bernstein",
     {"model": "free", "distribution": FREE_UNIFORM, "seed": 25, "samples": 2000,
      "k": 5, "epsilon_factor": 0.3, "n_grid": [2, 4, 6, 8]},
     "3bba403fd6ea001aa510a16b54a52f33eb05a8056da41844ff8dee0c87b87c53",
     "478413510993a5e159e6228ab01458417aaff8b33536af2f763100c193767230"),
    # recorded from the first code that ran these subcommands on SL(2,Z)
    ("backtrack-farey", "backtrack",
     {"model": "farey", "distribution": FAREY_FIVE, "seed": 26, "samples": 1200,
      "k": 4, "n": 40},
     "bd5bdc75c09effaa16be67bfbea5a6b58aac59cccc4c3c9f4d562cbc660d6965",
     "7968f452c024d249874ccfab84999507702117ef3b57bb87a0a659c69ae96af2"),
    ("z-sum-farey", "z-sum",
     {"model": "farey", "distribution": FAREY_UNIFORM, "seed": 27, "samples": 1200,
      "k": 3, "L_factor": 2.0, "n_grid": [2, 4, 6, 8]},
     "416042a50ab449d5718273e461d4895c41308877559645d3c2d535db9442229a",
     "1b5da76354c98dabb623fcfda7fc736ac526a2fbb86694b2a4b455ba3cc65313"),
    ("bernstein-farey", "bernstein",
     {"model": "farey", "distribution": FAREY_FIVE, "seed": 28, "samples": 1200,
      "k": 5, "epsilon_factor": 0.3, "n_grid": [2, 4, 6, 8]},
     "15f961954cdbe1c1f67bd3534ed1d131583e4216bb2f4fe20dbd1a908f4d324f",
     "0f23c89fdec53aa3ccc6da3110e7c0efa649c91a25bb414577aa67920d227282"),
    ("midpoint-farey", "midpoint",
     {"model": "farey", "distribution": FAREY_UNIFORM, "seed": 29, "samples": 1500,
      "n_grid": [4, 8, 16]},
     "2221f7446d9952fbc5d6de4e5f75667093ff44c800746902a0e6a5c5fd37a97e",
     "3b29abba03a55aa3954ca154c561464533fd676a1679618cb1ca091f20ac36fb"),
    ("diagonal-farey", "diagonal",
     {"model": "farey", "distribution": FAREY_FIVE, "seed": 30, "samples": 1500,
      "n": 20, "r_grid": [1.0, 2.0, 3.0, 4.0]},
     "6a3b7b22263069cf97900531371d008c9330d878055269a492329b747d5d6995",
     "fe58ea868b94396b72770533d5b126823a5b61c137b1e5573e8e90ef2fe44cf1"),
]


# (id, subcommand, config without output_path, exit code, series digest,
# summary digest); props and calibrate read only the model from the law
SUITE_GOLDENS = [
    ("props-free", "props",
     {"model": "free", "distribution": FREE_UNIFORM, "seed": 12345678901234567,
      "samples": 200}, 4,
     "453e2655a328a64d0631ed25dbef734bec587e21cdf49644f45506bfeb7c4b22",
     "d163e2b7333a3bb8acd0a78e674f7fddea34f76f94c1a7a1de7d28fffbb45516"),
    ("props-farey", "props",
     {"model": "farey", "distribution": FAREY_UNIFORM, "seed": 34, "samples": 200}, 4,
     "e21a36cdddc053b074cb0c585cbeeee6826822f172240061712377735da2f63b",
     "b7672785af24d4d064d3d10fe4c7f5cf154a02164e8a3579e819370843c832eb"),
    ("calibrate-free", "calibrate",
     {"model": "free", "distribution": FREE_UNIFORM, "seed": 33, "samples": 200}, 0,
     "b7b547cedb9b880fd4db9e00b749dcbf1c4dfd5ddf25811897df3bc719c0edd2",
     "97e62ce4465fb421d86c3e3a0bf0b5640307219d1a399173037d12cd5b450a6c"),
    ("calibrate-farey", "calibrate",
     {"model": "farey", "distribution": FAREY_UNIFORM, "seed": 35, "samples": 200}, 0,
     "7d85bb1bfacf64eff9a90688e318b9be76c880207973651854c37759b25b1f3c",
     "706ee8379ec5a3d8ef2b60a46943a8c1df3e09c0d2c3538e2d607158e31b3acb"),
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_config(subcommand: str, config: dict, exit_code: int = 0) -> tuple[str, str]:
    """(series digest, summary digest) of one CLI run in the working
    directory; the relative output_path keeps the config digest fixed."""
    with open("cfg.json", "w") as fh:
        json.dump(dict(config, output_path="out"), fh)
    assert cli.main([subcommand, "--config", "cfg.json"]) == exit_code
    with open("out/series.csv") as fh:
        series = fh.read()
    with open("out/summary.json") as fh:
        summary = fh.read()
    version = f'"version": {json.dumps(__version__)}'
    assert version in summary
    return _digest(series), _digest(summary.replace(version, '"version": "VERSION"'))


@pytest.mark.parametrize("name,subcommand,config,series,summary", GOLDENS,
                         ids=[g[0] for g in GOLDENS])
def test_cli_output_unchanged(name, subcommand, config, series, summary, tmp_path,
                              monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_config(subcommand, config) == (series, summary)


@pytest.mark.parametrize("name,subcommand,config,exit_code,series,summary", SUITE_GOLDENS,
                         ids=[g[0] for g in SUITE_GOLDENS])
def test_suite_cli_output_unchanged(name, subcommand, config, exit_code, series, summary,
                                    tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_config(subcommand, config, exit_code) == (series, summary)
