"""Byte-identity of every engine-backed subcommand's outputs.

Each config below runs through `cli.main`, and the sha256 digests of its
series.csv and summary.json are pinned, so a change to the draw or the
kernel that moves any seeded number fails here.  All 20 were re-recorded
once, together, when the engines moved from one Philox stream per sample to
one per block of samples, read step-major with one word per step (the
declared change of the stream layout; see README, "Determinism").  Before
that, the pins had held across the move to raw Philox words, to one step
kernel per model with observers, to Farey Gromov products (the five
*-farey pair-product goldens were first recorded there) and to the exact
Farey translation length (which dropped the translation-decay summaries'
`non_stabilized` diagnostic).  The package version is masked in
summary.json, so a version bump alone does not break the pins.

The 18 whose series.csv holds a Clopper-Pearson interval were re-recorded
once more, together, when the interval quantiles moved from scipy to the
standard library (README, "Determinism"): only their `ci_low` and `ci_high`
columns moved, by at most 6.3e-16 relative, and every summary.json kept its
bytes.  The two drift pins did not move: their normal quantile came out the
same.

`SUITE_GOLDENS` pin `props` and `calibrate` on both models the same way.
They were re-recorded once, together, when props and calibrate moved onto
keyed Philox words (`walk.StreamDraws`; see README, "Determinism").  The two
`props` seeds are the first at or after the previous pins' seeds where a
suite fails on those words, so the pins also hold the failure counts and the
exit code 4.  When nested separation began rejecting a vacuous inner shadow
right after drawing `gap` and `r`, the props stream advanced less per
rejected trial and the suites after it drew other instances: props-farey was
re-recorded (basepoint_change 3 -> 1 failures at seed 41, still exit 4);
props-free kept its bytes (2 failures at its seed before and after), and so
did both calibrate pins.
"""

import hashlib
import json

import pytest

from hypwalk import __version__, cli

FREE_UNIFORM = [["a", 0.25], ["A", 0.25], ["b", 0.25], ["B", 0.25]]
# three words with unequal weights: the alias draw needs its keep test
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
     "4a9011cdc034b24339b7169f1db572c35442cc6892612e684db5c41c8d3db95f",
     "4a718f16ba97039d2b71b22f60975e7c09f2bedcc9b876a0d4b7fe210ee3c959"),
    ("lp-free-multi", "linear-progress",
     {"model": "free", "distribution": FREE_MULTI, "seed": 12, "samples": 2000,
      "L": 0.5, "n_grid": [5, 15, 25]},
     "2ae8ebb35bb78e6475ff03fcf37900a4da21071b34236fffe5aebdf8a6bbe851",
     "8b1eb667dbdb240502a723002b972b3456a7edb17bdd6f8abab125e5871c47e1"),
    ("lp-farey", "linear-progress",
     {"model": "farey", "distribution": FAREY_UNIFORM, "seed": 13, "samples": 1500,
      "L": 0.05, "n_grid": [10, 20, 30]},
     "96fa5f18e55573b0c80a4e6e0f51d4f7d96e1e8fc098fc9b69a7ecd424cc817f",
     "63958c1e6d7a13d417fec6ee3c25f5cf92770de242a8eaba12c93b7ab4472206"),
    ("shadow-free", "shadow-decay",
     {"model": "free", "distribution": FREE_THREE, "seed": 14, "samples": 2500,
      "n_grid": [10, 20], "center_distance": 8, "r_grid": [1.0, 2.0, 3.0, 4.0, 5.0]},
     "1b2741982cfdcc63de0d26531221c0fe5f4ae894e9bce9a363be06df3f33a587",
     "1c3726c146582951b7b6db658483ea646f1ddbcb066e23e8a37c32940ce1eacc"),
    ("shadow-farey", "shadow-decay",
     {"model": "farey", "distribution": FAREY_FIVE, "seed": 15, "samples": 1200,
      "n_grid": [10, 20], "center_distance": 6, "r_grid": [1.0, 2.0, 3.0, 4.0]},
     "3f4a438c0c20d2c28ab4d431bc3f2c9df1b408b2f92afa0f682e1fbf9f043f62",
     "310c1f654332dd21d8fe0fe3a043220cb8c7d1adf785b6d5ff76aaf208b95cb1"),
    ("diagonal-free", "diagonal",
     {"model": "free", "distribution": FREE_THREE, "seed": 16, "samples": 2500,
      "n": 30, "r_grid": [1.0, 2.0, 3.0, 4.0, 5.0]},
     "af0842cb0bd17a7e12c2bedcea920c9be89eefb5bca98c7d98eb430d7ee75b38",
     "f23e3daba5764e1cc93cca101293eb0fc32940007c70b801c8da51c0b0dd727a"),
    ("z-sum-free", "z-sum",
     {"model": "free", "distribution": FREE_MULTI, "seed": 17, "samples": 2000,
      "k": 3, "L_factor": 2.0, "n_grid": [2, 4, 6, 8]},
     "39b64f9febc96d44d5e9c160fa6b2026aded7b71eefb34eb22896dc59cc9f347",
     "e82de4c1877e3cd1d32ebd803650847a8c68dc45d6b46a981ee216dfa87ef81a"),
    ("tdecay-b0-free", "translation-decay",
     {"model": "free", "distribution": FREE_UNIFORM, "seed": 18, "samples": 2500,
      "B": 0.0, "n_grid": [2, 4, 6, 8]},
     "bc1dc2b49f27588e3f7a73e4b1073f61d326fbc54a19d38ce9f8736084f53bc1",
     "1290015813f0b15864bff8a72b7a2edd0a11c278879b28b4252cf5e861024f4e"),
    ("tdecay-b2-free", "translation-decay",
     {"model": "free", "distribution": FREE_UNIFORM, "seed": 19, "samples": 2500,
      "B": 2.0, "n_grid": [4, 8, 12]},
     "3e51d366901074d095d267d80cb87be215d8a29c6a3f7993c34553ae57fe2fbd",
     "98b50a39ea1d959dc6a5825075f2adb00fea222e93ad21e150bc5b1bd3a52f6d"),
    ("tdecay-b0-farey", "translation-decay",
     {"model": "farey", "distribution": FAREY_FIVE, "seed": 20, "samples": 2000,
      "B": 0.0, "n_grid": [5, 10, 15, 20]},
     "64d54238af1fea1a8fa5a4bea544f92f2db661402e8ea95ec3b96332951c74c9",
     "8658aed188124b3913e17834ee08716713ee6580f4874656c4dd187879f286a8"),
    ("tdecay-b1-farey", "translation-decay",
     {"model": "farey", "distribution": FAREY_UNIFORM, "seed": 21, "samples": 150,
      "B": 1.0, "n_grid": [3, 6, 9]},
     "688c8daa74319e69ae555b120a8b93012f0770eadb8282a249c26a13d7ae00e5",
     "9e975189cc56e4a4049cd130ce6cc3112106ff1c8c9e9091a9b9f88b8fa2ac81"),
    # recorded before the engines became one step kernel per model with observers
    ("drift-free", "drift",
     {"model": "free", "distribution": FREE_MULTI, "seed": 22, "samples": 2000, "n": 40},
     "1912c98b0829d7f967c15c352f71fe22c1843e416d7c33237ddd7893d3c18ed1",
     "bb44b40c2bee6e54f37582d4d587e76a0b5845a8c9171482d7c8a68caa17139b"),
    ("drift-farey", "drift",
     {"model": "farey", "distribution": FAREY_FIVE, "seed": 23, "samples": 800, "n": 25},
     "ea82e0090b5546cea0efe40e228ae0d4790925dc522fbee81c4117105279cf91",
     "40569d05167c4028bc4e7508e22015d09f4fdc6bec9bca79518cf5fa8077c4a6"),
    ("backtrack-free", "backtrack",
     {"model": "free", "distribution": FREE_THREE, "seed": 24, "samples": 1500,
      "k": 4, "n": 40},
     "9179486b75e292a9ff3b28924f04b9fd552bd172bd69ff032e9f3c4c2ecc5167",
     "301f1c8b91304f41087cef5ac9c2cf54088d8be21110484ed14dce63e109a093"),
    ("bernstein-free", "bernstein",
     {"model": "free", "distribution": FREE_UNIFORM, "seed": 25, "samples": 2000,
      "k": 5, "epsilon_factor": 0.3, "n_grid": [2, 4, 6, 8]},
     "5e73fce802c3fab9ddd96799114925ea5b2d0c66fb081ee82bbbf1af33bdcbff",
     "355d1074590b781e15cffbe9f447ec09423d8b59b5738e3622209ad4f4a52a91"),
    # recorded from the first code that ran these subcommands on SL(2,Z)
    ("backtrack-farey", "backtrack",
     {"model": "farey", "distribution": FAREY_FIVE, "seed": 26, "samples": 1200,
      "k": 4, "n": 40},
     "53a6ea2e6c249a25eb411ebbdc06febc85a1added41f74981a28e5678aa128e3",
     "fa2b11543579e9a3147ad6a6e5c0b03189733c180154faa91e6f5ca4e076c663"),
    ("z-sum-farey", "z-sum",
     {"model": "farey", "distribution": FAREY_UNIFORM, "seed": 27, "samples": 1200,
      "k": 3, "L_factor": 2.0, "n_grid": [2, 4, 6, 8]},
     "a9a487792fb5dfc8321d13d43e2b5e09bb1191647e06905139deaf90d33a2df4",
     "fee07c6516779ab334c84adf4dcb84bf056f15d1b8678eae99d27be4f78c01f0"),
    ("bernstein-farey", "bernstein",
     {"model": "farey", "distribution": FAREY_FIVE, "seed": 28, "samples": 1200,
      "k": 5, "epsilon_factor": 0.3, "n_grid": [2, 4, 6, 8]},
     "0b7e9aeb2e3d95833f0e1330ff4ca7d608ab3a76422f5fce429b1fccba8eff06",
     "888bf45275d15567793e5c0afef43abde942f5fd0a2333c109db479627028f20"),
    ("midpoint-farey", "midpoint",
     {"model": "farey", "distribution": FAREY_UNIFORM, "seed": 29, "samples": 1500,
      "n_grid": [4, 8, 16]},
     "d7b7f9aaa022e67e18f7670a67764f111cc71de6666d84d11e093dab24602bc7",
     "480d1334b25b49e8f71cc4f81d1dd420446755bbd792e21ea2914de08313c405"),
    ("diagonal-farey", "diagonal",
     {"model": "farey", "distribution": FAREY_FIVE, "seed": 30, "samples": 1500,
      "n": 20, "r_grid": [1.0, 2.0, 3.0, 4.0]},
     "270a27556b0f75418edf92511fe9db5adaab6578a4418ad53c5543ab7b750005",
     "c4a248b237f7dfde9bf3db3a8a9151aae82c16f0e5727905eab31c05dcceb31c"),
]


# (id, subcommand, config without output_path, exit code, series digest,
# summary digest); props and calibrate read only the model from the law
SUITE_GOLDENS = [
    ("props-free", "props",
     {"model": "free", "distribution": FREE_UNIFORM, "seed": 12345678901234570,
      "samples": 200}, 4,
     "fb1c4e2de52e349f221ea2a55304a7156b6ffa5859e365f597e8c5932dd56835",
     "e3b88fb7292b8b1c356dfaebd6fe2df5473fc4f13d1204e09b0d65e1653458a6"),
    ("props-farey", "props",
     {"model": "farey", "distribution": FAREY_UNIFORM, "seed": 41, "samples": 200}, 4,
     "e21a36cdddc053b074cb0c585cbeeee6826822f172240061712377735da2f63b",
     "44ce5a5211173ae5c808df7886598f77c7fa59e456ff7559c74587ce641e826f"),
    ("calibrate-free", "calibrate",
     {"model": "free", "distribution": FREE_UNIFORM, "seed": 33, "samples": 200}, 0,
     "b7b547cedb9b880fd4db9e00b749dcbf1c4dfd5ddf25811897df3bc719c0edd2",
     "97e62ce4465fb421d86c3e3a0bf0b5640307219d1a399173037d12cd5b450a6c"),
    ("calibrate-farey", "calibrate",
     {"model": "farey", "distribution": FAREY_UNIFORM, "seed": 35, "samples": 200}, 0,
     "3a3f2d1105beeb3a2092759a1c97ad792b6b63b1796f3c43f6ebe8ad2fd22a87",
     "8d0cee48cb7bd5d9382afdb0edb50ba10cf0b3301678c4081f6f31511e88c75d"),
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
