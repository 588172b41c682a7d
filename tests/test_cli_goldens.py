"""Byte-identity of every engine-backed subcommand's outputs.

Each config below runs through `cli.main`; the sha256 digests of its
series.csv and summary.json were recorded before the engines drew their
steps from raw Philox words, so a change to the draw that moves any seeded
number fails here.  The package version is masked in summary.json, so a
version bump alone does not break the pins.
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
     "695113a372198e76516971e6d8785448895473da10b3659b1131039b76c7007b"),
    ("tdecay-b2-free", "translation-decay",
     {"model": "free", "distribution": FREE_UNIFORM, "seed": 19, "samples": 2500,
      "B": 2.0, "n_grid": [4, 8, 12]},
     "5ad05c5e1c2f100a6de0ac3908dfa445fb1d46e5f4c80af333711fcc2baa8a5c",
     "affa40466e9bba4ce74be78e4c1049b3b4e4a0d60c11e5f03473e83aa612eaf0"),
    ("tdecay-b0-farey", "translation-decay",
     {"model": "farey", "distribution": FAREY_FIVE, "seed": 20, "samples": 2000,
      "B": 0.0, "n_grid": [5, 10, 15, 20]},
     "eb8ff360cab2e1a191c4e690c6797ebebe6e19cf28a4498e5137d3376adaef36",
     "d86700b6f0f01ea6aa91a5ebfe9b9394eb2c10c2fe5b10a080ba4fa8f39c2f21"),
    ("tdecay-b1-farey", "translation-decay",
     {"model": "farey", "distribution": FAREY_UNIFORM, "seed": 21, "samples": 150,
      "B": 1.0, "n_grid": [3, 6, 9]},
     "6e854cb19e5e813f8dae5ef5a20bfc4b9d6582b733af6e0df99ce5c6b3269f61",
     "967237aa68c3882f983ef1486a20db71b43843c6ec8b4736b0194d44e5a22a04"),
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_config(subcommand: str, config: dict) -> tuple[str, str]:
    """(series digest, summary digest) of one CLI run in the working
    directory; the relative output_path keeps the config digest fixed."""
    with open("cfg.json", "w") as fh:
        json.dump(dict(config, output_path="out"), fh)
    assert cli.main([subcommand, "--config", "cfg.json"]) == 0
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
