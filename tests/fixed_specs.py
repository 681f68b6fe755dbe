"""One small fixed spec per registered tester, shared by the harness tests
and the acceptance suite.

Each entry is (tester params, sources, sha256 of the run_experiment JSON
``json.dumps(report.to_json_dict(), indent=2)`` at trials=4, seed=5).  The
harness seed discipline makes those bytes a pure function of the spec, so a
refactor of the tester registry or the testers must leave them unchanged; a
stream that changes on purpose needs its digest re-recorded here.
"""

S16 = {"kind": "uniform-strings",
       "params": {"strings": ["0011001100110011", "1100110011001100"]}}
X16 = "0110100110010110"
HADAMARD = {"kind": "hadamard-codewords", "params": {"k": 4, "messages": ["0001", "0110"]}}
PATH4 = [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]]
SUBSET = {"kind": "uniform-random-subset", "params": {"n": 32, "m": 4, "min_distance": 0.3}}

FIXED_SPECS = {
    "support": ({"m": 2, "eps": 0.5}, [S16],
                "989fb129342009bd35cede1063749aa5dc228743d8b81f3923f89c6d9483701c"),
    "grained": ({"m": 2, "eps": 0.5}, [S16],
                "44a6a921c1e566caa0855c5a0ed5512adcc4a2c0ffb9d3249f429a5026229081"),
    "uniformity": ({"m": 2, "eps": 0.5}, [S16],
                   "a75b9eaa2c8aca74943065c88dd2be36b9d85d423cfcbcaf18498b7b3ff459c6"),
    "pair-equality": ({"m": 4, "eps": 0.5}, [SUBSET, SUBSET],
                      "d2303a04be8e7224f884b51179872b84e25f7450608fc20f40f30116c8838cb8"),
    "perturbation": ({"eta": 0.1, "delta": 0.3, "eps": 0.5},
                     [{"kind": "perturbation",
                       "params": {"x": "0" * 32, "eta": 0.1, "delta": 0.3}}],
                     "730c0cfbb2418b42f1a391667950b102d476142e2532fa2bcfd0ae15c4b754f9"),
    "rotation-family": ({"eps": 0.5, "mode": "staged"},
                        [{"kind": "rotations", "params": {"x": X16}}],
                        "845c73882b7b20feb2cc17893524fa146af1b01715fc8fd66d903a9411e3ba67"),
    "rotation-law": ({"law": [1 / 16] * 16, "eps": 0.5},
                     [{"kind": "rotations", "params": {"x": X16}}],
                     "c2c1124af825c7ca9d7fd0646cc8c5d1d9bbb949387a6e419f3530257f31f6e3"),
    "graph-copies": ({"eps": 0.5}, [{"kind": "graph-copies", "params": {"adjacency": PATH4}}],
                     "6feb0ce06a6a4656b06fa3a22ecdd56723e77db34d1833cf6d44fcad4f4ef5d1"),
    "membership": ({"eps": 0.5, "mode": "staged"}, [HADAMARD],
                   "0a688f1006d826e8dd5f6ca1df4bcb99f5064b1b5c5a72d6c20f6e72495c9268"),
    "noisy-membership": ({"eta": 0.1, "delta": 0.3, "eps": 0.5},
                         [{"kind": "coordinate-noise",
                           "params": {"x": "0" * 32, "flip_probs": [0.05] * 32}}],
                         "ff935a67b9e3249ea860260c0bf4495557824d1ac9a11b796056e009c9ce132a"),
    "projected": ({"inner": "grained", "m": 2, "eps": 0.5}, [S16],
                  "22117b20a1041a102df7a1e26e7c84719b1eb2a51ab64af499b0e4783f778047"),
    "self-correcting-hadamard": ({"k": 4, "m": 2, "eps": 0.5}, [HADAMARD],
                                 "72f6082364db3e78adb6330ec8c7e4454f69817543e9c30ec67a61a9f601bcdd"),
}
