"""Frozen sha256 keys of the sign families' fills and class sums.

The values of mobius, liouville, one, the Legendre symbols and the
threshold specs are integers, so a fill and its class sums have the same
bytes on every platform, and a change that moves one value moves a key.
Each key is the sha256 of the little-endian bytes of `values_upto(f, x)`
at x in {1, 2, 30, 1000, 200003}, or of `progression_sums(f, 10**6, q).sums`
at q in {1, 5, 12, 634}.  The keys were computed once and frozen; they
hold across changes that keep the outputs byte-identical.
"""

import hashlib

import numpy as np
import pytest

from pretentious.funcspec import parse_spec, values_upto
from pretentious.meanvalues import progression_sums

SPECS = ("mobius", "liouville", "one", "legendre:7", "legendre:101",
         "threshold:200003", "threshold:300000", "threshold:1000000000000")
XS = (1, 2, 30, 1000, 200003)
QS = (1, 5, 12, 634)

GOLDEN = {
    "values_upto mobius 1": "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2",
    "values_upto mobius 2": "26a66b061e8f48f39927c312f25293959729eee95978e2892d49d3512a5cc092",
    "values_upto mobius 30": "158eb0cd88e4abd3757957470864306a38315efc4438256a4b88abb47ff8f9d7",
    "values_upto mobius 1000": "3f63ad0efe7c4c00246919769dd3678771f36be39eec3d010998b07039376809",
    "values_upto mobius 200003": "a976bd18870170a634e606c9d2de26939605e22e27a0d953e6c3ad699e08e6c5",
    "progression_sums mobius 1": "87821c0474353f95900e3043bf9cb4a76724f11f858179dc592f12898d0f8edf",
    "progression_sums mobius 5": "7cd120802590aa0333dd45beb3d8b6e64a9b05cde8a23b10bae30604d902a0bb",
    "progression_sums mobius 12": "e481a513906dbf9639c68f6993962c31f1d0eb589536af6113bd04385cd5c598",
    "progression_sums mobius 634": "3e763ae57165be660f692a9ee29f5b88de59d4b3338b272b75eeac85df5c3111",
    "values_upto liouville 1": "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2",
    "values_upto liouville 2": "26a66b061e8f48f39927c312f25293959729eee95978e2892d49d3512a5cc092",
    "values_upto liouville 30": "c1d49dd46ec109eec3ee98cb6620cd50c14baedc28869220837b60865da65623",
    "values_upto liouville 1000": "cab4f961a3851b3e69be0f0f8ac9dfa95a451dfe35cf7c6015f4301ea84c18ca",
    "values_upto liouville 200003": "3c84f16e79db08e9dc9493a61b0ec3102d050f60acd08b4af6b6e6a957f1bb7a",
    "progression_sums liouville 1": "bff79690b202e7ac1f32b8c3d4ca764f027290301c26c331aba982d3108139e7",
    "progression_sums liouville 5": "91d7bf65b356efac2c11c6e10ee46e9facd9903261654a22df8780603f6a3617",
    "progression_sums liouville 12": "f841f0677693abc691e16044a2f8a68cc248133de48112592664d8f0727a7cbe",
    "progression_sums liouville 634": "dc2c6ef2d98657fbcf91b0b4b1ddef6aed5d279e93524c82b1dac648233ea535",
    "values_upto one 1": "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2",
    "values_upto one 2": "fbb59ed10e9cd4ff45a12c5bb92cbd80df984ba1fe60f26a30febf218e2f0f5e",
    "values_upto one 30": "fafd0080b38df8b0b8e6bdfa8169044648251a43307a3854165af7917c9b1c71",
    "values_upto one 1000": "94aeda7a43eb3ff362119605fd4321babef21d9264d41ecf826c1f57403ebe9b",
    "values_upto one 200003": "3162e718d9338a42c17c82c6b0b2c39381d48e21fb16ea049cc5119ccd4fc363",
    "progression_sums one 1": "54f990820c814e288e9e21aeb269ba6bfaeeb00f177b62ad44e8e4e76eb2c42c",
    "progression_sums one 5": "3274acff19fe15b1b213fe151b11c8553d0a6658ddf308e1ebcfc7f485aacff1",
    "progression_sums one 12": "ed9e4b16bbfc949189eed1d5b87779badba8e065962d3528c0e1b2efeb7c7eea",
    "progression_sums one 634": "165cb3ed5415411ee05e60513e1eb1f91d4ab7d5987c2b4e158dd4894803180f",
    "values_upto legendre:7 1": "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2",
    "values_upto legendre:7 2": "fbb59ed10e9cd4ff45a12c5bb92cbd80df984ba1fe60f26a30febf218e2f0f5e",
    "values_upto legendre:7 30": "144bc11d219a743172862b517fd3c54c527a993bbb6f955e8126ee12eb385945",
    "values_upto legendre:7 1000": "045d3f27828fa604f0925ff9090efc3a9a4ccdd28de73f96f2a71b4af436f992",
    "values_upto legendre:7 200003": "e13ec1f46f69e92087a2fb23e23e32c52f020d1aeeb81c586bc4c93be0265581",
    "progression_sums legendre:7 1": "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    "progression_sums legendre:7 5": "fd772bb0a4a354cf40ba7bd57c4a9db34273a1b540fe5875d286e8784c449a3a",
    "progression_sums legendre:7 12": "fde08623dde8c0007a4185beb3e50c11341523e7a3ae431d147a11e8536f686f",
    "progression_sums legendre:7 634": "9903c8821400b3507f10e66e218bf92801b8de344a4d767069d95f8765836a4f",
    "values_upto legendre:101 1": "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2",
    "values_upto legendre:101 2": "26a66b061e8f48f39927c312f25293959729eee95978e2892d49d3512a5cc092",
    "values_upto legendre:101 30": "3d7bbcd34a02f9a5b92457a3c2a022c655e9bc604c4ffd63928575e1a7a656f0",
    "values_upto legendre:101 1000": "05e75c0c765d2e322578d1342f2f36e7e9ad85b6dbcaf92de7e5961132f3de78",
    "values_upto legendre:101 200003": "5507b2cd4164ada0aefb94bc1f6ccf2e328c59f145a416f353e63e871ff760aa",
    "progression_sums legendre:101 1": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    "progression_sums legendre:101 5": "8d5549fdc40353e261d4137fcf268328cb7cb49d40d60edc51e9df597e1fba03",
    "progression_sums legendre:101 12": "6854317a9364e66552d3575de956726db4e5d868b5b1b3a55cc2d1251d546abb",
    "progression_sums legendre:101 634": "bd5bf1cc7d5a903f0e140b5f73b91238e9092c0d1f5a0b97b6f899b6cc8d4c69",
    "values_upto threshold:200003 1": "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2",
    "values_upto threshold:200003 2": "fbb59ed10e9cd4ff45a12c5bb92cbd80df984ba1fe60f26a30febf218e2f0f5e",
    "values_upto threshold:200003 30": "fafd0080b38df8b0b8e6bdfa8169044648251a43307a3854165af7917c9b1c71",
    "values_upto threshold:200003 1000": "f10b72b18d241a4eb3d2f87f33538e8d1264ef52ad72974ea1c740da111a3213",
    "values_upto threshold:200003 200003": "063456a7584efc53b9641c88ec8c2fe570513385c6140d82bb34b805d00fc844",
    "progression_sums threshold:200003 1": "aaa5e4b3524f0d137c279649ee9ff20f29d1f32f54c48516ced0f80ce1795218",
    "progression_sums threshold:200003 5": "e93e56222cec3de05e78d85906094d9b8b38e82d8fc1b64695767c7edc4e42df",
    "progression_sums threshold:200003 12": "ce183c985dfd49f95b323c189acfd8c0c6b86d6fa8742b73b171cd8c12ab0967",
    "progression_sums threshold:200003 634": "5da8c3d900b0443de773ddd53ac459bfa39863ea1b71f831890d6e2d8b19f3d0",
    "values_upto threshold:300000 1": "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2",
    "values_upto threshold:300000 2": "fbb59ed10e9cd4ff45a12c5bb92cbd80df984ba1fe60f26a30febf218e2f0f5e",
    "values_upto threshold:300000 30": "fafd0080b38df8b0b8e6bdfa8169044648251a43307a3854165af7917c9b1c71",
    "values_upto threshold:300000 1000": "4d0cc2cdc3e90b7935991a3740f899cbc58f186363275bef04f1d84f5a680300",
    "values_upto threshold:300000 200003": "1cfcdd851e879aab8ff00bae780d3df1d6f8b5344f7c0384d066c452acf0c2e4",
    "progression_sums threshold:300000 1": "421b7781e74cad9c1a7ee95fd311c468b8b40d6338c043b38197830c7375b62d",
    "progression_sums threshold:300000 5": "6c34b2bf76f33212cd039ebd44c792ab790540652304ffa3ecd9e97b26d027c7",
    "progression_sums threshold:300000 12": "84313e9174fd47dd7a251d67071cb8cb51e3b5935b659da746101c8d92f0b6cf",
    "progression_sums threshold:300000 634": "20bfedb8b30415c410862c3f0d426731174e6dd4a41be7d16938ab395c6e04f7",
    "values_upto threshold:1000000000000 1": "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2",
    "values_upto threshold:1000000000000 2": "fbb59ed10e9cd4ff45a12c5bb92cbd80df984ba1fe60f26a30febf218e2f0f5e",
    "values_upto threshold:1000000000000 30": "fafd0080b38df8b0b8e6bdfa8169044648251a43307a3854165af7917c9b1c71",
    "values_upto threshold:1000000000000 1000": "94aeda7a43eb3ff362119605fd4321babef21d9264d41ecf826c1f57403ebe9b",
    "values_upto threshold:1000000000000 200003": "69cd002d96a92df0605a8a80b07ddd0d635dc8976562521b6b28609da01a0205",
    "progression_sums threshold:1000000000000 1": "7d42b29d1e496998bd62cdff969d89d6103982187117b02f21db2a41c07f605e",
    "progression_sums threshold:1000000000000 5": "9a204698a9e2ec24845ff8b0f8184879a28c4b8c0e69db42ad76a38954c55253",
    "progression_sums threshold:1000000000000 12": "f6844ed4123b673b97e10003fd23d758a19c00c08fc1918b98244505f4e19f8d",
    "progression_sums threshold:1000000000000 634": "5510e514dd7c2cb6b1f54e2f251ad9d84b0923f631580565a2ab105a0c1da8e6",
}


def _key(a: np.ndarray) -> str:
    return hashlib.sha256(a.astype(a.dtype.newbyteorder("<")).tobytes()).hexdigest()


def test_golden_keys_cover_every_spec_x_and_q():
    assert set(GOLDEN) == {f"values_upto {s} {x}" for s in SPECS for x in XS} | \
        {f"progression_sums {s} {q}" for s in SPECS for q in QS}


@pytest.mark.parametrize("text", SPECS)
def test_sign_family_outputs_match_their_frozen_keys(table_medium, text):
    f = parse_spec(text)
    got = {f"values_upto {text} {x}": _key(values_upto(f, x, table_medium)) for x in XS}
    got |= {f"progression_sums {text} {q}":
            _key(progression_sums(f, 10**6, q, table_medium).sums) for q in QS}
    assert got == {k: GOLDEN[k] for k in got}
