"""Payload digests pinned across commits.

The digests below were recorded once from a known-good build.  A refactor
that keeps the outputs byte-identical keeps every one of them; a change
that means to alter a payload must update the digest and say why.
"""

import hashlib

import pytest

from segrefuchs import serialize
from segrefuchs.cli import main, EXIT_OK, EXIT_NON_FUCHSIAN, EXIT_REFUSED
from segrefuchs.prolongation import assemble_u_system, assemble_Y_system
from segrefuchs.segre import eliminate
from segrefuchs.surfaces import build_complex, build_real
from reference import H22_U, SQRT2_TABLE, dense_surface

COMMANDS = [("verify", []), ("derive-ode", []), ("check-fuchsian", []),
            ("symmetries", ["--real-form"]), ("blowup", ["--auto", "4"])]

GOLDEN = {
    ("model", "verify"):
        "0edbad91a9c914e7aa5a7e9eb4b429ddd8e4a4a91f6500fdb2ed71b0a6530657",
    ("model", "derive-ode"):
        "2f0ba47e84e559161cf458dfee414f0c72c6e2affb3560006d2e61526004c5f2",
    ("model", "check-fuchsian"):
        "86fc02389707c38ca257d6f75f5d9c4cd594b4387a3052b051b2614639dd57b0",
    ("model", "symmetries"):
        "c3c3adcb1b3bd41d8fed5b5647f11a7787f0979972777e122c3a65d18eb24673",
    ("model", "blowup"):
        "18de4b7932bb96186aa7544370ebbb5e71783007cf82b5192357aafefb19533e",
    ("dense", "verify"):
        "292abcfe00bc75df00dc805e37ee0f8f491e012c95453b48285b6768d6731f91",
    ("dense", "derive-ode"):
        "b996d61d7c4a586526464baa849a1d1db292d01e4c97800380a07e631094c873",
    ("dense", "check-fuchsian"):
        "98499aca12d4dc235861987b790c4bfd5b46ed9100fcfdef162091f6e676f83a",
    ("dense", "symmetries"):
        "006d69356930cb854359f3e443b3a98ee75ecca05f69bc09addc9efd609749d3",
    ("dense", "blowup"):
        "c86dbe9c03d0f2a8085229631167b977b25bbca31b688e41264abaab92f949de",
    ("dense-m2", "verify"):
        "24e33aee97a9b3dc9b96758bebdcf22b98e1b8f01ec93eb7d0b3734a90d98e86",
    ("dense-m2", "derive-ode"):
        "0015bb73157ee42bd6fcd2b79a5b7b63640f8fe8f649c041437addd9521f30b1",
    ("dense-m2", "check-fuchsian"):
        "4a377440b073beba59d3f13fbbbebf58ca9596902fdc390acd8afecbafcb5ce8",
    ("dense-m2", "symmetries"):
        "1562ff76a8a3fca16b78acdbb53975f4812e1999d7b788d89756b1e5a44aaf94",
    ("dense-m2", "blowup"):
        "298b4adf148bedc8a37af5d54ca7e5c1d23870c3669f9d3287c3c78cc81c3cbd",
    ("dense-m3", "derive-ode"):
        "0884f56499bd27d432870b9b9f544d51a7acf4e44f5d0d7d6b8c6d4df9372891",
    ("dense-m3", "symmetries"):
        "4a9f8130c32ec756616ace2a9b72f464954aaff23eda84c2b06a6c103386a36a",
}

SYSTEM_GOLDEN = {
    "u": "ce0259d75225eefa633a6fc8c3efec97accb766bc5f39aed03ff886b56f79d7d",
    "Y": "bb64d2c114a903aa4ce67269bd180e75528a8953bf6d3e73c4a1b6d1a91d07f2",
}


# payloads that GOLDEN leaves out: a symmetry basis of dimension 2 and its
# real form at m = 2 (h22 = u), a basis of dimension 0 with 2 dropped
# candidates (the sqrt2 table) and the verdict and refusal of a
# non-Fuchsian surface, each with the exit code it comes with
VERDICT_EXITS = {("nonfuchsian-m2", "check-fuchsian"): EXIT_NON_FUCHSIAN,
                 ("nonfuchsian-m2", "symmetries"): EXIT_REFUSED}
VERDICT_GOLDEN = {
    ("h22u-m2", "verify"):
        "91fcf9e46980289908ead921a27961647672f372942cf8b2a6a4a36b1b54690c",
    ("h22u-m2", "derive-ode"):
        "dcc4c8d7c5389a23e2abd5b2e53da81856ee00e7170a2792acf0361f729ffcc0",
    ("h22u-m2", "check-fuchsian"):
        "b6ec333360434d038f915a12186b55549b066bf914753854678b2a2e9d9167e5",
    ("h22u-m2", "symmetries"):
        "d2aa9a2b0f7a265f1b802ce44ddf64ed3ee4ddc3ef8d93fbcbcb0b4faa00eca6",
    ("h22u-m2", "blowup"):
        "1d307bd9ed55aef7eefad434cfa76c1a6fb62fcaa1c820a9de2b6d64f8e2de3f",
    ("sqrt2-m2", "verify"):
        "185937401b783c4f25471b1c613ed13dcd539606561e439f4b05ecf40c62f393",
    ("sqrt2-m2", "derive-ode"):
        "55497b2addc6421d9f5d888cfa3a0bc603d87cf4444c5bb52c7dbbf68e6b92be",
    ("sqrt2-m2", "check-fuchsian"):
        "797dfc3975a117d08497fb4f7ef40b83af1ef752007421d9119f438b8af5656f",
    ("sqrt2-m2", "symmetries"):
        "d32cbda72c8152f5ec393ec9aaece84a327d88e79cd0cc2a8ba5f5508246f982",
    ("sqrt2-m2", "blowup"):
        "1d307bd9ed55aef7eefad434cfa76c1a6fb62fcaa1c820a9de2b6d64f8e2de3f",
    ("nonfuchsian-m2", "check-fuchsian"):
        "1ff240b9f00bb337920f6c64bfa085e08b99dd89b8558841d2957dac5b8bb8a2",
    ("nonfuchsian-m2", "symmetries"):
        "932ec8d3c307631ecd093b7b690b67b74262cda502066370bf15b44625a44051",
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


# At m = 3 and N = 19 the Frobenius window is too short for a real form
# (`symmetries --real-form` exits 11), so that surface pins the ODE and the
# complex basis only.
SURFACES = {"model": (lambda: build_complex(1, 1, {}, 12), COMMANDS),
            "dense": (dense_surface, COMMANDS),
            "dense-m2": (lambda: dense_surface(17, 2, fuchsian=True),
                         COMMANDS),
            "dense-m3": (lambda: dense_surface(19, 3, fuchsian=True),
                         [("derive-ode", []), ("symmetries", [])]),
            "h22u-m2": (lambda: build_real(2, 1, H22_U, 20), COMMANDS),
            "sqrt2-m2": (lambda: build_real(2, 1, SQRT2_TABLE, 20),
                         COMMANDS),
            "nonfuchsian-m2": (lambda: dense_surface(14, 2),
                               [("check-fuchsian", []), ("symmetries", [])])}
DIGESTS = {**GOLDEN, **VERDICT_GOLDEN}


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_cli_payload_digests(name, tmp_path):
    build, commands = SURFACES[name]
    path = tmp_path / (name + ".json")
    path.write_text(serialize.dumps(serialize.surface_to_json(build())))
    out = tmp_path / "out.json"
    for command, extra in commands:
        out.unlink(missing_ok=True)
        code = main([command, str(path), "-o", str(out)] + extra)
        assert code == VERDICT_EXITS.get((name, command), EXIT_OK), command
        assert _sha(out.read_bytes()) == DIGESTS[(name, command)], command


def test_model_system_digests():
    E = eliminate(build_complex(1, 1, {}, 12), 12)
    for key, S in (("u", assemble_u_system(E)), ("Y", assemble_Y_system(E))):
        text = serialize.dumps(serialize.system_to_json(S))
        assert _sha(text.encode()) == SYSTEM_GOLDEN[key], key
