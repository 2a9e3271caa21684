"""The commands that read program text: what they print, pinned.

``fmt``, ``extract``, ``extract --graph`` and ``project`` read a program
file and print its canonical text, its thread or a projection of it, or
refuse it. The pinned SHA-256 digests below were taken of each command's
exit code, stdout and stderr at the commit before ``compile_program`` and
its object path were deleted (9097c06), when ``extract`` and ``project``
read text through ``parse`` and each distinct token's instruction; so the
one compiler from text gives the same output byte for byte, refusals
included.
"""

import hashlib

from pglb.cli import main
from pglb.sat3 import gen_3sat_text

CORPUS = {
    "canonical": "+in:1.get; !t; !f",
    "spaced": "+ in:1.get // c\n#2; !f; aux:1.set:f; !t; !f",
    "demo": "a; +b; #2; #3; c; \\#4; +d; !t; !f",
    "symbols": "a; +b; -c; a;; -c\n\n!f",
    "jump-cycle": "a; #0; !t",
    "jump-chain-cycle": "+in:1.get; #1; \\#1; !t",
    "past-both-ends": "+a; \\#5; #9",
    "named-focus": "+x.get; p.flip; x.tau; -p.set:t; !t; !f",
    "aux-0": "+aux:0.get; aux:0.set:f; !t; !f",
    "aux-unranked": "aux:7.set:f; +aux:3.get; -aux:7.get; !t; !f; \\#3",
    "only-terminations": "!t; !f; !t",
    "refused-01": "a; #01",
    "refused-in-0": "a;\n+in:0.get; !t",
    "refused-focus": "a:b.get",
    "refused-tau": "!t; tau",
    "refused-signed-tau": "-  tau",
    "refused-long-jump": "a; #" + "9" * 5000,
    "empty": "",
    "comment-only": "// nothing here\n   // nor here\n",
    "gen-3sat-1": gen_3sat_text(1),
    "gen-3sat-2": gen_3sat_text(2),
}
COMMANDS = (["fmt"], ["extract"], ["extract", "--graph"], ["project", "-n", "4"])

# SHA-256 of each file's four results at commit 9097c06, computed there by result_digests.
PINNED = {
    "canonical": "bff2dd6793e6cc6b50f21ca622b71d50c32e11901191608136de17f47ec68b12",
    "spaced": "a4849ac086fd0206776a5308c24811fb18f80c4424e69481734c3026d870b3e7",
    "demo": "294c021e6ddb9fa918254c1e41aef3c54d26767646ea2b668dce77f02ab60677",
    "symbols": "55aed94a0234a7a6269c064018757117ae416ca7c5ad2736e107644f89189b84",
    "jump-cycle": "2caa128ebc60814055fb55d798c588051b512360fac301c63d724ac094709bbf",
    "jump-chain-cycle": "53b361156d1d566a93ac68bf706881ced84f3a63c14d2800cba8334fd81a758f",
    "past-both-ends": "0dd511a720a3b97d69128c6aa34e20c780c9d80dc969940e1e9fa95408d4fd8b",
    "named-focus": "0e1d1846830612e2fb7ce2246eb7d75591f6066484f08581412f6b0ead8537bf",
    "aux-0": "4d117062df28eecb21165d93ec244bf071771a90116b14888416ae498ca46d58",
    "aux-unranked": "137e20f5914c70b7c2fa77d1c67d7bc31e9107d7e19b3eaaacf2cc2a4df33b9d",
    "only-terminations": "0bcae0c77e976c0bfa1d3174b8054bca9ea9f25ec0983aaf509af10e98435553",
    "refused-01": "59aebd34ccc16b024493c25ea9f507569c07ac6f6bf4dc8481e1af087b2e526d",
    "refused-in-0": "c4a500157e212b14bf6e0d8cfd9037e23dd310b060d5e880003a5193e8c63bf9",
    "refused-focus": "e04a20922355da126fcdc9ae32cf91811c872fe3c9023e44f28203234792caed",
    "refused-tau": "390db3cd4cf116dc1698d87144af189e420bf6a5d0763987f79e74511cf16886",
    "refused-signed-tau": "61c2fa61429c71389c4d068f6f56498aa8d04e1334e7f49cf48f4dfc774da7f4",
    "refused-long-jump": "33b35f38693e3110c78c6a4e7b8caba38e9a68dd515a3ac9f4faec3ac4e20556",
    "empty": "566b1e29eb7ca676fe89105d7dc04b44b2740fda9a4d8db69d95115a7c2983d2",
    "comment-only": "566b1e29eb7ca676fe89105d7dc04b44b2740fda9a4d8db69d95115a7c2983d2",
    "gen-3sat-1": "4a34db1bc1648195825dfe0b0642853ac6d7f456e5429387d7746c37af0b56bc",
    "gen-3sat-2": "e3a3e2ed2f9bc82c5e6a2e1d61ada690bd6f64de05451d0eff380da4d1b84cff",
}


def result_digests(tmp_path, capsys) -> dict[str, str]:
    """The SHA-256 of each corpus file's (exit code, stdout, stderr) under every command, by file name."""
    digests = {}
    for name, text in CORPUS.items():
        path = tmp_path / f"{name}.pga"
        path.write_text(text, encoding="utf-8")
        results = []
        for command in COMMANDS:
            code = main([*command, str(path)])
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        digests[name] = hashlib.sha256(repr(results).encode()).hexdigest()
    return digests


def test_text_commands_print_what_they_printed_at_the_pinned_commit(tmp_path, capsys):
    assert result_digests(tmp_path, capsys) == PINNED
