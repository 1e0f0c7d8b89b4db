"""Golden hashes of report and text output, pinned before refactors.

Each digest is the sha256 of the bytes a refactor of the graph, semigroup
or theorem layers must leave unchanged: the up-to-isomorphism audit
report of orders 2-6 and the raw audit report of orders 2-6, the stdout of `zdg check` and `zdg invariants`
on builtin examples, in both --format report and the default text
format (powerset:5 checked at cutset cap 3 to stay fast), the
--format report stdout of `zdg graph` and `zdg example` on the same
examples, and every clause verdict with its witness over a corpus.
"""

import contextlib
import hashlib
import io

import pytest

from zdg import EnumerationOptions, audit, check_gamma_facts, enumerate_semigroups, report, run_all
from zdg.cli import main

AUDIT_DIGESTS = {
    2: "154813322dff26c02b74408ca698dacec0fee16df4f8be85ef965b2be564a9d5",
    3: "f073f9cbae0ea719255fc18386868e0a44eca641b2e3570adfed05cbc1d626e4",
    4: "c471efeee3516c3a4dec20991f5c054d4f4c38ef19310f0f5e10af92f3bedeeb",
    5: "e5f05ad4eef16e88e8e717f58cc75c813328e7e2751acb99b1431f03bb599a1d",
    6: "3d88f5c429c795b01fab3c76010e913d5726e7317a970d7f9e243ed4bcc3e620",
}

# raw audits, tallied from the classes weighted by orbit size; order 5 is
# the benchmark's audit-raw5 report, and order 6 was pinned from an audit
# that ran the checkers on each of the 142,627 raw tables
RAW_AUDIT_DIGESTS = {
    2: "b5994b85c340d75901358e5c2565edafebe624a1fa52657a4bf9ef0b9d159fba",
    3: "b88a3f19566f41d93b89c4ed003f70c5d1ae5f1b019eb6a40604d6fdeb7800d2",
    4: "1480c74c1adcf7c056961d9aa76d136ac01b1962e3e09ca3975bdf86d3df367d",
    5: "41abe79c7af93ae3f879c8660c9da07b275b05debce8ee592bf578818b8bc335",
    6: "884fa28d452b629ca9f1cd222450991eaea7880b2f6b872b10c9cb6d32864332",
}

# every clause of run_all and check_gamma_facts, witness included, on
# each table of a corpus: the audit digests above hash only tallies and
# counterexamples, so a witness that changed on a clean corpus shows here
WITNESS_DIGESTS = {
    (4, False): (194, "df05e480feac87a113bba57c7022b1f9f4af61830093f30d487ef5324cac83bd"),
    (5, True): (226, "2cb25aaec7da319b8d86b454952afb7bc5d99fb4f768a95a01f1cc2fbaf50a35"),
}

COMMAND_DIGESTS = {
    "check ex3.4 --format report":
        "a7514d87cf33c9a1845d89a44f33d81255a235d6077077325a352a2f1449353c",
    "invariants ex3.4 --format report":
        "b5803a4f0e876a45157cbb642d904f2ebe897f9cca93f4eefbf4edb68f7ae8be",
    "check ex3.5 --format report":
        "2d283786f1c2bbd20366b8cc7ce95ca91f727400470543db945871450ddcdfb7",
    "invariants ex3.5 --format report":
        "85475d4a35b5b03e71808820b414b5bc0e64aca003165d1290ea9ea68a016d29",
    "check ex3.8 --format report":
        "a9a05f77e36eb0e50bbb0c35d27921ed9148a480bb8255e32be02d84b6ea6b99",
    "invariants ex3.8 --format report":
        "0b23cf4922e1ea986b348d168aaf1b3809d6c7f398a821773774631f5695a6bd",
    "check ex4.3 --format report":
        "0215a353e0bc41ffbfba62b8796c20be125b000365398f5af5111b45f844b2f2",
    "invariants ex4.3 --format report":
        "552be0922777f275b76ed09e3c5210320fd6a28680907a04e5be05b22752dacb",
    "check ex4.5 --format report":
        "d43fd52a3439417fc9f95d1df7cdd4dfb7739b2a62af0139502bbd8be6b2b4f8",
    "invariants ex4.5 --format report":
        "64dedd45c792277f9f2cacd6a2081a56273e315977ba9cddc41c0e11283b536f",
    "check zg:6 --format report":
        "1168501e85fc67d3ea69b89ccf49e9329f0808618953175d7ce1918cf340d925",
    "invariants zg:6 --format report":
        "99ea5078954d1b4fce364aa594eaf54260d394c6e490f074a6e9650182f5ebe6",
    "check null:8 --format report":
        "fa742e4b03f1901402e6d8c0eb897696234774b43f36a3f9d274ea70dbb9ffa5",
    "invariants null:8 --format report":
        "29b0eb5a0838f861a8836019833465aea32e31f990a8336a9b039a041d7b06f6",
    "check null:10 --format report":
        "a2b46c8600c15151239a029b8caaf4d0800849627b8afbbf93ef7b412046813f",
    "invariants null:10 --format report":
        "f8c5c05c512944eb3a0b5763385d9ed3582411da0bc6c22c866442df0bd3d729",
    "check null:11 --format report":
        "fe915bf218eee1c036874dc5b0efbfd5b5d9b1c852c3dd4c04bd4166fb8d2567",
    "invariants null:11 --format report":
        "08ff2471f756bf3c7f2cec8b2d30718ed4975f14c7323ad744ffe0ed6e7f7b92",
    "check powerset:4 --format report":
        "42b873eeb55e8ccca2b7148ff8358bea331cd7f81906be637403c7a05e3603e6",
    "invariants powerset:4 --format report":
        "d13dbccfcff1c3d2d6f1a590f4291770169682f7c46d5133f11eaaf8add3f87c",
    "check ortho:zg3+zg3 --format report":
        "547bf91486a4df3255168403de705937ed37389d42aeedea60e7637778d97d57",
    "invariants ortho:zg3+zg3 --format report":
        "4a1c5294e0a6f7ad39a8a6c44cdaaaa6e0989d331ad8463a41157f92b3169c72",
    "check ortho:null3+null4 --format report":
        "dbc5b6920325dfbb3fa9fc1142cc080f8c68d3c4503e4d87f1808c9c20ebf9ea",
    "invariants ortho:null3+null4 --format report":
        "edcec79f264c6a1a3558819c22dfc2eb8e4c3869ff9eabf10d913b2b27249630",
    "check ortho:powerset2+powerset2 --format report":
        "baba9c65b1124db7078faaf8ba17e8cf065c989da2d0634d3151e612d1b3b6c6",
    "invariants ortho:powerset2+powerset2 --format report":
        "414b13d3091cd4c69ecc43446fb070b88763848381368bdc0179c12baf6a6706",
    "check ortho:powerset2+powerset3 --format report":
        "8adf55868dbe113df39070d10b9745546dafbc83b7ad61319c5a7f0ba7c5a7ad",
    "invariants ortho:powerset2+powerset3 --format report":
        "f126e2ae1ee1723d1e9ae6929d42efad6ca1035b41e5ab295866a82e275b25c5",
    "check ortho:null4+powerset3 --format report":
        "df402b1c29097e74bcd66266fab233ec35f7fff06fc0678c132b153b1023326a",
    "invariants ortho:null4+powerset3 --format report":
        "917d0950a686286bea0493b363972f8cbc0a8b3b9670103d479bfd1137f287c2",
    "check ortho:null4+null4+zg3 --format report":
        "66cef953e546d2c9d58ace97949ffecb0b2df5e6f27a7776603d1aa392008a2b",
    "invariants ortho:null4+null4+zg3 --format report":
        "41b76a9b40704c7626acfdc62ac3c8a788877ce7d702e8890e368a3d38e5b68b",
    "check powerset:5 --format report --cutset-cap 3":
        "796d14cfdd77ccbf65a0e6f1e7774c352d1306d62e31abb614bf16f92503e747",
    "invariants powerset:5 --format report":
        "f60f6b86ba38b5ef3acfb2ad7e4516fafffe111d1756fde3182ec9823fab1981",
    "check ex3.4":
        "1beb0d112935e096f66aba311c1d3e4726f3598a993aa00de76d12ceeea87ae9",
    "invariants ex3.4":
        "98a5d949b9d03b870962ea344c66acb4e72a1672b832ac93c613627cef071a8c",
    "check ex3.5":
        "bcdff1d0a445369582e75fa61c56043d0776a2064ebfcd7a38f27c2057f69dac",
    "invariants ex3.5":
        "bc255942a9521c9829fd1c83f1b0b6cca02433846030d558688b8e3a6a7eb72b",
    "check ex3.8":
        "ec97f84f5f479758d032fc6aea0c2d78f3e0d7042e568c73b5a2d988a853d85a",
    "invariants ex3.8":
        "29512d05e629d84554e021f946b1c2e6ef821bad3d0c312e2941dab27330a8e6",
    "check ex4.3":
        "3a92d013c71c89779ce6d1a27d94867628f30e2977608de2a3eadb5e532bdc28",
    "invariants ex4.3":
        "c6b5e4005b292a15ade912ea14f7ff96fdf5b20f1e97dc193961edf82a5f914d",
    "check ex4.5":
        "e22fd9df39db8326f6328c91db115eb83f1dd9d83d6bea64cac3586ee00804fb",
    "invariants ex4.5":
        "4b1675f898c9577ea34aa8d8c38a70aed1623eafe3f9f00fe246bb89944f12d8",
    "check zg:6":
        "b8307ad1baa722bae6378b69c94f38edef12672270b9636ffda8bd31fa98583a",
    "invariants zg:6":
        "adbeab9b4e85da5e8d67f78df1c54b46520839913a066bed8c24820aa467bd40",
    "check null:8":
        "031050d5136bbb9a8fadcb98a9e36123b8ef402733d0e46ba5ae91ba1febd0dc",
    "invariants null:8":
        "ae02f4a89eefba75c4f309a43ccfbd07663da47c9b6a74e009d54e58c516a254",
    "check null:10":
        "031050d5136bbb9a8fadcb98a9e36123b8ef402733d0e46ba5ae91ba1febd0dc",
    "invariants null:10":
        "d7f0942c13f04817e49257d9151fa2b98fcd687870410272731110390f60503e",
    "check null:11":
        "031050d5136bbb9a8fadcb98a9e36123b8ef402733d0e46ba5ae91ba1febd0dc",
    "invariants null:11":
        "fb7e9987fdd960d8ece4af4f129490120ccf95898464c965db77de033a809997",
    "check powerset:4":
        "3a92d013c71c89779ce6d1a27d94867628f30e2977608de2a3eadb5e532bdc28",
    "invariants powerset:4":
        "e4209d859bf3bef747f4f715ad662504b0f2f59ed0fe7c9516df36b593a5f984",
    "check ortho:zg3+zg3":
        "5e7543be6f19389ceceacce04e0b911cbf795870ddab76ac01a7a43571165b1f",
    "invariants ortho:zg3+zg3":
        "2ba7e48aa9133a262256a925511f961248c30631184dbbb887d83dd55e593484",
    "check ortho:null3+null4":
        "79b09cfc44e35f4503f22688dbb1d0864a7599dedcbb4a102bc7fa99baedc77d",
    "invariants ortho:null3+null4":
        "adf46fc44c1e6b7b8d4b2a5cee7a4f054bc8a01811d7ffa1f342a63e84bdcc54",
    "check ortho:powerset2+powerset2":
        "2982a766efe0d31e7da6f065d14fb38022476c1b0bd48743da0ab6246a8e8cf6",
    "invariants ortho:powerset2+powerset2":
        "ba55b3755c4d6c13bc27fa278f33c8052546fcb919af230e30af2a235c4c210b",
    "check ortho:powerset2+powerset3":
        "7892cba83a297ad6cd6d4bb6744a3e84f2ef05542e29b0c5f0ffeb68dec23a5b",
    "invariants ortho:powerset2+powerset3":
        "22b425fa54efe18bb9218f0305235b44c108329823a618e82ba4ede7092afbdb",
    "check ortho:null4+powerset3":
        "a6785c1b164f5e2782bec153a4c1fcc5673053ed638e09dc3a43f308cb31f36b",
    "invariants ortho:null4+powerset3":
        "6d9f3eedaee04818a4851956f5b72c57f6f0f878d0d03d414c1698b95004b711",
    "check ortho:null4+null4+zg3":
        "3f21dbd9cc98973e84c40f7b3c21d81f11b0559f74822ba37780102b9b3ff1a4",
    "invariants ortho:null4+null4+zg3":
        "afc0059578fb3a623d08fec0fbfa6670fbda5a6e43be4a08749adedbc288b0a3",
    "check powerset:5 --cutset-cap 3":
        "f8a986d5726d17cf4bbbcc9babd02d4b1195d2d2f8517f7e75c69252b2c7fb7f",
    "invariants powerset:5":
        "92995fb837ecfc8ce143e90a82df259ed7f656218ce73a0df545644df80ac874",
    "graph ex3.4 --format report":
        "bab3b4ff4b56cf8d26066ec277bdc4e5accdd7dd67d2b34b37732972c5a02474",
    "graph ex3.5 --format report":
        "8f66bbf9c4515902d8036d9740063b9551b397bcd402f2696d057c98d9b9ec70",
    "graph ex3.8 --format report":
        "8353d14000aec453cd48e3d9dd6451e360de94a13f871408a1b24846e56437a6",
    "graph ex4.3 --format report":
        "5d719f12d2233feec1580583dfdfadf0bfe4ef647655e77bed648eeeb671c392",
    "graph ex4.5 --format report":
        "429f3b12af57df6da5d287fa058086dd855c5f9154028c5574736aa48dc8d08f",
    "graph zg:6 --format report":
        "85ffb98b6bd4178a6557b1e7b12769669bb8615fc838cc371fea78c2ff7e2d4e",
    "graph null:8 --format report":
        "5223e80b93d4455e82e65c3df0599fb6f24ce949cd183a4ad037370ac08616ad",
    "graph null:10 --format report":
        "921ef7902b0338c86b39c20b54b503cd0991e7a38044fc075227470d6f88c243",
    "graph null:11 --format report":
        "57b6e7496edd60cae435bfc6c5ebc8b80202e21ec00a4b32b72c49ff0fcfd62b",
    "graph powerset:4 --format report":
        "81fe55bb450ae9c3b79fdecd5b38521e72e570a77f46d2e2444780d252850db5",
    "graph ortho:zg3+zg3 --format report":
        "3da409d437d5c1e5a3b5efe660676f46d993181b6f8e972389267e24c2deb379",
    "graph ortho:null3+null4 --format report":
        "9a3e17cbd42df82b4438c098b7e8e89bc4d7dfc4f0bf5d00290995e8313d282d",
    "graph ortho:powerset2+powerset2 --format report":
        "777eaf20f2cff9037d10321aac1a7f25a7270cf5d5c1eff5d7a9777e55b391a8",
    "graph ortho:powerset2+powerset3 --format report":
        "2ae852f26a01c21a71bc25827fe7510cdb64f8cc79ff1be894cb063a212fb8e0",
    "graph ortho:null4+powerset3 --format report":
        "b743a19ef827fae9f217cad0db30fd04f10c893f50e3dbe69e0b23ac6ac52655",
    "graph ortho:null4+null4+zg3 --format report":
        "6b0c968250a6179355dc66b66446df4243bdabec2f3b76768e5ecc0d825a87fb",
    "graph powerset:5 --format report":
        "59d1d7386b00aec186f4a48b01ad2bad19101e57d18a9a7d57108aac93b7ab71",
    "example ex3.4 --format report":
        "217fc5563d6da94b71b9cf17493d78a94f082de76bfc124ab3d5d0067ac814b4",
    "example ex3.5 --format report":
        "41b310fac4e3b60e0c02ec1d297a356d45ca43bb85f0b816196e24fabe3acdb3",
    "example ex3.8 --format report":
        "98ae32e266a0329f946bd556db6a536f6ece50c7bba231024df771c3f1577620",
    "example ex4.3 --format report":
        "b40feeb84aa9e593977f84d577035e2dd4d3cda01e5693b9d6458d2aac148856",
    "example ex4.5 --format report":
        "ff39e914e43a0867225581d926e1e0e2911c25ec2e7c33f8a85b2d1f737c64a9",
    "example zg:6 --format report":
        "378a1705fb250ad0e2b975f486b065d7efab65e0593d5827af3446f3f60228cf",
    "example null:8 --format report":
        "3597f2da907944e9f9924629207644b47502fa5257f01471e889f7862dfcb5c3",
    "example null:10 --format report":
        "08a959cea3bda45951de587bf1155c971e0a8f81a6861ef377cce67b579e3f9d",
    "example null:11 --format report":
        "6e6165128f78319a6c17440a3dac741ab951f6b3a45d86d848d03e5ce5652358",
    "example powerset:4 --format report":
        "e06613f55aa94074cd56d7c7f3815b9feba6f561777c3f21cbd5e299741251fe",
    "example ortho:zg3+zg3 --format report":
        "c517ddfe04e3b8dce721b8da221d31b90fd89aeda75e1c83bdb8dbe8a20c3a1d",
    "example ortho:null3+null4 --format report":
        "123b746ec4da25d5a80c003238f3d828157940e2f830896e25b5a0419e89d13d",
    "example ortho:powerset2+powerset2 --format report":
        "ff212f000049abaa28d820ce7eaf03bacb92e56f48291be2cd809407c717927d",
    "example ortho:powerset2+powerset3 --format report":
        "f1fc661b31c752dc224db779d506180c944efa70a5c3aad4452d93d26022cb24",
    "example ortho:null4+powerset3 --format report":
        "e8e493a78158c76532cf9be9ac3ffdea9f7ad5e17f264fa69bc4665a19ea4c02",
    "example ortho:null4+null4+zg3 --format report":
        "8bbfc71a156e8030be8e6a3ca91cdeedf5abbf88a2107e4ad8724d08724f0bce",
    "example powerset:5 --format report":
        "d9be0535277a53fdc3d627c46d43f0672d6e39bccc6e4221ebf723f274cd1cd8",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("order", sorted(AUDIT_DIGESTS))
def test_audit_report_bytes_are_pinned(order):
    rep = audit(EnumerationOptions(order, up_to_iso=True))
    assert _sha(report.render(report.audit_block(rep))) == AUDIT_DIGESTS[order]


@pytest.mark.parametrize("order", sorted(RAW_AUDIT_DIGESTS))
def test_raw_audit_report_bytes_are_pinned(order):
    rep = audit(EnumerationOptions(order))
    assert _sha(report.render(report.audit_block(rep))) == RAW_AUDIT_DIGESTS[order]


@pytest.mark.parametrize("order, up_to_iso", sorted(WITNESS_DIGESTS))
def test_clause_witness_bytes_are_pinned(order, up_to_iso):
    h = hashlib.sha256()
    count = 0
    for s in enumerate_semigroups(EnumerationOptions(order, up_to_iso=up_to_iso)):
        count += 1
        clauses = [c for cs in run_all(s).values() for c in cs] + list(check_gamma_facts(s))
        for c in clauses:
            h.update(report.render(report.verdict_block(c)).encode("utf-8"))
    assert (count, h.hexdigest()) == WITNESS_DIGESTS[order, up_to_iso]


@pytest.mark.parametrize("command", sorted(COMMAND_DIGESTS))
def test_command_report_bytes_are_pinned(command):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(command.split())
    assert code == 0
    assert _sha(buf.getvalue()) == COMMAND_DIGESTS[command]
