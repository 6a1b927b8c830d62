"""Byte pins on the jsonl of the class deciders, search and corollaries.

Each digest is the sha256 of the jsonl that one in-process run writes.  They
were recorded before the ordinary and generalized classes came to share one
annihilator walk per ring side, so a refactor of the deciders that changes a
verdict, a certificate, the record order or an error path shows up here.
The ut3:z2, ut2:z4, zn:6 left and prod:zn:3,zn:5 left pins were recorded
before the blocked subset walk, the single walk of a commutative ring and
the shared-certificate emitter.  The verify pins (the five transfer
benchmark jobs, prop34, a small thm37 run and two refutations whose
Armendariz witness comes from a unit-rich ring) were recorded before the
Armendariz scan skipped non-least unit orbits, the box kernel kept one plan
per context and the bridge check ran once per distinct annihilator.
The last four pins run the Klein swap (`--sigma 2` on prod:zn:2,zn:2) over
the integers and over N^2; they were recorded before the twist became one
endomorphism with a cached power cycle.
The zn:16 generalized Baer pin (a certificate that climbs to depth 4 across
two-level subset blocks) and the text pin of mat2:z2 were recorded before
certificates were kept and encoded by block.
The four GF(4) pins run the Frobenius twist (`--sigma 1` on a `kind = tables`
ring file), so the box kernel and the bridge products multiply through a
non-identity twist; they were recorded before a series came to be stored
once, as its sorted terms, and before the ring axioms were checked in one
pass.
Every pin here, the zn:8 box 4 pin among them (it runs past the benchmark's
box 3), was recorded before the context kept one bounded annihilator per
product set and before jsonl wrote each certificate block by block.
The zn:12 Baer pin (4,095 instances) and the zn:8 corollaries pin were
recorded before a Thm 3.7 run came to keep its own table of annihilator
checks in place of the context's bounded annihilators, which the two
natural runs of the corollaries shared.
The two pins of the formal triangular ring [[Z/2, Z/2], [0, Z/4]], written
as a `kind = tables` file, are the first whose generalized verdicts reject
after a climb (right side) while the left side accepts; its `search` finds
the two left-right gaps and an Armendariz witness.  They were recorded
before the Armendariz scan walked least coset representatives.
Its four one-sided generalized pins were recorded before a decider walk
always climbed and a single-side check came to walk one side by itself.
The two generalized quasi-Baer pins of ut3:z2 and ut2:z4, on both sides,
were recorded before ideals came from the join-irreducible principal
ideals, matrix tables from generator products and certificate text from
cached block templates.
Criterion 09 already shows the output does not depend on the hash seed.
"""

import hashlib
import io

import pytest

from conftest import tables_ini, triangular
from skewseries.cli import run

# (argv, exit code, sha256 of the jsonl output)
GOLDEN = [
    (('ring', 'check', '--ring', 'zn:2', '--class', 'all', '--side', 'both'),
     0, "3a6a55af50319164747ed15ad66deeadc93ae1dcae9343d398711982b0ecce6c"),
    (('ring', 'check', '--ring', 'zn:3', '--class', 'all', '--side', 'both'),
     0, "852babb7ba2ee6606ff03e924452e5265c96afff8c29e163c7f2189d2f449a8d"),
    (('ring', 'check', '--ring', 'zn:4', '--class', 'all', '--side', 'both'),
     0, "0dc4426c072a8c6fb743fcb9811d9a8013243afacd5533f6891f1052b0c674be"),
    (('ring', 'check', '--ring', 'zn:5', '--class', 'all', '--side', 'both'),
     0, "cca08c1531ea1476a0fcd2760124f1224b4e553b9a9dc394cd225107788b8c6a"),
    (('ring', 'check', '--ring', 'zn:6', '--class', 'all', '--side', 'both'),
     0, "50a1a83c1f0b1b32b04fe8404bfe81f85ca863218ed343cb7fd1c8f9688d1c9f"),
    (('ring', 'check', '--ring', 'zn:7', '--class', 'all', '--side', 'both'),
     0, "3252e755e83c30d19b6728983beb0c3486c5a9bac15f0bbe0286da80a4e6fc9b"),
    (('ring', 'check', '--ring', 'zn:8', '--class', 'all', '--side', 'both'),
     0, "960a500d0aaefa23750e82861e0ae12dd39aea75d9cfe13c47936e40cb105375"),
    (('ring', 'check', '--ring', 'prod:zn:2,zn:2', '--class', 'all', '--side', 'both'),
     0, "e77e2a3a763d8aef3917d86cde0889cfe38ec30520667dc7f6b2722a8f88af2c"),
    (('ring', 'check', '--ring', 'ut2:z2', '--class', 'all', '--side', 'both'),
     0, "249d3d7126c34d8b78b0e92359d0293ee823d380e3d5d67736797f4fac965d72"),
    (('ring', 'check', '--ring', 'mat2:z2', '--class', 'all', '--side', 'both'),
     0, "ad643757c869d43ad852db022ecbde68a9ec0380110cc3bb04800c879ee2d0cc"),
    (('ring', 'check', '--ring', 'prod:zn:3,zn:5', '--class', 'all', '--side', 'both'),
     0, "becaed663049cd16506fcd6354c499ece56024ee3aabcd25ce1bbdc70ff36eee"),
    (('ring', 'check', '--ring', 'mat2:z2', '--class', 'baer'),
     0, "612256062b5d6c3318482c47e23d0e3bf318d63d16b6b0fd516d81b1735d7e1d"),
    (('ring', 'check', '--ring', 'mat2:z2', '--class', 'quasi-baer'),
     0, "73f72ab0b7e970dcdbe1cbb3a322568647c3f4bc49cc44434c9e38c54b0a5e61"),
    (('ring', 'check', '--ring', 'mat2:z2', '--class', 'all', '--caps', 'ideal=4'),
     3, "9173bf4b2cbedefd85cb6912ad0da81181379f5c95653f28e753078488be6755"),
    (('ring', 'check', '--ring', 'mat2:z2', '--class', 'all', '--caps', 'subset=4'),
     3, "84e53335dc205b918385c23ec8058426f0043334b4bfeb3ea4485f6adaba0e8c"),
    (('ring', 'check', '--ring', 'ut3:z2', '--class', 'quasi-baer', '--caps', 'ideal=64'),
     0, "e9b0c6d680e9d3a95cd57956a5722067f9d8389ae2207a4b0469bb4d194efeca"),
    (('ring', 'check', '--ring', 'ut2:z4', '--class', 'quasi-baer', '--caps', 'ideal=64'),
     0, "57d5810454f7299af7a17896ce74eda42331221b89215f1645348883d9d2ac2c"),
    (('ring', 'check', '--ring', 'ut3:z2', '--class', 'gen-quasi-baer', '--side', 'both',
      '--caps', 'ideal=64'),
     0, "bb15bd0a8a7cb05f8d3c1238a610e506cf90b76f2dac11004a25490209097588"),
    (('ring', 'check', '--ring', 'ut2:z4', '--class', 'gen-quasi-baer', '--side', 'both',
      '--caps', 'ideal=64'),
     0, "143c65a6b33fd88e79badcce0e9e3433b34166d4adc6b79888dd264c89f9cb01"),
    (('ring', 'check', '--ring', 'zn:6', '--class', 'gen-quasi-baer', '--side', 'left'),
     0, "b24f176a14dda533dfda62313328addae9dee3643396110a3befc259a19fa24b"),
    (('ring', 'check', '--ring', 'prod:zn:3,zn:5', '--class', 'baer', '--side', 'left'),
     0, "61446a2147aa2c63ed7061cdf5d2bd65a237980925ee6a86b0503a9168dbe0f1"),
    (('ring', 'check', '--ring', 'zn:16', '--class', 'gen-baer', '--side', 'both'),
     0, "c88d4edeaa538f5481cf964102b5c500619067626916f3e1006be2c517e96aa1"),
    (('search',),
     0, "2aa95c2dd2a0e241a633952fab5ffbcb39e9cea08ff0e9b8b801730da5f5ee9f"),
    (('verify', 'corollaries', '--ring', 'zn:4', '--box', '2', '--samples', '3', '--seed', '5'),
     0, "ff2bf83bd49bdbf28819fe67fcd0239fef52581cefed340b7acecb046e3711b1"),
    (('verify', 'thm37-baer', '--ring', 'zn:8', '--box', '3'),
     0, "bf6118d72c50f660b89ad95c0625d11ff1915f2c174e789137ab0adcd360e9e7"),
    (('verify', 'thm37-baer', '--ring', 'zn:12', '--box', '2'),
     0, "ee5c178e5b471aa5cb9f3f46379f1705434ac6ac1d8e69f35ab6634519958a5e"),
    (('verify', 'corollaries', '--ring', 'zn:8', '--box', '2'),
     0, "53f6c9cd06d0c838f330d80a60439108ef385d2d0c69790706a66c16805815d9"),
    (('verify', 'thm37-baer', '--ring', 'zn:8', '--box', '4', '--budget', '100000000'),
     0, "3ea9f870d9597c324c712fdef540782f1df442ce5c559853649b190ea0c981c0"),
    (('verify', 'thm37-baer', '--ring', 'zn:6', '--box', '2', '--monoid', 'nat2:lex'),
     0, "3540737ff9f71443007aaf36df3dc25a3d239e76beac434831a7664e10a6ec5f"),
    (('verify', 'thm37-quasibaer', '--ring', 'zn:8', '--box', '3', '--seed', '0'),
     0, "fc2bf145ac703c6c65549260ec3ded39849c79e9f1da20f62b0fce2623957ed5"),
    (('verify', 'thm37-quasibaer', '--ring', 'zn:8', '--box', '2', '--samples', '40',
      '--seed', '7'),
     0, "9848f2b0a11bb4f07ad4e503725ade0e0a6674d83cc188b9ce54be5d727686fd"),
    (('verify', 'thm37-quasibaer', '--ring', 'prod:zn:2,zn:2', '--sigma', '1', '--box', '4',
      '--seed', '7'),
     0, "ef70deaec0214b24d585947d3ac2853b9b482cd6cba7bebe398b726a9ccd138f"),
    (('verify', 'prop34', '--ring', 'zn:6', '--box', '2'),
     0, "9befaeeb75408fe2567b5695ad11bc13627858d15e0ac7a95fb1e7c1bc3ba05d"),
    (('verify', 'thm37-baer', '--ring', 'zn:4', '--box', '3'),
     0, "4397a098ccc2f9e05c896087fa44b16ab2893dacf2ef302f81322638b285e6bc"),
    (('verify', 'thm37-baer', '--ring', 'mat2:z2', '--box', '2'),
     4, "3fe86be9808bc7bc743d7e6347aeac51fdb876738671a3db73e2d508371da0bb"),
    (('verify', 'thm37-quasibaer', '--ring', 'ut2:z2', '--box', '2'),
     4, "9234762380d91a56efff0809ee9b2fa2f789598e075ca5137eb9b255719b713d"),
    (('verify', 'thm37-baer', '--ring', 'prod:zn:2,zn:2', '--sigma', '2', '--box', '2',
      '--monoid', 'int:natural'),
     4, "c38889793686b8c01736359d4b1676492823769b5c44758ca8fd061b3014ab58"),
    (('verify', 'thm37-baer', '--ring', 'prod:zn:2,zn:2', '--sigma', '2', '--box', '2',
      '--monoid', 'nat2:lex'),
     4, "4a46431dd88157e67701dac979269c804181571f7883e32d4ed8bbe9635e8e1b"),
    (('series', '--ring', 'prod:zn:2,zn:2', '--sigma', '2', '--monoid', 'int:natural',
      '1@-2 + 2@1', '3@-1 + 1@2'),
     0, "f38e52fe31da9707fff566433245b067020d517a68d3c557b742627b5dee3d07"),
    (('series', '--ring', 'prod:zn:2,zn:2', '--sigma', '2', '--monoid', 'nat2:lex',
      '1@0,2 + 2@1,1', '3@1,0 + 1@2,0'),
     0, "8bfae73fccffec460ef9b770e939f0a8cbd000d980ba9229d1eb3f9edf70f141"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=[" ".join(argv) for argv, _, _ in GOLDEN])
def test_jsonl_bytes_match_the_recorded_digest(argv, code, digest):
    buf = io.StringIO()
    assert run([*argv, "--output", "jsonl"], stream=buf) == code
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


# (argv, exit code, sha256 of the text output); text reads each certificate's
# length and its first 20 triples.  The search and series pins, which render
# findings and series values, were recorded before certificates lost their
# index and slice reads.
TEXT_GOLDEN = [
    (('ring', 'check', '--ring', 'mat2:z2', '--class', 'all', '--side', 'both'),
     0, "92e166bc605b83fd7197392cdccd1ca04d44912c5dd4c5499e64a6387f5b60bf"),
    (('search', '--catalog', 'zn:4,ut2:z2,mat2:z2'),
     0, "1f9dc8991a3b38fed30b46eae98887829b6019b34270a1d364592ef34a1219ec"),
    (('series', '--ring', 'zn:4', '1@0 + 2@1', '3@1'),
     0, "ee6f012e469565cacf8f9b7de8a2d0844e29695829637d70161ab4597d061f34"),
]


@pytest.mark.parametrize("argv,code,digest", TEXT_GOLDEN,
                         ids=[" ".join(argv) for argv, _, _ in TEXT_GOLDEN])
def test_text_bytes_match_the_recorded_digest(argv, code, digest):
    buf = io.StringIO()
    assert run([*argv, "--output", "text"], stream=buf) == code
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


GF4_INI = """\
[ring]
kind = tables
order = 4
add = 0 1 2 3; 1 0 3 2; 2 3 0 1; 3 2 1 0
mul = 0 0 0 0; 0 1 2 3; 0 2 3 1; 0 3 1 2
label = GF(4)
"""

# (argv, exit code, sha256 of the jsonl output), run beside gf4.ini
GF4_GOLDEN = [
    (('verify', 'thm37-quasibaer', '--ring', 'gf4.ini', '--sigma', '1', '--box', '3',
      '--seed', '7'),
     0, "fb6f7b5cec7a3f28e68cf4b7d67827cfd2e27b6290119398e09766af27399cee"),
    (('verify', 'thm37-quasibaer', '--ring', 'gf4.ini', '--sigma', '1', '--monoid',
      'int:natural', '--box', '2', '--seed', '7'),
     0, "65de707766ef47f7eb27458cfedd0b4470de05b0d4e90172bf7bde9410c2d58a"),
    (('verify', 'thm37-quasibaer', '--ring', 'gf4.ini', '--sigma', '1', '--monoid',
      'nat2:lex', '--box', '2', '--seed', '7'),
     0, "09a49588950e1d334d5ce27512af6ebc826278b7aa1e81d6b48d1e5b542533fe"),
    (('verify', 'prop34', '--ring', 'gf4.ini', '--sigma', '1', '--monoid', 'nat2:lex',
      '--box', '2'),
     0, "2b32c08f6b4b3a41119befbd453cd93df3eaa7b0aef17431df8cecf048de29d7"),
]


@pytest.mark.parametrize("argv,code,digest", GF4_GOLDEN,
                         ids=[" ".join(argv) for argv, _, _ in GF4_GOLDEN])
def test_frobenius_twist_jsonl_matches_the_recorded_digest(argv, code, digest, tmp_path,
                                                           monkeypatch):
    # The config record names the ring file, so it is written under one fixed
    # name and read from the working directory.
    (tmp_path / "gf4.ini").write_text(GF4_INI)
    monkeypatch.chdir(tmp_path)
    test_jsonl_bytes_match_the_recorded_digest(argv, code, digest)


# (argv, exit code, sha256 of the jsonl output), run beside t.ini, the formal
# triangular ring [[Z/2, Z/2], [0, Z/4]]
TRIANGULAR_GOLDEN = [
    (('ring', 'check', '--ring', 't.ini', '--class', 'all', '--side', 'both'),
     0, "01cc442c28651f224da148293772cd7b60c372c09c2ad505c897c0deb1353fa8"),
    (('search', '--catalog', 't.ini,zn:4'),
     0, "1362a8ba3deafa95eff0c01ebe860bf2e9eca1d4a8068338942c8ef0bef76d0b"),
    # T is neither generalized right Baer nor generalized right quasi-Baer.
    # At box 1 every series is a constant, so the Armendariz scan passes and
    # Thm 3.7's harness refuses on the ring side: exit 4, naming
    # ring_gen_right_baer with witness ((1, 2), 2, (0, 8)), and
    # ring_gen_right_quasi_baer with witness ((0, 1, 2, 3), 2, (0, 8)).
    (('verify', 'thm37-baer', '--ring', 't.ini', '--box', '1'),
     4, "a637002505b0996365551a2197476bc89c853e2786d152d60354ef6c044c0786"),
    (('verify', 'thm37-quasibaer', '--ring', 't.ini', '--box', '1'),
     4, "2ab0ab622a97c9513f8e4ab3ffbfff6f1b2632271c656b25828e38675e133845"),
    # One side of a generalized class walks alone: no on the right, yes on
    # the left.
    (('ring', 'check', '--ring', 't.ini', '--class', 'gen-baer'),
     0, "161e62780bbf98204827b96da5cd26a758f9e03c7b0b3460a5eec494f4fcd5d7"),
    (('ring', 'check', '--ring', 't.ini', '--class', 'gen-baer', '--side', 'left'),
     0, "5490565154a5da120c1af3ba6a8a12a5b1eeafe08dca3cbee9f5cbd526c17987"),
    (('ring', 'check', '--ring', 't.ini', '--class', 'gen-quasi-baer'),
     0, "d4d1eac2757c7e7e4a2323bd053e3ef7ee655be4fee7f903a1efbe7a78487f09"),
    (('ring', 'check', '--ring', 't.ini', '--class', 'gen-quasi-baer', '--side', 'left'),
     0, "f875ececfd6660e1302b5e93d1525209504ee8a9893e83518dd988cdc3feb92e"),
]


@pytest.mark.parametrize("argv,code,digest", TRIANGULAR_GOLDEN,
                         ids=[" ".join(argv) for argv, _, _ in TRIANGULAR_GOLDEN])
def test_triangular_ring_jsonl_matches_the_recorded_digest(argv, code, digest, tmp_path,
                                                           monkeypatch):
    # The config record names the ring file, so it is written as t.ini and
    # read from the working directory.
    (tmp_path / "t.ini").write_text(tables_ini(triangular(2, 2, 4)))
    monkeypatch.chdir(tmp_path)
    test_jsonl_bytes_match_the_recorded_digest(argv, code, digest)
