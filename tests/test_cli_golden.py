"""Golden CLI reports on the bundled fixtures.

Each case runs `laxkit` in-process from the repository root, with relative
`fixtures/...` paths so the report's `inputs` keys are stable, and pins
the exit code, the sha256 of stdout and the exact stderr text.  A change
that alters one report byte, exit code or error message fails here.
After an intended change to a report, print the new values with

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import os

import pytest

from laxkit.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

KRIPKE = ["--system", "fixtures/labelled_kripke_a.json",
          "--system", "fixtures/labelled_kripke_b.json",
          "--lifting", "fixtures/half_label_hausdorff.json"]
LOOPS = ["--system", "fixtures/weighted_loop_a.json",
         "--system", "fixtures/weighted_loop_b.json"]

CASES = {
    "dist-kripke-json": ["dist", *KRIPKE],
    "dist-kripke-table": ["dist", *KRIPKE, "--format", "table"],
    "dist-loops-trace": ["dist", *LOOPS, "--lifting", "fixtures/weighted_step_lifting.json",
                         "--tol", "1/64", "--trace"],
    "dist-deadlock": ["dist", "--system", "fixtures/prob_deadlock.json",
                      "--lifting", "fixtures/prob_lifting.json"],
    "check-cert": ["check-cert", "--cert", "fixtures/labelled_kripke_cert.json", *KRIPKE],
    "axioms-left": ["axioms", "--trials", "40", "--lifting", "fixtures/hausdorff_left.json"],
    "axioms-kantorovich": ["axioms", "--trials", "40",
                           "--lifting", "fixtures/kantorovich_discrete.json"],
    "axioms-labels-functor": ["axioms", "--trials", "40",
                              "--lifting", "fixtures/half_label_hausdorff.json",
                              "--functor", "fixtures/labelled_kripke_functor.json"],
    "axioms-labels-derived": ["axioms", "--trials", "40",
                              "--lifting", "fixtures/half_label_hausdorff.json"],
    "axioms-sym": ["axioms", "--trials", "40", "--lifting", "fixtures/hausdorff_sym.json"],
    "axioms-wasserstein": ["axioms", "--trials", "40",
                           "--lifting", "fixtures/wasserstein_discrete.json"],
    "axioms-weighted-step": ["axioms", "--trials", "40",
                             "--lifting", "fixtures/weighted_step_lifting.json",
                             "--functor", "fixtures/weighted_loop_functor.json"],
    "axioms-labels-seeded": ["axioms", "--trials", "40", "--max-size", "3", "--seed", "3",
                             "--lifting", "fixtures/half_label_hausdorff.json",
                             "--functor", "fixtures/labelled_kripke_functor.json"],
    "axioms-maybe-kantorovich": ["axioms", "--trials", "40",
                                 "--lifting", "fixtures/prob_lifting.json"],
    "axioms-grid-dia": ["axioms", "--trials", "40", "--max-size", "2",
                        "--lifting", "fixtures/grid_dia.json",
                        "--functor", "fixtures/kripke_functor.json"],
    "axioms-grid-dia-box": ["axioms", "--trials", "40", "--max-size", "2",
                            "--lifting", "fixtures/grid_dia_box.json",
                            "--functor", "fixtures/kripke_functor.json"],
    "logic-eval": ["logic", "eval", "--formula", "fixtures/dia_shift.txt",
                   "--system", "fixtures/prob_deadlock.json", "--state", "u0"],
    "logic-eval-neg-json": ["logic", "eval", "--formula", "fixtures/neg_modalities.json",
                            "--system", "fixtures/labelled_kripke_a.json", "--state", "a1",
                            "--lifting", "fixtures/half_label_hausdorff.json"],
    "logic-eval-neg-table": ["logic", "eval", "--formula", "fixtures/neg_modalities.json",
                             "--system", "fixtures/labelled_kripke_a.json", "--state", "a3",
                             "--lifting", "fixtures/half_label_hausdorff.json",
                             "--format", "table"],
    "logic-distance": ["logic", "distance", "--rank", "2", *KRIPKE],
    "synth-table": ["synth", *KRIPKE, "--target", "b1", "--rank", "2", "--format", "table"],
    "catalog-functor": ["catalog", "--functor", "fixtures/labelled_kripke_functor.json"],
    "dist-mismatch": ["dist", *LOOPS, "--lifting", "fixtures/hausdorff_sym.json"],
}

# name -> (exit code, sha256 of stdout, stderr)
GOLDEN = {
    'axioms-grid-dia': (1, '86c930d55eff1c8c877dccbd5b4e1fc1c1a1eed628d58e535a63d36163276b9d', ''),
    'axioms-grid-dia-box': (0, 'a430c4b0e183d51c02245c7866b153a0c89d549478c55da30a56fc20e72bea46', ''),
    'axioms-kantorovich': (0, '74323ccdba9309475ea48ffd5681f020fd7756208ac00ab2d6f783147a97ef84', ''),
    'axioms-labels-derived': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: lifting.left: a label component has no default label metric; pass --functor\n'),
    'axioms-labels-functor': (0, '9f05cc8260a4497c11d4cc99f4a179364399321cb0ded51a166f769b57a11cc5', ''),
    'axioms-labels-seeded': (0, 'ee2eef6c17d88fd1d30b548bb2afb399573cd8a054da5f8e76c99488c03f0c7e', ''),
    'axioms-left': (1, '9164ac547f4bd54342c6c9ecb65910de251bc49e43632935b574e70347eab354', ''),
    'axioms-maybe-kantorovich': (0, 'b9f1110ba25a23fda8723a19202538df40e1ea6fc8a236c97b6b2e41e9a0292d', ''),
    'axioms-sym': (0, '5b8812bdf4e447a2c831d1f92b271a8cda49ef8b731d0fa8e2dcdaee9664f123', ''),
    'axioms-wasserstein': (0, '027c0e7824fd22b0fad02c8d1b4326187a7e9b62ed54072d085bac8a3a059d9a', ''),
    'axioms-weighted-step': (1, 'dd758692b49e8d54705820e60e53f8c73613fbb5b2d9625a98a0e74183cd927d', ''),
    'catalog-functor': (0, '419a5829648b7a0c08aace2a72aea08d4acfbccff78c0cd515e2ffc6ab1e05e8', ''),
    'check-cert': (0, '113faddefc3237d3e72116a2cbcb17f418d5cfda31ece6ba143bc8b643ac6c60', ''),
    'dist-deadlock': (0, '0dc4adb665238c4b5c33257a04736165b07c744732e99235cb406c91ce292199', ''),
    'dist-kripke-json': (0, '0a6c22347cba689a28ef64b73ac01a438a28f7ad27238e57c5172399139420cb', ''),
    'dist-kripke-table': (0, 'ecf54da3f15593a1936b0445e3597a494de7dcef99f66917f50ac8ecfe869b0d', ''),
    'dist-loops-trace': (0, '8953b76da78e1d8bc4bbfdd5a7a204a010bc6addbeaa7a4dbd68cd10be5d4f42', ''),
    'dist-mismatch': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: fixtures/hausdorff_sym.json: lifting does not fit the system functor: .sub: IdLift needs the identity functor\n'),
    'logic-distance': (0, '1248e053877cf99c2bd1c58f39fb79f2481fa85ff4aa18346ad13f13431f34aa', ''),
    'logic-eval': (0, '4cf469ba62727847296cd769ce2180cf845b9d9b7b22ab28dbdf193162673859', ''),
    'logic-eval-neg-json': (0, '04f01cb3edff293af440383f4131e4440149379272497919855768f3a5e6982d', ''),
    'logic-eval-neg-table': (0, 'f85efe6d4f039a83d546139f4678840311629da8d5d7f85fa886a96e93df9983', ''),
    'synth-table': (0, 'f99feeb56a14a6728c5bfe79c4715780b2e336ec495a646dec12157ec4f98898', ''),
}


def run_case(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("LAXKIT_SEED", raising=False)
    assert run_case(CASES[name]) == GOLDEN[name]


if __name__ == "__main__":
    os.chdir(ROOT)
    for name in sorted(CASES):
        print(f"    {name!r}: {run_case(CASES[name])!r},")
