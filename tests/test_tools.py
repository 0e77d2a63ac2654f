import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = '''"""A module docstring
over two lines."""
import math  # a trailing comment


# a comment on its own line
class Box:
    """A class docstring."""

    def area(self, x):
        """A function docstring."""
        text = """a string that
spans two lines"""
        return math.sqrt(x) + len(text)
'''


def test_line_counter_leaves_out_docstrings_comments_and_blank_lines(tmp_path, capsys):
    counter = load("count_lines")
    # import, class, def, the two lines of the string, return
    assert counter.code_lines(SNIPPET) == 6
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert counter.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["6", "1", "7"]
    assert lines[-1].split()[1] == "total"


# The listing of tools/output_digests.py.  The Monte-Carlo digests (mc_bus,
# validate_two) hold for the engines' random streams and arithmetic; a logged
# stream or arithmetic change re-pins them.  The others, the noise-free mc
# traces and the library lines (quadratures, synthesizer, brute force) among
# them, change only with the program's output; like the Monte-Carlo lines, the
# quadrature and synthesizer lines also hang on numpy's SIMD exp and cos.
OUTPUT_DIGESTS = """\
f2fabdd5c716878cc60eafcd375dd7272398107b05a7b391ea8ef50f52918611  rates_bus.csv exit 0
4f8a03a0d699bb61def0640595dfcc1a4c8da312e4b945568cffd4c592f65232  rates_bus.json exit 0
208f9b2e97489c6e5a4eae97020e0928bf5ceddeeb790e6c489c3b36c14fe998  rates_units.csv exit 0
07fd3e5aac3bf7825deabbfa2c25de7d0387c93e1e70e4cfbb0f4bfa7605172a  rates_units.json exit 0
f671ce5cd95428f6c2140396abc341b0898888470b6545b3fc83b5210bb09d4a  scan.csv exit 0
5987e1d28eab0b585513b90416f6910046fc3dacc3ea16174ad0b401008e3f90  scan.json exit 0
ac1e411cfd57359122f012854281f1ae46054385248a1d0d1961da14f8645066  couplings_grid.csv exit 0
f28c9860b7ccf01573d2f0411f8d093fcbdeb13d60f72970962a5ecedf4bcdaa  couplings_grid.json exit 0
daad56f726cef06e1293374aff68b6e0f9996271c7519de5d0ff5805efe6cdbc  couplings_list.csv exit 0
89af1d9d5eea30f122b2c85f847c10f281cb4060caa29b46c6e903f36b597b1c  couplings_list.json exit 0
11f29f00f4a241ab4b747ec93812475f50e8c23ba1dd6e05d947747379023273  mc_bus.csv exit 0
4c6d538b7f456e2bcd8c90f4232be656f928e64bbbddf7c64a4a05ad70be74a0  mc_bus.json exit 0
1f80bb0ea527d93824e6fe6dfbf4c914b77a7ff9452a773b295ae524098b7f8d  mc_decoherence_free.csv exit 0
b716fbd13f3394b45137ae0da6797dc99542da1f384b76ac15682569cbfdf5f8  mc_decoherence_free.json exit 0
01bcd4c578cb0c22da87e757f1920052dc39884b543e7215ef2ad3fbb4695a66  mc_decoherence_free_chunks.csv exit 0
fe4d18171b50d57f3bcce83df9d7210582ce1c7b8a28d4d11c4b9d0f63e6b5b3  mc_decoherence_free_chunks.json exit 0
a44277990bcfe5e797e5b033937e32f54ee75c99bfa50cf92af8c8405722ff57  validate_two.csv exit 1
458bbcde6e3862ace75a5aced6d5b8006f899c2647f5a1f8a9799793eeccea7f  validate_two.json exit 1
6c08e6a139bbb29f867dc3335b595f5daf734aa09739444e4f3fdf83f6826823  couplings.repr
16571725e8c92b11289768e0d922457541487c92c60785bdffff96b9977276f8  synthesizer.repr
39c84403111bb17befe7183b0359c5b764ac58d495dede0b75b68affa106440d  bruteforce.repr
"""


def test_output_digests_are_pinned(capsys):
    assert load("output_digests").main() == 0
    captured = capsys.readouterr()
    assert captured.out == OUTPUT_DIGESTS
    # the host's dispatch fingerprint goes to stderr, numpy's line first
    assert captured.err.startswith("numpy ") and "dispatch found:" in captured.err
