"""Seeded fuzz of the CLI's options against its exit-code contract.

Each case runs `cli.main` on a small valid command with one option mutated,
dropped or misspelled, or one unknown option added, and checks what the
README documents: exit 0, 1 or 2; on 1, exactly one stderr line `error: …`;
on 2, exactly `no brain found`; no traceback and no warning. Every size and
count stays at 16 or below (`synth --count` at 2), so the whole fuzz takes a
few seconds: `--side` is never dropped, and `simulate`, which builds fixed 192³
phantoms, always gets a `--seeds` below 1 or not an integer and must fail
before it runs.
"""

import json
import random
import warnings

import numpy as np
import pytest

from braincascade import cli, io_nifti
from braincascade.volume import Kind, Volume

SEEDS = range(128)
BAD = ["0", "-1", "1e-9", "1e3", "inf", "-inf", "nan", "", "x", "1.5"]
SIZES = BAD + ["1", "2", "8", "16"]
SPACINGS = BAD + ["0.5", "2"]
INTS = BAD + ["7", "4294967296"]
PATHS = ["", "missing.nii", ".", "nodir/f.nii", "new\nline.nii", "scan.nii", "gt.nii",
         "empty.nii", "config.json"]
EXTRAS = [["--threads", "2"], ["--bogus"], ["stray"]]
KEEP = {"--side", "--seeds"}


def write_inputs(d):
    """A 20×18×16 scan at anisotropic spacing, its mask, an empty mask and an
    oracle config whose windows fit `--side 16`."""
    spacing = (1.3, 0.9, 1.6)
    grid = np.indices((20, 18, 16)).astype(np.float32)
    r2 = sum(((g - c) * s / 6.0) ** 2 for g, c, s in zip(grid, (10, 9, 8), spacing))
    gt = (r2 <= 1.0).astype(np.uint8)
    io_nifti.write_nifti(Volume(gt.astype(np.float32) * 0.8 + 0.1, spacing, Kind.INTENSITY),
                         d / "scan.nii", "float32")
    io_nifti.write_nifti(Volume(gt, spacing, Kind.MASK), d / "gt.nii", "uint8")
    io_nifti.write_nifti(Volume(np.zeros_like(gt), spacing, Kind.MASK), d / "empty.nii", "uint8")
    (d / "config.json").write_text(json.dumps({
        "gt": "gt.nii",
        "predictor": {"backend": "oracle"},
        "bfs_stages": [{"name": "a", "window": 16, "step": 8}],
        "dfs_stages": [{"name": "b", "window": 12, "step": 4},
                       {"name": "c", "window": 8, "step": 4}],
    }))


# each command: (positionals with their value pools, [(option, value, pool)])
COMMANDS = {
    "extract": ([("scan.nii", PATHS)],
                [("--config", "config.json", PATHS), ("--out", "out.nii", PATHS),
                 ("--gt", "gt.nii", PATHS), ("--trace", "trace.json", PATHS),
                 ("--seed", "3", INTS), ("--side", "16", SIZES),
                 ("--spacing", "1.0", SPACINGS)]),
    "eval": ([("empty.nii", PATHS), ("gt.nii", PATHS)],
             [("--csv", "scores.csv", PATHS), ("--side", "16", SIZES),
              ("--spacing", "1.0", SPACINGS)]),
    "synth": ([],
              [("--model", "D", ["E", "", "d", "AB", "x"]),
               ("--count", "2", BAD + ["1", "2"]), ("--seed", "7", INTS),
               ("--outdir", "pairs", PATHS)]),
    "plan": ([],
             [("--dims", "16,12,8", ["16,16", "0,1,1", "-1,2,2", "16,16,16,16", "1e3,1,1",
                                    "x", "", "16,,16", "1.5,2,2"]),
              ("--window", "8", SIZES), ("--step", "4", SIZES)]),
    "simulate": ([],
                 [("--seeds", "0", BAD), ("--seed", "1", INTS),
                  ("--noise-spec", "{}", ["", "x", "[]", "null", '{"bogus": 1}']),
                  ("--report", "rep", PATHS)]),
}
# what a case may add beyond one unknown option
COMMAND_EXTRAS = {"synth": [["--params", "p.json"], ["--labelmap", "gt.nii"],
                            ["--labelmap", "missing.nii"]]}


def misspell(rng, flag):
    name = flag[2:]
    i = rng.randrange(len(name))
    choice = rng.randrange(3)
    if choice == 0:
        name = name[:i] + name[i + 1:]
    elif choice == 1:
        name = name[:i] + name[i] * 2 + name[i:]
    else:
        name = name[:i] + "q" + name[i:]
    return "--" + name


def make_case(seed):
    """The argv of fuzz case ``seed``."""
    rng = random.Random(seed)
    cmd = rng.choice(sorted(COMMANDS))
    positionals, options = COMMANDS[cmd]
    args = [[value] for value, _ in positionals] + [[flag, value] for flag, value, _ in options]
    pools = [pool for _, pool in positionals] + [pool for _, _, pool in options]
    if cmd == "simulate":
        args[0][1] = rng.choice(BAD)
    kind = rng.choice(["value", "value", "drop", "misspell", "extra"])
    # dropped, --side defaults to 192 and simulate's --seeds to 20 runs, and a
    # misspelled --seeds can become --seed
    i = rng.choice([i for i, arg in enumerate(args) if kind == "value" or arg[0] not in KEEP])
    if kind == "value":
        args[i][-1] = rng.choice(pools[i])
    elif kind == "drop":
        del args[i]
    elif kind == "misspell" and len(args[i]) == 2:
        args[i][0] = misspell(rng, args[i][0])
    else:
        args.append(rng.choice(EXTRAS + COMMAND_EXTRAS.get(cmd, [])))
    rng.shuffle(args)
    return [cmd] + [a for arg in args for a in arg]


def run_case(argv, tmp_path, monkeypatch, capsys):
    """Run ``argv`` in ``tmp_path`` beside fresh inputs; check the contract."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.DEFAULT_CONFIG_ENV, raising=False)
    write_inputs(tmp_path)

    if argv[0] == "simulate":
        def ran(*args):
            raise AssertionError(f"simulate ran: {argv}")
        monkeypatch.setattr(cli.synth, "make_phantom_label_map", ran)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    out, err = capsys.readouterr()
    assert [str(w.message) for w in caught] == [], argv
    assert "Traceback" not in out + err, argv
    assert code in (0, 1, 2), argv
    if code == 0:
        assert err == "", argv
    elif code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), \
            (argv, err)
    else:
        assert err == "no brain found\n", (argv, err)
    return code, err


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_option_fuzz(seed, tmp_path, monkeypatch, capsys):
    argv = make_case(seed)
    code, _ = run_case(argv, tmp_path, monkeypatch, capsys)
    if argv[0] == "simulate":
        assert code == 1, argv


def test_seed_32_newline_in_a_path(tmp_path, monkeypatch, capsys):
    """A newline in a path is escaped, so the error stays one line; this
    case's `eval` printed `error: file not found: new` and `line.nii` apart."""
    argv = make_case(32)
    assert "new\nline.nii" in argv
    assert run_case(argv, tmp_path, monkeypatch, capsys) == (
        1, "error: file not found: new\\nline.nii\n")


def test_base_commands_succeed(tmp_path, monkeypatch, capsys):
    """The unmutated commands run, so each mutation is what a case tests."""
    for cmd in ("extract", "eval", "synth", "plan"):
        positionals, options = COMMANDS[cmd]
        argv = [cmd] + [v for v, _ in positionals] + [a for f, v, _ in options for a in (f, v)]
        (tmp_path / cmd).mkdir()
        assert run_case(argv, tmp_path / cmd, monkeypatch, capsys)[0] == 0, argv
