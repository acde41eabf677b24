"""Seeded fuzz of the CLI's options, its NIfTI inputs and its config against
its exit-code contract.

An option case runs `cli.main` on a small valid command with one option
mutated, dropped or misspelled, or one unknown option added. A header case
mutates the header fields `read_nifti` reads in one input file, or cuts the
file short, as `.nii` or `.nii.gz`, and runs `eval` and `extract --side 16` on
it. A payload case flips one bit in an input's compressed bytes, as `.nii.gz`,
or in its voxel bytes, as `.nii`, and runs the same two commands; a
`.nii.gz` one of them reads must hold the original bytes. A config case puts
one backend's predictor object at the top level or in a stage entry of a
valid config, mutates one value at the top level, in a stage entry or in
that predictor object, and runs `extract --side 16` on it. A roster case
gives the valid config a refinement roster of one to four stages, each an
oracle or a constant-0 predictor, and runs `extract --side 16` on it: the
vote is over the whole roster, so it exits 0 with a mask exactly when the
stages before the first constant-0 one are a strict majority, and 2
otherwise. Each case checks
what the README documents: exit 0, 1 or 2; on 1, exactly one
stderr line `error: …`; on 2, exactly `no brain found`; no traceback and no
warning. Every size and count stays at 16 or below (`synth --count` at 2), so
the whole fuzz takes a few seconds: `--side` is never dropped, and `simulate`,
which builds fixed 192³ phantoms, always gets a `--seeds` below 1 or not an
integer and must fail before it runs.
"""

import gzip
import json
import os
import random
import struct
import sys
import warnings
import zlib

import numpy as np
import pytest

from braincascade import cascade, cli, io_nifti
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
             [("--csv", "scores.csv", PATHS)]),
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
    return check_main(argv, monkeypatch, capsys)


def check_main(argv, monkeypatch, capsys):
    """Run ``argv`` through `cli.main`; check the contract."""
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


def json_values(pool):
    """Each value of a CLI pool as a JSON string and, where it reads as one, as
    a JSON number."""
    out = []
    for text in pool:
        out.append(text)
        for number in (int, float):
            try:
                out.append(number(text))
                break
            except ValueError:
                pass
    return out


# the option pools' values, each once, and the JSON types they lack
CONFIG_VALUES = json_values(dict.fromkeys(SIZES + INTS + PATHS)) + [None, True, [], {}]
# sizes and counts stay at 16 or below: a stage's window and step, and a noisy
# oracle's rates, the mean number of spheres it draws per window; an infinity
# is rejected, not used
SIZE_KEYS = {"window", "step", "fp_blob_rate", "fn_hole_rate"}
SIZE_VALUES = [v for v in CONFIG_VALUES if not (isinstance(v, (int, float)) and 16 < v < np.inf)]
SERVER = os.path.join(os.path.dirname(__file__), "fixtures", "echo_server.py")
# a valid predictor object of each backend, holding every key it accepts
PREDICTORS = {
    "oracle": {"backend": "oracle"},
    "noisy_oracle": {"backend": "noisy_oracle", "fp_blob_rate": 0.5, "fp_blob_radius": [1, 3],
                     "fn_hole_rate": 0.5, "per_voxel_fp": 0.01, "seed_offset": 1,
                     "model_seed": 2},
    "constant": {"backend": "constant", "value": 0.5},
    # -S: no site import, so the server starts in about 10 ms
    "external": {"backend": "external", "timeout": 10.0,
                 "command": [sys.executable, "-S", SERVER, "constant", "0.5"]},
}
CONFIG_SEEDS = range(64)


def make_config(seed, d):
    """The config of config fuzz case ``seed``: the fuzz inputs' config with
    one backend's predictor object at the top level or in one stage entry;
    then, at the top level, in one stage entry or in that predictor object,
    one key the schema accepts set to a pooled value, one key dropped, or one
    unknown key added. Returns the config and where it was mutated."""
    rng = random.Random(seed)
    cfg = json.loads((d / "config.json").read_text())
    backend = rng.choice(sorted(PREDICTORS))
    predictor = json.loads(json.dumps(PREDICTORS[backend]))
    stage = rng.choice(cfg["bfs_stages"] + cfg["dfs_stages"])
    rng.choice([cfg, stage])["predictor"] = predictor
    where, obj, keys = rng.choice([
        ("top level", cfg, cascade._TOP_KEYS), ("stage", stage, cascade._STAGE_KEYS),
        (f"{backend} predictor", predictor, ["backend", *cascade._BACKEND_KEYS[backend]])])
    kind = rng.choice(["value", "value", "drop", "unknown"])
    if kind == "value":
        key = rng.choice(sorted(keys))
        obj[key] = rng.choice(SIZE_VALUES if key in SIZE_KEYS else CONFIG_VALUES)
    elif kind == "drop":
        del obj[rng.choice(sorted(obj))]
    else:
        obj["bogus"] = rng.choice(CONFIG_VALUES)
    return cfg, where


@pytest.mark.parametrize("seed", CONFIG_SEEDS)
def test_config_value_fuzz(seed, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    (tmp_path / "case.json").write_text(json.dumps(make_config(seed, tmp_path)[0]))
    check_main(["extract", "scan.nii", "--config", "case.json", "--out", "out.nii",
                "--side", "16"], monkeypatch, capsys)


def test_config_fuzz_mutates_every_level(tmp_path):
    """The seeds mutate the top level, a stage entry and each backend's
    predictor object."""
    write_inputs(tmp_path)
    assert {make_config(seed, tmp_path)[1] for seed in CONFIG_SEEDS} == {
        "top level", "stage", *(f"{backend} predictor" for backend in PREDICTORS)}


ROSTER_SEEDS = range(24)


def make_roster(seed):
    """The refinement roster of roster case ``seed``: one to four stages with
    strictly decreasing windows of 16 or below, each an oracle or a
    constant-0 predictor. Returns the stages and whether the stages before the
    first constant-0 one are a strict majority of them."""
    rng = random.Random(seed)
    windows = sorted(rng.sample(range(2, 17), rng.randint(1, 4)), reverse=True)
    stages = []
    for i, window in enumerate(windows):
        stage = {"name": f"s{i}", "window": window,
                 "step": rng.randint(max(1, window // 2), window)}
        if rng.random() < 0.4:
            stage["predictor"] = {"backend": "constant", "value": 0.0}
        stages.append(stage)
    ran = next((i for i, st in enumerate(stages) if "predictor" in st), len(stages))
    return stages, 2 * ran > len(stages)


@pytest.mark.parametrize("seed", ROSTER_SEEDS)
def test_roster_vote_fuzz(seed, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    cfg = json.loads((tmp_path / "config.json").read_text())
    cfg["dfs_stages"], majority = make_roster(seed)
    (tmp_path / "case.json").write_text(json.dumps(cfg))
    code, _ = check_main(["extract", "scan.nii", "--config", "case.json", "--out", "out.nii",
                          "--side", "16"], monkeypatch, capsys)
    assert code == (0 if majority else 2), cfg["dfs_stages"]
    assert io_nifti.read_nifti(tmp_path / "out.nii", kind=Kind.MASK).data.any() == majority


def test_roster_fuzz_reaches_both_exits_at_every_length():
    cases = {(len(stages), majority) for stages, majority in map(make_roster, ROSTER_SEEDS)}
    assert cases == {(n, majority) for n in range(1, 5) for majority in (True, False)}


FLOATS = [0.0, -1.0, 1e-30, 1e-3, 0.5, 2.0, 351.0, 353.0, 700.0, 1e12, 1e30, 3e38,
          float("nan"), float("inf"), float("-inf")]
DIMS = [-32768, -1, 0, 1, 2, 3, 4, 5, 8, 16, 255, 32767]
# offset, struct format and value pool of each header field read_nifti reads
HEADER_FIELDS = {
    "sizeof_hdr": (0, "<i", [-1, 0, 347, 349, 540, 2**31 - 1]),
    **{f"dim[{i}]": (40 + 2 * i, "<h", DIMS) for i in range(5)},
    "datatype": (70, "<h", [-1, 0, 1, 2, 4, 8, 16, 64, 256, 512, 768]),
    **{f"pixdim[{i}]": (76 + 4 * i, "<f", FLOATS) for i in (1, 2, 3)},
    "vox_offset": (108, "<f", FLOATS + [352.0, 356.0]),
    "scl_slope": (112, "<f", FLOATS + [1.0]),
    "scl_inter": (116, "<f", FLOATS),
}
MAGICS = [b"ni1\x00", b"n+2\x00", b"\x00" * 4, b"n+1 ", b"N+1\x00"]
HEADER_SEEDS = range(96)


def mutate_input(seed, d):
    """Apply header fuzz case ``seed`` to one of the inputs in ``d``: one to
    three header fields or the magic set to a pooled value, or the file cut
    short at a seeded byte count, written as `.nii` or `.nii.gz`. Returns the
    file names to run the commands on."""
    rng = random.Random(seed)
    names = {name: name for name in ("scan.nii", "gt.nii", "empty.nii")}
    name = rng.choice(sorted(names))
    raw = bytearray((d / name).read_bytes())
    truncate = False
    for _ in range(rng.choice([1, 1, 2, 3])):
        field = rng.choice(sorted(HEADER_FIELDS) + ["magic", "truncate"])
        if field == "magic":
            raw[344:348] = rng.choice(MAGICS)
        elif field == "truncate":
            truncate = True
        else:
            offset, fmt, pool = HEADER_FIELDS[field]
            struct.pack_into(fmt, raw, offset, rng.choice(pool))
    if rng.random() < 0.5:
        raw = gzip.compress(raw, 1, mtime=0)
        names[name] += ".gz"
    if truncate:
        raw = raw[:rng.randrange(len(raw))]
    (d / names[name]).write_bytes(raw)
    return names


def run_header_case(seed, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    names = mutate_input(seed, tmp_path)
    return [check_main(argv, monkeypatch, capsys) for argv in (
        ["eval", names["empty.nii"], names["gt.nii"]],
        ["extract", names["scan.nii"], "--config", "config.json", "--gt", names["gt.nii"],
         "--out", "out.nii", "--side", "16"])]


@pytest.mark.parametrize("seed", HEADER_SEEDS)
def test_nifti_header_fuzz(seed, tmp_path, monkeypatch, capsys):
    run_header_case(seed, tmp_path, monkeypatch, capsys)


def test_header_seed_46_truncated_gzip(tmp_path, monkeypatch, capsys):
    """A `.nii.gz` cut short made gzip raise `EOFError`, which `main` did not
    catch: a traceback. It is now one `error:` line naming the file."""
    assert run_header_case(46, tmp_path, monkeypatch, capsys)[0] == (
        1, "error: empty.nii.gz: truncated gzip stream\n")


PAYLOAD_SEEDS = range(64)


def flip_payload(seed, d):
    """Apply payload fuzz case ``seed`` to one of the inputs in ``d``: one
    seeded bit flipped in its compressed bytes, written as `.nii.gz`, or in
    its voxel bytes, written as `.nii`. Returns the file names to run the
    commands on, the name of the flipped file and its bytes."""
    rng = random.Random(seed)
    names = {name: name for name in ("scan.nii", "gt.nii", "empty.nii")}
    name = rng.choice(sorted(names))
    raw = (d / name).read_bytes()
    if rng.random() < 0.5:
        raw = bytearray(gzip.compress(raw, 1, mtime=0))
        names[name] += ".gz"
        i = rng.randrange(len(raw))
    else:
        raw = bytearray(raw)
        i = rng.randrange(io_nifti.VOX_OFFSET, len(raw))
    raw[i] ^= 1 << rng.randrange(8)
    (d / names[name]).write_bytes(raw)
    return names, names[name], bytes(raw)


@pytest.mark.parametrize("seed", PAYLOAD_SEEDS)
def test_nifti_payload_fuzz(seed, tmp_path, monkeypatch, capsys):
    """Each command keeps the contract; a `.nii.gz` that a command reads
    without error holds the original bytes, so a flipped bit in a gzip
    stream is never read as other voxel values."""
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    names, flipped, raw = flip_payload(seed, tmp_path)
    for argv in (["eval", names["empty.nii"], names["gt.nii"]],
                 ["extract", names["scan.nii"], "--config", "config.json",
                  "--gt", names["gt.nii"], "--out", "out.nii", "--side", "16"]):
        code, _ = check_main(argv, monkeypatch, capsys)
        if code != 1 and flipped in argv and flipped.endswith(".gz"):
            assert gzip.decompress(raw) == (tmp_path / flipped[:-3]).read_bytes(), argv


def gzipped_mask(d, corrupt):
    """`empty.nii` gzipped, then passed through ``corrupt``, as `empty.nii.gz`."""
    write_inputs(d)
    (d / "empty.nii.gz").write_bytes(corrupt(gzip.compress((d / "empty.nii").read_bytes())))
    return ["eval", "empty.nii.gz", "gt.nii"]


def stored_block(raw):
    """A gzip stream of ``raw`` in one stored deflate block whose NLEN is not
    the complement of its LEN."""
    header = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff"
    return (header + b"\x01" + struct.pack("<HH", len(raw), len(raw)) + raw
            + struct.pack("<II", zlib.crc32(raw), len(raw)))


@pytest.mark.parametrize("corrupt, line", [
    (lambda gz: stored_block(gzip.decompress(gz)), "corrupt gzip stream: Error -3 while "
     "decompressing data: invalid stored block lengths"),
    (lambda gz: gz[:-8] + bytes([gz[-8] ^ 1]) + gz[-7:], "corrupt gzip stream: CRC check failed"),
    (lambda gz: gz[:-3], "truncated gzip stream"),
], ids=["deflate-data", "crc", "cut-in-trailer"])
def test_corrupt_gzip_stream(corrupt, line, tmp_path, monkeypatch, capsys):
    """Invalid deflate data raised a bare `zlib.error` (a traceback); a CRC
    mismatch and a stream cut inside its 8-byte trailer read without error,
    since the reader stopped before the trailer. Each is now one line
    naming the file."""
    monkeypatch.chdir(tmp_path)
    code, err = check_main(gzipped_mask(tmp_path, corrupt), monkeypatch, capsys)
    assert code == 1 and err.startswith(f"error: empty.nii.gz: {line}"), err


def signalling_nan(path, slope=1.0):
    """Set the centre voxel of a 20×18×16 float32 file at ``path`` to the
    signalling NaN 0x7f800001, and its scl_slope to ``slope``."""
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, io_nifti.VOX_OFFSET + 4 * (10 + 20 * 9 + 20 * 18 * 8), 0x7F800001)
    struct.pack_into("<f", raw, 112, slope)
    path.write_bytes(raw)


def test_signalling_nan_in_a_mask(tmp_path, monkeypatch, capsys):
    """`is_binary` warned `invalid value encountered in cast` before the line."""
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    io_nifti.write_nifti(Volume(np.zeros((20, 18, 16), np.float32), kind=Kind.MASK),
                         tmp_path / "snan.nii", "float32")
    signalling_nan(tmp_path / "snan.nii")
    assert check_main(["eval", "snan.nii", "gt.nii"], monkeypatch, capsys) == (
        1, "error: snan.nii: mask volume contains values outside {0, 1}\n")


def test_signalling_nan_scaled(tmp_path, monkeypatch, capsys):
    """Scaling by scl_slope 2 warned `invalid value encountered in multiply`
    before the line."""
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    signalling_nan(tmp_path / "scan.nii", slope=2.0)
    argv = ["extract", "scan.nii", "--config", "config.json", "--out", "out.nii", "--side", "16"]
    assert check_main(argv, monkeypatch, capsys) == (
        1, "error: intensities must be finite, got min nan and max nan\n")


def test_scaled_value_beyond_float32(tmp_path, monkeypatch, capsys):
    """float32 bytes read as int16 and scaled by 3e38 overflow float32, and
    resampling the infinities makes NaNs: numpy printed a RuntimeWarning for
    each before the `error:` line. Now only the error line is printed."""
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    raw = bytearray((tmp_path / "scan.nii").read_bytes())
    struct.pack_into("<h", raw, 70, 4)
    struct.pack_into("<f", raw, 112, 3e38)
    (tmp_path / "scan.nii").write_bytes(raw)
    argv = ["extract", "scan.nii", "--config", "config.json", "--out", "out.nii", "--side", "16"]
    assert check_main(argv, monkeypatch, capsys) == (
        1, "error: intensities must be finite, got min -inf and max inf\n")


def test_nan_outside_the_cube(tmp_path, monkeypatch, capsys):
    """A quiet NaN at voxel (0, 0, 0) lies outside the 16-voxel cube: only
    the cube was checked, so `extract` wrote a mask and exited 0. The whole
    scan is checked now."""
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    raw = bytearray((tmp_path / "scan.nii").read_bytes())
    struct.pack_into("<f", raw, io_nifti.VOX_OFFSET, float("nan"))
    (tmp_path / "scan.nii").write_bytes(raw)
    argv = ["extract", "scan.nii", "--config", "config.json", "--out", "out.nii", "--side", "16"]
    assert check_main(argv, monkeypatch, capsys) == (
        1, "error: intensities must be finite, got min nan and max nan\n")
    assert not (tmp_path / "out.nii").exists()
