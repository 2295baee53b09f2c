"""Pinned outputs: one short SHA-256 per document, grouped.

Each group below recomputes a family of outputs of the package and
hashes each document's output on its own; ``same_outputs.json`` holds
the digests.  A refactor that claims to keep every output keeps this
test passing.  A change that alters an output on purpose regenerates
the file and says which groups changed and why:

    PYTHONPATH=src python tests/test_same_outputs.py --write

The groups:

* ``reports``: ``verify_theorem(...).to_json_dict()`` on the presets and
  on the benchmark documents of seeds 1-3;
* ``random``: the same on seeded ``random_hodge_data`` documents;
* ``bumped``: those documents with one tail of one weight moved or
  thickened through ``verify.weight_tails``;
* ``spectra``: ``theta_spectrum(data).multiplicity`` over a window;
* ``cli``: (exit code, stdout, stderr) of ``cli.main`` over a fixed
  command set, damaged documents included, but no argparse usage error,
  whose wording varies across Python versions;
* ``demos``: the stdout of each script in ``demos/``.
"""

import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import os
import random
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "same_outputs.json"

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

import archfactor.cli as cli_module  # noqa: E402
import archfactor.verify as verify_module  # noqa: E402
from archfactor import (PRESET_NAMES, Place, from_json_dict,  # noqa: E402
                        preset, theta_spectrum, to_json_dict, verify_theorem)
from helpers import full_diamond, random_hodge_data  # noqa: E402

_spec = importlib.util.spec_from_file_location(
    "bench_inputs", ROOT / "benchmark" / "inputs.py")
bench_inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_inputs)

# (max_dim, max_entry) of the random documents, each at both places
RANDOM_SHAPES = tuple(itertools.product((2, 4, 7), (4, 10 ** 3, 10 ** 6)))
RANDOM_PER_SHAPE = 100

MALFORMED = {
    "not_json.json": '{"dim": 1, "place": ',
    "missing_dim.json": '{"place": "real", "weights": []}',
    "bad_place.json": '{"dim": 1, "place": "quaternion", "weights": []}',
    "asymmetric.json": '{"dim": 1, "place": "complex", "weights": '
                       '[{"w": 1, "hpq": {"1,0": 2, "0,1": 1}}]}',
    "no_split.json": '{"dim": 1, "place": "real", "weights": '
                     '[{"w": 2, "hpq": {"1,1": 1}}]}',
}


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def random_documents():
    """(label, data) of the seeded random documents."""
    for i, (max_dim, max_entry) in enumerate(RANDOM_SHAPES):
        for place in Place:
            rng = random.Random(1600 + 2 * i + (place is Place.REAL))
            for k in range(RANDOM_PER_SHAPE):
                label = f"dim<={max_dim} h<={max_entry} {place.value} #{k}"
                yield label, random_hodge_data(rng, max_dim, max_entry, place)


def report_outputs():
    for name in PRESET_NAMES:
        yield f"preset:{name}", verify_theorem(preset(name)).to_json_dict()
    for seed in (1, 2, 3):
        for workload in ("diamonds", "sparse"):
            cases = getattr(bench_inputs, workload)(seed)
            for i, case in enumerate(cases):
                data = (preset(case.preset) if case.preset
                        else from_json_dict(case.doc))
                yield (f"{workload} seed {seed} #{i}",
                       verify_theorem(data).to_json_dict())


def random_outputs():
    for label, data in random_documents():
        yield label, verify_theorem(data).to_json_dict()


@contextlib.contextmanager
def bumped_tails(bump):
    """verify.weight_tails with the tail ``bump[1]`` (cyclically) of
    weight ``bump[0]`` moved by ``bump[2]`` and thickened by ``bump[3]``."""
    exact = verify_module.weight_tails

    def bumped(data, w):
        tails = exact(data, w)
        if w == bump[0] and tails:
            tails = list(tails)
            i = bump[1] % len(tails)
            first, step, mult = tails[i]
            tails[i] = (first + bump[2], step, mult + bump[3])
        return tails

    verify_module.weight_tails = bumped
    try:
        yield
    finally:
        verify_module.weight_tails = exact


def bumped_outputs():
    rng = random.Random(1699)
    for label, data in random_documents():
        if not data.weights:
            continue
        bump = (rng.choice(data.weights).w, rng.randrange(8),
                *rng.choice(((0, 1), (1, 0), (-1, 0))))
        with bumped_tails(bump):
            yield f"{label} bump {bump}", verify_theorem(data).to_json_dict()


def spectrum_outputs():
    datasets = [(f"preset:{name}", preset(name)) for name in PRESET_NAMES]
    for label, data in itertools.chain(datasets, random_documents()):
        measure = theta_spectrum(data)
        yield label, [[measure.multiplicity(parity, m)
                       for m in range(-2 * data.dim - 8, data.dim + 3)]
                      for parity in (0, 1)]


def cli_commands(files):
    """The fixed command set; ``files`` maps the valid document files to
    their dims."""
    yield ["presets"]
    yield ["presets", "--json"]
    for name in (*PRESET_NAMES, "torus"):
        yield ["presets", "--emit", name]
    dims = {f"preset:{name}": preset(name).dim for name in PRESET_NAMES}
    dims.update(files)
    for source, dim in dims.items():
        top = 2 * dim
        yield ["factors", source]
        yield ["factors", source, "--json"]
        for w, r in ((0, 1), (1, 1), (1, 2), (top, dim + 1), (top, 0)):
            yield ["deligne", source, "--w", str(w), "--r", str(r)]
        yield ["deligne", source, "--w", "0", "--r", "1", "--json"]
        for w in (0, 1, top):
            yield ["poles", source, "--w", str(w), "--from", "-5", "--to", "3"]
        yield ["poles", source, "--w", "1", "--from", "-2", "--to", "2",
               "--json"]
        yield ["poles", source, "--w", "0", "--from", "3", "--to", "1"]
        yield ["spectrum", source]
        yield ["spectrum", source, "--json", "--depth", "6"]
        yield ["spectrum", source, "--depth", "0"]
        for w in (0, 1, top, top + 1):
            yield ["spectrum", source, "--weight", str(w)]
        yield ["spectrum", source, "--weight", "1", "--json", "--depth", "4"]
        yield ["verify", source]
        yield ["verify", source, "--json"]
        yield ["verify", source, "--samples", "0.5", "1.5", "2.5"]
        yield ["verify", source, "--samples", "0", "4.5"]
        yield ["verify", source, "--samples", "-0.5", "3", "--guard", "0",
               "--json"]
        yield ["eval", source, "--s", "2.5"]
        yield ["eval", source, "--s", "-0.5", "--json"]
        yield ["eval", source, "--s", "0"]
        yield ["eval", source, "--s", "-1", "--guard", "0"]
    for name in (*MALFORMED, "missing.json"):
        yield ["factors", name]
        yield ["deligne", name, "--w", "0", "--r", "1"]
        yield ["poles", name, "--w", "0", "--from", "0", "--to", "1"]
        yield ["spectrum", name]
        yield ["verify", name]
        yield ["eval", name, "--s", "1.5"]
    # regdet: steps 0-3, multiplicity 0, empty and finite progressions,
    # points off, near and on the eigenvalues, with and without a guard
    for first, step, mult, finite in itertools.product(
            (-2, 3), (0, 1, 2, 3), (0, 2), (None, 0, 3)):
        argv = ["regdet", "--first", str(first), "--step", str(step),
                "--mult", str(mult)]
        if finite is not None:
            argv += ["--finite", str(finite)]
        yield argv
        yield argv + ["--json"]
        for s in (first + 0.75, first - 1.25):
            yield argv + ["--s", repr(s)]
        yield argv + ["--s", repr(first + 2.5), "--json"]
        for s in (first, first - step) if finite is None else (first + 0.5,):
            yield argv + ["--s", str(s), "--guard", "0"]
    yield ["regdet", "--first", "0", "--finite", "0", "--s", "0", "--guard",
           "0"]
    yield ["regdet", "--first", "2", "--finite", "3", "--s", "2", "--guard",
           "0"]
    # integers left of and between the terms of finite blocks, regular
    # points at which their GR ratios have removable poles
    yield ["regdet", "--first", "2", "--finite", "3", "--s", "-4"]
    yield ["regdet", "--first", "2", "--finite", "3", "--s", "-4", "--json"]
    yield ["regdet", "--first", "3", "--step", "3", "--finite", "3", "--s",
           "1"]


def cli_outputs():
    """(argv as text, (exit code, stdout, stderr)) in a scratch directory
    holding the document files, named by bare file names."""
    docs = {
        "real.json": random_hodge_data(random.Random(1701), 3, 50, Place.REAL),
        "complex.json": random_hodge_data(random.Random(1702), 3, 50,
                                          Place.COMPLEX),
        "diamond.json": full_diamond(Place.REAL, 2, 4),
        "sparse.json": from_json_dict(bench_inputs.sparse(1)[0].doc),
    }
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, data in docs.items():
                Path(name).write_text(json.dumps(to_json_dict(data)))
            for name, text in MALFORMED.items():
                Path(name).write_text(text)
            files = {name: data.dim for name, data in docs.items()}
            for argv in cli_commands(files):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli_module.main(argv)
                yield " ".join(argv), [code, out.getvalue(), err.getvalue()]
        finally:
            os.chdir(cwd)


def demo_outputs():
    for path in sorted((ROOT / "demos").glob("*.py")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(path), run_name="__main__")
        yield path.name, out.getvalue()


GROUPS = {
    "reports": report_outputs,
    "random": random_outputs,
    "bumped": bumped_outputs,
    "spectra": spectrum_outputs,
    "cli": cli_outputs,
    "demos": demo_outputs,
}


def compute(group: str) -> list:
    """[(label, digest)] of one group, in a fixed order."""
    return [(label, digest(value)) for label, value in GROUPS[group]()]


def test_outputs_match_the_pinned_digests():
    pinned = json.loads(DIGESTS.read_text())
    assert sorted(pinned) == sorted(GROUPS)
    for group in GROUPS:
        got = compute(group)
        want = pinned[group]
        for i, ((label, value), expected) in enumerate(zip(got, want)):
            assert value == expected, (
                f"group {group!r}, document {i} ({label}): digest {value}, "
                f"pinned {expected}")
        assert len(got) == len(want), (group, len(got), len(want))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write  (rewrites {DIGESTS.name})")
    doc = {group: [value for _, value in compute(group)] for group in GROUPS}
    DIGESTS.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {DIGESTS}: " + ", ".join(
        f"{group} {len(values)}" for group, values in doc.items()))
