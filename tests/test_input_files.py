"""Bad input files on the command line: exit 1 with one ``error: <file>...`` line.

The files are the bundled ``crossing`` scene's, simulated with a panning
camera so that an ``ego.txt`` is written too. The defect tests pin inputs that
used to end in a traceback or in a silently wrong run; the fuzz test mutates
one file at a time with a seeded generator.
"""

import json
import os
from importlib import resources

import numpy as np
import pytest

from bevtrack.cli import main


@pytest.fixture(scope="module")
def crossing(tmp_path_factory):
    """Directory with sim/ (the simulated files) and trk/ (their tracker output)."""
    d = json.loads(resources.files("bevtrack").joinpath("data", "crossing.json").read_text())
    d["camera_path"] = [[0.02, 0.0]] * (round(d["duration"] * d["fps"]) - 1)
    root = tmp_path_factory.mktemp("crossing")
    (root / "scenario.json").write_text(json.dumps(d))
    scenario = str(root / "scenario.json")
    assert main(["simulate", "--scenario", scenario, "--out", str(root / "sim")]) == 0
    assert main(track_args(root / "sim", {}, root / "trk")) == 0
    return root


TRACK_FILES = {
    "det": "det.txt",
    "appearance": "appearance.txt",
    "ego": "ego.txt",
    "homography": "homography.txt",
}


def track_args(sim, replaced: dict, out) -> list:
    """``track`` over the simulated files, with some of them replaced by other paths."""
    args = ["track", "--out", str(out)]
    for flag, name in TRACK_FILES.items():
        args += [f"--{flag}", str(replaced.get(flag, sim / name))]
    return args


def evaluate_args(root, gt, out) -> list:
    hyp = root / "trk" / "track.txt"
    return ["evaluate", "--gt", str(gt), "--hyp", str(hyp), "--out", str(out)]


def edited(root, tmp_path, name: str, edit) -> str:
    """A copy of the simulated file with edit(lines) applied to its list of lines."""
    lines = (root / "sim" / name).read_text().splitlines()
    edit(lines)
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def set_field(i: int, j: int, value: str, sep=None):
    def edit(lines):
        fields = lines[i].split(sep)
        fields[j] = value
        lines[i] = (sep or " ").join(fields)

    return edit


def run_one_error(capsys, args) -> str:
    """Run the CLI, which must exit 1 with one error line and no traceback; return that line."""
    code = main(args)
    err = capsys.readouterr().err
    assert code == 1, err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1, err
    return lines[0]


class TestDefects:
    @pytest.mark.parametrize("column, name", [(0, "frame"), (1, "id")])
    def test_fractional_frame_or_id_in_detections(self, crossing, tmp_path, capsys, column, name):
        det = edited(crossing, tmp_path, "det.txt", set_field(4, column, "3.5", ","))
        err = run_one_error(capsys, track_args(crossing / "sim", {"det": det}, tmp_path / "o"))
        assert err == f"error: {det}:5: {name} must be an integer"

    def test_box_edge_overflow_in_detections(self, crossing, tmp_path, capsys):
        def overflow(lines):
            set_field(4, 3, "1e308", ",")(lines)
            set_field(4, 5, "1e308", ",")(lines)

        det = edited(crossing, tmp_path, "det.txt", overflow)
        err = run_one_error(capsys, track_args(crossing / "sim", {"det": det}, tmp_path / "o"))
        assert err == f"error: {det}:5: left + width or top + height is not finite"

    def test_fractional_frame_in_ground_truth(self, crossing, tmp_path, capsys):
        gt = edited(crossing, tmp_path, "gt.txt", set_field(9, 0, "0.5", ","))
        err = run_one_error(capsys, evaluate_args(crossing, gt, tmp_path / "r.json"))
        assert err == f"error: {gt}:10: frame must be an integer"

    def test_descriptor_length_names_its_line(self, crossing, tmp_path, capsys):
        def drop_last_value(lines):
            lines[6] = " ".join(lines[6].split()[:-1])

        app = edited(crossing, tmp_path, "appearance.txt", drop_last_value)
        args = track_args(crossing / "sim", {"appearance": app}, tmp_path / "o")
        err = run_one_error(capsys, args)
        assert err.startswith(f"error: {app}:7: inconsistent descriptor lengths")

    def test_non_unit_descriptor_line_counts_blank_lines(self, crossing, tmp_path, capsys):
        def blank_line_then_double(lines):
            lines[4] = " ".join(str(2.0 * float(x)) for x in lines[4].split())
            lines.insert(0, "")

        app = edited(crossing, tmp_path, "appearance.txt", blank_line_then_double)
        args = track_args(crossing / "sim", {"appearance": app}, tmp_path / "o")
        err = run_one_error(capsys, args)
        assert err == f"error: {app}:6: descriptor is not unit length"

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_non_finite_homography_entry(self, crossing, tmp_path, capsys, value):
        h = edited(crossing, tmp_path, "homography.txt", set_field(2, 1, value))
        args = track_args(crossing / "sim", {"homography": h}, tmp_path / "o")
        err = run_one_error(capsys, args)
        assert err == f"error: {h}:3: non-finite value"

    def test_singular_homography_names_the_file(self, crossing, tmp_path, capsys):
        def zero_row(lines):
            lines[2] = "0 0 0"

        h = edited(crossing, tmp_path, "homography.txt", zero_row)
        args = track_args(crossing / "sim", {"homography": h}, tmp_path / "o")
        err = run_one_error(capsys, args)
        assert err == f"error: {h}: homography matrix is singular"

    def test_ego_must_start_at_zero(self, crossing, tmp_path, capsys):
        ego = edited(crossing, tmp_path, "ego.txt", set_field(0, 0, "0.25"))
        err = run_one_error(capsys, track_args(crossing / "sim", {"ego": ego}, tmp_path / "o"))
        assert err == f"error: {ego}:1: offset at frame 0 must be (0, 0)"

    def test_ego_must_cover_every_detection_frame(self, crossing, tmp_path, capsys):
        def keep_two(lines):
            del lines[2:]

        ego = edited(crossing, tmp_path, "ego.txt", keep_two)
        last = max(int(r.split(",")[0]) for r in (crossing / "sim" / "det.txt").read_text().split())
        out = tmp_path / "o"
        err = run_one_error(capsys, track_args(crossing / "sim", {"ego": ego}, out))
        assert err == f"error: {ego}: 2 offsets, detections reach frame {last}"
        assert not out.exists()


# -- seeded file fuzz ---------------------------------------------------------------

MUTATIONS = ("drop_field", "non_number", "non_finite", "fractional_frame", "truncate", "short_row")
FUZZED = {  # file -> field separator
    "det.txt": ",",
    "gt.txt": ",",
    "appearance.txt": None,
    "ego.txt": None,
    "homography.txt": None,
}


def mutate(text: str, sep, kind: str, rng) -> str:
    """text with one mutation of the given kind at a random row and field."""
    if kind == "truncate":
        return text[: int(rng.integers(len(text)))]
    lines = text.splitlines()
    i = int(rng.integers(len(lines)))
    fields = lines[i].split(sep)
    j = int(rng.integers(len(fields)))
    if kind == "drop_field":
        del fields[j]
    elif kind == "non_number":
        fields[j] = str(rng.choice(["x", "1.2.3", "0x10", "--1", "1e", "#"]))
    elif kind == "non_finite":
        fields[j] = str(rng.choice(["nan", "inf", "-inf", "NaN", "1e400"]))
    elif kind == "fractional_frame":
        # the frame column of a MOT file; any field of the others
        j = 0 if sep == "," else j
        fields[j] = fields[j] + ".5" if "." not in fields[j] else fields[j] + "1"
    elif kind == "short_row":
        fields = fields[: int(rng.integers(len(fields)))]
    lines[i] = (sep or " ").join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("kind", MUTATIONS)
@pytest.mark.parametrize("name", sorted(FUZZED))
def test_fuzzed_file_gives_output_or_one_error(crossing, tmp_path, capsys, name, kind, seed):
    rng = np.random.default_rng([seed, MUTATIONS.index(kind), sorted(FUZZED).index(name)])
    bad = tmp_path / name
    bad.write_text(mutate((crossing / "sim" / name).read_text(), FUZZED[name], kind, rng))
    out = tmp_path / "o"
    if name == "gt.txt":
        args, inputs, written = evaluate_args(crossing, bad, out), [bad], [out]
    else:
        flag = next(f for f, n in TRACK_FILES.items() if n == name)
        args = track_args(crossing / "sim", {flag: bad}, out)
        inputs = [crossing / "sim" / n for n in TRACK_FILES.values() if n != name] + [bad]
        written = [out / "track.txt", out / "events.jsonl"]
    code = main(args)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 0:
        assert all(os.path.exists(p) for p in written)
    else:
        assert code == 1
        assert len(err.splitlines()) == 1, err
        assert any(err.startswith(f"error: {p}") for p in inputs), err
