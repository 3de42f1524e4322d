"""The compare mode of ``tools/study_outputs.py`` on two small output trees."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "study_outputs", os.path.join(ROOT, "tools", "study_outputs.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def write(root, files):
    for path, text in files.items():
        os.makedirs(os.path.dirname(os.path.join(root, path)), exist_ok=True)
        with open(os.path.join(root, path), "w") as fh:
            fh.write(text)


def test_compare_reports_each_differing_file(tmp_path, capsys):
    base, head = str(tmp_path / "base"), str(tmp_path / "head")
    same = {"w/a/same.csv": "j,lambda\n1,2.5\n"}
    write(base, {**same, "w/a/limit.csv": "branch,lambda,residual\nx,100.0,1e-15\nx,200.0,0\n",
                 "w/a/run.json": '{"passed": true, "worst": [1.0, 4.0]}',
                 "w/a/gone.csv": "j\n1\n"})
    write(head, {**same, "w/a/limit.csv": "branch,lambda,residual\nx,100.000000001,3e-15\ny,200.0,0\n",
                 "w/a/run.json": '{"passed": true, "worst": [1.0, 5.0]}',
                 "w/a/new.csv": "j\n1\n"})
    assert load_tool().compare(base, head) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"w/a/gone.csv: only in {base}",
        f"w/a/new.csv: only in {head}",
        "w/a/limit.csv: 2 of 4 numeric fields differ, largest relative difference 6.67e-01 "
        "(lambda 1.00e-11, residual 6.67e-01); 1 text fields differ",
        "w/a/run.json: 1 of 2 numeric fields differ, largest relative difference 2.00e-01",
    ]


def test_compare_of_equal_trees_says_identical(tmp_path, capsys):
    files = {"w/a/limit.csv": "j,lambda\n1,2.5\n"}
    write(str(tmp_path / "base"), files)
    write(str(tmp_path / "head"), files)
    load_tool().compare(str(tmp_path / "base"), str(tmp_path / "head"))
    assert capsys.readouterr().out == "identical\n"
