"""Dataset model: ingestion, imputation, normalisation, splits, generator."""
import csv
import io
import os
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmgl import data
from mmgl.data import (
    ModalitySchema, MultiModalDataset, Preprocessor, SynthConfig, impute_mean, load_csv,
    read_table, save_dataset, stratified_kfold, synth_centers, synth_generate, zscore,
)
from mmgl.errors import ConfigError, DataError, ParameterError, ParseError, SchemaError
from reference_ops import kfold_buckets, read_table_walk, write_features_csv


def small_schema():
    return ModalitySchema((("a", 2), ("b", 3)), "label", ("x", "y"))


def write_csv(tmp_path, text, schema):
    features = tmp_path / "features.csv"
    features.write_text(text)
    schema_path = tmp_path / "schema.json"
    schema.save(schema_path)
    return str(features), str(schema_path)


# ----------------------------------------------------------------- schema

def test_schema_validation():
    with pytest.raises(SchemaError):
        ModalitySchema(())
    with pytest.raises(SchemaError):
        ModalitySchema((("a", 2), ("a", 3)))
    with pytest.raises(SchemaError):
        ModalitySchema((("a", 0),))


def test_schema_round_trip(tmp_path):
    s = ModalitySchema((("img", 4), ("meta", 2)), "y", ("c0", "c1"), ("meta_0",))
    path = tmp_path / "schema.json"
    s.save(path)
    assert ModalitySchema.load(path) == s


# --------------------------------------------------------------- load_csv

def test_load_csv_bookkeeping(tmp_path):
    text = "a_0,a_1,b_0,b_1,b_2,label\n" + "\n".join(
        "1,2,3,4,5," + lab for lab in ("x", "y", "x", "y")
    ) + "\n"
    ds = load_csv(*write_csv(tmp_path, text, small_schema()))
    assert ds.schema.n_modalities == 2
    assert ds.n == 4
    assert ds.schema.d_in == 5
    assert np.array_equal(ds.labels, [0, 1, 0, 1])


@pytest.mark.parametrize("classes", [("x", "y"), ()], ids=["class-names", "indices"])
@pytest.mark.parametrize("blank", ["", " "], ids=["empty", "whitespace"])
def test_load_csv_blank_label_names_its_row(tmp_path, classes, blank):
    # a blank label is no class: without class names it would become one
    text = f"a_0,a_1,b_0,b_1,b_2,label\n1,2,3,4,5,x\n1,2,3,4,5,{blank}\n1,2,3,4,5,y\n"
    schema = replace(small_schema(), class_names=classes)
    with pytest.raises(DataError, match="^row 3: blank label in column 'label'$"):
        load_csv(*write_csv(tmp_path, text, schema))


def test_load_csv_unknown_label_names_its_row(tmp_path):
    text = "a_0,a_1,b_0,b_1,b_2,label\n1,2,3,4,5,x\n1,2,3,4,5,y\n1,2,3,4,5,z\n"
    with pytest.raises(DataError, match="^row 4: unknown class label 'z'"):
        load_csv(*write_csv(tmp_path, text, small_schema()))


def label_table(labels):
    return "a_0,a_1,b_0,b_1,b_2,label\n" + "".join(f"1,2,3,4,5,{v}\n" for v in labels)


@pytest.mark.parametrize("label", ["-1", str(-10**30)])
def test_load_csv_negative_index_names_its_row(tmp_path, label):
    # without class names it surfaced only in the loss, which names no row
    schema = replace(small_schema(), class_names=())
    with pytest.raises(DataError, match=f"^row 3: negative class index '{label}' "
                                        f"in column 'label'$"):
        load_csv(*write_csv(tmp_path, label_table((0, label, 1)), schema))


@pytest.mark.parametrize("labels, unused", [
    ((0, 7, 0), 1), ((2, 1, 2), 0), ((0, 1, 3), 2), ((0, 10**12, 1), 2), ((0, 10**30, 1), 2),
])
def test_load_csv_refuses_an_unused_class_index(tmp_path, labels, unused):
    # {0, 7} would load as 8 classes, six of them empty; 10**12 is found
    # from the distinct indices, not from an array of max + 1 entries, and
    # 10**30, beyond int64, is refused the same way
    schema = replace(small_schema(), class_names=())
    with pytest.raises(DataError, match=f"^class index {unused} is unused in column 'label': "
                                        f"integer labels must cover 0..K-1, .*'class_names'"):
        load_csv(*write_csv(tmp_path, label_table(labels), schema))


@pytest.mark.parametrize("label", ["2", "-1", "10000000000000000000000"])
def test_load_csv_index_outside_class_names_names_its_row(tmp_path, label):
    with pytest.raises(DataError, match=f"^row 3: .*{label!r}"):
        load_csv(*write_csv(tmp_path, label_table(("x", label, "y")), small_schema()))


def test_load_csv_wrong_width(tmp_path):
    text = "a_0,b_0,label\n1,2,x\n"
    with pytest.raises(SchemaError, match="5"):
        load_csv(*write_csv(tmp_path, text, small_schema()))


def test_load_csv_non_numeric(tmp_path):
    text = "a_0,a_1,b_0,b_1,b_2,label\n1,oops,3,4,5,x\n"
    with pytest.raises(ParseError, match="row 2"):
        load_csv(*write_csv(tmp_path, text, small_schema()))


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_load_csv_non_finite(tmp_path, cell):
    text = f"a_0,a_1,b_0,b_1,b_2,label\n1,2,3,4,5,x\n1,2,3,{cell},5,y\n"
    with pytest.raises(ParseError, match=f"row 3, column 'b_1': non-finite cell '{cell}'"):
        load_csv(*write_csv(tmp_path, text, small_schema()))


def test_load_csv_missing_cells(tmp_path):
    text = "a_0,a_1,b_0,b_1,b_2,label\n1,,3,4,5,x\n2,2,3,,5,y\n"
    ds = load_csv(*write_csv(tmp_path, text, small_schema()))
    assert np.isnan(ds.x).sum() == 2
    assert np.isnan(ds.x[1, 0]) and np.isnan(ds.x[3, 1])


def test_dataset_is_one_table(tmp_path, monkeypatch):
    # load_csv keeps read_table's table, each modality is a row block of
    # that table, and a transform leaves no cell missing
    ds = synth_generate(SynthConfig(n=12, modality_dims=(3, 2), missing_rate=0.2, meta_dims=1,
                                    seed=3))
    save_dataset(ds, tmp_path / "features.csv", tmp_path / "schema.json")
    read = []
    monkeypatch.setattr(data, "read_table", lambda *a: read.append(read_table(*a)) or read[-1])
    loaded = load_csv(str(tmp_path / "features.csv"), str(tmp_path / "schema.json"))
    values, _, names = read[0]
    assert np.shares_memory(loaded.x, values)
    assert loaded.feature_names == names == ["mod1_0", "mod1_1", "mod1_2", "mod2_0", "mod2_1",
                                             "meta_0"]
    for table in (ds, loaded):
        assert table.x.shape == (6, 12) and np.isnan(table.x).any()
        for block, (lo, hi) in zip(table.modalities, [(0, 3), (3, 5), (5, 6)]):
            assert np.shares_memory(block, table.x)
            assert np.array_equal(block, table.x[lo:hi], equal_nan=True)
    clean = Preprocessor.fit(loaded).transform(loaded)
    assert clean.x.shape == (6, 12) and not np.isnan(clean.x).any()
    for rows in (5, 7):  # a table without d_in rows fails the schema
        with pytest.raises(SchemaError, match="sum to 6"):
            MultiModalDataset(ds.schema, np.zeros((rows, 12)), ds.labels)
    with pytest.raises(SchemaError, match="sum to 6"):
        MultiModalDataset(ds.schema, np.zeros(6), ds.labels)


def test_load_csv_tadpole_scale(tmp_path):
    # 685 patients, 366 features across 4 modalities, 3 classes
    cfg = SynthConfig(n=685, classes=3, modality_dims=(200, 100, 50, 16), seed=5)
    ds = synth_generate(cfg)
    save_dataset(ds, tmp_path / "features.csv", tmp_path / "schema.json")
    loaded = load_csv(str(tmp_path / "features.csv"), str(tmp_path / "schema.json"))
    assert loaded.n == 685 and loaded.schema.d_in == 366 and loaded.n_classes == 3
    assert all(np.allclose(a, b) for a, b in zip(loaded.modalities, ds.modalities))


# Cells that float() reads after strip(), with the oddities it accepts, and
# cells the parse must refuse. A cell that is only whitespace is blank.
ODD_CELLS = [" 1.5 ", "1e5", "+.5", "-0", "1_0", "\u0663", "\u0661\u0662.\u0665", "\xa02\xa0",
             "\t-3.25", "4.9e-325", "0.1234567890123456789"]
BLANK_CELLS = ["", " ", "\t"]
BAD_CELLS = ["oops", "0x10", "1,5", "1\x00", "\x00", "1 2", "_1"]
NON_FINITE_CELLS = ["nan", "inf", "-Infinity", "NaN", "1e400", "iNf", "-nan", "+NAN", "Infinity",
                    "-INFINITY"]


def table_text(rows, label_at=5, eol="\r\n"):
    header = ["a_0", "a_1", "b_0", "b_1", "b_2"]
    header.insert(label_at, "label")
    lines = [header]
    for i, row in enumerate(rows):
        row = list(row)
        if len(row) == 5:
            row.insert(label_at, " xy"[1 + i % 2])
        lines.append(row)
    buf = io.StringIO()
    csv.writer(buf, lineterminator=eol).writerows(lines)
    return buf.getvalue()


def parse_both(tmp_path, text, require_label=True):
    """read_table and the cell-walk oracle on one file: each side's result
    or the text of the error it raised."""
    path = tmp_path / "f.csv"
    path.write_text(text, encoding="utf-8")

    def parse(fn):
        try:
            return fn(path, small_schema(), require_label)
        except DataError as exc:
            return str(exc)

    return parse(read_table), parse(read_table_walk)


def assert_same_parse(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got[0].dtype == want[0].dtype and got[0].flags.c_contiguous
    assert np.array_equal(got[0].view(np.int64), want[0].view(np.int64))  # bit for bit
    assert got[1:] == want[1:]


@pytest.mark.parametrize("label_at", [0, 2, 5])
@pytest.mark.parametrize("blanks", [[], [""], ["", " "]], ids=["complete", "empty", "whitespace"])
def test_read_table_matches_cell_walk(tmp_path, label_at, blanks):
    # complete, with empty cells, and with a whitespace-only cell. ODD_CELLS
    # holds cells numpy's parser refuses, so all three take the cell walk
    cells = ODD_CELLS + blanks
    rows = [[cells[(5 * r + j) % len(cells)] for j in range(5)] for r in range(7)]
    got, want = parse_both(tmp_path, table_text(rows, label_at))
    assert not isinstance(want, str), want
    assert_same_parse(got, want)
    assert np.isnan(want[0]).sum() == sum(row.count(b) for row in rows for b in blanks)


def test_read_table_without_label_column(tmp_path):
    text = "a_0,a_1,b_0,b_1,b_2\n1,,3, 4 ,5\n6,7,8,9,1e5\n"
    got, want = parse_both(tmp_path, text, require_label=False)
    assert_same_parse(got, want)
    assert got[1] is None


@pytest.mark.parametrize("rows,message", [
    ([["1", "2", "3", "4", "5"], ["1", "oops", "3", "", "5"]],
     "row 3, column 'a_1': non-numeric cell 'oops'"),
    ([["1", "2", "3", "4", "5"], ["1", "2", " nan ", "4", "5"]],
     "row 3, column 'b_0': non-finite cell 'nan'"),
    ([["1", "", "3", "4", "5"], ["1", "2", "3", "-inf", "5"]],
     "row 3, column 'b_1': non-finite cell '-inf'"),
    ([["1", "2", "3", "4", "5"], ["1", "2", "x"]], "row 3: expected 6 cells, got 3"),
    ([["1", "2", "bad", "4", "5"], ["1", "2"]],
     "row 2, column 'b_0': non-numeric cell 'bad'"),
    ([["1", "2"], ["1", "2", "bad", "4", "5"]], "row 2: expected 6 cells, got 2"),
    ([["1", "2", "3", "4", "5"], ["1", "2", "3", "4", "5", "6", "7"]],
     "row 3: expected 6 cells, got 7"),
    # a non-numeric cell is reported before an earlier non-finite one
    ([["1", "2", "inf", "4", "5"], ["1", "2", "3", "4", "5"], ["1", "oops", "3", "4", "5"]],
     "row 4, column 'a_1': non-numeric cell 'oops'"),
    ([["1", "2", "3", "4", "5"], ["1", "2", "3", "4", "5"], ["1", "nan", "3", "4", "5"]],
     "row 4, column 'a_1': non-finite cell 'nan'"),
])
def test_read_table_error_text(tmp_path, rows, message):
    got, want = parse_both(tmp_path, table_text(rows))
    assert want == message
    assert got == message


FUZZ_CELLS = st.sampled_from(ODD_CELLS + BLANK_CELLS + BAD_CELLS + NON_FINITE_CELLS
                             + ["7"] * 12 + [""] * 4)
# rows of 4 to 6 cells, a 5-cell row taking a label that may be blank, and
# rows whose feature cells are all blank
FUZZ_ROWS = st.one_of(
    st.lists(FUZZ_CELLS, min_size=4, max_size=6),
    st.tuples(st.lists(FUZZ_CELLS, min_size=5, max_size=5) | st.just([""] * 5),
              st.sampled_from(["x", "y", "", " "])).map(lambda t: t[0] + [t[1]]))


@settings(max_examples=150, deadline=None)
@given(st.lists(FUZZ_ROWS, min_size=1, max_size=6), st.sampled_from(["\r\n", "\n", "\r"]),
       st.booleans())
def test_read_table_fuzz_matches_cell_walk(tmp_path_factory, rows, eol, last_eol):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    text = table_text(rows, eol=eol)
    got, want = parse_both(tmp_path, text if last_eol else text.removesuffix(eol))
    assert_same_parse(got, want)


# Tables that numpy's reader and csv would read differently: read_table must
# give what the cell walk gives. HEADER has the label last.
HEADER = "a_0,a_1,b_0,b_1,b_2,label"


@pytest.mark.parametrize("body,want", [
    # np.loadtxt skips a blank line; csv reads a row of no cells
    ("1,2,3,4,5,x\n\n6,7,8,9,1,y\n", "row 3: expected 6 cells, got 0"),
    ("1,2,3,4,5,x\n \t\n6,7,8,9,1,y\n", "row 3: expected 6 cells, got 1"),
    ("1,2,3,4,5,x\r\n\r\n6,7,8,9,1,y\r\n", "row 3: expected 6 cells, got 0"),
    # with comments=None a '#' is a character like any other
    ("#1,2,3,4,5,x\n", "row 2, column 'a_0': non-numeric cell '#1'"),
    ("1,2,3,4,5,#x\n", ([[1], [2], [3], [4], [5]], ["#x"])),
    # np.loadtxt would read only the usecols cells of a long row
    ("1,2,3,4,5,x,7\n", "row 2: expected 6 cells, got 7"),
    ("1,2,3,4,5,x\n1,2,3,4,5,x,\n", "row 3: expected 6 cells, got 7"),
    ("1,2,3,4,x\n", "row 2: expected 6 cells, got 5"),
    # quotes are csv's, and a quoted comma is part of a cell
    ('"1",2,3,4," 5 ",x\n', ([[1], [2], [3], [4], [5]], ["x"])),
    ('1,2,3,4,5,"x,y"\n', ([[1], [2], [3], [4], [5]], ["x,y"])),
    ('1,2,3,4,5,"x"\n', ([[1], [2], [3], [4], [5]], ["x"])),
    ('1,2,3,4,5,"x\ny"\n', ([[1], [2], [3], [4], [5]], ["x\ny"])),
    ('1,"2,5",3,4,5,x\n', "row 2, column 'a_1': non-numeric cell '2,5'"),
    # a lone carriage return ends a line for both readers
    ("1,2,3,4,5,x\r6,7,8,9,1,y", ([[1, 6], [2, 7], [3, 8], [4, 9], [5, 1]], ["x", "y"])),
    # cells only float() reads, and cells neither reads
    ("1_0,2,3,4,5,x\n", ([[10], [2], [3], [4], [5]], ["x"])),
    ("\u0663,2,3,4,5,x\n", ([[3], [2], [3], [4], [5]], ["x"])),
    ("1,2,3,4,0x10,x\n", "row 2, column 'b_2': non-numeric cell '0x10'"),
    ("1,2,inf,4,5,x\n", "row 2, column 'b_0': non-finite cell 'inf'"),
], ids=["blank-line", "whitespace-line", "blank-line-crlf", "hash-row", "hash-label",
        "long-row", "trailing-comma", "short-row", "quoted-numbers", "quoted-label-comma",
        "quoted-label", "quoted-label-newline", "quoted-cell-comma", "cr-ends", "underscore",
        "arabic-digit", "hex", "inf"])
def test_read_table_where_numpy_and_csv_differ(tmp_path, body, want):
    got, walked = parse_both(tmp_path, f"{HEADER}\n{body}")
    assert_same_parse(got, walked)
    if isinstance(want, str):
        assert got == want
    else:
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]


# the cells of ODD_CELLS that numpy's parser reads too: no underscore, and
# ASCII once trimmed
NUMPY_CELLS = [c for c in ODD_CELLS if c.strip().isascii() and "_" not in c]


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("last_eol", [True, False], ids=["ended", "unended"])
@pytest.mark.parametrize("label_at", [0, 2, 5])
def test_complete_tables_take_numpy_reader(tmp_path, monkeypatch, eol, last_eol, label_at):
    # a complete table, and one with empty first, middle, last, adjacent or
    # all feature cells in rows 0, 2, 4 and 6 (the last), never reaches the
    # cell walk, and reads as the walk does
    cells = [[NUMPY_CELLS[(5 * r + j) % len(NUMPY_CELLS)] for j in range(5)] for r in range(7)]
    for blank in [(), (0,), (2,), (4,), (1, 2), (0, 1, 2, 3, 4)]:
        rows = [["" if r % 2 == 0 and j in blank else c for j, c in enumerate(row)]
                for r, row in enumerate(cells)]
        text = table_text(rows, label_at, eol)
        want = parse_both(tmp_path, text if last_eol else text.removesuffix(eol))[1]
        assert np.isnan(want[0]).sum() == 4 * len(blank)
        with monkeypatch.context() as mp:
            mp.setattr(data, "_walk_cells", None)
            got = read_table(tmp_path / "f.csv", small_schema())
        assert_same_parse(got, want)
        assert got[1] == [" xy"[1 + i % 2] for i in range(7)]


# a whitespace-only cell is blank to the walk, but numpy's parser refuses it
@pytest.mark.parametrize("cell", [" ", "\t", "1_0", "\u0663", "nan", "1e400", "oops", '"1"', "iNf",
                                  "-nan", "+NAN", "Infinity", "-INFINITY"])
def test_other_tables_take_csv_path(tmp_path, cell):
    path = tmp_path / "f.csv"
    path.write_text(table_text([["1", "2", "3", "4", "5"], ["1", cell, "3", "4", "5"]], eol="\n"))
    with open(path, newline="") as f:
        next(f)
        assert data._read_regular(f, 6, 5, 5) is None


@pytest.mark.parametrize("body", ["1\n\n2\n", "1\n \n2\n", "1\n2\n\n"])
def test_one_column_table_blank_lines(tmp_path, body):
    # with one cell a row a blank line has the header's comma count; csv reads
    # it as a row of no cells, and a whitespace-only line as one blank cell
    schema = ModalitySchema((("a", 1),))
    path = tmp_path / "f.csv"
    path.write_text("a_0\n" + body)
    results = []
    for fn in (read_table, read_table_walk):
        try:
            results.append(fn(path, schema, False))
        except ParseError as exc:
            results.append(str(exc))
    assert_same_parse(*results)


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("header", ["a_0,label", "label,a_0"])
def test_one_feature_table_blank_cells(tmp_path, monkeypatch, header, eol):
    # with the label cut out, a blank cell is the whole line numpy is given,
    # which it would skip were the cell not fed to it as "nan"
    schema = ModalitySchema((("a", 1),))
    rows = [["", "x"], ["1", "y"], ["", "z"]]
    path = tmp_path / "f.csv"
    path.write_text(eol.join([header] + [",".join(r if header[0] == "a" else r[::-1])
                                         for r in rows]), newline="")
    want = read_table_walk(path, schema)
    monkeypatch.setattr(data, "_walk_cells", None)
    got = read_table(path, schema)
    assert_same_parse(got, want)
    assert np.isnan(got[0]).tolist() == [[True, False, True]] and got[1] == ["x", "y", "z"]


@pytest.mark.parametrize("label_at", [0, 2, 5])
def test_blank_cells_are_the_same_nan_in_both_readers(tmp_path, monkeypatch, label_at):
    # numpy's pass and the cell walk each read a blank cell as np.nan, bit
    # for bit, and no other cell as NaN
    rows = [["1", "", "3", "", "5"], ["", "", "", "", ""], ["6", "7", "8", "9", ""]]
    path = tmp_path / "f.csv"
    path.write_text(table_text(rows, label_at))
    with monkeypatch.context() as mp:
        mp.setattr(data, "_walk_cells", None)
        regular = read_table(path, small_schema())
    with monkeypatch.context() as mp:
        mp.setattr(data, "_read_regular", lambda *a: None)
        walked = read_table(path, small_schema())
    blank = np.array([[c == "" for c in row] for row in rows]).T
    nan_bits = np.array(np.nan).view(np.int64)
    for values, *_ in (regular, walked):
        assert np.array_equal(np.isnan(values), blank)
        assert (values.view(np.int64)[blank] == nan_bits).all()
    assert_same_parse(regular, walked)


@pytest.mark.parametrize("body", ["1,2,3,4,5,x\n", "1,,3,4,5,x\n"], ids=["complete", "blank"])
def test_read_table_from_a_pipe(tmp_path, body):
    # a pipe cannot rewind, so it takes the cell walk without numpy's reader
    (tmp_path / "f.csv").write_text(HEADER + "\n" + body)
    want = read_table(tmp_path / "f.csv", small_schema())
    r, w = os.pipe()
    os.write(w, (HEADER + "\n" + body).encode())
    os.close(w)
    try:
        assert_same_parse(read_table(f"/dev/fd/{r}", small_schema()), want)
    finally:
        os.close(r)


@pytest.mark.parametrize("text,message", [
    ("", "empty features file"), (HEADER, "no data rows"), (HEADER + "\n", "no data rows"),
])
def test_read_table_without_rows(tmp_path, text, message):
    # the cell-walk oracle refuses a table without rows as read_table does
    got, want = parse_both(tmp_path, text)
    assert_same_parse(got, want)
    assert got.startswith(message), got


def test_read_table_field_limit_error_unchanged(tmp_path):
    # csv refuses a field longer than its limit; so must read_table, whichever
    # reader would have parsed the table
    text = f"{HEADER}\n1,2,3,4,5,x\n1,2,3,4,{'0' * 20}1,x\n"
    (tmp_path / "f.csv").write_text(text)
    old = csv.field_size_limit(16)
    try:
        with pytest.raises(DataError, match="field larger than field limit"):
            read_table(tmp_path / "f.csv", small_schema())
    finally:
        csv.field_size_limit(old)


def test_save_load_round_trip_with_missing(tmp_path):
    cfg = SynthConfig(n=25, modality_dims=(3, 4), missing_rate=0.2, seed=1)
    ds = synth_generate(cfg)
    save_dataset(ds, tmp_path / "features.csv", tmp_path / "schema.json")
    loaded = load_csv(str(tmp_path / "features.csv"), str(tmp_path / "schema.json"))
    # the same table bit for bit, NaN in the same cells
    assert np.isnan(ds.x).any()
    assert np.array_equal(loaded.x.view(np.int64), ds.x.view(np.int64))
    assert np.array_equal(loaded.labels, ds.labels)


QUOTED_CLASSES = ("a,b", 'say "hi"', "two\nlines", "")  # csv quotes all but the last


def cohort_to_write(classes, missing_rate, meta_dims):
    """A synthetic cohort with a patient missing every cell (when cells are
    missing at all) and floats whose repr is long or unusual."""
    ds = synth_generate(SynthConfig(n=30, classes=4, modality_dims=(3, 2),
                                    missing_rate=missing_rate, meta_dims=meta_dims, seed=12))
    ds.modalities[0][:, 1] = [-0.0, 5e-324, 1.7976931348623157e308]
    ds.modalities[1][:, 2] = [0.1 + 0.2, -1e-7]
    if missing_rate:
        ds.x[:, 3] = np.nan
    schema = replace(ds.schema, class_names=classes)
    return replace(ds, schema=schema)


@pytest.mark.parametrize("classes", [QUOTED_CLASSES, ()], ids=["quoted-names", "indices"])
@pytest.mark.parametrize("missing_rate,meta_dims", [(0.0, 0), (0.3, 0), (0.3, 2)],
                         ids=["complete", "missing", "missing-meta"])
def test_save_dataset_writes_the_csv_modules_bytes(tmp_path, classes, missing_rate, meta_dims):
    ds = cohort_to_write(classes, missing_rate, meta_dims)
    save_dataset(ds, tmp_path / "features.csv", tmp_path / "schema.json")
    write_features_csv(ds, tmp_path / "want.csv")
    got = (tmp_path / "features.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    if missing_rate:
        assert b"\r\n" + b"," * ds.schema.d_in in got  # the patient missing every cell
    if classes:
        assert b'"a,b"' in got and b'"say ""hi"""' in got and b'"two\nlines"' in got


# ------------------------------------------------------------ impute_mean

def test_impute_mean_of_two():
    schema = ModalitySchema((("a", 1),), class_names=("c0", "c1"))
    x = np.array([[1.0, np.nan, 3.0]])
    ds = MultiModalDataset(schema, x, np.array([0, 1, 0]))
    out = impute_mean(ds)
    assert np.array_equal(out.x, [[1.0, 2.0, 3.0]])


def test_impute_mean_identity_when_complete():
    ds = synth_generate(SynthConfig(n=10, seed=2))
    out = impute_mean(ds)
    assert all(np.array_equal(a, b) for a, b in zip(out.modalities, ds.modalities))


def test_impute_mean_observed_means_oracle():
    rng = np.random.default_rng(6)
    schema = ModalitySchema((("a", 10),), class_names=("c0", "c1"))
    x = rng.normal(size=(10, 6))
    miss = rng.random((10, 6)) < 0.2
    miss[:, 0] = False  # keep every feature observed somewhere
    ds = MultiModalDataset(schema, np.where(miss, np.nan, x), np.zeros(6, dtype=int))
    out = impute_mean(ds)
    for j in range(10):
        expect = x[j, ~miss[j]].mean()
        assert np.allclose(out.x[j, miss[j]], expect)
        assert np.array_equal(out.x[j, ~miss[j]], x[j, ~miss[j]])


def test_impute_mean_fully_missing_feature():
    schema = ModalitySchema((("a", 2),), class_names=("c0",))
    miss = np.array([[True, True], [False, False]])
    ds = MultiModalDataset(schema, np.where(miss, np.nan, 0.0), np.zeros(2, dtype=int))
    with pytest.raises(DataError, match="feature 'a_0' has no observed values to impute from$"):
        impute_mean(ds)


# ----------------------------------------------------------------- zscore

def test_zscore_constant_feature_zeroed():
    schema = ModalitySchema((("a", 2),), class_names=("c0",))
    x = np.array([[5.0, 5.0, 5.0], [1.0, 2.0, 3.0]])
    ds = MultiModalDataset(schema, x, np.zeros(3, dtype=int))
    out = zscore(ds)
    assert np.array_equal(out.x[0], np.zeros(3))
    assert abs(out.x[1].mean()) < 1e-10


def test_zscore_output_means_near_zero():
    ds = synth_generate(SynthConfig(n=40, seed=3))
    out = zscore(ds)
    for x in out.modalities:
        assert np.all(np.abs(x.mean(axis=1)) < 1e-10)
        assert np.all(np.abs(x.std(axis=1) - 1.0) < 1e-10)


def test_zscore_train_only_statistics():
    ds = synth_generate(SynthConfig(n=50, seed=4))
    train = np.arange(30)
    out = zscore(ds, train)
    x = out.modalities[0]
    assert np.all(np.abs(x[:, train].mean(axis=1)) < 1e-10)
    assert np.abs(x[:, 30:].mean(axis=1)).max() > 1e-6  # held-out mean differs


def test_zscore_idempotent():
    ds = synth_generate(SynthConfig(n=30, seed=5))
    once = zscore(impute_mean(ds))
    twice = zscore(impute_mean(once))
    for a, b in zip(once.modalities, twice.modalities):
        assert np.allclose(a, b, atol=1e-12)


def test_zscore_requires_imputation():
    ds = synth_generate(SynthConfig(n=20, missing_rate=0.1, seed=6))
    with pytest.raises(DataError):
        zscore(ds)
    # one NaN cell is a missing cell
    one = MultiModalDataset(ModalitySchema((("a", 2),)), np.array([[1.0, 2.0], [3.0, np.nan]]),
                            np.zeros(2, dtype=int))
    with pytest.raises(DataError, match="missing values remain"):
        zscore(one)
    assert not np.isnan(zscore(impute_mean(one)).x).any()


# ----------------------------------------------------------- Preprocessor

def reference_preprocess(ds, rows=None):
    """Impute then z-score per modality, feature by feature; every statistic
    comes from `rows` (all patients if None)."""
    ref = np.ones(ds.n, dtype=bool) if rows is None else np.isin(np.arange(ds.n), rows)
    cols = slice(None) if rows is None else rows
    out = []
    for x in ds.modalities:
        x, mask = x.copy(), np.isnan(x)
        for j in range(len(x)):
            if mask[j].any():
                x[j, mask[j]] = x[j, ref & ~mask[j]].mean()
        mu = x[:, cols].mean(axis=1, keepdims=True)
        sd = x[:, cols].std(axis=1, keepdims=True)
        out.append(np.where(sd < 1e-12, 0.0, (x - mu) / np.where(sd < 1e-12, 1.0, sd)))
    return out


@pytest.mark.parametrize("fold", [None, 0, 1])
def test_preprocessor_matches_reference_on_missing_cells(tmp_path, fold):
    ds = synth_generate(SynthConfig(n=40, modality_dims=(3, 4, 2), missing_rate=0.2, seed=7))
    save_dataset(ds, tmp_path / "f.csv", tmp_path / "s.json")
    values, _, _ = read_table(tmp_path / "f.csv", ds.schema)
    train = None if fold is None else stratified_kfold(ds.labels, 3, 0)[fold][0]
    # imputation means come from the distinct patients of `rows`; z statistics
    # from its cells as given, so reversed and repeated rows are inputs too
    for rows in [None] if train is None else [train, train[::-1], np.r_[train, train[:5]]]:
        prep = Preprocessor.fit(ds, rows)
        clean = prep.transform(ds)
        assert np.isnan(ds.x).any() and not np.isnan(clean.x).any()
        for got, want in zip(clean.modalities, reference_preprocess(ds, rows)):
            assert np.array_equal(got, want)
        # the raw table as predict reads it gives the same features
        assert np.array_equal(prep.apply(values), clean.x)


def test_preprocessor_means_cover_fully_observed_features():
    # an unseen patient may miss a feature every training patient had
    ds = synth_generate(SynthConfig(n=30, modality_dims=(3, 3), missing_rate=0.2, seed=8))
    ds.x[3:] = synth_generate(SynthConfig(n=30, modality_dims=(3, 3), seed=8)).x[3:]
    prep = Preprocessor.fit(ds)
    assert np.array_equal(prep.impute_means[3:], [row.mean() for row in ds.x[3:]])
    imputed = impute_mean(ds).x
    assert np.array_equal(prep.z_mu, imputed.mean(axis=1))
    assert np.array_equal(prep.z_sd, imputed.std(axis=1))


@pytest.mark.parametrize("rows", [None, np.arange(10)], ids=["all", "first-ten"])
def test_preprocessor_apply_leaves_no_nan(rows):
    # every NaN cell of a new table is imputed, in a feature with blank cells
    # in training and in one without, and a patient missing every cell
    ds = synth_generate(SynthConfig(n=30, modality_dims=(3, 3), missing_rate=0.2, seed=8))
    ds.x[3:] = synth_generate(SynthConfig(n=30, modality_dims=(3, 3), seed=8)).x[3:]
    prep = Preprocessor.fit(ds, rows)
    new = synth_generate(SynthConfig(n=9, modality_dims=(3, 3), missing_rate=0.4, seed=9)).x
    new[:, 0] = np.nan
    assert np.isnan(new[:3]).any() and np.isnan(new[3:]).any()
    out = prep.apply(new)
    assert out.shape == new.shape and np.isfinite(out).all()
    assert np.isnan(new).any()  # the raw table is not written to
    want = (prep.impute_means - prep.z_mu) / prep.z_sd
    assert np.array_equal(out[:, 0], want)


def test_preprocessor_fully_missing_feature_in_rows():
    schema = ModalitySchema((("a", 2),), class_names=("c0",))
    miss = np.array([[True, True, False], [False, False, False]])
    ds = MultiModalDataset(schema, np.where(miss, np.nan, 1.0), np.zeros(3, dtype=int))
    # a_0 is observed, but not among the patients the statistics are fitted on
    with pytest.raises(DataError, match="feature 'a_0' has no observed values to impute from "
                                        "among the patients the statistics are fitted on$"):
        Preprocessor.fit(ds, np.array([0, 1]))
    assert Preprocessor.fit(ds).impute_means[0] == 1.0


def test_preprocessor_zeroes_constant_feature_of_new_patients():
    schema = ModalitySchema((("a", 2),), class_names=("c0",))
    ds = MultiModalDataset(schema, np.array([[5.0, 5.0, 5.0], [1.0, 2.0, 3.0]]),
                           np.zeros(3, dtype=int))
    prep = Preprocessor.fit(ds)
    out = prep.apply(np.array([[7.0], [2.0]]))
    assert np.array_equal(out, [[0.0], [0.0]])


@settings(max_examples=40, deadline=None)
@given(col=st.integers(0, 8), scale=st.floats(0.5, 20.0), shift=st.floats(-50.0, 50.0),
       fold=st.sampled_from([None, 0, 1]))
def test_preprocessor_invariant_to_positive_affine_rescale(col, scale, shift, fold):
    # z-scoring undoes a x + b (a > 0) of a raw column, missing cells included:
    # the imputation mean and the statistics move with the column
    ds = synth_generate(SynthConfig(n=40, modality_dims=(3, 4, 2), missing_rate=0.2, seed=9))
    rows = None if fold is None else stratified_kfold(ds.labels, 3, 0)[fold][0]
    x = ds.x.copy()
    ref = x if rows is None else x[:, rows]
    assert np.nanstd(ref[col]) > 0.1  # far above the 1e-12 zero-spread floor
    x[col] = scale * x[col] + shift
    moved = replace(ds, x=x)
    want = Preprocessor.fit(ds, rows).transform(ds).x
    got = Preprocessor.fit(moved, rows).transform(moved).x
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_read_table_strips_a_byte_order_mark(tmp_path):
    schema = small_schema()
    text = "a_0,a_1,b_0,b_1,b_2,label\n1,2,3,4,5,x\n"
    plain = read_table(write_csv(tmp_path, text, schema)[0], schema)
    marked = read_table(write_csv(tmp_path, "\ufeff" + text, schema)[0], schema)
    assert marked[2] == plain[2] == ["a_0", "a_1", "b_0", "b_1", "b_2"]
    assert np.array_equal(marked[0], plain[0]) and marked[1] == plain[1]
    # a mark before the label column's name still finds the label
    labelled_first = read_table(write_csv(tmp_path, "\ufefflabel,a_0,a_1,b_0,b_1,b_2\n"
                                          "x,1,2,3,4,5\n", schema)[0], schema)
    assert labelled_first[1] == ["x"]


def test_schema_split():
    schema = ModalitySchema((("a", 2), ("b", 1), ("c", 3)))
    flat = np.arange(12.0).reshape(6, 2)
    parts = schema.split(flat)
    assert [p.shape for p in parts] == [(2, 2), (1, 2), (3, 2)]
    assert np.array_equal(np.concatenate(parts), flat)
    assert schema.split(list("uvwxyz")) == [["u", "v"], ["w"], ["x", "y", "z"]]


# ------------------------------------------------------- stratified_kfold

def test_kfold_exact_stratification():
    labels = np.array([0] * 50 + [1] * 50)
    for _, test in stratified_kfold(labels, 10, 0):
        assert (labels[test] == 0).sum() == 5
        assert (labels[test] == 1).sum() == 5


def test_kfold_deterministic():
    labels = np.tile([0, 1, 2], 20)
    a = stratified_kfold(labels, 5, 42)
    b = stratified_kfold(labels, 5, 42)
    assert all(
        np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1])
        for x, y in zip(a, b)
    )


def test_kfold_histogram_within_one():
    # class sizes mirroring a 685-patient 3-class cohort split 245/360/80
    labels = np.array([0] * 245 + [1] * 360 + [2] * 80)
    for _, test in stratified_kfold(labels, 10, 1):
        for cls, total in ((0, 245), (1, 360), (2, 80)):
            share = total / 10
            count = (labels[test] == cls).sum()
            assert abs(count - share) <= 1


def test_kfold_parameter_errors():
    labels = np.array([0, 1, 0, 1])
    with pytest.raises(ParameterError):
        stratified_kfold(labels, 1, 0)
    with pytest.raises(ParameterError):
        stratified_kfold(labels, 5, 0)


def test_kfold_small_class_warns():
    labels = np.array([0] * 20 + [1])
    with pytest.warns(UserWarning, match="best-effort"):
        stratified_kfold(labels, 3, 0)


@settings(max_examples=30, deadline=None)
@given(
    labels=st.lists(st.integers(0, 3), min_size=4, max_size=60),
    k=st.integers(2, 6),
    seed=st.integers(0, 1000),
)
def test_kfold_partition_property(labels, k, seed):
    labels = np.array(labels)
    if k > labels.size:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plan = stratified_kfold(labels, k, seed)
    assert isinstance(plan, tuple) and len(plan) == k
    assert all(len(pair) == 2 and all(a.dtype == np.int64 and a.ndim == 1 for a in pair)
               for pair in plan)
    all_test = np.concatenate([test for _, test in plan])
    assert np.array_equal(np.sort(all_test), np.arange(labels.size))
    for train, test in plan:
        assert np.intersect1d(train, test).size == 0
        assert train.size + test.size == labels.size


def kfold_case(i):
    """Labels, k and seed of the i-th seeded random case: 1 to 5 classes of
    random sizes, integer or string labels, k from 2 to 12, k = N or k < 2."""
    rng = np.random.default_rng([7, i])
    n = int(rng.integers(1, 41))
    labels = rng.integers(0, rng.integers(1, 6), size=n) * 3 - 1  # gaps and a negative class
    if i % 2:
        labels = np.array([f"c{v}" for v in labels])
    k = n if i % 5 == 0 else int(rng.integers(-1, 2)) if i % 7 == 0 else int(rng.integers(2, 13))
    return labels, k, int(rng.integers(2**32))


def kfold_outcome(split, labels, k, seed):
    """The folds, or the ParameterError text, and every warning of a split."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = split(labels, k, seed)
        except ParameterError as exc:
            result = str(exc)
    return result, [(w.category, str(w.message)) for w in caught]


def test_kfold_matches_bucket_oracle():
    seen = set()
    for i in range(1400):
        labels, k, seed = kfold_case(i)
        got, got_warnings = kfold_outcome(stratified_kfold, labels, k, seed)
        want, want_warnings = kfold_outcome(kfold_buckets, labels, k, seed)
        assert got_warnings == want_warnings, i
        if isinstance(want, str):
            assert got == want, i
            seen.add("k < 2" if k < 2 else "k > N")
            continue
        assert len(got) == len(want) == k, i
        for pair, want_pair in zip(got, want):
            for a, b in zip(pair, want_pair):
                assert a.dtype == b.dtype and np.array_equal(a, b), i
        counts = np.unique(labels, return_counts=True)[1]
        seen.update({labels.dtype.kind, len(counts) == 1 and "one class",
                     counts.min() < k and "class < k", k == labels.size and "k = N"})
    assert seen >= {"i", "U", "one class", "class < k", "k = N", "k < 2", "k > N"}


# --------------------------------------------------------- synth_generate

def test_synth_no_signal_at_zero_separation():
    ds = synth_generate(SynthConfig(n=300, separation=0.0, seed=7))
    # nearest class-centroid classification is at chance on fresh draws
    flat = ds.x
    centroids = np.stack([flat[:, ds.labels == c].mean(axis=1) for c in range(3)])
    fresh = synth_generate(SynthConfig(n=300, separation=0.0, seed=8))
    d2 = ((fresh.x.T[:, None, :] - centroids[None]) ** 2).sum(axis=2)
    acc = (np.argmin(d2, axis=1) == fresh.labels).mean()
    assert abs(acc - 1 / 3) < 0.12


def test_synth_separable_at_high_separation():
    cfg = SynthConfig(n=300, separation=10.0, noise=0.1, seed=9)
    ds = synth_generate(cfg)
    centers = synth_centers(cfg)
    mu = np.concatenate([c.T for c in centers], axis=0)  # (d_in, classes)
    d2 = ((ds.x.T[:, None, :] - mu.T[None]) ** 2).sum(axis=2)
    acc = (np.argmin(d2, axis=1) == ds.labels).mean()
    assert acc >= 0.99


def test_synth_deterministic():
    a = synth_generate(SynthConfig(n=50, seed=10))
    b = synth_generate(SynthConfig(n=50, seed=10))
    assert all(np.array_equal(x, y) for x, y in zip(a.modalities, b.modalities))
    assert np.array_equal(a.labels, b.labels)


def test_synth_config_validation():
    with pytest.raises(ParameterError):
        SynthConfig(separation=-1.0)
    with pytest.raises(ParameterError):
        SynthConfig(noise=0.0)
    with pytest.raises(ParameterError):
        SynthConfig(classes=1)
    with pytest.raises(ParameterError):
        SynthConfig(n=2, classes=3)
    with pytest.raises(ParameterError):
        SynthConfig(missing_rate=1.0)
    with pytest.raises(ParameterError):
        SynthConfig(corruption=-0.5)
    with pytest.raises(ParameterError):
        SynthConfig(pattern="complementary", modality_dims=(4,))
    for entry in ["mod9", 7, "MOD1", "mod0", -1, "meta"]:  # names no modality of two
        with pytest.raises(ConfigError, match=f"pattern entry {re.escape(repr(entry))} "):
            SynthConfig(modality_dims=(4, 4), meta_dims=1, pattern=["mod1", entry])
    # an empty list is valid and, as "none", gives no modality class centers
    empty, none = (synth_centers(SynthConfig(pattern=p, seed=2)) for p in ([], "none"))
    assert all(np.array_equal(a, b) for a, b in zip(empty, none))


def test_synth_refuses_non_finite_features():
    cfg = SynthConfig(n=40, separation=1e308, corruption=1e308, pattern="complementary")
    with pytest.raises(ConfigError, match="non-finite"):
        synth_generate(cfg)


def test_synth_class_means_converge_to_centers():
    cfg = SynthConfig(n=2000, classes=3, modality_dims=(6, 6), separation=3.0, seed=11)
    ds = synth_generate(cfg)
    centers = synth_centers(cfg)
    for m, c in enumerate(centers):
        for cls in range(3):
            cols = ds.labels == cls
            sample_mean = ds.modalities[m][:, cols].mean(axis=1)
            tol = 5 * cfg.noise / np.sqrt(cols.sum())
            assert np.all(np.abs(sample_mean - c[cls]) < tol)


def test_synth_uninformative_pattern_shares_centers():
    cfg = SynthConfig(n=40, pattern=["mod1"], seed=12)
    centers = synth_centers(cfg)
    assert not np.allclose(centers[0][0], centers[0][1])  # informative
    for m in (1, 2):
        assert np.allclose(centers[m], centers[m][0])  # shared across classes


def test_synth_pattern_none_is_chance_level():
    cfg = SynthConfig(n=40, pattern="none", seed=13)
    centers = synth_centers(cfg)
    for c in centers:
        assert np.allclose(c, c[0])


def test_synth_complementary_center_structure():
    cfg = SynthConfig(n=60, classes=3, modality_dims=(5, 5, 5),
                      pattern="complementary", separation=2.0, seed=14)
    centers = synth_centers(cfg)
    for m, c in enumerate(centers):
        carrier_rows = [cls for cls in range(3) if np.linalg.norm(c[cls]) > 0]
        assert len(carrier_rows) == 2  # two classes share this modality's offset
        for cls in carrier_rows:
            assert np.isclose(np.linalg.norm(c[cls]), 2.0)
        # carriers share one direction: no single modality separates them
        assert np.allclose(c[carrier_rows[0]], c[carrier_rows[1]])
    # every class is carried by exactly two modalities
    for cls in range(3):
        carriers = [m for m in range(3) if np.linalg.norm(centers[m][cls]) > 0]
        assert len(carriers) == 2


def test_synth_complementary_class_means():
    cfg = SynthConfig(n=3000, classes=3, modality_dims=(4, 4, 4),
                      pattern="complementary", separation=4.0, seed=15)
    ds = synth_generate(cfg)
    centers = synth_centers(cfg)
    for m in range(3):
        for cls in range(3):
            cols = ds.labels == cls
            sample_mean = ds.modalities[m][:, cols].mean(axis=1)
            # corruption noise is zero-mean, so means still converge (its
            # variance contribution scales the tolerance)
            sigma = cfg.noise * np.sqrt(1 + cfg.corruption ** 2 / 3)
            tol = 5 * sigma / np.sqrt(cols.sum())
            assert np.all(np.abs(sample_mean - centers[m][cls]) < tol)


def test_synth_missing_rate():
    ds = synth_generate(SynthConfig(n=400, missing_rate=0.3, seed=16))
    frac = np.isnan(ds.x).mean()
    assert abs(frac - 0.3) < 0.03


def test_synth_meta_modality():
    ds = synth_generate(SynthConfig(n=50, meta_dims=2, seed=17))
    assert ds.schema.names[-1] == "meta"
    assert ds.schema.meta_columns == ("meta_0", "meta_1")
    meta = ds.meta_matrix()
    assert meta.shape == (2, 50)
    assert set(np.unique(meta)) <= {0.0, 1.0, 2.0}


def test_synth_labels_balanced():
    ds = synth_generate(SynthConfig(n=60, classes=3, seed=18))
    counts = np.bincount(ds.labels)
    assert np.array_equal(counts, [20, 20, 20])
