"""Ingest, file formats, synthesis, and split tests."""

import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from mgct import dataio
from mgct.mgct_core import ConfigError
from mgct.dataio import (
    BagSample,
    CategoryMap,
    IngestError,
    FormatError,
    RiskModel,
    SampleDescriptor,
    default_category_map,
    group_genomics,
    monte_carlo_splits,
    read_bag,
    read_category_map,
    read_genomic_csv,
    read_manifest,
    synthesize,
    write_bag,
    write_category_map,
    write_dataset,
    write_genomic_csv,
    write_manifest,
)


class TestBagFormat:
    def test_roundtrip_bitwise(self, tmp_path):
        # float32 on disk: write float32-representable values
        arr = np.random.default_rng(0).standard_normal((8, 5)).astype(np.float32).astype(np.float64)
        path = tmp_path / "x.bag"
        write_bag(path, arr)
        np.testing.assert_array_equal(read_bag(path), arr)

    def test_declared_shape(self, tmp_path):
        path = tmp_path / "x.bag"
        write_bag(path, np.zeros((8, 5)))
        assert path.stat().st_size == 16 + 4 * 40
        assert read_bag(path).shape == (8, 5)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.bag"
        write_bag(path, np.ones((4, 4)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="expected"):
            read_bag(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bag"
        write_bag(path, np.ones((2, 2)))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            read_bag(path)

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "x.bag"
        arr = np.ones((2, 2))
        arr[0, 0] = np.inf
        write_bag(path, arr)
        with pytest.raises(FormatError, match="non-finite"):
            read_bag(path)

    def test_zero_width_bag_rejected(self, tmp_path):
        path = tmp_path / "x.bag"
        write_bag(path, np.zeros((0, 5)))  # a bare header declaring d_in = 0
        assert path.stat().st_size == 16
        with pytest.raises(FormatError, match=re.escape(f"{path}: zero-width bag")):
            read_bag(path)

    def test_missing_file_names_it(self, tmp_path):
        with pytest.raises(IngestError, match=re.escape(f"bag file not found: {tmp_path / 'x.bag'}")):
            read_bag(tmp_path / "x.bag")

    def test_patch_major_layout(self, tmp_path):
        # column j must be contiguous in the payload
        arr = np.arange(6, dtype=np.float64).reshape(2, 3)
        path = tmp_path / "x.bag"
        write_bag(path, arr)
        payload = np.frombuffer(path.read_bytes()[16:], dtype="<f4")
        np.testing.assert_array_equal(payload, [0, 3, 1, 4, 2, 5])


class TestManifest:
    def make_rows(self, tmp_path, rows):
        path = tmp_path / "manifest.csv"
        lines = ["sample_id,bag_path,t_months,event,genomic_path"]
        lines += [",".join(str(x) for x in r) for r in rows]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_three_valid_rows(self, tmp_path):
        path = self.make_rows(
            tmp_path,
            [("a", "a.bag", 1.5, 1, "a.csv"), ("b", "b.bag", 2.0, 0, "b.csv"), ("c", "c.bag", 9, 1, "c.csv")],
        )
        descs = read_manifest(path)
        assert [d.sample_id for d in descs] == ["a", "b", "c"]
        assert descs[0].bag_path == tmp_path / "a.bag"

    def test_bad_event_names_row(self, tmp_path):
        path = self.make_rows(tmp_path, [("a", "a.bag", 1.5, 1, "a.csv"), ("b", "b.bag", 2.0, 2, "b.csv")])
        with pytest.raises(IngestError, match=r":3:"):
            read_manifest(path)

    def test_nonpositive_time_names_row(self, tmp_path):
        path = self.make_rows(tmp_path, [("a", "a.bag", -1.0, 1, "a.csv")])
        with pytest.raises(IngestError, match=r":2:.*t_months"):
            read_manifest(path)

    def test_duplicate_id(self, tmp_path):
        path = self.make_rows(tmp_path, [("a", "a.bag", 1, 1, "a.csv"), ("a", "b.bag", 2, 0, "b.csv")])
        with pytest.raises(IngestError, match="duplicate"):
            read_manifest(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="not found"):
            read_manifest(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("id,bag,t,e,g\n")
        with pytest.raises(IngestError, match="bad header"):
            read_manifest(path)

    def test_non_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_bytes(b"sample_id,bag_path,t_months,event,genomic_path\n\xff,a.bag,1.5,1,a.csv\n")
        with pytest.raises(IngestError, match=re.escape(f"{path}: manifest is not UTF-8")):
            read_manifest(path)

    def test_roundtrip_identity(self, tmp_path):
        descs = [
            SampleDescriptor("a", tmp_path / "bags/a.bag", 3.25, 1, tmp_path / "gen/a.csv"),
            SampleDescriptor("b", tmp_path / "bags/b.bag", 11.185272734, 0, tmp_path / "gen/b.csv"),
        ]
        path = tmp_path / "manifest.csv"
        write_manifest(path, descs)
        back = read_manifest(path)
        assert [(d.sample_id, d.t, d.event) for d in back] == [
            (d.sample_id, d.t, d.event) for d in descs
        ]


class TestGenomicsGrouping:
    def test_even_mapping(self):
        cmap = default_category_map(6, 1)
        table = {f"g{i}_0": float(i) for i in range(6)}
        vectors = group_genomics(table, cmap)
        assert [len(v) for v in vectors] == [1] * 6
        assert [v[0] for v in vectors] == [0, 1, 2, 3, 4, 5]

    def test_unmapped_gene_listed(self):
        cmap = default_category_map(2, 2)
        table = {"g0_0": 1.0, "g0_1": 2.0, "g1_0": 3.0, "g1_1": 4.0, "mystery": 5.0}
        with pytest.raises(IngestError, match="mystery"):
            group_genomics(table, cmap)

    def test_empty_category_rejected(self):
        cmap = default_category_map(2, 1)
        with pytest.raises(IngestError, match="no genes"):
            group_genomics({"g0_0": 1.0}, cmap)

    def test_table_order_irrelevant(self):
        cmap = default_category_map(3, 2)
        genes = [f"g{c}_{j}" for c in range(3) for j in range(2)]
        values = {g: float(i) for i, g in enumerate(genes)}
        rng = np.random.default_rng(5)
        for _ in range(5):
            shuffled = {g: values[g] for g in rng.permutation(list(values))}
            a = group_genomics(values, cmap)
            b = group_genomics(shuffled, cmap)
            for va, vb in zip(a, b):
                np.testing.assert_array_equal(va, vb)

    def test_gene_in_two_categories_rejected(self):
        with pytest.raises(IngestError, match="assigned to both"):
            CategoryMap(categories=("x", "y"), genes={"x": ("g",), "y": ("g",)})

    def test_genomic_csv_roundtrip(self, tmp_path):
        values = {"tp53": -1.524, "kras": 0.75, "myc": 2.0}
        path = tmp_path / "g.csv"
        write_genomic_csv(path, values)
        assert read_genomic_csv(path) == values

    def test_duplicate_gene_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("gene,value\ntp53,1.0\ntp53,2.0\n")
        with pytest.raises(IngestError, match="duplicate gene"):
            read_genomic_csv(path)

    def test_genomic_csv_non_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_bytes(b"gene,value\ntp53,1.0\n\xffkras,2.0\n")
        with pytest.raises(IngestError, match=re.escape(f"{path}: genomic table is not UTF-8")):
            read_genomic_csv(path)

    def test_category_map_roundtrip(self, tmp_path):
        cmap = default_category_map(6, 3)
        path = tmp_path / "cm.json"
        write_category_map(path, cmap)
        back = read_category_map(path)
        assert back.categories == cmap.categories
        assert back.genes == cmap.genes

    def test_default_category_names(self):
        cmap = default_category_map(6, 1)
        assert cmap.categories == (
            "Tumor Suppression",
            "Oncogenesis",
            "Protein Kinases",
            "Cellular Differentiation",
            "Transcription",
            "Cytokines and Growth",
        )


class TestSynthesize:
    def test_deterministic(self):
        a = synthesize(20, seed=3)
        b = synthesize(20, seed=3)
        for sa, sb in zip(a.samples, b.samples):
            np.testing.assert_array_equal(sa.patches, sb.patches)
            for ga, gb in zip(sa.genomic, sb.genomic):
                np.testing.assert_array_equal(ga, gb)
            assert sa.t == sb.t and sa.event == sb.event
        assert a.true_risk == b.true_risk

    def test_different_seed_differs(self):
        a = synthesize(8, seed=1)
        b = synthesize(8, seed=2)
        assert not np.array_equal(a.samples[0].patches, b.samples[0].patches)

    def test_zero_censoring(self):
        ds = synthesize(30, risk_model=RiskModel(censor_rate=0.0), seed=4)
        assert all(s.event == 1 for s in ds.samples)

    def test_risk_orders_survival(self):
        # Monte Carlo check: ground-truth risk anticorrelates with time
        ds = synthesize(200, seed=7)
        pairs = [(ds.true_risk[s.sample_id], -s.t) for s in ds.samples if s.event == 1]
        rho = spearmanr([p[0] for p in pairs], [p[1] for p in pairs]).statistic
        assert rho > 0.5

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="n >= 4"):
            synthesize(3)

    def test_degenerate_risk_model(self):
        with pytest.raises(ValueError, match="degenerate"):
            synthesize(10, risk_model=RiskModel(w_hist=0, w_gen=0, w_inter=0))

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", [f.name for f in fields(RiskModel)])
    def test_nonfinite_risk_model_field_rejected(self, name, value):
        with pytest.raises(ConfigError, match=rf"^{name}: value {value!r} out of range"):
            synthesize(6, risk_model=RiskModel(**{name: value}))

    def test_patch_count_range_rejected(self):
        with pytest.raises(ConfigError, match="patches_min: 9 exceeds patches_max 8"):
            synthesize(6, risk_model=RiskModel(patches_min=9, patches_max=8))

    def test_sample_invariants(self):
        ds = synthesize(25, seed=9)
        for s in ds.samples:
            assert s.t > 0
            assert s.event in (0, 1)
            assert s.n_patches >= 1
            assert len(s.genomic) == 6

    def test_write_then_load_roundtrip(self, tmp_path):
        ds = synthesize(6, d_in=4, seed=11)
        manifest = write_dataset(ds, tmp_path / "data")
        back = dataio.load_samples(manifest, read_category_map(tmp_path / "data/category_map.json"))
        assert back.ids == ds.ids
        for orig, loaded in zip(ds.samples, back.samples):
            assert loaded.t == orig.t and loaded.event == orig.event
            # bags are stored as float32
            np.testing.assert_allclose(loaded.patches, orig.patches, rtol=1e-6, atol=1e-6)
            for g0, g1 in zip(orig.genomic, loaded.genomic):
                np.testing.assert_array_equal(g1, g0)  # CSV keeps full precision

    @pytest.mark.parametrize("broken", ["bag", "gene", "unmapped gene", "empty category"])
    def test_mixed_layout_names_the_file(self, tmp_path, broken):
        manifest = write_dataset(synthesize(6, seed=11), tmp_path / "data")
        path = tmp_path / "data/genomic/synth-0003.csv"
        rows = path.read_text().splitlines(keepends=True)
        if broken == "bag":  # a 9-wide bag among 16-wide ones
            path = tmp_path / "data/bags/synth-0003.bag"
            dataio.write_bag(path, np.ones((9, 4)))
        elif broken == "gene":  # a sample missing its last gene
            path.write_text("".join(rows[:-1]))
        elif broken == "unmapped gene":
            path.write_text("".join(rows) + "foo,1.0\n")
        else:  # every gene of the first category gone
            path.write_text("".join(row for row in rows if not row.startswith("g0_")))
        message = {"unmapped gene": ": unmapped genes: foo", "empty category": ": category 'Tumor Suppression' has no"}
        with pytest.raises(dataio.IngestError, match=re.escape(str(path) + message.get(broken, ""))):
            dataio.load_samples(manifest, read_category_map(tmp_path / "data/category_map.json"))

    def test_category_with_no_genes_fails_at_read(self, tmp_path):
        path = tmp_path / "cm.json"
        path.write_text(json.dumps({"A": ["g0_0"], "B": []}))
        with pytest.raises(IngestError, match=re.escape(f"{path}: category 'B' must map to a non-empty list")):
            read_category_map(path)

    def test_gene_in_two_categories_names_the_file(self, tmp_path):
        path = tmp_path / "cm.json"
        path.write_text(json.dumps({"A": ["g0_0"], "B": ["g0_0"]}))
        with pytest.raises(IngestError, match=re.escape(f"{path}: gene 'g0_0' assigned to both 'A' and 'B'")):
            read_category_map(path)

    def test_write_dataset_bitwise_deterministic(self, tmp_path):
        ds = synthesize(5, seed=13)
        m1 = write_dataset(ds, tmp_path / "a")
        m2 = write_dataset(ds, tmp_path / "b")
        assert m1.read_bytes() == m2.read_bytes()
        for sub in ("bags", "genomic"):
            for f1 in sorted((tmp_path / "a" / sub).iterdir()):
                f2 = tmp_path / "b" / sub / f1.name
                assert f1.read_bytes() == f2.read_bytes()


class TestBagSampleInvariants:
    def test_rejects_bad_event(self):
        with pytest.raises(IngestError, match="event"):
            BagSample("x", np.ones((2, 2)), [np.ones(2)], 1.0, 2)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(IngestError, match="positive"):
            BagSample("x", np.ones((2, 2)), [np.ones(2)], 0.0, 1)

    def test_rejects_empty_bag(self):
        with pytest.raises(IngestError, match="n>=1"):
            BagSample("x", np.ones((2, 0)), [np.ones(2)], 1.0, 1)

    def test_rejects_zero_width_bag(self):
        with pytest.raises(IngestError, match=re.escape("(d_in>=1, n>=1), got (0, 2)")):
            BagSample("x", np.ones((0, 2)), [np.ones(2)], 1.0, 1)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_nonfinite_time(self, t):
        with pytest.raises(IngestError, match="positive and finite"):
            BagSample("x", np.ones((2, 2)), [np.ones(2)], t, 1)


class TestMonteCarloSplits:
    def test_sizes(self):
        splits = monte_carlo_splits([f"s{i}" for i in range(10)], 3, ratio=0.2, seed=1)
        for sp in splits:
            assert len(sp.val_ids) == 2
            assert len(sp.train_ids) == 8

    def test_deterministic(self):
        ids = [f"s{i}" for i in range(30)]
        assert monte_carlo_splits(ids, 4, ratio=0.2, seed=9) == monte_carlo_splits(ids, 4, ratio=0.2, seed=9)

    def test_partition_invariants(self):
        ids = [f"s{i}" for i in range(25)]
        for sp in monte_carlo_splits(ids, 5, ratio=0.2, seed=2):
            assert not set(sp.train_ids) & set(sp.val_ids)
            assert set(sp.train_ids) | set(sp.val_ids) == set(ids)

    def test_folds_differ(self):
        splits = monte_carlo_splits([f"s{i}" for i in range(100)], 5, ratio=0.2, seed=3)
        assert len({sp.val_ids for sp in splits}) > 1

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="hold out"):
            monte_carlo_splits(["a", "b"], 2, ratio=0.2, seed=0)

    def test_bad_ratio(self):
        with pytest.raises(ValueError, match="ratio"):
            monte_carlo_splits(["a", "b", "c"], 1, ratio=1.5, seed=0)


# arbitrary bytes, CSV text after a valid header (so that the rows are parsed too) and JSON documents
CSV_FIELD = st.text(st.sampled_from('ab01.-+einf"\r \x00\u00e9'), max_size=4)
CSV_TEXT = (
    st.text(st.sampled_from('ab01.-+einf,"\n\r \x00\u00e9'), max_size=120)
    | st.lists(st.lists(CSV_FIELD, min_size=1, max_size=6).map(",".join), max_size=4).map("\n".join)
).map(str.encode)
NAMES = st.text(st.sampled_from("ab\u00e9"), max_size=2)  # short names, so that genes repeat
CATEGORY_DOCS = st.dictionaries(
    NAMES, st.lists(NAMES, max_size=3) | st.lists(st.integers(), max_size=2) | st.none(), max_size=4
) | st.lists(NAMES, max_size=2) | st.integers()
READER_INPUTS = {
    "bag": (
        read_bag,
        FormatError,
        st.binary(max_size=64)
        | st.builds(
            lambda d_in, n, payload: dataio._BAG_HEADER.pack(dataio.BAG_MAGIC, d_in, n, 0) + payload,
            st.integers(0, 4), st.integers(0, 4), st.binary(max_size=80),
        ),
    ),
    "manifest": (
        read_manifest,
        IngestError,
        st.binary(max_size=120) | CSV_TEXT.map(lambda b: b"sample_id,bag_path,t_months,event,genomic_path\n" + b),
    ),
    "genomic": (read_genomic_csv, IngestError, st.binary(max_size=120) | CSV_TEXT.map(lambda b: b"gene,value\n" + b)),
    "category map": (
        read_category_map,
        IngestError,
        st.binary(max_size=120) | CATEGORY_DOCS.map(lambda v: json.dumps(v).encode()),
    ),
}


class TestReadersOnArbitraryBytes:
    """Whatever a file holds, each reader loads it or raises its module's named error."""

    @pytest.mark.parametrize("kind", list(READER_INPUTS))
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_loads_or_raises_its_named_error(self, tmp_path, kind, data):
        reader, error, contents = READER_INPUTS[kind]
        path = tmp_path / "input"
        path.write_bytes(data.draw(contents))
        try:
            reader(path)
        except error:
            pass

    def test_json_nested_too_deeply_raises_its_named_error(self, tmp_path):
        path = tmp_path / "input"
        path.write_bytes(b"[" * 100_000)
        with pytest.raises(IngestError, match="category map is not UTF-8 JSON"):
            read_category_map(path)
