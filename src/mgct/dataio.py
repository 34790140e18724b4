"""Patient-sample ingest, on-disk formats, synthetic data, and CV splits.

On-disk layout of a dataset directory:

    manifest.csv        sample_id,bag_path,t_months,event,genomic_path
    bags/<id>.bag       binary patch-embedding bag (format below)
    genomic/<id>.csv    gene,value
    category_map.json   {"<category>": ["gene", ...], ...} in category order

Bag file format: 16-byte header (magic ``MGCB``, u32 d_in, u32 n_patches,
u32 reserved, all little-endian), then ``d_in * n_patches`` little-endian
float32 values, one patch (column) at a time. Values are widened to float64
in memory.
"""

from __future__ import annotations

import csv
import io
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .mgct_core import Config, ranged

BAG_MAGIC = b"MGCB"
_BAG_HEADER = struct.Struct("<4sIII")

MANIFEST_COLUMNS = ["sample_id", "bag_path", "t_months", "event", "genomic_path"]

# the six genomic functional categories, in fixed order
DEFAULT_CATEGORIES = [
    "Tumor Suppression",
    "Oncogenesis",
    "Protein Kinases",
    "Cellular Differentiation",
    "Transcription",
    "Cytokines and Growth",
]


class IngestError(ValueError):
    """Malformed manifest/genomic input; message names the file and row."""


class FormatError(ValueError):
    """Corrupt or mismatched binary bag file."""


# ---------------------------------------------------------------------------
# domain records


@dataclass
class BagSample:
    """One patient: a patch-embedding bag, grouped genomics, and survival outcome."""

    sample_id: str
    patches: np.ndarray  # (d_in, n_patches)
    genomic: list[np.ndarray]  # one 1-D vector per functional category
    t: float  # survival time, months
    event: int  # 1 = death observed, 0 = censored

    def __post_init__(self):
        if self.patches.ndim != 2 or min(self.patches.shape) < 1:
            raise IngestError(f"{self.sample_id}: bag must be (d_in>=1, n>=1), got {self.patches.shape}")
        if not 0 < self.t < math.inf:
            raise IngestError(f"{self.sample_id}: survival time must be positive and finite, got {self.t}")
        if self.event not in (0, 1):
            raise IngestError(f"{self.sample_id}: event must be 0 or 1")

    @property
    def n_patches(self) -> int:
        return self.patches.shape[1]


@dataclass(frozen=True)
class CategoryMap:
    """Ordered functional categories and the gene -> category assignment."""

    categories: tuple[str, ...]
    genes: dict[str, tuple[str, ...]]  # category -> genes, in category order

    def __post_init__(self):
        if len(self.categories) < 1:
            raise IngestError("category map needs at least one category")
        seen: dict[str, str] = {}
        for cat in self.categories:
            for g in self.genes.get(cat, ()):
                if g in seen:
                    raise IngestError(f"gene {g!r} assigned to both {seen[g]!r} and {cat!r}")
                seen[g] = cat


@dataclass(frozen=True)
class SampleDescriptor:
    """One manifest row; bag and genomic files are loaded lazily."""

    sample_id: str
    bag_path: Path
    t: float
    event: int
    genomic_path: Path


@dataclass(frozen=True)
class FoldSplit:
    fold: int
    train_ids: tuple[str, ...]
    val_ids: tuple[str, ...]


@dataclass
class Dataset:
    samples: list[BagSample]
    category_map: CategoryMap
    true_risk: dict[str, float] | None = None  # synthetic ground truth, if known

    @property
    def ids(self) -> list[str]:
        return [s.sample_id for s in self.samples]

    @property
    def d_in(self) -> int:
        return self.samples[0].patches.shape[0]

    @property
    def gene_lengths(self) -> list[int]:
        return [len(v) for v in self.samples[0].genomic]

    def subset(self, ids) -> list[BagSample]:
        index = {s.sample_id: s for s in self.samples}
        return [index[i] for i in ids]


# ---------------------------------------------------------------------------
# bag files


def write_bag(path, patches: np.ndarray) -> None:
    """Write a (d_in, n) patch bag; values stored as little-endian float32."""
    arr = np.asarray(patches, dtype=np.float64)
    if arr.ndim != 2:
        raise FormatError(f"bag must be 2-D, got ndim {arr.ndim}")
    d_in, n = arr.shape
    payload = arr.astype("<f4").T.tobytes()  # patch-major: column j contiguous
    with open(path, "wb") as fh:
        fh.write(_BAG_HEADER.pack(BAG_MAGIC, d_in, n, 0))
        fh.write(payload)


def read_bag(path) -> np.ndarray:
    """Read a bag file back into a (d_in, n) float64 array."""
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"bag file not found: {path}")
    raw = path.read_bytes()
    if len(raw) < _BAG_HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, d_in, n, _reserved = _BAG_HEADER.unpack_from(raw)
    if magic != BAG_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if d_in == 0:
        raise FormatError(f"{path}: zero-width bag (header declares d_in = 0)")
    expect = _BAG_HEADER.size + 4 * d_in * n
    if len(raw) != expect:
        raise FormatError(f"{path}: payload is {len(raw)} bytes, expected {expect}")
    flat = np.frombuffer(raw, dtype="<f4", offset=_BAG_HEADER.size)
    patches = flat.reshape(n, d_in).T.astype(np.float64)
    if not np.all(np.isfinite(patches)):
        raise FormatError(f"{path}: non-finite entries in payload")
    return patches


# ---------------------------------------------------------------------------
# manifest and genomic CSVs


def write_manifest(path, descriptors: list[SampleDescriptor]) -> None:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        for d in descriptors:
            writer.writerow([d.sample_id, str(d.bag_path), repr(d.t), d.event, str(d.genomic_path)])


def _csv_rows(path: Path, what: str) -> Iterator[list[str]]:
    """The rows of the UTF-8 CSV file ``path``; other bytes, or text the CSV reader
    rejects (such as a field over ``csv.field_size_limit()``), raise ``IngestError``."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(io.StringIO(fh.read(), newline=""))
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: {what} is not UTF-8: {exc}") from None
    try:
        yield from reader
    except csv.Error as exc:
        raise IngestError(f"{path}:{reader.line_num}: {what} is not readable CSV: {exc}") from None


def read_manifest(path) -> list[SampleDescriptor]:
    """Parse a manifest into descriptors; paths resolve relative to the manifest."""
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"manifest not found: {path}")
    base = path.parent
    out: list[SampleDescriptor] = []
    seen: set[str] = set()
    rows = _csv_rows(path, "manifest")
    header = next(rows, None)
    if header is None:
        raise IngestError(f"{path}: empty manifest")
    if header != MANIFEST_COLUMNS:
        raise IngestError(f"{path}: bad header {header!r}, expected {MANIFEST_COLUMNS!r}")
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(MANIFEST_COLUMNS):
            raise IngestError(f"{path}:{lineno}: expected {len(MANIFEST_COLUMNS)} fields, got {len(row)}")
        sample_id, bag_path, t_raw, event_raw, genomic_path = row
        if sample_id in seen:
            raise IngestError(f"{path}:{lineno}: duplicate sample_id {sample_id!r}")
        seen.add(sample_id)
        try:
            t = float(t_raw)
        except ValueError:
            raise IngestError(f"{path}:{lineno}: t_months {t_raw!r} is not a number") from None
        if not math.isfinite(t) or t <= 0:
            raise IngestError(f"{path}:{lineno}: t_months must be finite and > 0, got {t_raw}")
        if event_raw not in ("0", "1"):
            raise IngestError(f"{path}:{lineno}: event must be 0 or 1, got {event_raw!r}")
        out.append(SampleDescriptor(sample_id, base / bag_path, t, int(event_raw), base / genomic_path))
    return out


def write_genomic_csv(path, values: dict[str, float]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gene", "value"])
        for gene, value in values.items():
            writer.writerow([gene, repr(float(value))])


def read_genomic_csv(path) -> dict[str, float]:
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"genomic file not found: {path}")
    out: dict[str, float] = {}
    rows = _csv_rows(path, "genomic table")
    header = next(rows, None)
    if header != ["gene", "value"]:
        raise IngestError(f"{path}: bad header {header!r}, expected ['gene', 'value']")
    for lineno, row in enumerate(rows, start=2):
        if len(row) != 2:
            raise IngestError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
        gene, raw = row
        if gene in out:
            raise IngestError(f"{path}:{lineno}: duplicate gene {gene!r}")
        try:
            value = float(raw)
        except ValueError:
            raise IngestError(f"{path}:{lineno}: value {raw!r} is not a number") from None
        if not math.isfinite(value):
            raise IngestError(f"{path}:{lineno}: value must be finite")
        out[gene] = value
    return out


def write_category_map(path, cmap: CategoryMap) -> None:
    doc = {cat: list(cmap.genes[cat]) for cat in cmap.categories}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_category_map(path) -> CategoryMap:
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"category map not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply to decode
        raise IngestError(f"{path}: category map is not UTF-8 JSON: {exc}") from None
    if not isinstance(doc, dict) or not doc:
        raise IngestError(f"{path}: category map must be a non-empty JSON object")
    categories = tuple(doc.keys())
    genes = {}
    for cat, names in doc.items():
        if not isinstance(names, list) or not names or not all(isinstance(g, str) for g in names):
            raise IngestError(f"{path}: category {cat!r} must map to a non-empty list of gene names")
        genes[cat] = tuple(names)
    try:
        return CategoryMap(categories=categories, genes=genes)
    except IngestError as exc:  # a gene assigned to two categories
        raise IngestError(f"{path}: {exc}") from None


def group_genomics(table: dict[str, float], cmap: CategoryMap) -> list[np.ndarray]:
    """Arrange a gene->value table into one vector per category, in map order.

    Every gene in the table must be assigned by the map; map genes absent
    from the table are skipped, but no category may come out empty.
    """
    assigned = {g for genes in cmap.genes.values() for g in genes}
    unmapped = sorted(set(table) - assigned)
    if unmapped:
        raise IngestError(f"unmapped genes: {', '.join(unmapped)}")
    out = []
    for cat in cmap.categories:
        values = [table[g] for g in cmap.genes.get(cat, ()) if g in table]
        if not values:
            raise IngestError(f"category {cat!r} has no genes in this sample")
        out.append(np.array(values, dtype=np.float64))
    return out


def load_samples(manifest_path, cmap: CategoryMap) -> Dataset:
    """Materialize every descriptor in a manifest into an in-memory dataset."""
    samples = []
    for desc in read_manifest(manifest_path):
        patches = read_bag(desc.bag_path)
        table = read_genomic_csv(desc.genomic_path)
        try:
            genomic = group_genomics(table, cmap)
        except IngestError as exc:
            raise IngestError(f"{desc.genomic_path}: {exc}") from None
        if samples:  # every sample has the first one's bag width and per-category gene counts
            want = (samples[0].patches.shape[0], [len(v) for v in samples[0].genomic])
            got = (patches.shape[0], [len(v) for v in genomic])
            if got != want:
                bad = desc.bag_path if got[0] != want[0] else desc.genomic_path
                raise IngestError(
                    f"{bad}: bag width and gene counts {got} differ from {want} in sample {samples[0].sample_id!r}"
                )
        samples.append(BagSample(desc.sample_id, patches, genomic, t=desc.t, event=desc.event))
    if not samples:
        raise IngestError(f"{manifest_path}: no samples")
    return Dataset(samples=samples, category_map=cmap)


# ---------------------------------------------------------------------------
# synthetic data


@dataclass(frozen=True)
class RiskModel(Config):
    """How the latent risk score is wired into a synthetic dataset.

    Risk is ``w_hist * u + w_gen * v + w_inter * u * v`` for latent factors
    u (expressed in the mean of a signal patch cluster) and v (expressed in
    the first genomic category), so neither modality alone determines it.
    Survival time is exponential with rate exp(risk); censoring flips an
    independent coin per sample.
    """

    w_hist: float = ranged(4.2, "(-inf, inf)")
    w_gen: float = ranged(4.2, "(-inf, inf)")
    w_inter: float = ranged(6.0, "(-inf, inf)")
    signal_amplitude: float = ranged(3.0, "(0, inf)")  # scale of the latent factors inside the raw features
    patch_noise: float = ranged(0.1, "[0, inf)")
    gene_noise: float = ranged(0.1, "[0, inf)")
    background_patch_scale: float = ranged(0.3, "[0, inf)")  # spread of the non-signal patches
    off_category_scale: float = ranged(0.25, "[0, inf)")  # spread of the non-signal genomic categories
    signal_fraction: float = ranged(0.8, "(0, 1]")
    genes_per_category: int = ranged(8, "[1, inf)")
    patches_min: int = ranged(12, "[1, inf)")
    patches_max: int = ranged(32, "[1, inf)")
    censor_rate: float = ranged(0.15, "[0, 1)")
    median_months: float = ranged(24.0, "(0, inf)")

    def rules(self) -> list[str]:
        out = []
        if self.w_hist == 0 and self.w_gen == 0 and self.w_inter == 0:
            out.append("w_hist, w_gen, w_inter: risk model is degenerate: all weights zero")
        if self.patches_min > self.patches_max:
            out.append(f"patches_min: {self.patches_min} exceeds patches_max {self.patches_max}")
        return out


def default_category_map(s_categories: int, genes_per_category: int) -> CategoryMap:
    if s_categories < 1:
        raise ValueError("need at least one category")
    names = list(DEFAULT_CATEGORIES[:s_categories])
    while len(names) < s_categories:
        names.append(f"Category {len(names) + 1}")
    genes = {cat: tuple(f"g{ci}_{j}" for j in range(genes_per_category)) for ci, cat in enumerate(names)}
    return CategoryMap(categories=tuple(names), genes=genes)


def synthesize(
    n: int,
    d_in: int = 16,
    s_categories: int = 6,
    risk_model: RiskModel | None = None,
    seed: int = 0,
) -> Dataset:
    """Generate a deterministic cross-modal survival dataset.

    The ground-truth risk per sample is kept on the dataset for oracle
    evaluation; it is never visible to a model.
    """
    if n < 4:
        raise ValueError(f"need n >= 4 samples, got {n}")
    if d_in < 1:
        raise ValueError(f"need d_in >= 1, got {d_in}")
    rm = risk_model or RiskModel()
    rm.validate()
    cmap = default_category_map(s_categories, rm.genes_per_category)
    rng = np.random.default_rng(seed)

    # fixed signal directions, drawn once per dataset
    patch_dir = rng.standard_normal(d_in)
    patch_dir /= np.linalg.norm(patch_dir)
    gene_dir = rng.standard_normal(rm.genes_per_category)
    gene_dir /= np.linalg.norm(gene_dir)

    scale0 = rm.median_months / math.log(2.0)
    samples: list[BagSample] = []
    true_risk: dict[str, float] = {}
    for i in range(n):
        u = rng.standard_normal()
        v = rng.standard_normal()
        r = rm.w_hist * u + rm.w_gen * v + rm.w_inter * u * v

        n_patches = int(rng.integers(rm.patches_min, rm.patches_max + 1))
        n_signal = max(1, int(round(rm.signal_fraction * n_patches)))
        amp = rm.signal_amplitude
        signal = amp * u * patch_dir[:, None] + rm.patch_noise * rng.standard_normal((d_in, n_signal))
        noise = rm.background_patch_scale * rng.standard_normal((d_in, n_patches - n_signal))
        patches = np.hstack([signal, noise])
        patches = patches[:, rng.permutation(n_patches)]

        genomic = [amp * v * gene_dir + rm.gene_noise * rng.standard_normal(rm.genes_per_category)]
        for _ in range(1, s_categories):
            genomic.append(rm.off_category_scale * rng.standard_normal(rm.genes_per_category))

        t_death = float(rng.exponential()) * scale0 * math.exp(-r)
        censored = rng.random() < rm.censor_rate
        if censored:
            frac = rng.random()
            while frac == 0.0:
                frac = rng.random()
            # cube root keeps censored follow-up close to the death time, so
            # censored samples still carry most of their ordering information
            t_obs, event = t_death * frac ** (1.0 / 3.0), 0
        else:
            t_obs, event = t_death, 1

        sid = f"synth-{i:04d}"
        samples.append(BagSample(sample_id=sid, patches=patches, genomic=genomic, t=t_obs, event=event))
        true_risk[sid] = r

    return Dataset(samples=samples, category_map=cmap, true_risk=true_risk)


def write_dataset(dataset: Dataset, out_dir) -> Path:
    """Write a dataset directory (manifest, bags, genomic CSVs, category map)."""
    out = Path(out_dir)
    (out / "bags").mkdir(parents=True, exist_ok=True)
    (out / "genomic").mkdir(exist_ok=True)
    write_category_map(out / "category_map.json", dataset.category_map)
    descriptors = []
    cmap = dataset.category_map
    for s in dataset.samples:
        bag_rel = Path("bags") / f"{s.sample_id}.bag"
        gen_rel = Path("genomic") / f"{s.sample_id}.csv"
        write_bag(out / bag_rel, s.patches)
        table: dict[str, float] = {}
        for cat, vec in zip(cmap.categories, s.genomic):
            for gene, value in zip(cmap.genes[cat], vec):
                table[gene] = float(value)
        write_genomic_csv(out / gen_rel, table)
        descriptors.append(SampleDescriptor(s.sample_id, bag_rel, t=s.t, event=s.event, genomic_path=gen_rel))
    write_manifest(out / "manifest.csv", descriptors)
    return out / "manifest.csv"


# ---------------------------------------------------------------------------
# cross-validation splits


def holdout_count(n: int, ratio: float) -> int:
    """How many of n ids a fold holds out, floor(ratio * n); ``ValueError`` unless each side gets one."""
    n_val = int(n * ratio)
    if n_val < 1 or n_val >= n:
        raise ValueError(f"cannot hold out {n_val} of {n} samples at ratio {ratio}")
    return n_val


def monte_carlo_splits(ids, k: int, ratio: float, seed: int) -> list[FoldSplit]:
    """k independent random train/validation partitions (resampled, not disjoint).

    Each fold holds out floor(ratio * n) ids; folds are drawn independently,
    so validation sets may overlap across folds.
    """
    ids = list(ids)
    if k < 1:
        raise ValueError("need k >= 1 folds")
    if not 0 < ratio < 1:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    n_val = holdout_count(len(ids), ratio)
    rng = np.random.default_rng(seed)
    splits = []
    for fold in range(k):
        perm = rng.permutation(len(ids))
        val = tuple(sorted(ids[j] for j in perm[:n_val]))
        train = tuple(sorted(ids[j] for j in perm[n_val:]))
        splits.append(FoldSplit(fold=fold, train_ids=train, val_ids=val))
    return splits
