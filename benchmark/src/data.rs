//! Seeded inputs: the logical table `events`, its join build side `dim`,
//! and the four files the engine reads them from.
//!
//! Everything here is a pure function of `(seed, rows)`: the same seed gives
//! byte-identical files. The generator owns its PRNG (splitmix64) so the
//! inputs cannot drift when the repository's `rand` shim changes.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use raw::columnar::{Column, DataType, MemTable, Schema};
use raw::formats::{csv, fbin, rzb};

/// Columns of `events` and `dim` (`col1..col30`, all int64) — the paper's
/// narrow table.
pub const COLS: usize = 30;
/// Exclusive upper bound of the uniform columns, as in `datagen::int_table`,
/// so `col < s·1e9` passes a fraction `s` of the rows.
pub const UNIFORM_RANGE: i64 = 1_000_000_000;
/// Distinct values of the grouping column `col2`.
pub const GROUP_KEYS: i64 = 1024;
/// 0-based index of the second uniform predicate column, `col5`.
pub const SECOND_PRED_COL: usize = 4;
/// `dim` holds the first `rows / DIM_FRACTION` rows of `events`, shuffled.
pub const DIM_FRACTION: usize = 4;

/// splitmix64: tiny, seedable, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (modulo bias is < 2⁻³⁰ for every `n` used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// A derived stream: the same `(seed, stream)` always yields the same draws,
/// and streams do not overlap in practice.
pub fn stream(seed: u64, stream: u64) -> Rng {
    let mut mix = Rng::new(seed ^ stream.wrapping_mul(0xD605_BBB5_8C8A_BBC9));
    Rng::new(mix.next_u64())
}

/// The in-memory tables: what the files encode and what the oracle reads.
pub struct Dataset {
    pub events: Arc<MemTable>,
    pub dim: Arc<MemTable>,
}

impl Dataset {
    /// Generate `rows` rows of `events` and the derived `dim`.
    ///
    /// `col1` and `col5` are uniform in `[0, 1e9)` (predicate columns),
    /// `col2` uniform in `[0, 1024)` (group key). The other columns are
    /// low-cardinality or near-monotone so the CSV is *compressible*: a
    /// table of uniform random digits packs to ~0.92 and would let a decoder
    /// "win" by storing blocks raw.
    pub fn generate(seed: u64, rows: usize) -> Dataset {
        let columns: Vec<Vec<i64>> = (0..COLS)
            .map(|c| {
                let mut rng = stream(seed, 1000 + c as u64);
                match c {
                    0 | SECOND_PRED_COL => {
                        (0..rows).map(|_| rng.below(UNIFORM_RANGE as u64) as i64).collect()
                    }
                    1 => (0..rows).map(|_| rng.below(GROUP_KEYS as u64) as i64).collect(),
                    _ if c % 2 == 0 => {
                        // Near-monotone: a seeded ramp with bounded jitter.
                        let step = 1 + rng.below(40);
                        let base = rng.below(10_000);
                        (0..rows as u64)
                            .map(|r| (base + r * step / 64 + rng.below(step)) as i64)
                            .collect()
                    }
                    _ => {
                        // Low cardinality: draws from a small seeded dictionary.
                        let distinct = 8u64 << (c % 5);
                        let width = 10u64.pow(1 + (c % 5) as u32);
                        let dict: Vec<i64> =
                            (0..distinct).map(|_| rng.below(width) as i64).collect();
                        (0..rows).map(|_| dict[rng.below(distinct) as usize]).collect()
                    }
                }
            })
            .collect();

        let dim_rows = rows / DIM_FRACTION;
        let mut perm: Vec<usize> = (0..dim_rows).collect();
        stream(seed, 2000).shuffle(&mut perm);
        let dim_columns: Vec<Vec<i64>> =
            columns.iter().map(|col| perm.iter().map(|&r| col[r]).collect()).collect();

        Dataset::from_columns(columns, dim_columns)
    }

    /// Wrap ready-made columns (`COLS` per table).
    pub fn from_columns(events: Vec<Vec<i64>>, dim: Vec<Vec<i64>>) -> Dataset {
        Dataset { events: table(events), dim: table(dim) }
    }

    /// Column `c` (0-based) of `events`.
    pub fn events_col(&self, c: usize) -> &[i64] {
        int_col(&self.events, c)
    }

    /// Column `c` (0-based) of `dim`.
    pub fn dim_col(&self, c: usize) -> &[i64] {
        int_col(&self.dim, c)
    }
}

fn table(columns: Vec<Vec<i64>>) -> Arc<MemTable> {
    let schema = Schema::uniform(columns.len(), DataType::Int64);
    let columns: Vec<Column> = columns.into_iter().map(Column::from).collect();
    Arc::new(MemTable::new(schema, columns).expect("generated columns match the schema"))
}

fn int_col(table: &MemTable, c: usize) -> &[i64] {
    table.column(c).and_then(Column::as_i64).expect("every generated column is int64")
}

/// Which encodings of the dataset a workload reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileSet {
    pub csv: bool,
    pub rzb: bool,
    pub fbin: bool,
    pub dim: bool,
}

impl FileSet {
    pub const ALL: FileSet = FileSet { csv: true, rzb: true, fbin: true, dim: true };
}

/// Paths and sizes of the files written for one run.
#[derive(Debug, Clone, Default)]
pub struct Files {
    pub dir: PathBuf,
    /// `(file name, bytes)` of every file written, in write order.
    pub sizes: Vec<(String, u64)>,
}

impl Files {
    pub fn csv(&self) -> PathBuf {
        self.dir.join("events.csv")
    }
    pub fn rzb(&self) -> PathBuf {
        self.dir.join("events.csv.rzb")
    }
    pub fn fbin(&self) -> PathBuf {
        self.dir.join("events.fbin")
    }
    pub fn dim(&self) -> PathBuf {
        self.dir.join("dim.csv")
    }
}

/// Write the requested encodings of `data` into `dir`. The `.rzb` container
/// is packed at `block_bytes` (the engine's default) from the CSV bytes, so
/// it decodes to exactly `events.csv`.
pub fn write_files(
    data: &Dataset,
    dir: &Path,
    want: FileSet,
    block_bytes: usize,
) -> Result<Files, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut files = Files { dir: dir.to_owned(), sizes: Vec::new() };
    let mut put = |path: PathBuf, bytes: &[u8]| -> Result<(), String> {
        std::fs::write(&path, bytes).map_err(|e| format!("write {}: {e}", path.display()))?;
        let name = path.file_name().expect("file path").to_string_lossy().into_owned();
        files.sizes.push((name, bytes.len() as u64));
        Ok(())
    };
    if want.csv || want.rzb {
        let text = csv::writer::to_bytes(&data.events).map_err(|e| e.to_string())?;
        if want.csv {
            put(dir.join("events.csv"), &text)?;
        }
        if want.rzb {
            put(dir.join("events.csv.rzb"), &rzb::compress(&text, block_bytes))?;
        }
    }
    if want.fbin {
        put(dir.join("events.fbin"), &fbin::to_bytes(&data.events).map_err(|e| e.to_string())?)?;
    }
    if want.dim {
        put(dir.join("dim.csv"), &csv::writer::to_bytes(&data.dim).map_err(|e| e.to_string())?)?;
    }
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn written(seed: u64, tag: &str) -> Vec<(String, Vec<u8>)> {
        let dir = std::env::temp_dir().join(format!("raw-benchmark-{tag}-{}", std::process::id()));
        let files = write_files(&Dataset::generate(seed, 2_000), &dir, FileSet::ALL, 4096).unwrap();
        let out = files
            .sizes
            .iter()
            .map(|(name, bytes)| {
                let content = std::fs::read(dir.join(name)).unwrap();
                assert_eq!(content.len() as u64, *bytes);
                (name.clone(), content)
            })
            .collect();
        std::fs::remove_dir_all(&dir).unwrap();
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_files() {
        let (a, b, c) = (written(7, "a"), written(7, "b"), written(8, "c"));
        assert_eq!(a.len(), 4);
        assert!(a == b, "same seed, different bytes");
        for ((name, x), (_, y)) in a.iter().zip(&c) {
            assert!(x != y, "{name} does not depend on the seed");
        }
    }

    #[test]
    fn columns_have_the_promised_shape() {
        let d = Dataset::generate(3, 8_000);
        assert_eq!((d.events.rows(), d.dim.rows()), (8_000, 2_000));
        assert!(d.events_col(0).iter().all(|v| (0..UNIFORM_RANGE).contains(v)));
        assert!(d.events_col(1).iter().all(|v| (0..GROUP_KEYS).contains(v)));
        // `col1 < 40 % of the range` passes about 40 % of the rows.
        let pass = d.events_col(0).iter().filter(|&&v| v < UNIFORM_RANGE / 10 * 4).count();
        assert!((3_000..3_400).contains(&pass), "{pass} of 8000 rows pass a 40 % predicate");
        // dim is a permutation of the first quarter of events.
        let mut keys: Vec<i64> = d.dim_col(0).to_vec();
        let mut firsts: Vec<i64> = d.events_col(0)[..2_000].to_vec();
        assert_ne!(keys, firsts, "dim is shuffled");
        keys.sort_unstable();
        firsts.sort_unstable();
        assert_eq!(keys, firsts);
        // The CSV is compressible: that is the point of the other columns.
        let text = csv::writer::to_bytes(&d.events).unwrap();
        let packed = rzb::compress(&text, 256 << 10);
        assert!(
            packed.len() * 10 < text.len() * 7,
            "ratio {}",
            packed.len() as f64 / text.len() as f64
        );
    }
}
