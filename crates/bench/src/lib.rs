//! # fasea-bench
//!
//! The three benches that hold keep-or-remove evidence for machinery the
//! end-to-end benchmark (`benchmark/`) does not exercise on its own:
//!
//! * `oracle_compare` — greedy vs tabu oracles: attendance and latency
//!   side by side (`BENCH_oracle.json`);
//! * `pipeline_throughput` — serve grant-ahead admission at
//!   `--pipeline-depth` 1 vs 4 (`BENCH_pipeline.json`);
//! * `shard_scaling` — the sharded service at 1, 2 and 4 shards against
//!   the single actor (`BENCH_shard.json`).
//!
//! Each bench prints one line per cell and, when `FASEA_BENCH_JSON`
//! names a file, writes its table there through [`BenchReport`]:
//!
//! ```text
//! FASEA_BENCH_JSON=BENCH_oracle.json cargo bench -p fasea-bench --bench oracle_compare
//! ```
//!
//! `FASEA_BENCH_MS` bounds each measurement window ([`budget`]), so a
//! gate can smoke-run a bench without touching the committed numbers.

use std::path::Path;
use std::time::Duration;

/// The per-measurement time budget: `FASEA_BENCH_MS` milliseconds
/// (default 300, at least 10).
pub fn budget() -> Duration {
    let ms = std::env::var("FASEA_BENCH_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(300);
    Duration::from_millis(ms.max(10))
}

/// The cores this process may run on.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One scalar in a [`BenchReport`]: top-level metadata or a cell field.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// `null`, e.g. a ratio in the baseline row.
    Null,
    /// An integer count.
    Int(u64),
    /// A finite float written with a fixed number of decimals.
    Fixed(f64, usize),
    /// A string.
    Text(String),
}

impl Field {
    /// `value` written with `decimals` digits after the point.
    ///
    /// # Panics
    /// Panics if `value` is not finite: a table must never carry NaN or
    /// infinity.
    pub fn fixed(value: f64, decimals: usize) -> Self {
        assert!(value.is_finite(), "non-finite bench value {value}");
        Field::Fixed(value, decimals)
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Field::Null => out.push_str("null"),
            Field::Int(n) => out.push_str(&n.to_string()),
            Field::Fixed(x, decimals) => out.push_str(&format!("{x:.decimals$}")),
            Field::Text(s) => write_json_string(out, s),
        }
    }
}

impl From<u64> for Field {
    fn from(n: u64) -> Self {
        Field::Int(n)
    }
}

impl From<usize> for Field {
    fn from(n: usize) -> Self {
        Field::Int(n as u64)
    }
}

impl From<&str> for Field {
    fn from(s: &str) -> Self {
        Field::Text(s.to_owned())
    }
}

impl<T: Into<Field>> From<Option<T>> for Field {
    fn from(value: Option<T>) -> Self {
        value.map_or(Field::Null, Into::into)
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A bench's result table: `bench`, `units`, `host_cores` and any other
/// top-level metadata, then a non-empty list of flat cells that all
/// carry the key set of the first. That is the whole schema
/// `fasea-exp check-bench` enforces, for every bench alike.
#[derive(Debug, Clone)]
pub struct BenchReport {
    host_cores: usize,
    meta: Vec<(&'static str, Field)>,
    cells: Vec<Vec<(&'static str, Field)>>,
}

impl BenchReport {
    /// A report for `bench` measured in `units`, recording this host's
    /// [`host_cores`].
    pub fn new(bench: &str, units: &str) -> Self {
        let host_cores = host_cores();
        BenchReport {
            host_cores,
            meta: vec![
                ("bench", bench.into()),
                ("units", units.into()),
                ("host_cores", host_cores.into()),
            ],
            cells: Vec::new(),
        }
    }

    /// Adds a top-level metadata entry (e.g. `"fsync": "never"`).
    pub fn meta(&mut self, key: &'static str, value: impl Into<Field>) -> &mut Self {
        assert!(
            self.meta.iter().all(|(k, _)| *k != key),
            "duplicate metadata key {key}"
        );
        self.meta.push((key, value.into()));
        self
    }

    /// The recorded core count.
    pub fn host_cores(&self) -> usize {
        self.host_cores
    }

    /// Appends one cell.
    ///
    /// # Panics
    /// Panics if the cell's keys differ, in name or order, from the first
    /// cell's: the first cell declares the table's columns.
    pub fn cell(&mut self, fields: Vec<(&'static str, Field)>) {
        assert!(!fields.is_empty(), "a cell needs at least one field");
        if let Some(first) = self.cells.first() {
            let keys = |cell: &[(&'static str, Field)]| -> Vec<&'static str> {
                cell.iter().map(|(k, _)| *k).collect()
            };
            assert_eq!(
                keys(&fields),
                keys(first),
                "every cell must carry the first cell's keys"
            );
        }
        self.cells.push(fields);
    }

    /// The table as pretty-printed JSON, one cell per line.
    ///
    /// # Panics
    /// Panics if no cell was added.
    pub fn to_json(&self) -> String {
        assert!(!self.cells.is_empty(), "a report needs at least one cell");
        let mut out = String::from("{\n");
        for (key, value) in &self.meta {
            out.push_str(&format!("  \"{key}\": "));
            value.write_json(&mut out);
            out.push_str(",\n");
        }
        out.push_str("  \"cells\": [\n");
        for (i, cell) in self.cells.iter().enumerate() {
            out.push_str("    {");
            for (j, (key, value)) in cell.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{key}\": "));
                value.write_json(&mut out);
            }
            out.push('}');
            if i + 1 < self.cells.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the table to the file `FASEA_BENCH_JSON` names, if set. A
    /// relative path is taken from the workspace root, where the
    /// committed tables live (cargo runs a bench from its package
    /// directory).
    ///
    /// # Panics
    /// Panics if the file cannot be written.
    pub fn write_if_requested(&self) {
        if let Ok(path) = std::env::var("FASEA_BENCH_JSON") {
            let path = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(path);
            std::fs::write(&path, self.to_json()).expect("write FASEA_BENCH_JSON");
            println!("wrote {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasea_experiments::bench_check::{check_bench_doc, parse_json, Json};

    fn sample() -> BenchReport {
        let mut report = BenchReport::new("sample", "rounds_per_sec");
        report
            .meta("fsync", "never")
            .meta("caveat", "quote \"this\"\n");
        for (mode, speedup) in [("single", None), ("sharded", Some(0.5))] {
            report.cell(vec![
                ("mode", mode.into()),
                ("rounds", 1200u64.into()),
                ("rounds_per_sec", Field::fixed(5890.26, 1)),
                ("speedup", speedup.map(|s| Field::fixed(s, 2)).into()),
            ]);
        }
        report
    }

    #[test]
    fn the_written_table_passes_check_bench() {
        let report = sample();
        let doc = parse_json(&report.to_json()).unwrap();
        check_bench_doc(&doc).unwrap();
        let Json::Object(top) = doc else {
            panic!("not an object");
        };
        assert_eq!(
            top.get("host_cores"),
            Some(&Json::Number(report.host_cores() as f64))
        );
        assert_eq!(
            top.get("caveat"),
            Some(&Json::String("quote \"this\"\n".into()))
        );
        let Some(Json::Array(cells)) = top.get("cells") else {
            panic!("no cells");
        };
        let Json::Object(second) = &cells[1] else {
            panic!("cell is not an object");
        };
        assert_eq!(second.get("rounds_per_sec"), Some(&Json::Number(5890.3)));
        assert_eq!(second.get("speedup"), Some(&Json::Number(0.5)));
        let Json::Object(first) = &cells[0] else {
            panic!("cell is not an object");
        };
        assert_eq!(first.get("speedup"), Some(&Json::Null));
    }

    #[test]
    #[should_panic(expected = "first cell's keys")]
    fn a_cell_with_other_keys_is_refused() {
        let mut report = sample();
        report.cell(vec![("mode", "extra".into())]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_values_are_refused() {
        Field::fixed(f64::NAN, 1);
    }
}
