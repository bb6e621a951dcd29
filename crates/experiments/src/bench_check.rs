//! `fasea-exp check-bench` — schema gate for the committed
//! `BENCH_*.json` files.
//!
//! The benches in `crates/bench/benches/` write their result tables
//! through `fasea_bench::BenchReport` when `FASEA_BENCH_JSON` is set;
//! the repository commits those tables (`BENCH_oracle.json`,
//! `BENCH_pipeline.json`, `BENCH_shard.json`) as
//! the record of the measured numbers. This module validates that each
//! file still parses and keeps the one shape every bench shares, so a
//! bench edit that drifts the output format fails `scripts/check.sh`
//! instead of silently producing an unreadable artefact:
//!
//! * the top level is a JSON object with a string `"bench"`, a string
//!   `"units"`, a positive integer `"host_cores"`, and a non-empty
//!   `"cells"` array;
//! * every cell is an object whose values are strings, finite numbers,
//!   booleans, or `null` — no nested containers, so any CSV/tooling
//!   consumer can flatten a cell without recursion;
//! * every cell carries the same key set as the first;
//! * a speedup above 1× on a single-core host needs a `"caveat"`.
//!
//! The parser is a ~100-line recursive-descent reader over `str` —
//! deliberately std-only, matching the workspace's no-new-dependencies
//! rule, and strict enough for the gate (it rejects trailing input,
//! malformed escapes, lone surrogates, and non-finite numbers).

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// A parsed JSON value. Only what the bench files need.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (the bench writers never emit NaN/inf).
    Number(f64),
    /// A string with escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, key-ordered for deterministic error messages.
    Object(BTreeMap<String, Json>),
}

impl Json {
    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Number(_) => "number",
            Json::String(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }
}

/// A parse failure with the byte offset where it happened.
#[derive(Debug)]
pub struct JsonError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub what: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, what: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            at: self.pos,
            what: what.into(),
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => self.err(format!("unexpected byte 0x{other:02x}")),
            None => self.err("unexpected end of input"),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("expected '{word}'"))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Number(n)),
            Ok(_) => self.err(format!("non-finite number '{text}'")),
            Err(_) => self.err(format!("invalid number '{text}'")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return self.err("unknown escape"),
                    };
                    out.push(escaped);
                    self.pos += 1;
                }
                Some(_) => {
                    // `pos` only ever advances by whole chars, so it
                    // sits on a char boundary of the input.
                    let c = self.text[self.pos..].chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Four hex digits at byte `at`, if there are four.
    fn hex4(&self, at: usize) -> Option<u32> {
        let hex = self.text.get(at..at + 4)?;
        if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u32::from_str_radix(hex, 16).ok()
    }

    /// Decodes `uXXXX` with `pos` on the `u`, joining a UTF-16 surrogate
    /// pair such as `\ud83d\ude00` into one char. Leaves `pos` on the
    /// last hex digit. A lone surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let decoded = match self.hex4(self.pos + 1) {
            Some(high @ 0xD800..=0xDBFF) => {
                let low = self.text[self.pos + 5..]
                    .starts_with("\\u")
                    .then(|| self.hex4(self.pos + 7))
                    .flatten();
                match low {
                    Some(low @ 0xDC00..=0xDFFF) => {
                        self.pos += 6;
                        char::from_u32(0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00))
                    }
                    _ => None,
                }
            }
            Some(code) => char::from_u32(code),
            None => None,
        };
        match decoded {
            Some(c) => {
                self.pos += 4;
                Ok(c)
            }
            None => self.err("bad \\u escape"),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parses a complete JSON document; trailing non-whitespace is an
/// error.
///
/// # Errors
/// [`JsonError`] with the byte offset of the first problem.
pub fn parse_json(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing data after document");
    }
    Ok(value)
}

/// Validates one bench-result document against the shared schema.
///
/// # Errors
/// A human-readable description of the first violation.
pub fn check_bench_doc(doc: &Json) -> Result<(), String> {
    let Json::Object(top) = doc else {
        return Err(format!(
            "top level must be an object, got {}",
            doc.type_name()
        ));
    };
    for key in ["bench", "units"] {
        match top.get(key) {
            Some(Json::String(s)) if !s.is_empty() => {}
            Some(other) => {
                return Err(format!(
                    "\"{key}\" must be a non-empty string, got {}",
                    other.type_name()
                ))
            }
            None => return Err(format!("missing required key \"{key}\"")),
        }
    }
    let cells = match top.get("cells") {
        Some(Json::Array(cells)) => cells,
        Some(other) => {
            return Err(format!(
                "\"cells\" must be an array, got {}",
                other.type_name()
            ))
        }
        None => return Err("missing required key \"cells\"".into()),
    };
    if cells.is_empty() {
        return Err("\"cells\" must not be empty".into());
    }
    match top.get("host_cores") {
        Some(Json::Number(n)) if *n >= 1.0 && n.fract() == 0.0 => {}
        Some(other) => {
            return Err(format!(
                "\"host_cores\" must be a positive integer, got {}",
                match other {
                    Json::Number(n) => format!("{n}"),
                    other => other.type_name().to_string(),
                }
            ))
        }
        None => return Err("missing required key \"host_cores\"".into()),
    }
    let mut first_keys: Option<Vec<&String>> = None;
    for (i, cell) in cells.iter().enumerate() {
        let Json::Object(fields) = cell else {
            return Err(format!(
                "cells[{i}] must be an object, got {}",
                cell.type_name()
            ));
        };
        if fields.is_empty() {
            return Err(format!("cells[{i}] must not be empty"));
        }
        for (key, value) in fields {
            match value {
                Json::Null | Json::Bool(_) | Json::Number(_) | Json::String(_) => {}
                nested => {
                    return Err(format!(
                        "cells[{i}].{key} must be a scalar or null, got {}",
                        nested.type_name()
                    ))
                }
            }
        }
        let keys: Vec<&String> = fields.keys().collect();
        match &first_keys {
            None => first_keys = Some(keys),
            Some(first) if *first == keys => {}
            Some(first) => {
                return Err(format!(
                    "cells[{i}] keys {keys:?} differ from cells[0] keys {first:?}"
                ))
            }
        }
    }
    check_single_core_speedups(top, cells)
}

/// A speedup above 1× measured on a single-core host cannot come from
/// parallel execution — it is timer noise, queueing-artefact, or a
/// config error — so a table claiming one on `host_cores: 1` must also
/// carry a top-level `"caveat"` string explaining the number, or the
/// gate rejects it. Applies to `parallel_speedup` and every
/// `speedup_vs_*` cell field.
fn check_single_core_speedups(top: &BTreeMap<String, Json>, cells: &[Json]) -> Result<(), String> {
    if !matches!(top.get("host_cores"), Some(Json::Number(n)) if *n == 1.0) {
        return Ok(());
    }
    let has_caveat = matches!(top.get("caveat"), Some(Json::String(s)) if !s.is_empty());
    for (i, cell) in cells.iter().enumerate() {
        let Json::Object(fields) = cell else {
            unreachable!("cell shape checked by the shared schema");
        };
        for (key, value) in fields {
            let is_speedup = key == "parallel_speedup" || key.starts_with("speedup_vs_");
            if !is_speedup {
                continue;
            }
            if let Json::Number(n) = value {
                if *n > 1.0 && !has_caveat {
                    return Err(format!(
                        "cells[{i}].{key} claims a {n}x speedup on a single-core host \
                         (host_cores: 1); add a top-level \"caveat\" string explaining \
                         the number or re-measure on a multi-core host"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Reads and validates one `BENCH_*.json` file.
///
/// # Errors
/// I/O, parse, or schema failures, prefixed with the file name.
pub fn check_bench_file(path: &Path) -> Result<(), String> {
    let name = path.display();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{name}: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("{name}: {e}"))?;
    check_bench_doc(&doc).map_err(|e| format!("{name}: {e}"))
}

/// `fasea-exp check-bench [FILE...]`: validates the given files, or —
/// with no arguments — every `BENCH_*.json` in the current directory.
///
/// # Errors
/// The first failing file's diagnostic, or a note that no files were
/// found (an empty gate would pass vacuously forever).
pub fn check_bench_main(args: &[String]) -> Result<(), String> {
    let files: Vec<std::path::PathBuf> = if args.is_empty() {
        let mut found: Vec<_> = std::fs::read_dir(".")
            .map_err(|e| format!("read current directory: {e}"))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name().is_some_and(|n| {
                    let n = n.to_string_lossy();
                    n.starts_with("BENCH_") && n.ends_with(".json")
                })
            })
            .collect();
        found.sort();
        found
    } else {
        args.iter().map(std::path::PathBuf::from).collect()
    };
    if files.is_empty() {
        return Err("no BENCH_*.json files found — nothing to check".into());
    }
    for file in &files {
        check_bench_file(file)?;
        println!("check-bench OK: {}", file.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(text: &str) -> Json {
        parse_json(text).unwrap()
    }

    #[test]
    fn parses_scalars_arrays_and_objects() {
        assert_eq!(obj("null"), Json::Null);
        assert_eq!(obj(" true "), Json::Bool(true));
        assert_eq!(obj("-12.5e1"), Json::Number(-125.0));
        assert_eq!(obj(r#""a\nbé""#), Json::String("a\nbé".into()));
        assert_eq!(obj(r#""\b\f\/é""#), Json::String("\u{8}\u{c}/é".into()));
        assert_eq!(
            obj(r#""x\ud83d\ude00y""#),
            Json::String("x\u{1F600}y".into())
        );
        assert_eq!(
            obj(r#"[1, "x", null]"#),
            Json::Array(vec![
                Json::Number(1.0),
                Json::String("x".into()),
                Json::Null
            ])
        );
        let Json::Object(map) = obj(r#"{"a": 1, "b": [true]}"#) else {
            panic!("not an object");
        };
        assert_eq!(map.get("a"), Some(&Json::Number(1.0)));
        // A long string parses in linear time.
        let long = format!("\"{}\"", "é".repeat(200_000));
        assert_eq!(obj(&long), Json::String("é".repeat(200_000)));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "1 2",
            "nul",
            "\"open",
            "1e999",
            r#""\x""#,
            r#""\u12""#,
            r#""\u+123""#,
            // Lone surrogates: a high half without its low half, a high
            // half followed by a non-surrogate, and a bare low half.
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83dA""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
        ] {
            assert!(parse_json(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    #[test]
    fn accepts_the_bench_writers_shape() {
        let doc = obj(r#"{
              "bench": "wal_append", "units": "ns_per_round", "host_cores": 1,
              "caveat": "single-core host: speedups reflect fewer fsyncs, not parallelism",
              "cells": [
                {"mode": "direct", "policy": "always", "batch": null, "round_ns": 450921.4,
                 "speedup_vs_direct_always": null},
                {"mode": "group", "policy": "always", "batch": 8, "round_ns": 125000.0,
                 "speedup_vs_direct_always": 3.60}
              ]
            }"#);
        check_bench_doc(&doc).unwrap();
    }

    #[test]
    fn single_core_speedup_claims_require_a_caveat() {
        // A >1x parallel speedup measured where no parallelism exists
        // must be explained or rejected.
        let bare = r#"{"bench": "x", "units": "y", "host_cores": 1,
            "cells": [{"mode": "group", "speedup_vs_direct_always": 2.19}]}"#;
        let err = check_bench_doc(&obj(bare)).unwrap_err();
        assert!(err.contains("caveat"), "{err}");
        assert!(err.contains("speedup_vs_direct_always"), "{err}");

        let parallel = r#"{"bench": "x", "units": "y", "host_cores": 1,
            "cells": [{"threads": 4, "parallel_speedup": 1.5}]}"#;
        assert!(check_bench_doc(&obj(parallel))
            .unwrap_err()
            .contains("parallel_speedup"));

        // The same table passes once the caveat explains the number.
        let explained = r#"{"bench": "x", "units": "y", "host_cores": 1,
            "caveat": "speedup reflects fewer fsyncs per round, not parallel execution",
            "cells": [{"mode": "group", "speedup_vs_direct_always": 2.19}]}"#;
        check_bench_doc(&obj(explained)).unwrap();

        // An empty caveat is no caveat.
        let empty = r#"{"bench": "x", "units": "y", "host_cores": 1, "caveat": "",
            "cells": [{"mode": "group", "speedup_vs_direct_always": 2.19}]}"#;
        assert!(check_bench_doc(&obj(empty)).is_err());

        // Sub-1x ratios, null entries, and multi-core hosts are all fine
        // without a caveat.
        for ok in [
            r#"{"bench": "x", "units": "y", "host_cores": 1,
                "cells": [{"parallel_speedup": 0.97}, {"parallel_speedup": null}]}"#,
            r#"{"bench": "x", "units": "y", "host_cores": 8,
                "cells": [{"parallel_speedup": 6.4}]}"#,
        ] {
            check_bench_doc(&obj(ok)).unwrap();
        }
    }

    #[test]
    fn every_committed_table_passes() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut checked = 0;
        for entry in std::fs::read_dir(&root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                check_bench_file(&path).unwrap();
                checked += 1;
            }
        }
        assert!(checked > 0, "no BENCH_*.json at the workspace root");
    }

    #[test]
    fn rejects_schema_violations() {
        let cases = [
            (r#"[1]"#, "top level"),
            (
                r#"{"units": "x", "host_cores": 1, "cells": [{"a": 1}]}"#,
                "\"bench\"",
            ),
            (
                r#"{"bench": "x", "host_cores": 1, "cells": [{"a": 1}]}"#,
                "\"units\"",
            ),
            (r#"{"bench": "x", "units": "y"}"#, "\"cells\""),
            (r#"{"bench": "x", "units": "y", "cells": []}"#, "empty"),
            (
                r#"{"bench": "x", "units": "y", "host_cores": 1, "cells": [7]}"#,
                "cells[0]",
            ),
            (
                r#"{"bench": "x", "units": "y", "host_cores": 1, "cells": [{"a": [1]}]}"#,
                "scalar",
            ),
            (
                r#"{"bench": "x", "units": "y", "cells": [{"a": 1}]}"#,
                "missing required key \"host_cores\"",
            ),
            (
                r#"{"bench": "x", "units": "y", "host_cores": 0, "cells": [{"a": 1}]}"#,
                "\"host_cores\"",
            ),
            (
                r#"{"bench": "x", "units": "y", "host_cores": 1.5, "cells": [{"a": 1}]}"#,
                "\"host_cores\"",
            ),
            (
                r#"{"bench": "x", "units": "y", "host_cores": "8", "cells": [{"a": 1}]}"#,
                "\"host_cores\"",
            ),
            (
                r#"{"bench": "x", "units": "y", "host_cores": 2,
                    "cells": [{"a": 1, "b": 2}, {"a": 1, "c": 2}]}"#,
                "cells[1] keys",
            ),
        ];
        for (text, needle) in cases {
            let err = check_bench_doc(&obj(text)).unwrap_err();
            assert!(err.contains(needle), "error {err:?} missing {needle:?}");
        }
    }
}
