//! `BENCH_trajectory.jsonl`: the accumulating performance trajectory.
//!
//! Every benchmark run that records a measurement appends one line, so
//! successive runs add up to a history instead of overwriting each other.
//! The scheduler ladder (`ge-bench`'s `sched_report`) and a drained serve
//! session both write through [`append`]. A line written today has schema
//! `ge-bench-trajectory/v2`:
//!
//! ```json
//! {"schema": "ge-bench-trajectory/v2", "unix_secs": 1792415235, "entries": [
//!   {"name": "lf_cut/16", "unit": "ns", "min": 451.2, "mean": 627.7, "iters": 52492}]}
//! ```
//!
//! (one physical line). Each entry names its own unit, so a line may mix
//! times with memory readings. Values are written to one decimal place.
//! Older `ge-bench-trajectory/v1` lines carry `min_ns`, `mean_ns` and
//! `iters` with no unit; they stay in the file as written.

use std::io::{self, Write as _};
use std::path::Path;

/// The schema of the lines [`append`] writes.
const SCHEMA: &str = "ge-bench-trajectory/v2";

/// One measured quantity of a trajectory line.
#[derive(Debug)]
pub struct Entry {
    /// What was measured, e.g. `lf_cut/16` or `serve_decision/p99`.
    pub name: String,
    /// The unit of `min` and `mean`, e.g. `ns` or `KiB`.
    pub unit: &'static str,
    /// The smallest reading.
    pub min: f64,
    /// The mean reading.
    pub mean: f64,
    /// How many samples the readings summarize.
    pub iters: u64,
}

/// One `ge-bench-trajectory/v2` line, newline included, stamped with
/// `unix_secs`.
fn line(unix_secs: u64, entries: &[Entry]) -> String {
    let mut out = format!("{{\"schema\": \"{SCHEMA}\", \"unix_secs\": {unix_secs}, \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"min\": {:.1}, \"mean\": {:.1}, \"iters\": {}}}",
            e.name, e.unit, e.min, e.mean, e.iters
        ));
    }
    out.push_str("]}\n");
    out
}

/// Appends `entries` as one line, stamped with the wall-clock time, to the
/// trajectory file at `path` (created if missing). A single `O_APPEND`
/// write keeps concurrent writers line-atomic on POSIX filesystems.
pub fn append(path: &Path, entries: &[Entry]) -> io::Result<()> {
    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(line(unix_secs, entries).as_bytes())?;
    f.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// The JSON values a trajectory line is made of.
    #[derive(Debug)]
    enum Json {
        Str(String),
        Num(f64),
        Arr(Vec<Json>),
        Obj(BTreeMap<String, Json>),
    }

    /// A strict parser for the subset of JSON a trajectory line uses:
    /// objects, arrays, escape-free strings and numbers.
    struct Parser<'a> {
        s: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn parse(text: &str) -> Result<Json, String> {
            let mut p = Parser {
                s: text.as_bytes(),
                pos: 0,
            };
            let v = p.value()?;
            p.ws();
            if p.pos != p.s.len() {
                return Err(format!("trailing bytes at {}", p.pos));
            }
            Ok(v)
        }

        fn ws(&mut self) {
            while self.s.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
                self.pos += 1;
            }
        }

        fn eat(&mut self, b: u8) -> Result<(), String> {
            self.ws();
            if self.s.get(self.pos) == Some(&b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at {}", b as char, self.pos))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            self.ws();
            match self.s.get(self.pos) {
                Some(b'{') => {
                    self.pos += 1;
                    let mut obj = BTreeMap::new();
                    loop {
                        let Json::Str(key) = self.value()? else {
                            return Err(format!("object key at {}", self.pos));
                        };
                        self.eat(b':')?;
                        let v = self.value()?;
                        if obj.insert(key.clone(), v).is_some() {
                            return Err(format!("repeated key {key}"));
                        }
                        if self.eat(b',').is_err() {
                            self.eat(b'}')?;
                            return Ok(Json::Obj(obj));
                        }
                    }
                }
                Some(b'[') => {
                    self.pos += 1;
                    let mut arr = Vec::new();
                    if self.eat(b']').is_ok() {
                        return Ok(Json::Arr(arr));
                    }
                    loop {
                        arr.push(self.value()?);
                        if self.eat(b',').is_err() {
                            self.eat(b']')?;
                            return Ok(Json::Arr(arr));
                        }
                    }
                }
                Some(b'"') => {
                    let start = self.pos + 1;
                    let len = self.s[start..]
                        .iter()
                        .position(|&b| b == b'"')
                        .ok_or("unterminated string")?;
                    let text = std::str::from_utf8(&self.s[start..start + len])
                        .map_err(|e| e.to_string())?;
                    if text.contains('\\') {
                        return Err(format!("escape in string {text:?}"));
                    }
                    self.pos = start + len + 1;
                    Ok(Json::Str(text.to_string()))
                }
                _ => {
                    let start = self.pos;
                    while self
                        .s
                        .get(self.pos)
                        .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                    {
                        self.pos += 1;
                    }
                    let text =
                        std::str::from_utf8(&self.s[start..self.pos]).map_err(|e| e.to_string())?;
                    text.parse::<f64>()
                        .ok()
                        .filter(|v| v.is_finite())
                        .map(Json::Num)
                        .ok_or_else(|| format!("bad number {text:?} at {start}"))
                }
            }
        }
    }

    /// Checks one line against schema v1 or v2 and returns its schema.
    fn check_line(text: &str) -> Result<&'static str, String> {
        let Json::Obj(top) = Parser::parse(text)? else {
            return Err("line is not an object".into());
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        if keys != ["entries", "schema", "unix_secs"] {
            return Err(format!("top-level keys {keys:?}"));
        }
        let (schema, entry_keys): (&'static str, &[&str]) = match &top["schema"] {
            Json::Str(s) if s == "ge-bench-trajectory/v1" => (
                "ge-bench-trajectory/v1",
                &["iters", "mean_ns", "min_ns", "name"],
            ),
            Json::Str(s) if s == SCHEMA => (SCHEMA, &["iters", "mean", "min", "name", "unit"]),
            other => return Err(format!("schema {other:?}")),
        };
        if !matches!(top["unix_secs"], Json::Num(t) if t >= 0.0 && t.fract() == 0.0) {
            return Err("unix_secs is not a whole number".into());
        }
        let Json::Arr(entries) = &top["entries"] else {
            return Err("entries is not an array".into());
        };
        for e in entries {
            let Json::Obj(e) = e else {
                return Err("entry is not an object".into());
            };
            let keys: Vec<&str> = e.keys().map(String::as_str).collect();
            if keys != entry_keys {
                return Err(format!("{schema} entry keys {keys:?}"));
            }
            for (k, v) in e {
                let ok = match k.as_str() {
                    "name" | "unit" => matches!(v, Json::Str(s) if !s.is_empty()),
                    "iters" => matches!(v, Json::Num(n) if *n >= 0.0 && n.fract() == 0.0),
                    _ => matches!(v, Json::Num(_)),
                };
                if !ok {
                    return Err(format!("entry field {k}: {v:?}"));
                }
            }
        }
        Ok(schema)
    }

    #[test]
    fn a_written_line_is_v2() {
        let entries = [
            Entry {
                name: "lf_cut/16".into(),
                unit: "ns",
                min: 451.25,
                mean: 627.7,
                iters: 52492,
            },
            Entry {
                name: "perfbench/paper_light/peak_rss".into(),
                unit: "KiB",
                min: 6810.0,
                mean: 6810.0,
                iters: 10,
            },
        ];
        let text = line(1_792_415_235, &entries);
        assert!(text.ends_with("]}\n") && text.matches('\n').count() == 1);
        assert_eq!(check_line(text.trim_end()), Ok(SCHEMA));
        assert!(text.contains("\"unit\": \"KiB\", \"min\": 6810.0"));
    }

    #[test]
    fn malformed_lines_are_refused() {
        for bad in [
            "{\"schema\": \"ge-bench-trajectory/v2\", \"unix_secs\": 1, \"entries\": [{\"name\": \"a\", \"min\": 1, \"mean\": 1, \"iters\": 1}]}",
            "{\"schema\": \"ge-bench-trajectory/v1\", \"unix_secs\": 1, \"entries\": [{\"name\": \"a\", \"unit\": \"ns\", \"min\": 1, \"mean\": 1, \"iters\": 1}]}",
            "{\"schema\": \"ge-bench-trajectory/v3\", \"unix_secs\": 1, \"entries\": []}",
            "{\"schema\": \"ge-bench-trajectory/v1\", \"unix_secs\": 1, \"entries\": []",
        ] {
            assert!(check_line(bad).is_err(), "{bad}");
        }
        assert_eq!(check_line(line(1, &[]).trim_end()), Ok(SCHEMA));
    }

    #[test]
    fn every_committed_trajectory_line_is_v1_or_v2() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trajectory.jsonl");
        let text = std::fs::read_to_string(path).expect("BENCH_trajectory.jsonl is committed");
        let mut v2 = 0;
        for (i, l) in text.lines().enumerate() {
            match check_line(l) {
                Ok(SCHEMA) => v2 += 1,
                Ok(_) => {}
                Err(e) => panic!("BENCH_trajectory.jsonl line {}: {e}", i + 1),
            }
        }
        assert!(v2 > 0, "no {SCHEMA} line in BENCH_trajectory.jsonl");
    }
}
