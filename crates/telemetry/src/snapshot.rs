//! Periodic JSONL snapshots of the registry — a file-based sibling of
//! the exposition endpoint, written next to the trace stream so a sweep
//! leaves a time series of its own metrics behind even when nothing
//! scraped it live.

use crate::registry::{Registry, TelemetrySnapshot};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Escapes `s` for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Flat JSON key for a metric id: the name, plus `{k=v,...}` when
/// labelled — unique per series and stable across snapshots.
fn series_key(id: &(String, Vec<(String, String)>)) -> String {
    if id.1.is_empty() {
        id.0.clone()
    } else {
        let labels: Vec<String> = id.1.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{}{{{}}}", id.0, labels.join(","))
    }
}

/// Renders one `ge-telemetry-snapshot/v1` JSONL line (no trailing
/// newline): wall-clock unix milliseconds, every counter and gauge, and
/// per-histogram `count/sum/max/dropped` plus p50/p95/p99 estimates.
pub fn snapshot_jsonl_line(snap: &TelemetrySnapshot) -> String {
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let mut out = format!("{{\"schema\":\"ge-telemetry-snapshot/v1\",\"unix_ms\":{unix_ms}");
    out.push_str(",\"counters\":{");
    for (i, (id, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{v}", json_escape(&series_key(id))));
    }
    out.push_str("},\"gauges\":{");
    for (i, (id, v)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{}",
            json_escape(&series_key(id)),
            json_f64(*v)
        ));
    }
    out.push_str("},\"histograms\":{");
    for (i, (id, h)) in snap.hists.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},\"dropped\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
            json_escape(&series_key(id)),
            h.count,
            json_f64(h.sum),
            json_f64(h.max),
            h.dropped,
            json_f64(h.quantile(0.50)),
            json_f64(h.quantile(0.95)),
            json_f64(h.quantile(0.99)),
        ));
    }
    out.push_str("}}");
    out
}

fn append_line(path: &Path, line: &str) -> io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(line.as_bytes())?;
    f.write_all(b"\n")
}

/// A background thread appending registry snapshots to a JSONL file at a
/// fixed cadence, with a final snapshot on [`PeriodicSnapshots::stop`].
pub struct PeriodicSnapshots {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    path: PathBuf,
}

impl PeriodicSnapshots {
    /// Starts snapshotting the global registry to `path` every
    /// `interval` (minimum 10 ms).
    pub fn start(path: impl Into<PathBuf>, interval: Duration) -> io::Result<PeriodicSnapshots> {
        let path = path.into();
        let interval = interval.max(Duration::from_millis(10));
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let path2 = path.clone();
        let handle = std::thread::Builder::new()
            .name("ge-metrics-snapshots".to_string())
            .spawn(move || {
                while !stop2.load(Ordering::SeqCst) {
                    // Sleep in short slices so stop() returns promptly.
                    let mut slept = Duration::ZERO;
                    while slept < interval && !stop2.load(Ordering::SeqCst) {
                        let slice = (interval - slept).min(Duration::from_millis(25));
                        std::thread::sleep(slice);
                        slept += slice;
                    }
                    if stop2.load(Ordering::SeqCst) {
                        break;
                    }
                    let line = snapshot_jsonl_line(&Registry::global().snapshot());
                    let _ = append_line(&path2, &line);
                }
            })?;
        Ok(PeriodicSnapshots {
            stop,
            handle: Some(handle),
            path,
        })
    }

    /// Stops the thread and appends one final snapshot.
    pub fn stop(mut self) -> io::Result<()> {
        self.stop_and_join();
        let line = snapshot_jsonl_line(&Registry::global().snapshot());
        append_line(&self.path, &line)
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for PeriodicSnapshots {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop_and_join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn snapshot_line_is_wellformed_and_flat() {
        let r = Registry::new();
        r.counter("ge_epochs_total").add(12);
        r.counter_with("cells", &[("outcome", "ok")]).inc();
        r.gauge("ge_cores").set(6.0);
        r.histogram("ge_seconds").observe(0.25);
        let line = snapshot_jsonl_line(&r.snapshot());
        assert!(line.starts_with("{\"schema\":\"ge-telemetry-snapshot/v1\""));
        assert!(line.contains("\"ge_epochs_total\":12"));
        assert!(line.contains("\"cells{outcome=ok}\":1"));
        assert!(line.contains("\"ge_cores\":6"));
        assert!(line.contains("\"count\":1"));
        assert!(!line.contains('\n'));
        // Braces balance (a cheap well-formedness check without a JSON
        // parser in the dependency-free crate).
        let open = line.matches('{').count();
        let close = line.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn non_finite_gauges_become_null() {
        let r = Registry::new();
        r.gauge("g").set(f64::NAN);
        let line = snapshot_jsonl_line(&r.snapshot());
        assert!(line.contains("\"g\":null"));
    }

    #[test]
    fn periodic_snapshots_append_and_stop_finalizes() {
        let dir = std::env::temp_dir().join(format!("ge-telemetry-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("metrics.jsonl");
        let snaps =
            PeriodicSnapshots::start(&path, Duration::from_millis(10)).expect("start snapshots");
        std::thread::sleep(Duration::from_millis(80));
        snaps.stop().expect("stop snapshots");
        let text = std::fs::read_to_string(&path).expect("read snapshots");
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines.is_empty(), "at least the final snapshot is written");
        for line in lines {
            assert!(line.starts_with("{\"schema\":\"ge-telemetry-snapshot/v1\""));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
