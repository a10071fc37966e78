//! The benchmark's catalogue: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is rendered from these tables (`--spec`), a test keeps
//! the committed file equal to the rendering, and `run.py` checks the
//! file against the benchmark contract.
//!
//! What each metric means on each workload, and which end-to-end metric a
//! layer metric should move, is documented in `perfbench/METRICS.md`.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric. `bound` (end-to-end metrics only) is the share of
/// the parent's median by which the metric may worsen before a change
/// counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// A workload and the reason it is in the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// The command the benchmark is run with, relative to the repository root.
pub const COMMAND: [&str; 2] = ["python3", "perfbench/run.py"];
/// Directories holding the benchmark.
pub const PATHS: [&str; 1] = ["perfbench"];
/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 40;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper_light",
        why: "single 16-core GE server at 150 req/s for 600 s: mostly AES mode, so LF-cut, \
              equal-share power and replan-cache hits dominate; no router, no wire",
    },
    Workload {
        name: "fleet_crash",
        why: "16 servers x 4 cores over JSQ with prop budget repartitioning under server \
              crashes: router, failover, water-filling, second cuts and YDS dominate",
    },
    Workload {
        name: "serve_wire",
        why: "the paper_light stream through ServeServer over one loopback connection, open \
              loop: protocol, admission, core lock and TCP path on top of the same engine",
    },
];

use Better::{Higher, Lower};

pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("sim_jobs_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
    e2e("quality", "Q", Higher, 0.02),
    e2e("energy_j_per_job", "J", Lower, 0.05),
    e2e("reply_p50_ms", "ms", Lower, 0.25),
];

pub const PER_LAYER: [Metric; 36] = [
    // ge-core
    layer("core.epochs", "count", Lower),
    layer("core.on_schedule_us", "us", Lower),
    layer("core.on_schedule_share", "share", Lower),
    layer("core.replan_hit_ratio", "ratio", Higher),
    layer("core.dirty_capped", "count", Lower),
    layer("core.engine_advance_share", "share", Lower),
    // ge-quality
    layer("quality.lf_cut_calls", "count", Lower),
    layer("quality.lf_cut_ns", "ns", Lower),
    layer("quality.lf_cut_share", "share", Lower),
    layer("quality.second_cuts", "count", Lower),
    // ge-power
    layer("power.yds_calls", "count", Lower),
    layer("power.yds_ns", "ns", Lower),
    layer("power.yds_share", "share", Lower),
    layer("power.wf_epoch_frac", "ratio", Lower),
    // ge-server
    layer("server.exec_slices", "count", Lower),
    layer("server.assignments", "count", Lower),
    // ge-workload
    layer("workload.gen_s", "s", Lower),
    // ge-fleet
    layer("fleet.router_share", "share", Lower),
    layer("fleet.dispatch_per_job", "ratio", Lower),
    layer("fleet.failovers", "count", Lower),
    layer("fleet.retries", "count", Lower),
    layer("fleet.shed_router", "count", Lower),
    layer("fleet.budget_epochs", "count", Lower),
    // ge-serve
    layer("serve.submit_us_p50", "us", Lower),
    layer("serve.submit_us_p99", "us", Lower),
    layer("serve.decision_us_p50", "us", Lower),
    layer("serve.decision_us_p99", "us", Lower),
    layer("serve.wire_us_p50", "us", Lower),
    layer("serve.parse_ns", "ns", Lower),
    layer("serve.refused_frac", "ratio", Lower),
    layer("serve.gen_lag_ms", "ms", Lower),
    layer("serve.reply_p99_ms", "ms", Lower),
    layer("serve.max_rate_rps", "1/s", Higher),
    // ge-telemetry
    layer("telemetry.overhead", "ratio", Lower),
    layer("telemetry.unattributed_share", "share", Lower),
    layer("telemetry.share_sum_err", "share", Lower),
];

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metric_line(m: &Metric) -> String {
    let mut s = format!(
        "{{\"name\": {}, \"unit\": {}, \"better\": {}",
        quoted(m.name),
        quoted(m.unit),
        quoted(m.better.as_str())
    );
    if let Some(b) = m.bound {
        s.push_str(&format!(", \"bound\": {b}"));
    }
    s.push('}');
    s
}

fn list(items: &[String]) -> String {
    let body: Vec<String> = items.iter().map(|i| format!("    {i}")).collect();
    format!("[\n{}\n  ]", body.join(",\n"))
}

/// `BENCHMARK.json`, rendered from the catalogue.
pub fn benchmark_json() -> String {
    let strings = |xs: &[&str]| {
        let q: Vec<String> = xs.iter().map(|x| quoted(x)).collect();
        format!("[{}]", q.join(", "))
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                quoted(w.name),
                quoted(w.why)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END.iter().map(metric_line).collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(metric_line).collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \
         \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strings(&COMMAND),
        strings(&PATHS),
        RUN_SECONDS,
        list(&workloads),
        list(&e2e),
        list(&per_layer)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "BENCHMARK.json is stale: regenerate with `python3 perfbench/run.py --all`"
        );
    }

    #[test]
    fn rendering_escapes_and_stays_small() {
        assert_eq!(quoted("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        let json = benchmark_json();
        assert!(json.len() <= 64 * 1024);
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(json.contains(&format!("\"name\": \"{}\"", m.name)));
        }
    }
}
