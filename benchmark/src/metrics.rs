//! The metric registry: every number the benchmark reports, with its
//! unit, direction, layer and the end-to-end metric it should move.
//! `BENCHMARK.json` is rendered from this file (`--manifest`), and a unit
//! test keeps the committed copy identical.

use crate::workloads::Workload;
use std::collections::HashMap;

/// Seconds one run measures: about twelve reps of ≈2.2 s each. With the
/// checked rep and the warm-up rep a run takes ≈31 s of wall time, which
/// keeps the driver's 92 runs and two builds inside its 3420 s.
pub const RUN_SECONDS: u64 = 28;

/// The program and arguments the driver appends `--workload …` to.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `b` is than `a`, as a share of `a` (negative when
    /// `b` is better).
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        match self {
            Better::Higher => (a - b) / a,
            Better::Lower => (b - a) / a,
        }
    }
}

/// A gated metric a user of the system would see.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The three end-to-end metrics, each the median over a run's reps.
///
/// Bounds follow the issue's floor rule — max(stated floor, 2 × the
/// largest A/A median difference seen) — and additionally sit at three
/// times the widest run-to-run spread measured on the reference box (see
/// `baseline/aa.json` and the README), as the benchmark contract asks.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd { name: "txn_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "txn_p50_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

/// Where a per-layer number comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Single-threaded loop over the layer's public function.
    Probe,
    /// Spans recorded by the benchmark-side wrappers.
    Trace,
    /// Delta of public counters over the traced rep.
    Counter,
    /// Derived from other reps of the traced run.
    Rep,
    /// One measurement.
    Once,
}

/// An ungated metric of one layer.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    /// Which end-to-end metric on which workload it should move; on the
    /// workloads not named the prediction is no change.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, source, moves }
}

use Better::{Higher, Lower};
use Source::{Counter, Once, Probe, Rep, Trace};

const HOT: &str = "txn_per_s, txn_p50_us @ oe_hot";
const HOT_TPS: &str = "txn_per_s @ oe_hot";
const READ: &str = "txn_per_s, txn_p50_us @ oe_read; txn_p50_us @ all";
const STORE: &str = "txn_per_s @ oe_read; setup_s @ all";
const WAL: &str = "txn_per_s, txn_p50_us @ svc_durable, fleet_cross";
const SVC: &str = "txn_per_s, txn_p50_us @ svc_durable";
const FLEET: &str = "txn_per_s, txn_p50_us @ fleet_cross";
const SETUP: &str = "setup_s @ all";
const DIAG: &str = "diagnostic";

/// Every per-layer metric; the name's prefix is the layer (module name).
pub const PER_LAYER: [PerLayer; 67] = [
    m("semantics.commute_ns", "ns", Lower, Probe, HOT_TPS),
    m("core.lock.test_conflict_ns", "ns", Lower, Probe, HOT),
    m("core.lock.acquire_us_per_txn", "us", Lower, Trace, HOT),
    m("core.lock.wait_us_per_txn", "us", Lower, Trace, HOT),
    m("core.lock.release_us_per_txn", "us", Lower, Trace, HOT),
    m("core.lock.requests_per_txn", "count", Lower, Counter, HOT),
    m("core.lock.blocked_share", "ratio", Lower, Counter, HOT),
    m("core.lock.conflict_tests_per_request", "count", Lower, Counter, HOT),
    m("core.lock.case1_share", "ratio", Higher, Counter, HOT),
    m("core.lock.case2_share", "ratio", Lower, Counter, HOT),
    m("core.lock.root_wait_share", "ratio", Lower, Counter, HOT),
    m("core.lock.retained_per_txn", "count", Lower, Counter, HOT),
    m("core.kernel.uncontended_ns", "ns", Lower, Probe, "txn_per_s @ oe_hot; small @ svc_durable"),
    m("core.kernel.retests_per_wait", "count", Lower, Counter, HOT_TPS),
    m("core.kernel.spurious_wakeup_share", "ratio", Lower, Counter, HOT_TPS),
    m("core.kernel.targeted_wakeups_per_wait", "count", Lower, Counter, HOT_TPS),
    m("core.deadlock.victims_per_ktxn", "count", Lower, Counter, HOT_TPS),
    m("core.deadlock.timeouts_per_ktxn", "count", Lower, Counter, HOT_TPS),
    m("core.engine.self_us_per_txn", "us", Lower, Trace, READ),
    m("core.engine.ship_us", "us", Lower, Probe, READ),
    m("core.engine.pay_us", "us", Lower, Probe, READ),
    m("core.engine.check_us", "us", Lower, Probe, READ),
    m("core.engine.total_us", "us", Lower, Probe, READ),
    m("core.engine.retries_per_txn", "count", Lower, Counter, HOT),
    m("core.engine.compensations_per_txn", "count", Lower, Counter, HOT),
    m("core.engine.snapshot_share", "ratio", Higher, Counter, READ),
    m("core.engine.validation_fail_share", "ratio", Lower, Counter, READ),
    m("core.engine.snapshot_fallbacks_per_ktxn", "count", Lower, Counter, READ),
    m("objstore.busy_us_per_txn", "us", Lower, Trace, STORE),
    m("objstore.ops_per_txn", "count", Lower, Trace, STORE),
    m("objstore.get_ns", "ns", Lower, Probe, STORE),
    m("objstore.put_ns", "ns", Lower, Probe, STORE),
    m("objstore.scan_ns", "ns", Lower, Probe, STORE),
    m("objstore.get_versioned_ns", "ns", Lower, Probe, STORE),
    m("core.wal.append_ns", "ns", Lower, Probe, WAL),
    m("core.wal.append_commit_ns", "ns", Lower, Probe, WAL),
    m("core.wal.appends_per_txn", "count", Lower, Counter, WAL),
    m("core.wal.bytes_per_txn", "B", Lower, Counter, WAL),
    m("core.wal.fsyncs_per_txn", "count", Lower, Counter, WAL),
    m("core.wal.commits_per_fsync", "count", Higher, Counter, WAL),
    m("core.wal.segments_rotated", "count", Lower, Counter, WAL),
    m("core.wal.checkpoints", "count", Lower, Counter, WAL),
    m("core.wal.retained_bytes", "B", Lower, Counter, WAL),
    m("core.wal.checkpoint_ms", "ms", Lower, Probe, WAL),
    m("core.wal.recover_ms", "ms", Lower, Once, WAL),
    m("core.wal.est_us_per_txn", "us", Lower, Counter, WAL),
    m("service.admit_wait_us_p50", "us", Lower, Trace, SVC),
    m("service.queue_exec_us_p50", "us", Lower, Trace, SVC),
    m("service.direct_txn_per_s", "1/s", Higher, Rep, SVC),
    m("service.overhead_share", "ratio", Lower, Rep, SVC),
    m("dist.split_ns", "ns", Lower, Probe, FLEET),
    m("dist.piece_us", "us", Lower, Probe, FLEET),
    m("dist.cross_share", "ratio", Lower, Counter, FLEET),
    m("dist.prepares_per_txn", "count", Lower, Counter, FLEET),
    m("dist.rpc_retries_per_ktxn", "count", Lower, Counter, FLEET),
    m("dist.txn_retries_per_txn", "count", Lower, Counter, FLEET),
    m("dist.single_shard_p50_us", "us", Lower, Trace, FLEET),
    m("dist.cross_shard_p50_us", "us", Lower, Trace, FLEET),
    m("dist.twophase_txn_per_s", "1/s", Higher, Rep, FLEET),
    m("orderentry.build_s", "s", Lower, Rep, SETUP),
    m("orderentry.gen_ns_per_txn", "ns", Lower, Rep, SETUP),
    m("baselines.object2pl_txn_per_s", "1/s", Higher, Rep, "ROADMAP item-2 gate @ oe_hot"),
    m("baselines.semantic_over_2pl", "ratio", Higher, Rep, "ROADMAP item-2 gate @ oe_hot"),
    m("client.txn_p99_us", "us", Lower, Rep, DIAG),
    m("client.cpu_us_per_txn", "us", Lower, Rep, DIAG),
    m("client.rep_spread", "ratio", Lower, Rep, DIAG),
    m("trace.overhead_share", "ratio", Lower, Rep, DIAG),
];

/// Metric values by registry name.
pub type Values = HashMap<&'static str, f64>;

/// Layer of a per-layer metric: its name up to the last dot.
pub fn layer(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
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

/// Render `BENCHMARK.json`.
pub fn manifest() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let command = COMMAND.iter().map(|s| json_string(s)).collect::<Vec<_>>().join(", ");
    let workloads = list(
        Workload::ALL
            .iter()
            .map(|w| {
                format!(
                    "{{\"name\": {}, \"why\": {}}}",
                    json_string(w.name()),
                    json_string(w.why())
                )
            })
            .collect(),
    );
    let end_to_end = list(
        END_TO_END
            .iter()
            .map(|e| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    json_string(e.name),
                    json_string(e.unit),
                    json_string(e.better.as_str()),
                    e.bound
                )
            })
            .collect(),
    );
    let per_layer = list(
        PER_LAYER
            .iter()
            .map(|p| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    json_string(p.name),
                    json_string(p.unit),
                    json_string(p.better.as_str())
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [{command}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": \
         {RUN_SECONDS},\n  \"workloads\": [\n    {workloads}\n  ],\n  \"end_to_end\": [\n    \
         {end_to_end}\n  ],\n  \"per_layer\": [\n    {per_layer}\n  ]\n}}\n"
    )
}

/// The driver's result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`. Values keep every digit
/// `f64` formatting gives them.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, &'static str, f64)],
) -> String {
    let body = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{body}}}}}"
    )
}

/// Read a number back out of a [`result_line`]: the value that follows
/// `"key": ` (for a metric, the `value` inside its object). The line is
/// this program's own output, so a scan for the key is enough.
pub fn result_number(line: &str, key: &str) -> Option<f64> {
    let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = line[at..].strip_prefix("{\"value\": ").unwrap_or(&line[at..]);
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(s: &str) -> bool {
        let first = s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && s.len() <= 64
            && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn registry_meets_the_manifest_limits() {
        let mut seen = HashSet::new();
        for w in Workload::ALL {
            assert!(valid_name(w.name()) && seen.insert(w.name()));
        }
        for e in END_TO_END {
            assert!(valid_name(e.name) && valid_unit(e.unit) && seen.insert(e.name), "{}", e.name);
            assert!(e.bound > 0.0 && e.bound <= 0.25, "{}", e.name);
        }
        for p in PER_LAYER {
            assert!(valid_name(p.name) && valid_unit(p.unit) && seen.insert(p.name), "{}", p.name);
        }
        assert!(PER_LAYER.len() <= 128 && COMMAND.len() <= 32);
        let setup = END_TO_END.iter().find(|e| e.name == "setup_s").expect("setup_s is gated");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|e| e.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s has the largest bound");
        assert!(manifest().len() < 64 << 10);
    }

    /// The committed `BENCHMARK.json` is exactly what this registry
    /// renders (regenerate with `--manifest > BENCHMARK.json`).
    #[test]
    fn committed_manifest_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest());
    }

    #[test]
    fn layers_are_module_names() {
        assert_eq!(layer("core.lock.test_conflict_ns"), "core.lock");
        assert_eq!(layer("objstore.get_ns"), "objstore");
        let layers: HashSet<&str> = PER_LAYER.iter().map(|p| layer(p.name)).collect();
        for l in [
            "semantics",
            "core.lock",
            "core.kernel",
            "core.deadlock",
            "core.engine",
            "objstore",
            "core.wal",
            "service",
            "dist",
            "orderentry",
            "baselines",
            "client",
            "trace",
        ] {
            assert!(layers.contains(l), "{l}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line =
            result_line(true, 10, 0, &[("txn_per_s", "1/s", 1234.5678), ("setup_s", "s", 0.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"txn_per_s\": \
             {\"value\": 1234.5678, \"unit\": \"1/s\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \
             \"s\"}}}"
        );
    }

    #[test]
    fn result_numbers_read_back() {
        let line =
            result_line(true, 10, 2, &[("txn_per_s", "1/s", 1234.5678), ("setup_s", "s", 0.25)]);
        assert_eq!(result_number(&line, "txn_per_s"), Some(1234.5678));
        assert_eq!(result_number(&line, "setup_s"), Some(0.25));
        assert_eq!(result_number(&line, "attempted"), Some(10.0));
        assert_eq!(result_number(&line, "failed"), Some(2.0));
        assert_eq!(result_number(&line, "txn_p50_us"), None);
        assert!(line.contains("\"correct\": true"));
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((Better::Higher.worsening(100.0, 95.0) - 0.05).abs() < 1e-12);
        assert!((Better::Lower.worsening(100.0, 95.0) + 0.05).abs() < 1e-12);
    }
}
