//! The benchmark's own checks, on reduced sizes:
//!
//! * the timing decorators are transparent — same decrypted rows, same
//!   `RunStats`, same exact counts with and without them, at one seed;
//! * exact counts repeat bit for bit between two runs at one seed;
//! * every run prints exactly the metric names `BENCHMARK.json` declares.
//!
//! The counters read here (`aes_blocks_batched()` and friends) are
//! process-wide, so the tests take a lock and run one at a time.

use std::sync::{Mutex, MutexGuard};

use perfbench::report::Metrics;
use perfbench::workloads::{
    crowd_sagg, mixed_open, serve_durable, Config, RunResult, Trace, Workload,
};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn small(n_tds: usize, queries: usize, trace: Trace) -> Config {
    Config {
        seed: 5,
        n_tds,
        queries,
        setups: 1,
        rate_per_s: 20.0,
        trace,
        fingerprints: true,
    }
}

fn run(w: Workload, cfg: &Config) -> RunResult {
    w(cfg).unwrap_or_else(|e| panic!("benchmark run failed: {e}"))
}

fn assert_transparent(w: Workload, n_tds: usize) {
    let _guard = serial();
    let plain = run(w, &small(n_tds, 3, Trace::Off));
    let traced = run(w, &small(n_tds, 3, Trace::On));
    assert_eq!(plain.queries.len(), 3);
    assert_eq!(plain.outcome.failed, 0);
    for (p, t) in plain.queries.iter().zip(&traced.queries) {
        assert!(!p.traced && t.traced);
        assert!(p.ok && t.ok);
        assert_eq!(p.rows, t.rows, "decrypted rows");
        assert_eq!(p.fingerprint, t.fingerprint, "RunStats");
        assert!(p.fingerprint.is_some());
        assert_eq!(p.counts, t.counts, "exact counts");
        assert_eq!(
            (p.load_bytes, p.collected, p.p_tds),
            (t.load_bytes, t.collected, t.p_tds)
        );
        assert!(t.layers.collect.0 > 0, "traced query saw collection steps");
    }
}

#[test]
fn decorators_are_transparent_in_process() {
    assert_transparent(crowd_sagg, 300);
}

#[test]
fn decorators_are_transparent_over_loopback() {
    assert_transparent(serve_durable, 60);
}

/// Metrics that count work rather than time it. `batch.*` and `sched.*`
/// count timing outcomes (who joined whose batch window, who queued) and
/// are left out on purpose.
fn exact(m: &Metrics) -> Vec<(String, f64)> {
    m.iter()
        .filter(|(n, _, _)| {
            n.ends_with("_per_query") && !n.starts_with("batch.")
                || n.ends_with("_per_tuple")
                || *n == "net.reconnects"
                || *n == "ssi.live_queries_end"
        })
        .map(|(n, v, _)| (n.to_string(), v))
        .collect()
}

fn assert_counts_repeat(w: Workload, cfg: &Config) {
    let _guard = serial();
    let a = run(w, cfg).outcome;
    let b = run(w, cfg).outcome;
    let (ea, eb) = (exact(&a.per_layer), exact(&b.per_layer));
    assert!(ea.len() >= 10, "exact per-layer counts: {ea:?}");
    for ((na, va), (nb, vb)) in ea.iter().zip(&eb) {
        assert_eq!(na, nb);
        assert_eq!(va.to_bits(), vb.to_bits(), "{na}: {va} vs {vb}");
    }
    let load = |o: &perfbench::report::Outcome| o.end_to_end.get("load_bytes_per_tuple");
    assert_eq!(load(&a).map(f64::to_bits), load(&b).map(f64::to_bits));
    assert!(load(&a).unwrap_or(0.0) > 0.0);
}

#[test]
fn exact_counts_repeat_in_process() {
    assert_counts_repeat(crowd_sagg, &small(300, 4, Trace::Split));
}

#[test]
fn exact_counts_repeat_over_loopback() {
    assert_counts_repeat(serve_durable, &small(60, 4, Trace::Split));
}

#[test]
fn exact_counts_repeat_in_mixed_runs() {
    let mut cfg = small(40, 10, Trace::Split);
    cfg.rate_per_s = 4.0;
    assert_counts_repeat(mixed_open, &cfg);
}

/// The names of one list in `BENCHMARK.json` (`"name": "..."` entries
/// between the list's key and the next top-level key).
fn declared(section: &str) -> Vec<String> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let end = body.find(']').unwrap_or(body.len());
    body[..end]
        .split("\"name\":")
        .skip(1)
        .filter_map(|s| s.split('"').nth(1).map(str::to_string))
        .collect()
}

#[test]
fn every_workload_prints_the_declared_metrics() {
    let workloads: [(&str, Workload, usize); 3] = [
        ("crowd_sagg", crowd_sagg, 200),
        ("serve_durable", serve_durable, 40),
        ("mixed_open", mixed_open, 40),
    ];
    let names: Vec<String> = workloads.iter().map(|w| w.0.to_string()).collect();
    assert_eq!(declared("workloads"), names);
    let _guard = serial();
    for (name, w, n_tds) in workloads {
        let mut cfg = small(n_tds, 4, Trace::Split);
        cfg.fingerprints = false;
        let o = run(w, &cfg).outcome;
        let got = |m: &Metrics| m.iter().map(|(n, _, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(got(&o.end_to_end), declared("end_to_end"), "{name}");
        assert_eq!(got(&o.per_layer), declared("per_layer"), "{name}");
        assert_eq!(o.attempted, 4, "{name}");
        assert_eq!(o.failed, 0, "{name}");
        for (metric, v, _) in o.end_to_end.iter() {
            assert!(v.is_finite() && v > 0.0, "{name}: {metric} = {v}");
        }
    }
}
