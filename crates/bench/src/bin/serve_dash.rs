//! Terminal dashboard for serving telemetry: renders a metrics JSONL
//! snapshot (written by `MGA_METRICS_OUT`) and/or a flight-recorder
//! dump (written by `MGA_FLIGHT`) as the operator view — latency
//! ladder, per-stage breakdown, cache stats, drift status.
//!
//! ```text
//! serve_dash --metrics serve_metrics.jsonl --flight flight.jsonl
//! ```
//!
//! Everything here is offline post-processing of artifacts the serving
//! run already produced; the dashboard never touches an engine. CI runs
//! it as a smoke check on the `serve_bench` artifacts.

use mga_bench::{exit_on_error, BenchError};
use mga_obs::hist::HistSnapshot;
use mga_obs::json::{parse, Json};
use std::collections::BTreeMap;

/// A metrics snapshot re-read from its JSONL dump — only the pieces the
/// dashboard renders.
#[derive(Default)]
struct Snapshot {
    counters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
    loghists: BTreeMap<String, HistSnapshot>,
    hists: BTreeMap<String, FixedHist>,
}

/// A fixed-bucket histogram re-read from the dump (bounds + counts).
struct FixedHist {
    bounds: Vec<f64>,
    buckets: Vec<u64>,
    count: u64,
}

fn load_metrics(path: &str) -> Result<Snapshot, BenchError> {
    let text = std::fs::read_to_string(path)?;
    let mut snap = Snapshot::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line)
            .map_err(|e| BenchError::Invariant(format!("{path}:{}: bad JSON: {e}", lineno + 1)))?;
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| BenchError::Invariant(format!("{path}:{}: no name", lineno + 1)))?
            .to_string();
        match v.get("type").and_then(Json::as_str) {
            Some("counter") => {
                snap.counters
                    .insert(name, v.get("value").and_then(Json::as_f64).unwrap_or(0.0));
            }
            Some("gauge") => {
                snap.gauges
                    .insert(name, v.get("value").and_then(Json::as_f64).unwrap_or(0.0));
            }
            Some("log_histogram") => {
                let mut buckets = [0u64; mga_obs::hist::NUM_BUCKETS];
                if let Some(pairs) = v.get("buckets").and_then(Json::as_arr) {
                    for p in pairs {
                        if let Some([b, n]) =
                            p.as_arr().and_then(|a| <&[Json; 2]>::try_from(a).ok())
                        {
                            let bi = b.as_f64().unwrap_or(0.0) as usize;
                            if bi < buckets.len() {
                                buckets[bi] = n.as_f64().unwrap_or(0.0) as u64;
                            }
                        }
                    }
                }
                let count = v.get("count").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                let sum = v.get("sum").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                snap.loghists
                    .insert(name, HistSnapshot::from_parts(&buckets, count, sum));
            }
            Some("histogram") => {
                let nums = |k: &str| -> Vec<f64> {
                    v.get(k)
                        .and_then(Json::as_arr)
                        .map(|a| a.iter().filter_map(Json::as_f64).collect())
                        .unwrap_or_default()
                };
                snap.hists.insert(
                    name,
                    FixedHist {
                        bounds: nums("bounds"),
                        buckets: nums("buckets").into_iter().map(|b| b as u64).collect(),
                        count: v.get("count").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                    },
                );
            }
            _ => {}
        }
    }
    Ok(snap)
}

/// Flight-dump aggregates (the request lines) plus the drift lines.
#[derive(Default)]
struct FlightSummary {
    requests: u64,
    cache_hits: u64,
    batch_sum: u64,
    queue_ticks_sum: u64,
    conf_sum: f64,
    e2e: Vec<f64>,
    drift: Vec<String>,
    /// Request count per disposition tag (served / redirected / shed_*…)
    /// — the overload story of the run, straight from the flight dumps.
    dispositions: BTreeMap<String, u64>,
    /// Request count per batch-cut reason (full / wait / flush / sync)
    /// — how the batcher actually decided.
    batch_modes: BTreeMap<String, u64>,
}

fn load_flight(path: &str) -> Result<FlightSummary, BenchError> {
    let text = std::fs::read_to_string(path)?;
    let mut fs = FlightSummary::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line)
            .map_err(|e| BenchError::Invariant(format!("{path}:{}: bad JSON: {e}", lineno + 1)))?;
        match v.get("type").and_then(Json::as_str) {
            Some("request") => {
                fs.requests += 1;
                if v.get("cache_hit") == Some(&Json::Bool(true)) {
                    fs.cache_hits += 1;
                }
                let num = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                fs.batch_sum += num("batch") as u64;
                fs.queue_ticks_sum += num("queue_ticks") as u64;
                fs.conf_sum += num("confidence");
                fs.e2e.push(num("e2e_ns"));
                // Older dumps predate the disposition field; they were
                // all served requests.
                let disp = v
                    .get("disposition")
                    .and_then(Json::as_str)
                    .unwrap_or("served");
                *fs.dispositions.entry(disp.to_string()).or_insert(0) += 1;
                // Older dumps predate the batch_mode field; the batcher
                // only had the full-batch cut then.
                let mode = v.get("batch_mode").and_then(Json::as_str).unwrap_or("full");
                *fs.batch_modes.entry(mode.to_string()).or_insert(0) += 1;
            }
            Some("drift") => {
                let kind = v.get("kind").and_then(Json::as_str).unwrap_or("?");
                let tick = v.get("tick").and_then(Json::as_f64).unwrap_or(0.0);
                let value = v.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                let threshold = v.get("threshold").and_then(Json::as_f64).unwrap_or(0.0);
                fs.drift.push(format!(
                    "{kind} @ tick {tick:.0}: ewma {value:.3} vs threshold {threshold:.3}"
                ));
            }
            other => {
                return Err(BenchError::Invariant(format!(
                    "{path}:{}: unknown record type {other:?}",
                    lineno + 1
                )));
            }
        }
    }
    Ok(fs)
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn render_metrics(snap: &Snapshot) {
    const STAGES: [(&str, &str); 6] = [
        ("serve.lat.queue_wait", "queue wait"),
        ("serve.lat.cache_lookup", "cache lookup"),
        ("serve.lat.scale_aux", "aux scaling"),
        ("serve.lat.trunk", "trunk"),
        ("serve.lat.heads", "heads"),
        ("serve.lat.e2e", "end-to-end"),
    ];
    println!("── latency ladder (engine-side, log₂ bucket estimates) ──");
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "stage", "count", "mean", "p50", "p95", "p99"
    );
    for (name, label) in STAGES {
        if let Some(h) = snap.loghists.get(name) {
            println!(
                "{label:<14} {:>10} {:>10} {:>10} {:>10} {:>10}",
                h.count,
                fmt_ns(h.mean()),
                fmt_ns(h.percentile(50.0) as f64),
                fmt_ns(h.percentile(95.0) as f64),
                fmt_ns(h.percentile(99.0) as f64),
            );
        }
    }
    // Stage share: mean stage time as a fraction of mean e2e (batched
    // stages are per-batch, so shares are indicative, not additive).
    if let Some(e2e) = snap.loghists.get("serve.lat.e2e") {
        if e2e.count > 0 && e2e.mean() > 0.0 {
            println!("\n── per-stage share of mean end-to-end ──");
            for (name, label) in &STAGES[..5] {
                if let Some(h) = snap.loghists.get(*name) {
                    if h.count == 0 {
                        continue;
                    }
                    let total = h.sum as f64 / e2e.count as f64;
                    println!("{label:<14} {:>6.1}%", 100.0 * total / e2e.mean());
                }
            }
        }
    }
    println!("\n── cache ──");
    for key in [
        "serve.cache.hits",
        "serve.cache.misses",
        "serve.cache.evictions",
        "serve.cache.occupancy",
        "serve.cache.capacity",
    ] {
        if let Some(v) = snap.gauges.get(key) {
            println!("{key:<24} {v:.0}");
        }
    }
    println!("\n── drift counters ──");
    let total = snap.counters.get("drift.events").copied().unwrap_or(0.0);
    println!("drift.events             {total:.0}");
    for (name, v) in &snap.counters {
        if name.starts_with("drift.events.") {
            println!("{name:<24} {v:.0}");
        }
    }
    render_batching(snap);
    render_cluster(snap);
}

/// Batching view: the chosen micro-batch width distribution
/// (fixed-bucket `serve.batch.size` histogram as a bar chart) and the
/// cut-reason counters — full batch, timed-out wait, flush.
fn render_batching(snap: &Snapshot) {
    let Some(h) = snap.hists.get("serve.batch.size") else {
        return;
    };
    if h.count == 0 {
        return;
    }
    println!("\n── batching ──");
    let max = h.buckets.iter().copied().max().unwrap_or(0).max(1);
    for (i, &n) in h.buckets.iter().enumerate() {
        let label = match h.bounds.get(i) {
            Some(b) => format!("≤ {b:.0}"),
            None => format!("> {:.0}", h.bounds.last().copied().unwrap_or(0.0)),
        };
        let bar = "#".repeat((n * 40 / max) as usize);
        println!("batch {label:<6} {n:>10}  {bar}");
    }
    const MODES: [(&str, &str); 3] = [
        ("serve.batch.mode.full", "cut: full batch"),
        ("serve.batch.mode.wait", "cut: wait timeout"),
        ("serve.batch.mode.flush", "cut: flush"),
    ];
    let batches: f64 = MODES
        .iter()
        .filter_map(|(k, _)| snap.counters.get(*k))
        .sum();
    for (key, label) in MODES {
        if let Some(v) = snap.counters.get(key) {
            println!("{label:<24} {v:.0} ({:.1}%)", 100.0 * v / batches.max(1.0));
        }
    }
}

/// Per-shard overload view: queue depths, health, plan epochs, plus the
/// cluster's shed/redirect/reroute totals. Rendered only when the
/// snapshot carries `serve.shard.*` gauges (a cluster run).
fn render_cluster(snap: &Snapshot) {
    let shard_of = |name: &str| -> Option<usize> {
        name.strip_prefix("serve.shard.")?
            .split('.')
            .next()?
            .parse()
            .ok()
    };
    let mut shards: Vec<usize> = snap.gauges.keys().filter_map(|n| shard_of(n)).collect();
    shards.sort_unstable();
    shards.dedup();
    if shards.is_empty() {
        return;
    }
    println!("\n── cluster overload view ──");
    println!(
        "{:<8} {:>12} {:>10} {:>11}",
        "shard", "queue_depth", "health", "plan_epoch"
    );
    for s in &shards {
        let g = |suffix: &str| {
            snap.gauges
                .get(&format!("serve.shard.{s}.{suffix}"))
                .copied()
                .unwrap_or(0.0)
        };
        let health = match g("health") as u32 {
            0 => "healthy",
            1 => "degraded",
            _ => "down",
        };
        println!(
            "{s:<8} {:>12.0} {:>10} {:>11.0}",
            g("queue_depth"),
            health,
            g("plan_epoch")
        );
    }
    for key in [
        "serve.shed_total",
        "serve.redirect_total",
        "serve.reroute_total",
    ] {
        if let Some(v) = snap.counters.get(key) {
            println!("{key:<24} {v:.0}");
        }
    }
    if let Some(v) = snap.gauges.get("serve.cluster.overflow_depth") {
        println!("{:<24} {v:.0}", "overflow depth");
    }
}

fn render_flight(fs: &FlightSummary) {
    println!("\n── flight recorder ──");
    if fs.requests == 0 {
        println!("no request records");
    } else {
        let n = fs.requests as f64;
        let mut e2e = fs.e2e.clone();
        e2e.sort_by(|a, b| a.total_cmp(b));
        let pct = |p: f64| {
            e2e[((p / 100.0 * (e2e.len() - 1) as f64).round() as usize).min(e2e.len() - 1)]
        };
        println!("requests recorded        {}", fs.requests);
        println!(
            "cache hit rate           {:.1}%",
            100.0 * fs.cache_hits as f64 / n
        );
        println!("mean batch size          {:.2}", fs.batch_sum as f64 / n);
        println!(
            "mean queue ticks         {:.2}",
            fs.queue_ticks_sum as f64 / n
        );
        println!("mean confidence          {:.3}", fs.conf_sum / n);
        println!(
            "e2e p50 / p99            {} / {}",
            fmt_ns(pct(50.0)),
            fmt_ns(pct(99.0))
        );
        if fs.dispositions.keys().any(|k| k != "served") {
            println!("\n── dispositions ──");
            for (disp, count) in &fs.dispositions {
                println!("{disp:<24} {count}");
            }
        }
        if fs.batch_modes.keys().any(|k| k != "full") {
            println!("\n── batch cut reasons ──");
            for (mode, count) in &fs.batch_modes {
                println!("{mode:<24} {count} ({:.1}%)", 100.0 * *count as f64 / n);
            }
        }
    }
    println!("\n── drift events ──");
    if fs.drift.is_empty() {
        println!("none");
    } else {
        for d in &fs.drift {
            println!("{d}");
        }
    }
}

fn main() {
    exit_on_error("serve_dash", run());
}

fn run() -> Result<(), BenchError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut metrics_path = None;
    let mut flight_path = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--metrics" => {
                i += 1;
                metrics_path =
                    Some(args.get(i).cloned().ok_or_else(|| {
                        BenchError::Invariant("--metrics needs a file".to_string())
                    })?);
            }
            "--flight" => {
                i += 1;
                flight_path =
                    Some(args.get(i).cloned().ok_or_else(|| {
                        BenchError::Invariant("--flight needs a file".to_string())
                    })?);
            }
            other => {
                return Err(BenchError::Invariant(format!(
                    "unknown argument {other} (usage: serve_dash [--metrics FILE] [--flight FILE])"
                )));
            }
        }
        i += 1;
    }
    if metrics_path.is_none() && flight_path.is_none() {
        return Err(BenchError::Invariant(
            "nothing to render: pass --metrics and/or --flight".to_string(),
        ));
    }
    if let Some(p) = &metrics_path {
        let snap = load_metrics(p)?;
        render_metrics(&snap);
    }
    if let Some(p) = &flight_path {
        let fs = load_flight(p)?;
        render_flight(&fs);
    }
    Ok(())
}
