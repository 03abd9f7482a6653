//! Validate observability artifacts (CI helper).
//!
//! Usage: `validate_trace [--tape-zero-alloc METRICS]
//! [--serve-zero-alloc METRICS] FILE...` — each
//! positional argument is a `.jsonl` stream (trace or metrics: one JSON
//! object per line) or a `.json` run manifest (a single object). Every
//! document must parse with the strict `mga_obs::json` parser; span
//! events and manifests are additionally checked for their required
//! fields. Exits nonzero on the first malformed file, so CI can gate on
//! it.
//!
//! `--tape-zero-alloc METRICS` additionally asserts the tape memory
//! plan held for the run that produced `METRICS`: the
//! `tape.arena_reuse` counter must be positive (buffers were recycled)
//! and `tape.steady_alloc_bytes` must exist and be exactly zero (no
//! steady-state epoch allocated tape-tensor memory).
//!
//! `--serve-zero-alloc METRICS` asserts the same discipline for the
//! serving engine: `serve.arena_reuse` positive and
//! `serve.steady_alloc_bytes` exactly zero — steady-state request
//! serving must not touch the allocator for scratch.
//!
//! `--flight FILE` validates a flight-recorder dump (`MGA_FLIGHT`):
//! every line is a well-formed `{"type":"request",...}` record (ids,
//! ticks, batch, cache flag, per-head classes/margins)
//! or `{"type":"drift",...}` event, and at least one request was
//! recorded.
//!
//! `--prom FILE` validates a Prometheus text-exposition snapshot
//! (`MGA_PROM_OUT`): `mga_`-prefixed sample names, numeric values,
//! cumulative bucket series whose `+Inf` sample equals `_count`.
//!
//! `--drift-replay` runs the built-in synthetic drift scenario and
//! asserts each detector fires at its exact expected tick — the
//! determinism contract that makes drift events replayable in CI.

use mga_obs::drift::{DriftConfig, DriftKind, DriftMonitor, TickStats};
use mga_obs::json::Json;

fn check_span_event(obj: &[(String, Json)], path: &str, line_no: usize) -> Result<(), String> {
    let get = |k: &str| obj.iter().find(|(n, _)| n == k).map(|(_, v)| v);
    match get("type") {
        Some(Json::Str(t)) if t == "span" => {}
        // Non-span event types are allowed; only spans have a fixed shape.
        Some(Json::Str(_)) => return Ok(()),
        _ => return Err(format!("{path}:{line_no}: event missing string \"type\"")),
    }
    for key in ["path", "name", "thread", "start_ns", "dur_ns"] {
        match get(key) {
            Some(Json::Str(_)) if key == "path" || key == "name" => {}
            Some(Json::Num(n)) if key != "path" && key != "name" && *n >= 0.0 => {}
            _ => return Err(format!("{path}:{line_no}: span event missing \"{key}\"")),
        }
    }
    Ok(())
}

fn check_manifest(obj: &[(String, Json)], path: &str) -> Result<(), String> {
    for key in ["schema_version", "name"] {
        if !obj.iter().any(|(n, _)| n == key) {
            return Err(format!("{path}: manifest missing \"{key}\""));
        }
    }
    Ok(())
}

fn validate_file(path: &str) -> Result<usize, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if path.ends_with(".json") {
        let doc =
            mga_obs::json::parse(body.trim()).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
        match doc {
            Json::Obj(ref obj) => check_manifest(obj, path)?,
            _ => return Err(format!("{path}: manifest must be a JSON object")),
        }
        return Ok(1);
    }
    // JSONL: trace or metrics stream.
    let mut n = 0usize;
    for (i, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = mga_obs::json::parse(line)
            .map_err(|e| format!("{path}:{}: invalid JSON: {e}", i + 1))?;
        match doc {
            Json::Obj(ref obj) => check_span_event(obj, path, i + 1)?,
            _ => return Err(format!("{path}:{}: line must be a JSON object", i + 1)),
        }
        n += 1;
    }
    if n == 0 {
        return Err(format!("{path}: no JSON documents found"));
    }
    Ok(n)
}

/// Read a named counter from a metrics JSONL file, if present.
fn read_counter(path: &str, name: &str) -> Result<Option<f64>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    for (i, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = mga_obs::json::parse(line)
            .map_err(|e| format!("{path}:{}: invalid JSON: {e}", i + 1))?;
        if let Json::Obj(obj) = doc {
            let get = |k: &str| obj.iter().find(|(n, _)| n == k).map(|(_, v)| v);
            if matches!(get("name"), Some(Json::Str(n)) if n == name) {
                if let Some(Json::Num(v)) = get("value") {
                    return Ok(Some(*v));
                }
            }
        }
    }
    Ok(None)
}

/// Assert the tape memory plan held: buffers were recycled and no
/// steady-state (replay) epoch allocated.
fn check_tape_zero_alloc(path: &str) -> Result<(), String> {
    match read_counter(path, "tape.arena_reuse")? {
        Some(v) if v > 0.0 => {}
        Some(_) => {
            return Err(format!(
                "{path}: tape.arena_reuse is zero — no buffer reuse"
            ))
        }
        None => return Err(format!("{path}: tape.arena_reuse counter missing")),
    }
    match read_counter(path, "tape.steady_alloc_bytes")? {
        Some(0.0) => Ok(()),
        Some(v) => Err(format!(
            "{path}: steady-state epochs allocated {v} bytes of tape memory (must be 0)"
        )),
        None => Err(format!(
            "{path}: tape.steady_alloc_bytes counter missing — did training replay any epoch?"
        )),
    }
}

/// Assert the serving engine's memory plan held: scratch cycled through
/// the arena and nothing was allocated after the construction prewarm.
fn check_serve_zero_alloc(path: &str) -> Result<(), String> {
    match read_counter(path, "serve.arena_reuse")? {
        Some(v) if v > 0.0 => {}
        Some(_) => {
            return Err(format!(
                "{path}: serve.arena_reuse is zero — serving scratch was not recycled"
            ))
        }
        None => return Err(format!("{path}: serve.arena_reuse gauge missing")),
    }
    match read_counter(path, "serve.steady_alloc_bytes")? {
        Some(0.0) => Ok(()),
        Some(v) => Err(format!(
            "{path}: steady-state serving allocated {v} bytes of scratch (must be 0)"
        )),
        None => Err(format!(
            "{path}: serve.steady_alloc_bytes gauge missing — did the engine publish metrics?"
        )),
    }
}

/// Validate one flight-recorder JSONL line.
fn check_flight_line(obj: &[(String, Json)], path: &str, line_no: usize) -> Result<bool, String> {
    let get = |k: &str| obj.iter().find(|(n, _)| n == k).map(|(_, v)| v);
    let num = |k: &str| -> Result<f64, String> {
        match get(k) {
            Some(Json::Num(n)) if *n >= 0.0 => Ok(*n),
            _ => Err(format!(
                "{path}:{line_no}: missing non-negative number \"{k}\""
            )),
        }
    };
    match get("type") {
        Some(Json::Str(t)) if t == "request" => {
            for k in ["id", "kernel", "e2e_ns"] {
                num(k)?;
            }
            let submit = num("submit_tick")?;
            let served = num("served_tick")?;
            if served < submit {
                return Err(format!("{path}:{line_no}: served before submitted"));
            }
            if num("queue_ticks")? != served - submit {
                return Err(format!(
                    "{path}:{line_no}: queue_ticks disagrees with the tick stamps"
                ));
            }
            if num("batch")? < 1.0 {
                return Err(format!("{path}:{line_no}: batch must be >= 1"));
            }
            if !matches!(get("cache_hit"), Some(Json::Bool(_))) {
                return Err(format!("{path}:{line_no}: missing bool \"cache_hit\""));
            }
            let classes = match get("classes") {
                Some(Json::Arr(a)) => a.len(),
                _ => return Err(format!("{path}:{line_no}: missing array \"classes\"")),
            };
            match get("margins") {
                Some(Json::Arr(a)) if a.len() == classes => {}
                _ => {
                    return Err(format!(
                        "{path}:{line_no}: \"margins\" must mirror \"classes\""
                    ))
                }
            }
            match get("confidence") {
                Some(Json::Num(c)) if (0.0..=1.0).contains(c) => {}
                _ => return Err(format!("{path}:{line_no}: confidence must be in [0,1]")),
            }
            Ok(true)
        }
        Some(Json::Str(t)) if t == "drift" => {
            match get("kind") {
                Some(Json::Str(k))
                    if ["new_kernel_rate", "cache_miss_rate", "confidence_collapse"]
                        .contains(&k.as_str()) => {}
                _ => return Err(format!("{path}:{line_no}: unknown drift \"kind\"")),
            }
            num("tick")?;
            for k in ["value", "raw", "threshold"] {
                if !matches!(get(k), Some(Json::Num(_))) {
                    return Err(format!("{path}:{line_no}: missing number \"{k}\""));
                }
            }
            Ok(false)
        }
        _ => Err(format!(
            "{path}:{line_no}: type must be \"request\" or \"drift\""
        )),
    }
}

/// Validate a flight dump: all lines well-formed, at least one request.
fn check_flight(path: &str) -> Result<(usize, usize), String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let (mut requests, mut drifts) = (0usize, 0usize);
    for (i, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = mga_obs::json::parse(line)
            .map_err(|e| format!("{path}:{}: invalid JSON: {e}", i + 1))?;
        match doc {
            Json::Obj(ref obj) => {
                if check_flight_line(obj, path, i + 1)? {
                    requests += 1;
                } else {
                    drifts += 1;
                }
            }
            _ => return Err(format!("{path}:{}: line must be a JSON object", i + 1)),
        }
    }
    if requests == 0 {
        return Err(format!("{path}: no request records — recorder never ran?"));
    }
    Ok((requests, drifts))
}

/// Validate a Prometheus text-exposition snapshot: prefixed names,
/// numeric samples, cumulative bucket series closed by a `+Inf` sample
/// that equals `_count`.
fn check_prom(path: &str) -> Result<usize, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut samples = 0usize;
    let mut bucket_series: Option<(String, f64)> = None;
    let mut inf_closed: Vec<(String, f64)> = Vec::new();
    for (i, line) in body.lines().enumerate() {
        let line_no = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            if !rest.trim_start().starts_with("TYPE ") {
                return Err(format!("{path}:{line_no}: only # TYPE comments expected"));
            }
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("{path}:{line_no}: expected \"name value\""))?;
        if !name.starts_with("mga_") {
            return Err(format!("{path}:{line_no}: sample not mga_-prefixed"));
        }
        let v: f64 = value
            .parse()
            .map_err(|_| format!("{path}:{line_no}: non-numeric sample value {value:?}"))?;
        samples += 1;
        if let Some((base, rest)) = name.split_once("_bucket{le=") {
            if let Some((prev_base, prev_cum)) = &bucket_series {
                if prev_base == base && v < *prev_cum {
                    return Err(format!(
                        "{path}:{line_no}: bucket series for {base} not cumulative"
                    ));
                }
            }
            bucket_series = Some((base.to_string(), v));
            if rest.starts_with("\"+Inf\"") {
                inf_closed.push((base.to_string(), v));
            }
        } else {
            if let Some(total) = name.strip_suffix("_count").and_then(|base| {
                inf_closed
                    .iter()
                    .find(|(b, _)| b == base)
                    .map(|(_, inf)| *inf)
            }) {
                if total != v {
                    return Err(format!(
                        "{path}:{line_no}: _count {v} disagrees with +Inf bucket {total}"
                    ));
                }
            }
            bucket_series = None;
        }
    }
    if samples == 0 {
        return Err(format!("{path}: no samples"));
    }
    Ok(samples)
}

/// Replay the built-in synthetic drift scenario and assert the exact
/// trigger ticks. Mirrors the documented semantics: window boundaries
/// count on-tick calls, idle windows are skipped, detectors are
/// edge-triggered and re-arm on recovery.
fn check_drift_replay() -> Result<(), String> {
    let cfg = DriftConfig {
        window_ticks: 4,
        alpha: 0.5,
        warmup_windows: 1,
        max_new_kernel_rate: 0.4,
        max_cache_miss_rate: 0.4,
        min_confidence: 0.6,
    };
    let mut monitor = DriftMonitor::new(cfg);
    let healthy = TickStats {
        requests: 4,
        new_kernels: 0,
        cache_lookups: 4,
        cache_misses: 0,
        confidence_sum: 4.0 * 0.9,
    };
    let storm = TickStats {
        requests: 4,
        new_kernels: 4,
        cache_lookups: 4,
        cache_misses: 4,
        confidence_sum: 4.0 * 0.1,
    };
    let mut events = Vec::new();
    let mut tick = 0u64;
    // Window 1 (ticks 1–4): healthy warmup. Window 2 (ticks 5–8):
    // full storm — every EWMA crosses on the boundary tick 8. Windows
    // 3–5 (ticks 9–20): recovery decays the rate EWMAs to 0.0625 and
    // re-arms every detector. Window 6 (ticks 21–24): second storm —
    // the rate EWMAs hit 0.5·1.0 + 0.5·0.0625 = 0.53125 and the
    // confidence EWMA 0.475, so all three fire again at tick 24.
    let script: [(u64, &TickStats); 4] = [(4, &healthy), (4, &storm), (12, &healthy), (4, &storm)];
    for (n, stats) in script {
        for _ in 0..n {
            tick += 1;
            monitor.on_tick(tick, stats, &mut |e| events.push(e));
        }
    }
    let expect = [
        (DriftKind::NewKernelRate, 8),
        (DriftKind::CacheMissRate, 8),
        (DriftKind::ConfidenceCollapse, 8),
        (DriftKind::NewKernelRate, 24),
        (DriftKind::CacheMissRate, 24),
        (DriftKind::ConfidenceCollapse, 24),
    ];
    if events.len() != expect.len() {
        return Err(format!(
            "drift replay: expected {} events, got {}: {events:?}",
            expect.len(),
            events.len()
        ));
    }
    for (ev, (kind, tick)) in events.iter().zip(expect) {
        if ev.kind != kind || ev.tick != tick {
            return Err(format!(
                "drift replay: expected {kind:?} at tick {tick}, got {:?} at tick {}",
                ev.kind, ev.tick
            ));
        }
    }
    Ok(())
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let mut files: Vec<String> = Vec::new();
    let mut tape_zero_alloc: Option<String> = None;
    let mut serve_zero_alloc: Option<String> = None;
    let mut flight: Option<String> = None;
    let mut prom: Option<String> = None;
    let mut drift_replay = false;
    while let Some(a) = args.next() {
        if a == "--drift-replay" {
            drift_replay = true;
        } else if [
            "--tape-zero-alloc",
            "--serve-zero-alloc",
            "--flight",
            "--prom",
        ]
        .contains(&a.as_str())
        {
            let Some(f) = args.next() else {
                eprintln!("{a} requires a file argument");
                std::process::exit(2);
            };
            match a.as_str() {
                "--tape-zero-alloc" => tape_zero_alloc = Some(f),
                "--serve-zero-alloc" => serve_zero_alloc = Some(f),
                "--flight" => flight = Some(f),
                _ => prom = Some(f),
            }
        } else {
            files.push(a);
        }
    }
    if files.is_empty()
        && tape_zero_alloc.is_none()
        && serve_zero_alloc.is_none()
        && flight.is_none()
        && prom.is_none()
        && !drift_replay
    {
        eprintln!(
            "usage: validate_trace [--tape-zero-alloc METRICS] [--serve-zero-alloc METRICS] \
             [--flight FILE] [--prom FILE] [--drift-replay] FILE..."
        );
        std::process::exit(2);
    }
    let mut failed = false;
    if let Some(metrics) = &tape_zero_alloc {
        match check_tape_zero_alloc(metrics) {
            Ok(()) => println!("{metrics}: tape memory plan OK (steady-state zero-alloc)"),
            Err(e) => {
                eprintln!("{e}");
                failed = true;
            }
        }
    }
    if let Some(metrics) = &serve_zero_alloc {
        match check_serve_zero_alloc(metrics) {
            Ok(()) => println!("{metrics}: serve memory plan OK (steady-state zero-alloc)"),
            Err(e) => {
                eprintln!("{e}");
                failed = true;
            }
        }
    }
    if let Some(f) = &flight {
        match check_flight(f) {
            Ok((req, drift)) => {
                println!("{f}: flight dump OK ({req} requests, {drift} drift events)")
            }
            Err(e) => {
                eprintln!("{e}");
                failed = true;
            }
        }
    }
    if let Some(f) = &prom {
        match check_prom(f) {
            Ok(n) => println!("{f}: prometheus snapshot OK ({n} samples)"),
            Err(e) => {
                eprintln!("{e}");
                failed = true;
            }
        }
    }
    if drift_replay {
        match check_drift_replay() {
            Ok(()) => println!("drift replay OK (all detectors fired at their exact ticks)"),
            Err(e) => {
                eprintln!("{e}");
                failed = true;
            }
        }
    }
    for f in &files {
        match validate_file(f) {
            Ok(n) => println!("{f}: OK ({n} documents)"),
            Err(e) => {
                eprintln!("{e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
