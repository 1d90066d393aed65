//! End-to-end load benchmark of the MSROPM job server.
//!
//! ```text
//! cargo run --release --manifest-path loadbench/Cargo.toml -- \
//!     --workload color2116_fx|problems_http|tiny_wire --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The benchmark builds `msropm_serve`,
//! boots it as a child process, and drives it from this one process
//! through the `msropm-client` library (two connections, two threads),
//! checking every answer. With `--trace 0` it reports the end-to-end
//! metrics of an untraced run; with `--trace 1` it repeats the served run
//! and then replays a sample of the workload's requests in-process with
//! a span around every layer call, and reports per-layer metrics. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! Workloads, metrics and how they interact are described in
//! `loadbench/README.md`.

mod gen;
mod layers;
mod run;
mod server;
mod stats;
mod trace;
mod verify;

use gen::{BinaryStream, ProblemStream, Stream, Workload};
use layers::Metric;
use msropm_client::http::HttpClient;
use msropm_problems::json::{self, Json};
use run::Served;
use server::ServerProc;
use std::path::PathBuf;
use std::time::Instant;

/// The benchmark manifest at the repository root: workloads, metric
/// names, units and bounds.
const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// Boots per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Fewest cancelled jobs a run must observe to report `cancel_latency_ms`.
const MIN_CANCELS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or(format!(
                    "unknown workload {value:?}; valid: color2116_fx, problems_http, tiny_wire"
                ))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Boots a server, generates the inputs and runs the fixed warm-up: the
/// set-up that `setup_s` times.
fn set_up(bin: &PathBuf, args: &Args) -> Result<(ServerProc, Stream), String> {
    let server = ServerProc::spawn(bin, &args.workload.server_args())?;
    let stream = match args.workload {
        Workload::ProblemsHttp => {
            let s = ProblemStream::new(args.seed, args.seconds);
            run::http_warmup(&server.addr, &s)?;
            Stream::Problems(s)
        }
        w => {
            let s = BinaryStream::new(w, args.seed);
            run::binary_warmup(&server.addr, &s)?;
            Stream::Binary(s)
        }
    };
    Ok((server, stream))
}

/// Problem-cache `(hits, misses)` of the server, from its stats verb.
fn cache_counts(addr: &str, workload: Workload) -> Result<(u64, u64), String> {
    if workload == Workload::ProblemsHttp {
        let mut c = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let (_, j) = c
            .request_json("GET", "/v1/stats", None)
            .map_err(|e| format!("GET /v1/stats: {e}"))?;
        let count = |k: &str| {
            j.get("counters")
                .and_then(|c| c.get(k))
                .and_then(Json::as_u64)
                .ok_or(format!("stats lack {k}"))
        };
        Ok((count("cache_hits")?, count("cache_misses")?))
    } else {
        let s = run::connect(addr)?
            .stats()
            .map_err(|e| format!("stats: {e}"))?;
        Ok((s.cache_hits, s.cache_misses))
    }
}

/// Scores the problem quality set after the run (brute force stays out
/// of the timed region).
fn score_problems(served: &mut Served, stream: &ProblemStream) {
    for (&ordinal, q) in served.quality.iter_mut() {
        let inst = &stream.instances[stream.pool + ordinal];
        let (score, exact) = verify::problem_quality(inst, q.score);
        q.score = score;
        q.exact = exact;
    }
}

/// The end-to-end metrics. `saturation` is the open loop's capacity run,
/// which gives its `jobs_per_s`; a closed loop's is its own rate.
/// `cpu_s` is the server's CPU time over the latency run.
fn end_to_end(
    args: &Args,
    setups: &[f64],
    served: &Served,
    saturation: Option<&Served>,
    cpu_s: f64,
    rss_mb: f64,
    quality_len: usize,
) -> Result<Vec<Metric>, String> {
    let w = args.workload;
    let rate = saturation.unwrap_or(served);
    let jobs_per_s = rate.completed as f64 / rate.elapsed_s;
    let quality: Vec<_> = served
        .quality
        .range(..quality_len)
        .map(|(_, q)| *q)
        .collect();
    if quality.len() != quality_len {
        return Err(format!(
            "only {} of the {quality_len} quality-set jobs completed; lengthen the run",
            quality.len()
        ));
    }
    if served.cancel_ms.len() < MIN_CANCELS {
        return Err(format!(
            "only {} jobs ended cancelled (need {MIN_CANCELS}); lengthen the run",
            served.cancel_ms.len()
        ));
    }
    let within = served
        .latency_ms
        .iter()
        .filter(|&&l| l <= w.slo_ms())
        .count();
    let scores: Vec<f64> = quality.iter().map(|q| q.score).collect();
    let exact = quality.iter().filter(|q| q.exact).count();
    let completed = served.completed.max(1) as f64;
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    Ok(vec![
        m("setup_s", stats::median(setups).expect("setups ran"), "s"),
        m("jobs_per_s", jobs_per_s, "1/s"),
        m(
            "latency_p50_ms",
            stats::median(&served.latency_ms).ok_or("no job completed")?,
            "ms",
        ),
        m(
            "latency_tail_ms",
            stats::tail(&served.latency_ms, w.tail_pct(), "latency")?,
            "ms",
        ),
        m(
            "slo_attainment",
            within as f64 / (served.attempted - served.cancelled).max(1) as f64,
            "share",
        ),
        m(
            "accuracy_mean",
            stats::mean(&scores).expect("quality set"),
            "share",
        ),
        m("exact_rate", exact as f64 / quality_len as f64, "share"),
        // Cancel latencies cluster at whole status round trips; the
        // interdecile mean does not jump between those clusters.
        m(
            "cancel_latency_ms",
            stats::interdecile_mean(&served.cancel_ms).expect("cancels"),
            "ms",
        ),
        m("cpu_ms_per_job", cpu_s * 1e3 / completed, "ms"),
        m("peak_rss_mb", rss_mb, "MiB"),
    ])
}

/// `(name, unit)` of every metric the manifest lists under `key`.
fn manifest_metrics(key: &str) -> Result<Vec<(String, String)>, String> {
    let doc = json::parse(MANIFEST).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    doc.get(key)
        .and_then(Json::as_arr)
        .and_then(|list| {
            list.iter()
                .map(|m| {
                    Some((
                        m.get("name")?.as_str()?.into(),
                        m.get("unit")?.as_str()?.into(),
                    ))
                })
                .collect()
        })
        .ok_or_else(|| format!("BENCHMARK.json has no well-formed {key:?} list"))
}

/// Fails unless `metrics` are exactly the manifest's list for this mode,
/// in order and with the same units.
fn check_manifest(trace: bool, metrics: &[Metric]) -> Result<(), String> {
    let key = if trace { "per_layer" } else { "end_to_end" };
    let listed = manifest_metrics(key)?;
    let emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    if listed != emitted {
        return Err(format!(
            "metrics differ from BENCHMARK.json {key}: {emitted:?}"
        ));
    }
    Ok(())
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn bench(args: &Args) -> Result<String, String> {
    // Untimed: building the server.
    let bin = server::build()?;

    // Every boot but the last is timed and stopped again.
    let mut setups = Vec::with_capacity(SETUPS);
    let (server, stream) = loop {
        let t0 = Instant::now();
        let up = set_up(&bin, args)?;
        setups.push(t0.elapsed().as_secs_f64());
        if setups.len() == SETUPS {
            break up;
        }
    };

    let before = cache_counts(&server.addr, args.workload)?;
    let cpu0 = server.cpu_seconds()?;
    let (mut served, quality_len) = match &stream {
        Stream::Binary(s) => (
            run::closed_loop(&server.addr, s, args.seconds)?,
            s.quality_len(),
        ),
        Stream::Problems(s) => (
            run::open_loop(&server.addr, s, &s.arrivals, false)?,
            s.quality_len(),
        ),
    };
    let cpu_s = server.cpu_seconds()? - cpu0;
    let after = cache_counts(&server.addr, args.workload)?;
    // Throughput of the open loop is its capacity, measured after the
    // latency window; a closed loop's is its own completion rate.
    let saturation = match &stream {
        Stream::Problems(s) if !args.trace => {
            Some(run::open_loop(&server.addr, s, &s.saturation, true)?)
        }
        _ => None,
    };
    let saturation_counts = saturation.as_ref().map_or((0, 0, 0), |s| {
        for e in &s.errors {
            eprintln!("failed: {e}");
        }
        (s.attempted, s.failed, s.rejected)
    });
    let rss_mb = server.peak_rss_mb()?;
    drop(server);
    if let Stream::Problems(s) = &stream {
        score_problems(&mut served, s);
    }
    for e in &served.errors {
        eprintln!("failed: {e}");
    }

    let mut attempted = served.attempted + saturation_counts.0;
    let mut failed = served.failed + saturation_counts.1;
    let metrics = if args.trace {
        let hits = (after.0 - before.0, after.1 - before.1);
        let replay = layers::per_layer(args.workload, &stream, &served, hits)?;
        attempted += replay.replayed;
        failed += replay.errors.len() as u64;
        for e in &replay.errors {
            eprintln!("failed: {e}");
        }
        replay.metrics
    } else {
        end_to_end(
            args,
            &setups,
            &served,
            saturation.as_ref(),
            cpu_s,
            rss_mb,
            quality_len,
        )?
    };
    check_manifest(args.trace, &metrics)?;
    // A refused submit is a failed operation (and misses every latency
    // limit) but not a wrong answer.
    let correct = failed == served.rejected + saturation_counts.2;
    Ok(json_line(correct, attempted, failed, &metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadbench: {e}");
            std::process::exit(2);
        }
    };
    match bench(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("loadbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_states_each_workloads_fixed_tail() {
        let doc = json::parse(MANIFEST).expect("BENCHMARK.json parses");
        let listed = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        assert_eq!(listed.len(), Workload::ALL.len());
        for (entry, w) in listed.iter().zip(Workload::ALL) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(w.name()));
            let why = entry.get("why").and_then(Json::as_str).expect("why");
            let tail = format!("Tail p{}.", w.tail_pct());
            assert!(why.contains(&tail), "{}: why lacks {tail:?}", w.name());
        }
        assert_eq!(manifest_metrics("end_to_end").expect("list").len(), 10);
    }
}
