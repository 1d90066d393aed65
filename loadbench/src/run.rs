//! The served (untraced) part of a run: load generation against the
//! child server, with every answer verified.

use msropm_client::http::{problem_report_from_json, HttpClient};
use msropm_client::{Client, ClientError, ConnectOptions, SubmitOptions};
use msropm_problems::json::Json;
use msropm_server::proto::ErrorCode;
use msropm_server::JobState;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::gen::{
    self, Arrival, BinaryStream, ProblemStream, CONNECTIONS, PROBLEM_REPLICAS,
    SATURATION_OUTSTANDING, TENANT,
};
use crate::verify;

/// Interval between `GET /v1/jobs/{id}` polls of one HTTP job.
pub const HTTP_POLL: Duration = Duration::from_millis(5);
/// Poll interval in the saturation phase, where only completions per
/// second count: coarse, so the client takes little CPU from the server.
const SATURATION_POLL: Duration = Duration::from_millis(20);
/// Least time between two polls of the poller (at most 2000 per second).
const MIN_POLL_GAP: Duration = Duration::from_micros(500);
/// Poll interval of an HTTP cancel target.
const CANCEL_HTTP_POLL: Duration = Duration::from_micros(500);
/// Longest the open loop waits for outstanding jobs after its last
/// arrival.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Quality of one answered quality-set job.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    /// Best-lane satisfied-edge fraction or normalised objective.
    pub score: f64,
    /// Whether the best lane meets the instance's reference answer.
    pub exact: bool,
}

/// What one served run observed.
#[derive(Debug, Default)]
pub struct Served {
    /// Jobs submitted in the timed window.
    pub attempted: u64,
    /// Jobs that failed: errors, rejections, or answers that failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Verified completions (cancelled jobs excluded).
    pub completed: u64,
    /// Jobs that ended cancelled.
    pub cancelled: u64,
    /// Wall time from the first timed request until the last job ended.
    pub elapsed_s: f64,
    /// Latency of each verified completion, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Cancel sent → `cancelled` observed, milliseconds.
    pub cancel_ms: Vec<f64>,
    /// Server-reported queue wait of each completion, milliseconds.
    pub queued_ms: Vec<f64>,
    /// Client latency minus server queue wait and service time,
    /// milliseconds.
    pub transport_ms: Vec<f64>,
    /// How late the generator issued each request, milliseconds: behind
    /// schedule in the open loop; report-to-next-submit in a closed loop.
    pub gen_lag_ms: Vec<f64>,
    /// Status polls issued for completed jobs (HTTP only).
    pub polls: u64,
    /// Submits the server refused (busy or over quota).
    pub rejected: u64,
    /// Quality of each answered quality-set job, by quality ordinal.
    pub quality: BTreeMap<usize, Quality>,
}

impl Served {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }

    fn merge(&mut self, other: Served) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
        self.completed += other.completed;
        self.cancelled += other.cancelled;
        self.latency_ms.extend(other.latency_ms);
        self.cancel_ms.extend(other.cancel_ms);
        self.queued_ms.extend(other.queued_ms);
        self.transport_ms.extend(other.transport_ms);
        self.gen_lag_ms.extend(other.gen_lag_ms);
        self.polls += other.polls;
        self.rejected += other.rejected;
        self.quality.extend(other.quality);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn is_rejection(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::Server {
            code: ErrorCode::Busy | ErrorCode::QuotaInFlight | ErrorCode::QuotaLanes,
            ..
        }
    )
}

/// Connects one binary-protocol client.
pub fn connect(addr: &str) -> Result<Client, String> {
    Client::connect_with(addr, TENANT, &ConnectOptions::new().nodelay(true))
        .map_err(|e| format!("connect {addr}: {e}"))
}

/// Submits job `i` of `stream` and waits for its verified report; the
/// job's latency sample is recorded into `out`. Cancel targets get their
/// cancel at the stream's fixed delay and are followed to a terminal
/// state.
fn binary_job(
    client: &mut Client,
    stream: &BinaryStream,
    i: usize,
    out: &mut Served,
) -> Result<(), String> {
    let gj = stream.job(i);
    let graph = &stream.graphs[gj.topo];
    let t0 = Instant::now();
    out.attempted += 1;
    let job_id = match client.submit_with(graph, &gj.job, &SubmitOptions::new()) {
        Ok(Some(id)) => id,
        Ok(None) => return Err("blocking submit returned no id".into()),
        Err(e) if is_rejection(&e) => {
            out.rejected += 1;
            return Err(format!("job {i} rejected: {e}"));
        }
        Err(e) => return Err(format!("submit {i}: {e}")),
    };
    if gj.cancel && cancel_running(client, stream, job_id, out)? {
        return Ok(());
    }
    let report = client
        .wait_report(job_id)
        .map_err(|e| format!("report {job_id}: {e}"))?;
    verify::check_report(graph, stream.hashes[gj.topo], &gj.job, job_id, &report)?;
    let latency = ms(t0.elapsed());
    out.completed += 1;
    out.latency_ms.push(latency);
    out.queued_ms.push(report.queued_us as f64 / 1e3);
    out.transport_ms
        .push(latency - (report.queued_us + report.service_us) as f64 / 1e3);
    if gj.quality {
        let best = report.best().expect("verified reports have every lane");
        out.quality.insert(
            gen::quality_ordinal(i),
            Quality {
                score: best.accuracy,
                exact: stream.exact(best.accuracy),
            },
        );
    }
    Ok(())
}

/// Cancels job `job_id` as soon as it is seen running, then follows it
/// to a terminal state; `Ok(true)` if it ended cancelled. Only running
/// jobs are cancelled: a cancel that lands before pickup skips the solve,
/// a much faster path, and a mix of the two would make the latency figure
/// depend on which one the race picked. No further delay: the cancel
/// latency is then the whole rest of the stage, which scales with the
/// machine's speed, not more.
fn cancel_running(
    client: &mut Client,
    stream: &BinaryStream,
    job_id: u64,
    out: &mut Served,
) -> Result<bool, String> {
    let mut status = || {
        client
            .status(job_id)
            .map_err(|e| format!("status {job_id}: {e}"))
    };
    let mut state = status()?;
    while state == JobState::Queued {
        std::thread::sleep(stream.cancel_poll());
        state = status()?;
    }
    if state != JobState::Running {
        // Finished before the cancel was due: checked like any other.
        return Ok(false);
    }
    let tc = Instant::now();
    client
        .cancel(job_id)
        .map_err(|e| format!("cancel {job_id}: {e}"))?;
    loop {
        match client
            .status(job_id)
            .map_err(|e| format!("status {job_id}: {e}"))?
        {
            JobState::Cancelled => {
                out.cancel_ms.push(ms(tc.elapsed()));
                out.cancelled += 1;
                return Ok(true);
            }
            // The cancel lost the race: the job completed and its
            // report is checked like any other.
            JobState::Done => return Ok(false),
            JobState::Failed => return Err(format!("job {job_id} failed after cancel")),
            JobState::Queued | JobState::Running => std::thread::sleep(stream.cancel_poll()),
        }
    }
}

/// Runs the fixed warm-up jobs of `stream`: checked, but neither timed
/// nor counted.
pub fn binary_warmup(addr: &str, stream: &BinaryStream) -> Result<(), String> {
    let mut client = connect(addr)?;
    for gj in stream.warmup() {
        let graph = &stream.graphs[gj.topo];
        let id = client
            .submit_with(graph, &gj.job, &SubmitOptions::new())
            .map_err(|e| format!("warm-up submit: {e}"))?
            .ok_or("blocking submit returned no id")?;
        let report = client
            .wait_report(id)
            .map_err(|e| format!("warm-up report: {e}"))?;
        verify::check_report(graph, stream.hashes[gj.topo], &gj.job, id, &report)?;
    }
    Ok(())
}

/// Closed loop: [`CONNECTIONS`] connections, one outstanding job each,
/// drawing job indices from one shared counter until `seconds` pass.
pub fn closed_loop(addr: &str, stream: &BinaryStream, seconds: f64) -> Result<Served, String> {
    let next = AtomicUsize::new(0);
    let mut clients = (0..CONNECTIONS)
        .map(|_| connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let parts: Vec<Served> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                s.spawn(move || {
                    let mut out = Served::default();
                    let mut last_done: Option<Instant> = None;
                    while Instant::now() < end {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if let Some(t) = last_done {
                            out.gen_lag_ms.push(ms(t.elapsed()));
                        }
                        if let Err(e) = binary_job(client, stream, i, &mut out) {
                            out.fail(e);
                        }
                        last_done = Some(Instant::now());
                    }
                    // Every report was redeemed by its own wait; one left
                    // over answered a cancelled job.
                    if client.stashed_reports() != 0 {
                        out.fail("a report arrived for a cancelled job".into());
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread does not panic"))
            .collect()
    });
    let mut served = Served {
        elapsed_s: start.elapsed().as_secs_f64(),
        ..Served::default()
    };
    for part in parts {
        served.merge(part);
    }
    Ok(served)
}

// ---------------------------------------------------------------------
// HTTP open loop
// ---------------------------------------------------------------------

/// Count of admitted HTTP jobs not yet terminal; the saturation phase
/// waits on it to keep a fixed number admitted.
#[derive(Default)]
struct Outstanding {
    count: Mutex<usize>,
    freed: Condvar,
}

impl Outstanding {
    fn add(&self) {
        *self.count.lock().expect("outstanding lock") += 1;
    }

    fn done(&self) {
        *self.count.lock().expect("outstanding lock") -= 1;
        self.freed.notify_one();
    }

    /// Blocks until fewer than `limit` jobs are outstanding.
    fn wait_below(&self, limit: usize) {
        let mut n = self.count.lock().expect("outstanding lock");
        while *n >= limit {
            n = self.freed.wait(n).expect("outstanding lock");
        }
    }
}

/// An admitted HTTP job the poller follows to a terminal state.
struct Pending<'a> {
    arrival: &'a Arrival,
    job_id: u64,
    due: Instant,
    next_poll: Instant,
    polls: u64,
    /// When its `DELETE` was sent (cancel targets seen running).
    cancel_sent: Option<Instant>,
}

/// `POST /v1/problems`; `Ok(Some(id))` when admitted, `Ok(None)` when
/// refused with 429/503.
fn http_submit(client: &mut HttpClient, body: &str) -> Result<Option<u64>, String> {
    let (status, reply) = client
        .request_json("POST", "/v1/problems", Some(body))
        .map_err(|e| format!("POST: {e}"))?;
    match status {
        202 => reply
            .get("job_id")
            .and_then(Json::as_u64)
            .map(Some)
            .ok_or_else(|| "202 without a job id".to_string()),
        429 | 503 => Ok(None),
        other => Err(format!("POST answered {other}: {}", reply.render())),
    }
}

/// Runs the fixed warm-up of the problem stream.
pub fn http_warmup(addr: &str, stream: &ProblemStream) -> Result<(), String> {
    let mut client = HttpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut ids = Vec::new();
    for (_, body) in stream.warmup() {
        ids.push(http_submit(&mut client, &body)?.ok_or("warm-up submit refused")?);
    }
    for id in ids {
        loop {
            let (status, reply) = client
                .request_json("GET", &format!("/v1/jobs/{id}?tenant={TENANT}"), None)
                .map_err(|e| format!("GET: {e}"))?;
            let state = reply.get("state").and_then(Json::as_str);
            match (status, state) {
                (200, Some("done")) => break,
                (200, Some("queued" | "running")) => std::thread::sleep(Duration::from_millis(1)),
                _ => return Err(format!("warm-up job {id}: {status} {}", reply.render())),
            }
        }
    }
    Ok(())
}

/// Open loop: one thread sends `POST`s on the seeded Poisson schedule
/// over one connection; another polls every admitted job every
/// [`HTTP_POLL`] over a second connection, and sends cancel targets their
/// `DELETE`. Latency runs from each request's due time to the verified
/// report.
///
/// With `saturate`, the arrivals are instead sent back to back, keeping
/// [`SATURATION_OUTSTANDING`] jobs admitted, and latency runs from the
/// send.
pub fn open_loop(
    addr: &str,
    stream: &ProblemStream,
    arrivals: &[Arrival],
    saturate: bool,
) -> Result<Served, String> {
    let mut submitter = HttpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut poller = HttpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let (tx, rx) = mpsc::channel::<Pending>();
    let outstanding = Outstanding::default();
    let interval = if saturate { SATURATION_POLL } else { HTTP_POLL };
    let start = Instant::now();

    let parts: Vec<Served> = std::thread::scope(|s| {
        let outstanding = &outstanding;
        let submit = s.spawn(move || {
            let mut out = Served::default();
            for (idx, a) in arrivals.iter().enumerate() {
                let due = if saturate {
                    outstanding.wait_below(SATURATION_OUTSTANDING);
                    Instant::now()
                } else {
                    start + Duration::from_secs_f64(a.due_s)
                };
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let sent = Instant::now();
                out.gen_lag_ms.push(ms(sent - due));
                out.attempted += 1;
                match http_submit(&mut submitter, &a.body) {
                    Ok(Some(job_id)) => {
                        outstanding.add();
                        // Each job's polls run on their own seeded phase of
                        // the interval, so observed latencies are not
                        // bunched at whole intervals.
                        let phase = (a.seed % 1024) as f64 / 1024.0;
                        let step = if a.cancel { CANCEL_HTTP_POLL } else { interval };
                        let pending = Pending {
                            arrival: a,
                            job_id,
                            due,
                            next_poll: sent + step.mul_f64(phase),
                            polls: 0,
                            cancel_sent: None,
                        };
                        if tx.send(pending).is_err() {
                            out.fail("poller exited early".into());
                            break;
                        }
                    }
                    Ok(None) => {
                        out.rejected += 1;
                        out.fail(format!("arrival {idx} refused"));
                    }
                    Err(e) => out.fail(format!("arrival {idx}: {e}")),
                }
            }
            drop(tx);
            out
        });
        let poll = s.spawn(move || poll_loop(&mut poller, stream, rx, interval, outstanding));
        [submit, poll]
            .map(|h| h.join().expect("load thread does not panic"))
            .into()
    });
    let mut served = Served {
        elapsed_s: start.elapsed().as_secs_f64(),
        ..Served::default()
    };
    for part in parts {
        served.merge(part);
    }
    Ok(served)
}

fn poll_loop(
    client: &mut HttpClient,
    stream: &ProblemStream,
    rx: mpsc::Receiver<Pending>,
    interval: Duration,
    outstanding: &Outstanding,
) -> Served {
    let mut out = Served::default();
    let mut pending: Vec<Pending> = Vec::new();
    let mut open = true;
    let mut drain_deadline: Option<Instant> = None;
    let mut last_poll = Instant::now();
    while open || !pending.is_empty() {
        // Take newly admitted jobs; block only when nothing is pending.
        loop {
            let next = if pending.is_empty() && open {
                rx.recv().map_err(|_| mpsc::TryRecvError::Disconnected)
            } else {
                rx.try_recv()
            };
            match next {
                Ok(p) => pending.push(p),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        if !open && drain_deadline.is_none() {
            drain_deadline = Some(Instant::now() + DRAIN_TIMEOUT);
        }
        if drain_deadline.is_some_and(|d| Instant::now() > d) {
            for p in pending.drain(..) {
                out.fail(format!(
                    "job {} still pending at the drain deadline",
                    p.job_id
                ));
            }
            break;
        }
        let Some(k) = (0..pending.len()).min_by_key(|&k| pending[k].next_poll) else {
            continue;
        };
        // The poll budget spaces requests at least MIN_POLL_GAP apart, so
        // a backlog cannot turn the poller into a CPU hog that slows the
        // server it is waiting for.
        let wake = pending[k].next_poll.max(last_poll + MIN_POLL_GAP);
        let now = Instant::now();
        if wake > now {
            // Sleep in short steps so new arrivals join the schedule.
            std::thread::sleep((wake - now).min(Duration::from_millis(1)));
            continue;
        }
        last_poll = now;
        let p = &mut pending[k];
        p.polls += 1;
        let polled = poll_once(client, stream, p, &mut out).unwrap_or_else(|e| {
            out.fail(e);
            Polled::Terminal
        });
        if polled == Polled::Terminal {
            pending.swap_remove(k);
            outstanding.done();
        } else {
            // A cancel target gets its DELETE once a poll shows it
            // running: a cancel that lands before pickup skips the solve,
            // a much faster path, and a mix of the two would make the
            // latency figure depend on which one the race picked.
            if p.arrival.cancel && p.cancel_sent.is_none() && polled == Polled::Running {
                p.cancel_sent = Some(Instant::now());
                if let Err(e) = http_delete(client, p.job_id) {
                    out.fail(e);
                }
            }
            // Cancel targets are polled finely, so they are seen running
            // early and the cancel latency is not mostly polling delay.
            let step = if p.arrival.cancel {
                CANCEL_HTTP_POLL
            } else {
                interval
            };
            // Stay on the job's grid; skip slots a late poll overran.
            let now = Instant::now();
            while p.next_poll <= now {
                p.next_poll += step;
            }
        }
    }
    out
}

/// `DELETE /v1/jobs/{id}`.
fn http_delete(client: &mut HttpClient, id: u64) -> Result<(), String> {
    match client.request("DELETE", &format!("/v1/jobs/{id}?tenant={TENANT}"), None) {
        Ok((200, _)) => Ok(()),
        Ok((status, body)) => Err(format!("DELETE {id}: {status} {body}")),
        Err(e) => Err(format!("DELETE {id}: {e}")),
    }
}

/// What one poll of an HTTP job found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Polled {
    Queued,
    Running,
    /// Terminal, and accounted for in the run's figures.
    Terminal,
}

/// One `GET /v1/jobs/{id}`.
fn poll_once(
    client: &mut HttpClient,
    stream: &ProblemStream,
    p: &Pending,
    out: &mut Served,
) -> Result<Polled, String> {
    let path = format!("/v1/jobs/{}?tenant={TENANT}", p.job_id);
    let (status, reply) = client
        .request_json("GET", &path, None)
        .map_err(|e| format!("GET {}: {e}", p.job_id))?;
    let state = reply.get("state").and_then(Json::as_str);
    match (status, state) {
        (200, Some("queued")) => Ok(Polled::Queued),
        (200, Some("running")) => Ok(Polled::Running),
        (200, Some("cancelled")) => {
            let sent = p
                .cancel_sent
                .ok_or_else(|| format!("job {} cancelled without a DELETE", p.job_id))?;
            if reply.get("report").is_some() {
                return Err(format!("cancelled job {} carries a report", p.job_id));
            }
            out.cancel_ms.push(ms(sent.elapsed()));
            out.cancelled += 1;
            Ok(Polled::Terminal)
        }
        (200, Some("done")) => {
            let arrival = p.arrival;
            let inst = &stream.instances[arrival.instance];
            let wire = reply
                .get("report")
                .ok_or("done without a report")
                .and_then(|r| problem_report_from_json(r).map_err(|_| "malformed report"))
                .map_err(|e| format!("job {}: {e}", p.job_id))?;
            verify::check_problem_report(inst, arrival.seed, PROBLEM_REPLICAS, p.job_id, &wire)?;
            let latency = ms(p.due.elapsed());
            out.completed += 1;
            out.polls += p.polls;
            out.latency_ms.push(latency);
            out.queued_ms.push(wire.queued_us as f64 / 1e3);
            out.transport_ms
                .push(latency - (wire.queued_us + wire.service_us) as f64 / 1e3);
            if let Some(ordinal) = arrival.quality {
                let best = wire.best().expect("verified reports have every lane");
                // Scored after the run: brute force must not load the
                // client during timing.
                out.quality.insert(
                    ordinal,
                    Quality {
                        score: best.objective,
                        exact: false,
                    },
                );
            }
            Ok(Polled::Terminal)
        }
        _ => Err(format!("job {}: {status} {}", p.job_id, reply.render())),
    }
}
