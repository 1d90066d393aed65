//! Client behavior when the server dies on it: abrupt disconnects
//! mid-stream must surface as **typed transport errors**, never hangs,
//! in both the blocking and the multiplexed client modes — and the
//! reconnect policy must actually reconnect.
//!
//! The "server" here is a hand-rolled [`TcpListener`] script: it
//! speaks just enough of the protocol to get the client into the
//! interesting state (waiting on a report), then misbehaves —
//! truncating a frame header, a frame body, or the connection itself.

mod common;
use common::SubmitShorthand;

use msropm_client::http::HttpClient;
use msropm_client::{is_retryable, Client, ClientError, RetryPolicy, SubmitOptions};
use msropm_core::{BatchJob, MsropmConfig};
use msropm_graph::generators;
use msropm_problems::json::Json;
use msropm_problems::ProblemSpec;
use msropm_server::proto::{
    encode_response, read_frame, write_frame, ErrorCode, FrontendKind, Response, WireLane,
    WireReport,
};
use msropm_server::ServerConfig;
use std::io::{self, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Everything in this file must fail *fast*; anything slower than this
/// is the hang these tests exist to rule out.
const NO_HANG: Duration = Duration::from_secs(30);

fn fast_config() -> MsropmConfig {
    MsropmConfig {
        dt: 0.02,
        ..MsropmConfig::paper_default()
    }
}

/// A report frame for `job_id`, encoded — the fake server truncates
/// this at various offsets.
fn report_bytes(job_id: u64) -> Vec<u8> {
    encode_response(&Response::Report(WireReport {
        job_id,
        graph_hash: 0xfeed,
        seed: 1,
        queued_us: 5,
        service_us: 100,
        ranked: vec![WireLane {
            lane: 0,
            seed: 7,
            conflicts: 3,
            accuracy: 0.9,
            coloring: vec![1u16; 16],
        }],
    }))
}

/// Boots a scripted one-connection server: accepts, then runs `script`
/// on the accepted socket and hangs up. Returns the address and the
/// server thread's handle.
fn scripted_server(
    script: impl FnOnce(TcpStream) + Send + 'static,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        script(stream);
    });
    (addr, handle)
}

/// Replies `Submitted{job_id}` to each of `n` submit frames, then
/// writes the first `truncate_at` bytes of a framed report for job 1
/// and drops the connection.
fn die_mid_report(stream: TcpStream, n: u64, truncate_at: usize) {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    for job_id in 1..=n {
        let frame = read_frame(&mut reader).expect("submit frame");
        assert!(!frame.is_empty());
        write_frame(
            &mut writer,
            &encode_response(&Response::Submitted { job_id }),
        )
        .expect("submitted reply");
    }
    // A full framed report is [len:4][payload]; cut it mid-stream.
    let payload = report_bytes(1);
    let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(&payload);
    writer
        .write_all(&framed[..truncate_at.min(framed.len())])
        .expect("partial write");
    writer.flush().expect("flush");
    // Dropping both halves closes the socket abruptly.
}

/// The blocking mode: one submit, then `wait_report` on a connection
/// that dies mid-frame. Covers truncation inside the header and inside
/// the payload.
#[test]
fn server_death_mid_report_is_a_typed_error_blocking_mode() {
    let graph = generators::kings_graph(4, 4);
    let job = BatchJob::uniform(fast_config(), 2, 1);
    for truncate_at in [0usize, 2, 4, 9] {
        let (addr, server) = scripted_server(move |s| die_mid_report(s, 1, truncate_at));
        let mut client = Client::connect(addr, "t").expect("connect");
        let id = client.submit_ok(&graph, &job).expect("submit");
        assert_eq!(id, 1);
        let t0 = Instant::now();
        let err = client
            .wait_report(id)
            .expect_err("dead server must surface an error");
        assert!(
            t0.elapsed() < NO_HANG,
            "truncate@{truncate_at}: wait_report hung"
        );
        match &err {
            ClientError::Io(e) => assert_eq!(
                e.kind(),
                io::ErrorKind::UnexpectedEof,
                "truncate@{truncate_at}"
            ),
            other => panic!("truncate@{truncate_at}: expected Io error, got {other:?}"),
        }
        assert!(is_retryable(&err), "truncate@{truncate_at}");
        server.join().expect("server thread");
    }
}

/// The multiplexed mode: several submits written back to back, replies
/// collected, then the connection dies while reports are outstanding.
/// Every outstanding wait must error out, none may hang.
#[test]
fn server_death_mid_report_is_a_typed_error_multiplexed_mode() {
    let graph = generators::kings_graph(4, 4);
    let job = BatchJob::uniform(fast_config(), 2, 1);
    let (addr, server) = scripted_server(|s| die_mid_report(s, 3, 9));
    let mut client = Client::connect(addr, "t").expect("connect");
    for _ in 0..3 {
        client.submit_nowait_ok(&graph, &job).expect("mux submit");
    }
    let ids: Vec<u64> = (0..3)
        .map(|_| client.recv_submitted().expect("mux reply"))
        .collect();
    assert_eq!(ids, [1, 2, 3]);
    for id in ids {
        let t0 = Instant::now();
        let err = client
            .wait_report(id)
            .expect_err("dead server must surface an error");
        assert!(t0.elapsed() < NO_HANG, "job {id}: wait_report hung");
        assert!(
            matches!(&err, ClientError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof),
            "job {id}: got {err:?}"
        );
    }
    server.join().expect("server thread");
}

/// `wait_report_timeout` on a connection the server silently stopped
/// writing to (no close, no frames) returns `Ok(None)` at the deadline
/// instead of blocking forever.
#[test]
fn silent_server_trips_the_timeout_not_a_hang() {
    let graph = generators::kings_graph(4, 4);
    let job = BatchJob::uniform(fast_config(), 2, 1);
    let (addr, server) = scripted_server(|stream| {
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream.try_clone().expect("clone");
        let _ = read_frame(&mut reader).expect("submit frame");
        write_frame(
            &mut writer,
            &encode_response(&Response::Submitted { job_id: 1 }),
        )
        .expect("submitted reply");
        // Hold the socket open, write nothing, until the client hangs
        // up (read returns 0/err) — a wedged server, not a dead one.
        let mut sink = [0u8; 64];
        use std::io::Read as _;
        while matches!(reader.read(&mut sink), Ok(n) if n > 0) {}
    });
    let mut client = Client::connect(addr, "t").expect("connect");
    let id = client.submit_ok(&graph, &job).expect("submit");
    let t0 = Instant::now();
    let got = client
        .wait_report_timeout(id, Duration::from_millis(200))
        .expect("timeout is not an error");
    assert!(got.is_none(), "no report was ever written");
    let waited = t0.elapsed();
    assert!(
        waited >= Duration::from_millis(150) && waited < NO_HANG,
        "timeout fired at {waited:?}"
    );
    drop(client);
    server.join().expect("server thread");
}

/// `connect_with_retry` keeps retrying `ConnectionRefused` until a
/// server appears, and gives up with the underlying error once the
/// budget is exhausted.
#[test]
fn connect_with_retry_rides_out_a_restart() {
    let policy = RetryPolicy {
        max_retries: 40,
        base_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(50),
    };
    // Reserve an address nothing listens on yet, then bring the
    // "restarted server" up after a delay shorter than the budget.
    let placeholder = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = placeholder.local_addr().expect("addr");
    drop(placeholder);
    let spawner = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        let listener = TcpListener::bind(addr).expect("rebind");
        // Serve exactly the stats round-trip the connect probe makes.
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let _ = read_frame(&mut reader).expect("stats request");
        write_frame(
            &mut writer,
            &encode_response(&Response::Error {
                code: ErrorCode::Busy,
                message: "probe answered".into(),
            }),
        )
        .expect("reply");
    });
    // The probe's typed `Busy` reply is itself retryable, so success
    // here means: refused connects were retried until the listener
    // appeared, then the probe round-tripped. A Busy probe reply after
    // that still counts as "server is back".
    let got = Client::connect_with_retry(addr, "t", policy);
    match got {
        Ok(_) => {}
        // The single-shot script above answers exactly one probe; if a
        // retry attempt consumed it the next probe sees a dead socket.
        // Either way the refused-connect phase was ridden out.
        Err(e) => assert!(is_retryable(&e), "unexpected terminal error: {e}"),
    }
    spawner.join().expect("spawner");

    // Exhaustion: nothing ever listens, the final error is the typed
    // refused-connect, and the attempt budget bounds the wall time.
    let placeholder = TcpListener::bind("127.0.0.1:0").expect("bind");
    let dead_addr = placeholder.local_addr().expect("addr");
    drop(placeholder);
    let tight = RetryPolicy {
        max_retries: 2,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(10),
    };
    let t0 = Instant::now();
    let err = match Client::connect_with_retry(dead_addr, "t", tight) {
        Err(e) => e,
        Ok(_) => panic!("nothing is listening; connect cannot succeed"),
    };
    assert!(t0.elapsed() < NO_HANG);
    assert!(
        matches!(&err, ClientError::Io(e) if e.kind() == io::ErrorKind::ConnectionRefused),
        "got {err:?}"
    );
}

/// The retryable/terminal split the backoff loop relies on.
#[test]
fn retryability_classification() {
    let io_err = |kind| ClientError::Io(io::Error::new(kind, "x"));
    for kind in [
        io::ErrorKind::ConnectionRefused,
        io::ErrorKind::ConnectionReset,
        io::ErrorKind::BrokenPipe,
        io::ErrorKind::UnexpectedEof,
        io::ErrorKind::TimedOut,
    ] {
        assert!(is_retryable(&io_err(kind)), "{kind:?}");
    }
    assert!(!is_retryable(&io_err(io::ErrorKind::PermissionDenied)));
    assert!(is_retryable(&ClientError::Server {
        code: ErrorCode::Busy,
        message: String::new(),
    }));
    for code in [
        ErrorCode::QuotaInFlight,
        ErrorCode::DeadlineExceeded,
        ErrorCode::Internal,
    ] {
        assert!(
            !is_retryable(&ClientError::Server {
                code,
                message: String::new(),
            }),
            "{code:?} must not be blind-retried"
        );
    }
}

/// The unkillable-job repro: a config asking for ~10^18 integration
/// steps (`t_init = 1e6`, `dt = 1e-12`) used to be accepted and pin a
/// worker for good. It must now be rejected at the codec with a typed
/// error — `Malformed` on the binary wire, `400` over HTTP — and a
/// second tenant's job on the same one-worker server must complete.
#[test]
fn hostile_step_count_is_rejected_and_another_tenant_completes() {
    let hostile = MsropmConfig {
        t_init: 1e6,
        dt: 1e-12,
        ..MsropmConfig::paper_default()
    };
    let graph = generators::cycle_graph(6);
    for frontend in [
        FrontendKind::Threads,
        FrontendKind::Reactor,
        FrontendKind::Http,
    ] {
        let server = ServerConfig::builder()
            .frontend(frontend)
            .workers(1)
            .bind("127.0.0.1:0")
            .expect("bind frontend");
        let addr = server.local_addr();
        let t0 = Instant::now();
        if frontend == FrontendKind::Http {
            let mut http = HttpClient::connect(addr).expect("connect http");
            let body = r#"{"tenant":"hostile","class":"max-cut",
                "input":"p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n",
                "config":{"t_init":1e6,"dt":1e-12}}"#;
            let (status, reply) = http
                .request("POST", "/v1/problems", Some(body))
                .expect("hostile problem");
            assert_eq!(status, 400, "{reply}");
            assert!(reply.contains("integration steps"), "{reply}");

            let mut other = HttpClient::connect(addr).expect("connect http");
            let body = r#"{"tenant":"other","graph":{"nodes":3,"edges":[[0,1],[1,2]]},
                "config":{"dt":0.02},"seed":5}"#;
            let (status, reply) = other
                .request_json("POST", "/v1/jobs", Some(body))
                .expect("second tenant submit");
            assert_eq!(status, 202, "{reply:?}");
            let id = json_u64(&reply, "job_id");
            loop {
                let (status, reply) = other
                    .request_json("GET", &format!("/v1/jobs/{id}?tenant=other"), None)
                    .expect("poll");
                assert_eq!(status, 200, "{reply:?}");
                if json_str(&reply, "state") == "done" {
                    break;
                }
                assert!(t0.elapsed() < NO_HANG, "second tenant's job never finished");
                std::thread::sleep(Duration::from_millis(5));
            }
        } else {
            let mut client = Client::connect(addr, "hostile").expect("connect");
            let rejected = [
                client.submit_ok(&graph, &BatchJob::uniform(hostile, 1, 1)),
                client
                    .submit_problem(
                        &ProblemSpec::MaxCut {
                            graph: graph.clone(),
                        },
                        &hostile,
                        1,
                        1,
                        &SubmitOptions::new(),
                    )
                    .map(|id| id.expect("blocking submit yields a job id")),
            ];
            for outcome in rejected {
                match outcome {
                    Err(ClientError::Server { code, message }) => {
                        assert_eq!(code, ErrorCode::Malformed, "{frontend:?}");
                        assert!(message.contains("integration steps"), "{message}");
                    }
                    other => panic!("{frontend:?}: hostile config yielded {other:?}"),
                }
            }
            let mut other = Client::connect(addr, "other").expect("connect");
            let id = other
                .submit_ok(&graph, &BatchJob::uniform(fast_config(), 1, 5))
                .expect("second tenant submit");
            let report = other.wait_report(id).expect("second tenant report");
            assert_eq!(report.ranked.len(), 1);
        }
        assert!(t0.elapsed() < NO_HANG, "{frontend:?} took too long");
        server.shutdown();
    }
}

fn json_field<'a>(value: &'a Json, key: &str) -> &'a Json {
    let Json::Obj(fields) = value else {
        panic!("expected object, got {value:?}");
    };
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing field {key:?} in {value:?}"))
}

fn json_u64(value: &Json, key: &str) -> u64 {
    json_field(value, key).as_u64().expect("u64 field")
}

fn json_str<'a>(value: &'a Json, key: &str) -> &'a str {
    json_field(value, key).as_str().expect("string field")
}
