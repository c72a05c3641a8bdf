//! Multi-connection soak of `lacr serve --socket`: four concurrent
//! clients against a two-worker daemon. The shared-pool contract under
//! test:
//!
//! * all connections share **one** pool — `stats` probes taken while
//!   every client is loading the daemon never show `inflight` above
//!   `--workers`, and `pool.workers` is the global setting, not a
//!   per-connection copy;
//! * responses route to the issuing stream — each client sees exactly
//!   its own ids (in completion order), with no cross-talk;
//! * the plan cache is daemon-wide — a request identical to one any
//!   other connection already planned answers `cached: true` with
//!   byte-identical `plan.text`;
//! * `{"cmd":"shutdown"}` on one connection drains the whole daemon:
//!   peers mid-request still get their responses, every stream then
//!   sees EOF, the process exits 0 and the socket file is removed;
//! * `--max-connections` sheds whole connections with a structured
//!   `rejected: connection-limit` line;
//! * socket binding never clobbers a live daemon or a non-socket file,
//!   and reclaims a stale socket (daemon-level regression tests for the
//!   bind rules).

#![cfg(unix)]

use lacr::bench::json::{parse_json, Json};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn bench_path() -> String {
    format!("{}/tests/data/counter3.bench", env!("CARGO_MANIFEST_DIR"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lacr_socket_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

fn spawn_daemon(socket: &Path, extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_lacr"))
        .args(["serve", "--socket"])
        .arg(socket)
        .args(extra)
        .env("RUST_BACKTRACE", "0")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon starts")
}

/// Waits until the daemon accepts connections on `socket`.
fn wait_for_socket(socket: &Path) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if UnixStream::connect(socket).is_ok() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "daemon never listened on {}",
            socket.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One protocol client over the daemon's socket.
struct Client {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    fn connect(socket: &Path) -> Self {
        let stream = UnixStream::connect(socket).expect("client connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone for reading"));
        Self { stream, reader }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stream, "{line}").expect("request written");
    }

    /// Reads one response line; `None` on EOF.
    fn recv_line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line).expect("response read") {
            0 => None,
            _ => Some(line.trim_end().to_string()),
        }
    }

    fn recv(&mut self) -> Json {
        let line = self.recv_line().expect("response before EOF");
        parse_json(&line).unwrap_or_else(|e| panic!("invalid response JSON ({e}): {line}"))
    }
}

fn num(j: &Json, path: &[&str]) -> f64 {
    let mut cur = j;
    for k in path {
        cur = cur
            .get(k)
            .unwrap_or_else(|| panic!("missing {path:?} in {j:?}"));
    }
    cur.as_num()
        .unwrap_or_else(|| panic!("{path:?} not numeric: {j:?}"))
}

fn id_of(j: &Json) -> Option<&str> {
    j.get("id").and_then(Json::as_str)
}

#[test]
fn four_clients_share_one_pool_one_cache_and_drain_cleanly() {
    let dir = tmp_dir("soak");
    let socket = dir.join("daemon.sock");
    let child = spawn_daemon(
        &socket,
        &[
            "--workers",
            "2",
            "--queue-cap",
            "64",
            "--cache-entries",
            "32",
        ],
    );
    wait_for_socket(&socket);
    let mut clients: Vec<Client> = (0..4).map(|_| Client::connect(&socket)).collect();

    // Phase A — load the shared pool from three connections at once:
    // two long sleepers fill both workers, two short ones queue behind
    // them. A fourth connection probes stats mid-load: with one shared
    // pool, global inflight can never exceed --workers even though four
    // clients are connected.
    let sleeper = |id: &str, ms: u64| {
        format!(
            r#"{{"id":"{id}","bench_path":"{}","fault":{{"sleep_ms":{ms}}}}}"#,
            bench_path()
        )
    };
    clients[0].send(&sleeper("c0-sleep", 600));
    clients[1].send(&sleeper("c1-sleep", 600));
    clients[2].send(&sleeper("c2-sleep-a", 300));
    clients[2].send(&sleeper("c2-sleep-b", 300));
    let mut max_inflight = 0.0_f64;
    for probe in 0..15 {
        clients[3].send(&format!(r#"{{"cmd":"stats","id":"probe-{probe}"}}"#));
        let snap = clients[3].recv();
        assert_eq!(id_of(&snap), Some(format!("probe-{probe}").as_str()));
        assert_eq!(
            num(&snap, &["pool", "workers"]),
            2.0,
            "one shared pool, not one per connection: {snap:?}"
        );
        let inflight = num(&snap, &["pool", "inflight"]);
        assert!(
            inflight <= 2.0,
            "global inflight exceeded --workers: {snap:?}"
        );
        max_inflight = max_inflight.max(inflight);
        assert!(num(&snap, &["pool", "queued"]) <= num(&snap, &["pool", "capacity"]));
        // All four clients are live connections of one daemon (the
        // wait_for_socket probe may still be mid-close early on, so
        // allow one extra).
        let active = num(&snap, &["connections", "active"]);
        assert!((4.0..=5.0).contains(&active), "{snap:?}");
        assert!(num(&snap, &["connections", "accepted_total"]) >= 4.0);
        std::thread::sleep(Duration::from_millis(60));
    }
    assert!(
        max_inflight >= 1.0,
        "the pool never saw the sleepers in flight"
    );

    // Each sleeper's response lands on the stream that sent it. Two
    // jobs from one connection may complete in either order (both of
    // client 2's sleepers run concurrently once the workers free up),
    // so compare ids as a set per stream.
    for (client, mut want) in [
        (0_usize, vec!["c0-sleep"]),
        (1, vec!["c1-sleep"]),
        (2, vec!["c2-sleep-a", "c2-sleep-b"]),
    ] {
        let mut got = Vec::new();
        for _ in 0..want.len() {
            let r = clients[client].recv();
            assert_eq!(r.get("status").and_then(Json::as_str), Some("ok"));
            assert_eq!(
                r.get("cached"),
                Some(&Json::Bool(false)),
                "fault-injected requests bypass the cache: {r:?}"
            );
            got.push(id_of(&r).expect("planned response has an id").to_string());
        }
        got.sort();
        want.sort();
        assert_eq!(got, want, "cross-talk on client {client}");
    }

    // Phase B — the cache is daemon-wide: client 0 plans cold, then
    // clients 1 and 2 repeat the identical request and must be answered
    // from the cache with byte-identical plan text.
    let plan_req = |id: &str| format!(r#"{{"id":"{id}","bench_path":"{}"}}"#, bench_path());
    clients[0].send(&plan_req("c0-cold"));
    let cold = clients[0].recv();
    assert_eq!(id_of(&cold), Some("c0-cold"));
    assert_eq!(cold.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(cold.get("cached"), Some(&Json::Bool(false)), "{cold:?}");
    let cold_text = cold.get("plan").and_then(|p| p.get("text"));
    assert!(cold_text.is_some(), "{cold:?}");
    for (client, id) in [(1_usize, "c1-warm"), (2, "c2-warm")] {
        clients[client].send(&plan_req(id));
        let warm = clients[client].recv();
        assert_eq!(id_of(&warm), Some(id), "cross-talk: {warm:?}");
        assert_eq!(
            warm.get("cached"),
            Some(&Json::Bool(true)),
            "cache not shared across connections: {warm:?}"
        );
        assert!(warm.get("cache_age_ms").and_then(Json::as_num).is_some());
        assert_eq!(
            warm.get("plan").and_then(|p| p.get("text")),
            cold_text,
            "warm hit must be byte-identical to the cold run"
        );
    }
    clients[3].send(r#"{"cmd":"stats","id":"probe-cache"}"#);
    let snap = clients[3].recv();
    assert!(num(&snap, &["cache", "hits"]) >= 2.0, "{snap:?}");
    assert!(num(&snap, &["cache", "entries"]) >= 1.0, "{snap:?}");

    // Phase C — shutdown on one connection drains the whole daemon:
    // client 2 is mid-request (a worker is sleeping on its job) when
    // client 0 asks for shutdown; the in-flight response still arrives
    // on client 2's stream before its EOF.
    clients[2].send(&sleeper("c2-final", 400));
    std::thread::sleep(Duration::from_millis(150)); // admitted, in flight
    clients[0].send(r#"{"cmd":"shutdown"}"#);
    let finale = clients[2].recv();
    assert_eq!(id_of(&finale), Some("c2-final"), "{finale:?}");
    assert_eq!(finale.get("status").and_then(Json::as_str), Some("ok"));
    for (i, client) in clients.iter_mut().enumerate() {
        assert_eq!(client.recv_line(), None, "client {i} expected EOF");
    }
    let out = child.wait_with_output().expect("daemon exits");
    assert_eq!(
        out.status.code(),
        Some(0),
        "daemon exit: {:?}, stderr tail: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
            .lines()
            .rev()
            .take(15)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(!socket.exists(), "socket file removed on graceful exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn connection_cap_sheds_whole_connections_with_a_structured_line() {
    let dir = tmp_dir("cap");
    let socket = dir.join("daemon.sock");
    let child = spawn_daemon(&socket, &["--workers", "1", "--max-connections", "1"]);
    wait_for_socket(&socket);
    // wait_for_socket's probe connection may still be counted until its
    // EOF is processed, so the first durable client retries until it
    // holds the single slot (confirmed by a stats round-trip).
    let mut first = loop {
        let mut candidate = Client::connect(&socket);
        candidate.send(r#"{"cmd":"stats","id":"hello"}"#);
        let reply = candidate.recv();
        if reply.get("status").and_then(Json::as_str) == Some("stats") {
            assert_eq!(id_of(&reply), Some("hello"));
            assert_eq!(num(&reply, &["connections", "max"]), 1.0);
            break candidate;
        }
        assert_eq!(
            reply.get("reason").and_then(Json::as_str),
            Some("connection-limit"),
            "{reply:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };

    // The daemon is at its cap: each further connection gets exactly one
    // rejected line, then EOF — and the daemon stays up.
    for _ in 0..3 {
        let mut shed = Client::connect(&socket);
        let line = shed.recv();
        assert_eq!(line.get("status").and_then(Json::as_str), Some("rejected"));
        assert_eq!(
            line.get("reason").and_then(Json::as_str),
            Some("connection-limit"),
            "{line:?}"
        );
        assert_eq!(num(&line, &["max"]), 1.0);
        assert_eq!(shed.recv_line(), None, "shed connection is closed");
    }

    first.send(r#"{"cmd":"stats","id":"after"}"#);
    let snap = first.recv();
    assert_eq!(id_of(&snap), Some("after"), "survivor still served");
    assert!(
        num(&snap, &["connections", "shed_total"]) >= 3.0,
        "{snap:?}"
    );
    // A shed connection sent no request: the request counts stay
    // consistent however many connections were shed.
    let completed = num(&snap, &["requests", "completed"]);
    let rejected = num(&snap, &["requests", "rejected"]);
    let received = num(&snap, &["requests", "received"]);
    assert!(completed + rejected <= received, "{snap:?}");

    first.send(r#"{"cmd":"shutdown"}"#);
    let out = child.wait_with_output().expect("daemon exits");
    assert_eq!(out.status.code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn binding_refuses_live_daemons_and_foreign_files_but_reclaims_stale_sockets() {
    let dir = tmp_dir("bind");

    // A non-socket file at the path: refused, file untouched.
    let plain = dir.join("plain.txt");
    std::fs::write(&plain, b"precious").expect("write file");
    let child = spawn_daemon(&plain, &[]);
    let out = child.wait_with_output().expect("daemon exits");
    assert_eq!(out.status.code(), Some(1), "must refuse a non-socket file");
    assert_eq!(std::fs::read(&plain).expect("file intact"), b"precious");

    // A live daemon at the path: the second daemon refuses and exits,
    // the first keeps serving.
    let socket = dir.join("live.sock");
    let first = spawn_daemon(&socket, &[]);
    wait_for_socket(&socket);
    let second = spawn_daemon(&socket, &[]);
    let refused = second.wait_with_output().expect("second daemon exits");
    assert_eq!(
        refused.status.code(),
        Some(1),
        "second daemon must refuse, stderr: {}",
        String::from_utf8_lossy(&refused.stderr)
    );
    assert!(socket.exists(), "live socket not clobbered");
    let mut client = Client::connect(&socket);
    client.send(r#"{"cmd":"stats","id":"alive"}"#);
    assert_eq!(id_of(&client.recv()), Some("alive"), "first daemon alive");
    client.send(r#"{"cmd":"shutdown"}"#);
    assert_eq!(
        first.wait_with_output().expect("first exits").status.code(),
        Some(0)
    );

    // A stale socket (file present, nobody listening): reclaimed.
    let stale = dir.join("stale.sock");
    drop(UnixListener::bind(&stale).expect("bind then abandon"));
    assert!(stale.exists(), "stale socket file left behind");
    let child = spawn_daemon(&stale, &[]);
    wait_for_socket(&stale);
    let mut client = Client::connect(&stale);
    client.send(r#"{"cmd":"stats","id":"reclaimed"}"#);
    assert_eq!(id_of(&client.recv()), Some("reclaimed"));
    client.send(r#"{"cmd":"shutdown"}"#);
    let out = child.wait_with_output().expect("daemon exits");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", {
        String::from_utf8_lossy(&out.stderr).to_string()
    });
    let _ = std::fs::remove_dir_all(&dir);
}
