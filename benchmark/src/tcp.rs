//! The three workloads that drive the real `serve tcp` binary over
//! loopback: `paced` (open loop), `pipelined` and `churn` (closed loops).

use crate::expo::Exposition;
use crate::pacer::{Action, Schedule};
use crate::pool::{request_line, Pool, PoolQuery, RequestOrder};
use crate::report::{Metric, Outcome};
use crate::server::{parse_reply, stats_field, Conn, CpuClock, ReplyLine, Server, REPLY_TIMEOUT};
use crate::stats::{
    best_cpu_us_per_sample, highest_over, percentile, slice_count, sort, Samples, Timing, COARSE_SLICE_S, FINE_SLICE_S,
    P50, P95,
};
use crate::trace::{micros, RequestRecord, Trace};
use crate::{spec, RunCfg};
use lmkg_data::{Dataset, Scale};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Model flags of every served model; the serving knobs (window, batch
/// size, queue depth, workers) are deliberately not passed.
pub const MODEL_ARGS: [&str; 10] = [
    "--sizes",
    "2,3",
    "--hidden",
    "256,256",
    "--epochs",
    "40",
    "--train-queries",
    "2000",
    "--scale",
    "default",
];
pub const MODEL_SEED: u64 = 42;

/// Offered rate of the open loop, requests per second.
const PACED_RATE: u64 = 1_000;
const PACED_UNCOVERED_SHARE: f64 = 0.1;
/// Connections (one thread each) and requests in flight per connection of
/// `pipelined`. Two threads is every core of the reference box.
const PIPELINE_CLIENTS: usize = 2;
const PIPELINE_DEPTH: usize = 256;
const SESSION_ESTIMATES: usize = 4;
/// Clients of `churn`, and how long each waits between the end of one
/// session and its next `connect()`. The server's accept loop picks sessions
/// up, and lets go of finished ones, on a 25 ms tick; a client that
/// reconnects at once races the loop for that tick and a run settles, at
/// random, on sessions of one tick or of two. The pause lets the loop win.
const CHURN_CLIENTS: usize = 2;
const CHURN_PAUSE: Duration = Duration::from_millis(1);

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Paced,
    Pipelined,
    Churn,
}

/// One served namespace as the client knows it: how to address it, its
/// pool, and the estimate the server gave each pool query before timing.
struct Tenant {
    /// `None` addresses the single `default` tenant with v1 lines.
    name: Option<&'static str>,
    pool: Pool,
    reference: Vec<f64>,
}

/// What the client threads of one measured window observed.
struct Window {
    started: Instant,
    elapsed_s: f64,
    /// Estimates asked for; the ones without an entry in `est_us` failed.
    attempted: u64,
    /// Client-observed time of every correct estimate, µs.
    est_us: Samples,
    /// `churn`: connect to end of stream, µs.
    session_us: Samples,
    /// `paced`: how late each request left, µs.
    send_lag_us: Samples,
    /// Traced windows only.
    records: Vec<RequestRecord>,
    /// Why estimates failed, by kind; what is left had no reply at all.
    reasons: BTreeMap<&'static str, u64>,
    /// (Seconds into the window, CPU seconds the server had used by then) at
    /// the boundaries of the coarse slices, the window's start and end
    /// included.
    cpu_marks: Vec<(f64, f64)>,
}

impl Window {
    fn new(started: Instant) -> Window {
        Window {
            started,
            elapsed_s: 0.0,
            attempted: 0,
            est_us: Samples::default(),
            session_us: Samples::default(),
            send_lag_us: Samples::default(),
            records: Vec::new(),
            reasons: BTreeMap::new(),
            cpu_marks: Vec::new(),
        }
    }

    /// Seconds into the window.
    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.started).as_secs_f64()
    }

    /// Correct estimates per second in the window's best slice.
    fn est_per_s(&self) -> f64 {
        let slices = slice_count(self.elapsed_s, FINE_SLICE_S);
        let slice_s = self.elapsed_s / slices as f64;
        highest_over(&self.est_us.slices(self.elapsed_s, slices), |slice| {
            slice.len() as f64 / slice_s
        })
    }

    fn merge(&mut self, other: Window) {
        self.attempted += other.attempted;
        self.est_us.extend(other.est_us);
        self.session_us.extend(other.session_us);
        self.send_lag_us.extend(other.send_lag_us);
        self.records.extend(other.records);
        for (why, n) in other.reasons {
            *self.reasons.entry(why).or_default() += n;
        }
    }

    fn note(&mut self, why: &'static str) {
        *self.reasons.entry(why).or_default() += 1;
    }

    /// A reply that is no `OK`, or an `OK` nothing was waiting for.
    fn note_reply(&mut self, reply: &ReplyLine<'_>) {
        self.note(match reply {
            ReplyLine::Ok { .. } => "unmatched-id",
            ReplyLine::Other("OVERLOADED") => "overloaded",
            ReplyLine::Other("ERR") => "err",
            ReplyLine::Other(_) => "unexpected-reply",
        });
    }

    fn failures(&self) -> Vec<(&'static str, u64)> {
        let mut list: Vec<_> = self.reasons.iter().map(|(why, n)| (*why, *n)).collect();
        let explained: u64 = list.iter().map(|(_, n)| n).sum();
        if self.failed() > explained {
            list.push(("no-reply", self.failed() - explained));
        }
        list
    }

    fn correct(&self) -> u64 {
        self.est_us.len() as u64
    }

    fn failed(&self) -> u64 {
        self.attempted - self.correct()
    }
}

pub fn run(kind: Kind, cfg: &RunCfg, trace: &mut Trace) -> Result<Outcome, String> {
    let name = match kind {
        Kind::Paced => spec::PACED,
        Kind::Pipelined => spec::PIPELINED,
        Kind::Churn => spec::CHURN,
    };
    // Pools first: generating and labelling them is the benchmark's own
    // cost and stays outside every timing.
    let lubm = Dataset::LubmLike.generate(Scale::Default, MODEL_SEED);
    let mut tenants = match kind {
        Kind::Churn => {
            let swdf = Dataset::SwdfLike.generate(Scale::Default, 7);
            vec![
                Tenant {
                    name: Some("a"),
                    pool: Pool::generate(&lubm, 250, 0),
                    reference: Vec::new(),
                },
                Tenant {
                    name: Some("b"),
                    pool: Pool::generate(&swdf, 250, 0),
                    reference: Vec::new(),
                },
            ]
        }
        _ => vec![Tenant {
            name: None,
            pool: Pool::generate(&lubm, 500, 150),
            reference: Vec::new(),
        }],
    };

    let mut args: Vec<String> = MODEL_ARGS.iter().map(|s| s.to_string()).collect();
    match kind {
        Kind::Churn => args.extend(["--tenant", "a=lubm:default:42", "--tenant", "b=swdf:default:7"].map(String::from)),
        _ => args.extend(["--dataset", "lubm", "--seed", "42"].map(String::from)),
    }
    let log = cfg.out_dir.join(format!("serve-{name}.log"));
    let (server, first_setup_s) = Server::start(&cfg.serve_bin, &args, &log)?;

    preflight(server.addr, &tenants)?;
    for tenant in &mut tenants {
        tenant.reference = reference_pass(server.addr, tenant)?;
    }
    let mut qerrors: Vec<f64> = tenants
        .iter()
        .flat_map(|t| {
            t.pool
                .queries
                .iter()
                .zip(&t.reference)
                .map(|(q, est)| lmkg::q_error(*est, q.exact))
        })
        .collect();
    sort(&mut qerrors);

    // The reference pass warmed the model's paths; a short stretch of the
    // workload's own traffic settles threads, sockets and the accept loop.
    window(kind, &server, &tenants, cfg.seed, crate::WARMUP_SECONDS, false)?;

    let mut out = Outcome::default();
    if cfg.traced {
        // A short untraced window first: the ratio of the two medians is
        // what recording spans costs the client.
        let plain = window(kind, &server, &tenants, cfg.seed, cfg.seconds / 4.0, false)?;
        let own_cpu = CpuClock::OWN.seconds()?;
        let traced = window(kind, &server, &tenants, cfg.seed, cfg.seconds / 2.0, true)?;
        let own_cpu = CpuClock::OWN.seconds()? - own_cpu;
        out.attempted = traced.attempted;
        out.failed = traced.failed();
        out.failures = traced.failures();
        traced_metrics(kind, &server, &tenants, &plain, &traced, own_cpu, &mut out)?;
        trace.requests = traced.records;
    } else {
        let w = window(kind, &server, &tenants, cfg.seed, cfg.seconds, false)?;
        out.attempted = w.attempted;
        out.failed = w.failed();
        out.failures = w.failures();

        let timing = Timing::of(&w.est_us, w.elapsed_s);
        out.push("est_p50_us", timing.p50, timing.n as u64);
        out.metrics
            .push(Metric::new("est_p99_us", timing.tail, timing.n as u64).noted(tail_note(&timing)));
        out.push("est_per_s", w.est_per_s(), w.correct());
        out.push(
            "cpu_us_per_est",
            best_cpu_us_per_sample(&w.cpu_marks, &w.est_us),
            w.correct(),
        );
        out.push("qerror_p50", percentile(&qerrors, P50), qerrors.len() as u64);
        out.push("qerror_p95", percentile(&qerrors, P95), qerrors.len() as u64);
        let mut conn = Conn::open(server.addr).map_err(|e| e.to_string())?;
        let mut model_bytes = 0.0;
        for tenant in &tenants {
            let request = match tenant.name {
                Some(t) => format!("STATS {t} end"),
                None => "STATS end".to_string(),
            };
            let reply = conn.ask(&request)?;
            model_bytes += stats_field(&reply, "model").ok_or_else(|| format!("no model= in {reply:?}"))?;
        }
        out.push("model_bytes", model_bytes, 1);
        out.push("rss_peak_mb", server.rss_peak_mb(), 1);
        // The other set-ups come after the window, not before it: seconds of
        // training on every core right before a mostly idle window leave the
        // box in a state (on a shared host: out of favour with its
        // scheduler) that shows in the window's tail.
        drop(server);
        let mut setups = vec![first_setup_s];
        for _ in 1..cfg.setups {
            setups.push(Server::start(&cfg.serve_bin, &args, &log)?.1);
        }
        out.metrics.insert(
            0,
            Metric::new("setup_s", crate::stats::median(setups.clone()), setups.len() as u64),
        );
        out.push(
            "failed_share",
            w.failed() as f64 / w.attempted.max(1) as f64,
            w.attempted,
        );
        if kind == Kind::Churn {
            let sessions = Timing::of(&w.session_us, w.elapsed_s);
            out.push("session_p50_us", sessions.p50, sessions.n as u64);
            out.metrics
                .push(Metric::new("session_p99_us", sessions.tail, sessions.n as u64).noted(tail_note(&sessions)));
        }
        if kind == Kind::Paced {
            if timing.tail > spec::PACED_P99_LIMIT_US {
                out.invalid.push(format!(
                    "est_p99_us {:.0} is over the {} us limit",
                    timing.tail,
                    spec::PACED_P99_LIMIT_US
                ));
            }
            send_lag_p99(&w, &mut out);
        }
    }
    Ok(out)
}

fn tail_note(t: &Timing) -> String {
    let mut note = format!("p{}", t.tail_p);
    if let Some(p999) = t.p999 {
        note.push_str(&format!(", p99.9 = {p999:.0} (not gated)"));
    }
    note
}

/// How late the open-loop sender ran at p99, µs, in the window's best slice
/// like every other timing: a sender that cannot keep up is late in every
/// slice, one hiccup of the host is not. A run over the limit is marked.
fn send_lag_p99(w: &Window, out: &mut Outcome) -> f64 {
    let p99 = Timing::of(&w.send_lag_us, w.elapsed_s).tail;
    if p99 > spec::SEND_LAG_LIMIT_US {
        out.invalid.push(format!(
            "the open-loop sender ran {p99:.0} us late at p99 (limit {})",
            spec::SEND_LAG_LIMIT_US
        ));
    }
    p99
}

/// The output checks every server must pass before it is measured.
fn preflight(addr: SocketAddr, tenants: &[Tenant]) -> Result<(), String> {
    let mut conn = Conn::open(addr).map_err(|e| format!("preflight: {e}"))?;
    let expected: Vec<&str> = tenants.iter().map(|t| t.name.unwrap_or("default")).collect();
    let reply = conn.ask("TENANTS p0")?;
    if reply != format!("TENANTS p0 {}", expected.join(" ")) {
        return Err(format!("preflight: TENANTS listed {reply:?}, expected {expected:?}"));
    }
    let reply = conn.ask("BOGUS line")?;
    if !reply.starts_with("ERR - code=parse ") {
        return Err(format!("preflight: a malformed line got {reply:?}"));
    }
    let some = &tenants[0].pool.queries[0];
    let reply = conn.ask(&format!("EST no-such-tenant p2 {}", some.sparql))?;
    if !reply.starts_with("ERR p2 code=unknown-tenant ") {
        return Err(format!("preflight: an unknown tenant got {reply:?}"));
    }
    for tenant in tenants {
        let mut estimates = Vec::new();
        for id in [3, 4] {
            let reply = conn.ask(request_line(tenant.name, id, some_query(tenant)).trim_end())?;
            match parse_reply(&reply) {
                ReplyLine::Ok { id: got, estimate, .. } if got == id => estimates.push(estimate.to_bits()),
                _ => return Err(format!("preflight: an estimate request got {reply:?}")),
            }
        }
        if estimates[0] != estimates[1] {
            return Err("preflight: the same query twice gave two different estimates".into());
        }
    }
    conn.quit().map_err(|e| format!("preflight: QUIT: {e}"))
}

fn some_query(tenant: &Tenant) -> &PoolQuery {
    &tenant.pool.queries[tenant.pool.queries.len() / 2]
}

/// Asks for every pool query once, pipelined, before any timing. The
/// answers are the q-error sample and the reference each timed reply is
/// compared with, bit for bit; the pass also warms the server up.
fn reference_pass(addr: SocketAddr, tenant: &Tenant) -> Result<Vec<f64>, String> {
    let mut conn = Conn::open(addr).map_err(|e| e.to_string())?;
    let queries = &tenant.pool.queries;
    let mut reference = vec![f64::NAN; queries.len()];
    let mut line = String::new();
    for (chunk_no, chunk) in queries.chunks(PIPELINE_DEPTH).enumerate() {
        let base = chunk_no * PIPELINE_DEPTH;
        let batch: String = chunk
            .iter()
            .enumerate()
            .map(|(i, q)| request_line(tenant.name, (base + i) as u64, q))
            .collect();
        conn.send(batch.as_bytes()).map_err(|e| e.to_string())?;
        for _ in chunk {
            if !conn.read_line(&mut line).map_err(|e| format!("reference pass: {e}"))? {
                return Err("reference pass: connection closed".into());
            }
            match parse_reply(&line) {
                ReplyLine::Ok { id, estimate, .. }
                    if (base..base + chunk.len()).contains(&(id as usize))
                        && reference[id as usize].is_nan()
                        && estimate.is_finite()
                        && estimate >= 1.0 =>
                {
                    reference[id as usize] = estimate
                }
                _ => return Err(format!("reference pass: unusable reply {line:?}")),
            }
        }
    }
    conn.quit().map_err(|e| e.to_string())?;
    Ok(reference)
}

/// Runs the workload's client threads against `server` for `seconds`. A
/// sampler thread, asleep but for one wake-up per coarse slice, reads the
/// server's CPU clock meanwhile.
fn window(
    kind: Kind,
    server: &Server,
    tenants: &[Tenant],
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Window, String> {
    let addr = server.addr;
    let cpu = server.cpu_clock();
    let started = Instant::now();
    let end = started + Duration::from_secs_f64(seconds);
    let clients = match kind {
        Kind::Paced => 1,
        Kind::Pipelined => PIPELINE_CLIENTS,
        Kind::Churn => CHURN_CLIENTS,
    };
    let mark = move || Ok::<_, String>((started.elapsed().as_secs_f64(), cpu.seconds()?));
    let (parts, cpu_marks) = std::thread::scope(|s| {
        let sampler = s.spawn(move || {
            let slices = slice_count(seconds, COARSE_SLICE_S);
            (0..slices)
                .map(|slice| {
                    let due = started + Duration::from_secs_f64(seconds * slice as f64 / slices as f64);
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    mark()
                })
                .collect::<Result<Vec<_>, _>>()
        });
        let threads: Vec<_> = (0..clients)
            .map(|client| {
                s.spawn(move || match kind {
                    Kind::Paced => paced(addr, &tenants[0], seed, started, end, traced),
                    Kind::Pipelined => pipelined(addr, &tenants[0], seed, client, started, end, traced),
                    Kind::Churn => churn(addr, tenants, seed, client, started, end, traced),
                })
            })
            .collect();
        let parts: Vec<Window> = threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect();
        (parts, sampler.join().expect("sampler thread panicked"))
    });
    let mut total = Window::new(started);
    for part in parts {
        total.merge(part);
    }
    // A closed loop ends when the last reply is in, a little after `end`; an
    // open loop offers its rate for exactly the window.
    total.elapsed_s = match kind {
        Kind::Paced => seconds,
        _ => started.elapsed().as_secs_f64(),
    };
    total.cpu_marks = cpu_marks?;
    total.cpu_marks.push(mark()?);
    Ok(total)
}

/// What a client thread returns when it cannot even connect: one attempt,
/// failed.
fn unreachable_server(started: Instant) -> Window {
    Window {
        attempted: 1,
        ..Window::new(started)
    }
}

/// One `OK` reply, with what the client knows about its request.
struct Answer {
    id: u64,
    /// The pool query the request carried.
    q: u32,
    estimate: f64,
    inside_us: f64,
    /// When the clock of the request started.
    due: Instant,
    /// Start and end of the write that carried it.
    sent: (Instant, Instant),
    received: Instant,
}

impl Window {
    /// Checks an answer against the reference and, when it is correct and in
    /// time, books its latency (and its record in a traced window). An answer
    /// that is not booked leaves no entry in `est_us`: it has failed.
    fn book(&mut self, traced: bool, tenant: &Tenant, a: Answer) {
        let correct = a.estimate.to_bits() == tenant.reference[a.q as usize].to_bits();
        let parsed = Instant::now();
        let elapsed = parsed.saturating_duration_since(a.due);
        if !correct || elapsed > REPLY_TIMEOUT {
            self.note(if correct { "late" } else { "wrong-estimate" });
            return;
        }
        self.est_us.push(self.at(parsed), elapsed.as_secs_f64() * 1e6);
        if traced {
            self.records.push(RequestRecord {
                id: a.id,
                due: a.due,
                send_start: a.sent.0,
                send_end: a.sent.1,
                received: a.received,
                parsed,
                inside_us: a.inside_us,
            });
        }
    }
}

fn timed_out(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Open loop: one connection, a sender thread that writes request `i` at
/// `start + i / rate` whatever the server does, and a reader thread. Latency
/// runs from the due time, so a stall is charged to every request it delays.
fn paced(addr: SocketAddr, tenant: &Tenant, seed: u64, started: Instant, end: Instant, traced: bool) -> Window {
    let Ok(mut conn) = Conn::open_live(addr) else {
        return unreachable_server(started);
    };
    let Ok(mut stream) = conn.stream.try_clone() else {
        return unreachable_server(started);
    };
    let mut w = Window::new(started);
    let schedule = Schedule::new(PACED_RATE);
    // Every line is formatted before the clock starts; the few that no
    // longer fit into the window after that are dropped.
    let at_most = schedule.due_before(end.saturating_duration_since(Instant::now()));
    let order: Vec<u32> = RequestOrder::new(&tenant.pool, seed, 0, PACED_UNCOVERED_SHARE)
        .take(at_most as usize)
        .collect();
    let mut lines: Vec<String> = order
        .iter()
        .enumerate()
        .map(|(i, &q)| request_line(tenant.name, i as u64, &tenant.pool.queries[q as usize]))
        .collect();
    let start = Instant::now() + Duration::from_millis(2);
    let total = schedule.due_before(end.saturating_duration_since(start)).min(at_most);
    lines.truncate(total as usize);
    let sender_done = AtomicBool::new(false);

    // Per request: start and end of its write.
    let sent: Vec<(Instant, Instant)> = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut sent = Vec::with_capacity(lines.len());
            std::thread::sleep(start.saturating_duration_since(Instant::now()));
            for (i, line) in lines.iter().enumerate() {
                let now = Instant::now().saturating_duration_since(start);
                if let Action::Wait(early) = schedule.action(i as u64, now) {
                    std::thread::sleep(early);
                }
                let send_start = Instant::now();
                if stream.write_all(line.as_bytes()).is_err() {
                    break;
                }
                sent.push((send_start, Instant::now()));
            }
            sender_done.store(true, Ordering::SeqCst);
            sent
        });

        let mut seen = vec![false; lines.len()];
        let mut replies = 0;
        let mut line = String::new();
        while replies < total {
            match conn.read_line(&mut line) {
                Ok(true) => {}
                Ok(false) => break,
                // Nothing for a whole reply timeout: wait on while requests
                // are still being sent, give up on the rest afterwards.
                Err(e) if timed_out(&e) && !sender_done.load(Ordering::SeqCst) => continue,
                Err(_) => break,
            }
            let received = Instant::now();
            replies += 1;
            match parse_reply(&line) {
                ReplyLine::Ok {
                    id,
                    estimate,
                    inside_us,
                } if id < total && !std::mem::replace(&mut seen[id as usize], true) => {
                    let due = start + schedule.due(id);
                    // The send times are the sender's; they are filled in
                    // below, once it has been joined.
                    let (q, sent) = (order[id as usize], (due, due));
                    w.book(
                        traced,
                        tenant,
                        Answer {
                            id,
                            q,
                            estimate,
                            inside_us,
                            due,
                            sent,
                            received,
                        },
                    );
                }
                // OVERLOADED, ERR, an unknown or a repeated id.
                other => w.note_reply(&other),
            }
        }
        sender.join().expect("sender thread panicked")
    });
    for record in &mut w.records {
        (record.send_start, record.send_end) = sent[record.id as usize];
    }
    for (i, (send_start, _)) in sent.iter().enumerate() {
        let lag = micros(start + schedule.due(i as u64), *send_start);
        w.send_lag_us.push(w.at(*send_start), lag);
    }
    // Everything due in the window was attempted, sent or not.
    w.attempted = total;
    let _ = conn.quit();
    w
}

/// Closed loop: `PIPELINE_DEPTH` requests in flight on one connection; each
/// reply is answered with a new request until the window closes.
fn pipelined(
    addr: SocketAddr,
    tenant: &Tenant,
    seed: u64,
    client: usize,
    started: Instant,
    end: Instant,
    traced: bool,
) -> Window {
    /// One request in flight. Replies come back in any order, so a request
    /// lives in a slot and carries the slot in its id: `slot + DEPTH * uses`.
    /// A reply whose id is not the slot's current one is stale or repeated.
    #[derive(Clone)]
    struct Slot {
        /// The id of the request the slot holds (or held last).
        id: u64,
        q: u32,
        sent: Instant,
        open: bool,
    }
    const DEPTH: u64 = PIPELINE_DEPTH as u64;
    let Ok(mut conn) = Conn::open_live(addr) else {
        return unreachable_server(started);
    };
    let mut w = Window::new(started);
    let mut order = RequestOrder::new(&tenant.pool, seed, client as u64, 0.0);
    let mut slots: Vec<Slot> = (0..DEPTH)
        .map(|i| Slot {
            id: i,
            q: 0,
            sent: Instant::now(),
            open: false,
        })
        .collect();
    let mut free: Vec<usize> = (0..PIPELINE_DEPTH).rev().collect();
    let mut wbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut line = String::new();
    'session: loop {
        if Instant::now() < end {
            while let Some(i) = free.pop() {
                let q = order.next().expect("the order is endless");
                let id = slots[i].id;
                slots[i] = Slot {
                    id,
                    q,
                    sent: Instant::now(),
                    open: true,
                };
                let sparql = &tenant.pool.queries[q as usize].sparql;
                writeln!(wbuf, "EST {id} {sparql}").expect("writing to a Vec cannot fail");
                w.attempted += 1;
            }
        }
        if !wbuf.is_empty() {
            if conn.send(&wbuf).is_err() {
                break;
            }
            wbuf.clear();
        }
        if free.len() == PIPELINE_DEPTH {
            break; // the window is over and nothing is in flight
        }
        // Block for one reply, then take every reply already buffered.
        loop {
            match conn.read_line(&mut line) {
                Ok(true) => {}
                _ => break 'session, // closed, or nothing for a reply timeout
            }
            let received = Instant::now();
            match parse_reply(&line) {
                ReplyLine::Ok {
                    id,
                    estimate,
                    inside_us,
                } if slots[id as usize % PIPELINE_DEPTH].open && slots[id as usize % PIPELINE_DEPTH].id == id => {
                    let i = id as usize % PIPELINE_DEPTH;
                    slots[i].open = false;
                    slots[i].id += DEPTH; // the id of the slot's next request
                    free.push(i);
                    // Requests leave in batched writes, so the client's
                    // send span is empty: the clock starts when the request
                    // is generated.
                    let (q, due) = (slots[i].q, slots[i].sent);
                    let sent = (due, due);
                    w.book(
                        traced,
                        tenant,
                        Answer {
                            id,
                            q,
                            estimate,
                            inside_us,
                            due,
                            sent,
                            received,
                        },
                    );
                }
                // A slot whose request was refused stays taken: the loop
                // runs that much shallower, and the request counts as failed.
                other => w.note_reply(&other),
            }
            if free.len() == PIPELINE_DEPTH || !conn.has_buffered_line() {
                break;
            }
        }
    }
    let _ = conn.quit();
    w
}

/// Closed loop of short sessions: connect, four estimates and a `STATS` to
/// one tenant, read the five replies, `QUIT`, read to end of stream, pause.
fn churn(
    addr: SocketAddr,
    tenants: &[Tenant],
    seed: u64,
    client: usize,
    started: Instant,
    end: Instant,
    traced: bool,
) -> Window {
    let mut w = Window::new(started);
    let mut orders: Vec<RequestOrder> = tenants
        .iter()
        .enumerate()
        .map(|(t, tenant)| RequestOrder::new(&tenant.pool, seed, (client * tenants.len() + t) as u64, 0.0))
        .collect();
    let mut line = String::new();
    let mut session_no = client; // the clients start on different tenants
    let mut next_id = 0u64;
    while Instant::now() < end {
        let t = session_no % tenants.len();
        let tenant = &tenants[t];
        session_no += 1;
        let first_id = next_id;
        let mut qs = [0u32; SESSION_ESTIMATES];
        let mut batch = String::new();
        for q in &mut qs {
            *q = orders[t].next().expect("endless order");
            batch.push_str(&request_line(tenant.name, next_id, &tenant.pool.queries[*q as usize]));
            next_id += 1;
        }
        batch.push_str(&format!("STATS {} s\n", tenant.name.unwrap_or("default")));
        w.attempted += SESSION_ESTIMATES as u64;

        let connect_start = Instant::now();
        let correct_before = w.est_us.len();
        let session = (|| -> std::io::Result<bool> {
            let mut conn = Conn::open(addr)?;
            let send_start = Instant::now();
            conn.send(batch.as_bytes())?;
            let send_end = Instant::now();
            let mut seen = [false; SESSION_ESTIMATES];
            let mut stats_seen = false;
            for _ in 0..SESSION_ESTIMATES + 1 {
                if !conn.read_line(&mut line)? {
                    return Ok(false);
                }
                let received = Instant::now();
                match parse_reply(&line) {
                    ReplyLine::Ok {
                        id,
                        estimate,
                        inside_us,
                    } if id >= first_id && id < next_id && !seen[(id - first_id) as usize] => {
                        let i = (id - first_id) as usize;
                        seen[i] = true;
                        let (q, due, sent) = (qs[i], connect_start, (send_start, send_end));
                        w.book(
                            traced,
                            tenant,
                            Answer {
                                id,
                                q,
                                estimate,
                                inside_us,
                                due,
                                sent,
                                received,
                            },
                        );
                    }
                    ReplyLine::Other("STATS") if !stats_seen && stats_field(&line, "model").is_some() => {
                        stats_seen = true
                    }
                    _ => return Ok(false),
                }
            }
            conn.quit()?;
            Ok(stats_seen)
        })();
        if matches!(session, Ok(true)) && w.est_us.len() - correct_before == SESSION_ESTIMATES {
            let session_end = Instant::now();
            w.session_us.push(w.at(session_end), micros(connect_start, session_end));
        } else {
            // A broken session fails all of its estimates.
            w.est_us.truncate(correct_before);
            if traced {
                w.records.retain(|r| r.id < first_id);
            }
        }
        std::thread::sleep(CHURN_PAUSE);
    }
    w
}

/// Per-layer metrics of the serving crates on this workload: the client's
/// spans, the replies' `us=` field and the server's final `METRICS` scrape.
fn traced_metrics(
    kind: Kind,
    server: &Server,
    tenants: &[Tenant],
    plain: &Window,
    traced: &Window,
    own_cpu_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let n = traced.records.len() as u64;
    let median_of = |f: fn(&RequestRecord) -> f64| crate::stats::median(traced.records.iter().map(f).collect());
    out.push("serve.server.outside_us_p50", median_of(RequestRecord::outside_us), n);
    let inside = median_of(|r| r.inside_us);
    out.push("serve.batcher.inside_us_p50", inside, n);

    // Transport-level counters carry no tenant and land on the first one;
    // on `churn` the stage histograms are tenant a's, b's look the same.
    let mut conn = Conn::open(server.addr).map_err(|e| e.to_string())?;
    let text = conn.scrape(tenants[0].name)?;
    let expo = Exposition::parse(&text);
    let counter = |name: &str| expo.value(name, "").unwrap_or(0.0);
    out.push("serve.server.sessions", counter("lmkg_sessions_total"), 1);
    out.push("serve.server.bytes_read", counter("lmkg_bytes_read_total"), 1);
    out.push("serve.server.bytes_written", counter("lmkg_bytes_written_total"), 1);
    out.push("serve.server.parse_errors", counter("lmkg_parse_errors_total"), 1);
    out.push("serve.batcher.batches", counter("lmkg_batches_total"), 1);
    out.push("serve.batcher.shed", counter("lmkg_requests_shed_total"), 1);
    let batch_size = expo.hist("lmkg_batch_size", "");
    out.push(
        "serve.batcher.batch_size_mean",
        batch_size.mean(),
        batch_size.count as u64,
    );
    let mut stage = |metric: &'static str, stage: &str| {
        let h = expo.hist("lmkg_stage_us", &format!("stage=\"{stage}\""));
        out.push(metric, h.quantile(0.5), h.count as u64);
        h.quantile(0.5)
    };
    let admission = stage("serve.batcher.admission_us_p50", "admission");
    stage("serve.batcher.batch_us_p50", "batch");
    let forward = stage("serve.batcher.forward_us_p50", "forward");
    let reply = stage("serve.batcher.reply_us_p50", "reply");

    let lag_p99 = send_lag_p99(traced, out);
    out.push("loadgen.send_lag_us_p99", lag_p99, traced.send_lag_us.len() as u64);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    out.push("loadgen.cpu_share", own_cpu_s / (traced.elapsed_s * cores), 1);
    let p50 = |w: &Window| {
        let samples = if kind == Kind::Churn { &w.session_us } else { &w.est_us };
        Timing::of(samples, w.elapsed_s).p50
    };
    let traced_p50 = p50(traced);
    out.push(
        "loadgen.trace_overhead_ratio",
        traced_p50 / p50(plain).max(f64::MIN_POSITIVE),
        n,
    );

    // The budget's serving rows; the probes add transport and SPARQL
    // parsing, which are measured outside any workload. The stage
    // histograms count the batch stage once per batch, but a request only
    // waits for the rest of its batch's window: its share is what the
    // reply's own `us=` leaves after the other three stages.
    out.push("budget.total_us", traced_p50, n);
    out.push("budget.admission_us", admission, 1);
    out.push("budget.batch_us", (inside - admission - forward - reply).max(0.0), 1);
    out.push("budget.forward_us", forward, 1);
    out.push("budget.reply_us", reply, 1);
    Ok(())
}
