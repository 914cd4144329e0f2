//! The end-to-end workload runners: each runs the release `p4bid` binary
//! the way users do (`batch DIR`, a `serve --socket` daemon, `topo
//! MANIFEST`), times it from outside, and checks every verdict.

use crate::gen::{self, EditKind, Expect, Fabric, Labeled, WorkingSet};
use crate::oracle::{self, Tally, TopoAnswer};
use crate::util::{median, parse_json, push_json_str, quantile, Json, Metrics};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What every workload runner needs. The process's working directory is the run's
/// work directory; everything it writes lands there.
pub struct Ctx {
    pub p4bid: PathBuf,
    pub root: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub jobs: usize,
}

/// One workload run: verdict tally, metrics, and the descriptive lines
/// (corpus shape, rates, counters) printed ahead of the result.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// `--setup` repetitions: set-up time is the median of these.
const SETUP_REPS: usize = 9;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
}

/// `getrusage(RUSAGE_CHILDREN)`: the children waited for so far.
fn children_usage() -> [i64; 18] {
    let mut usage = [0i64; 18];
    // SAFETY: `struct rusage` on 64-bit Linux is two `timeval`s (4 longs)
    // followed by 14 longs: exactly 18 `i64`s, which `usage` provides.
    // RUSAGE_CHILDREN is -1.
    let rc = unsafe { getrusage(-1, &mut usage) };
    if rc == 0 {
        usage
    } else {
        [0; 18]
    }
}

/// Peak resident set of the largest child waited for so far, in MB.
fn children_peak_rss_mb() -> f64 {
    children_usage()[4] as f64 / 1024.0
}

/// User plus system CPU time of the children waited for so far, in ms.
fn children_cpu_ms() -> f64 {
    let u = children_usage();
    (u[0] + u[2]) as f64 * 1e3 + (u[1] + u[3]) as f64 / 1e3
}

/// `VmHWM` of a live process, in MB.
fn vm_hwm_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `p4bid ARGS` to completion, returning its stdout and wall time. A
/// run that crashes or refuses its input leaves no parseable report, which
/// the caller counts as failed verdicts.
fn run_cli(ctx: &Ctx, args: &[&str]) -> Result<(String, Duration), String> {
    let t0 = Instant::now();
    let mut child = Command::new(&ctx.p4bid)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot run p4bid: {e}"))?;
    let mut out = String::new();
    let read = child.stdout.take().expect("stdout is piped").read_to_string(&mut out);
    child.wait().map_err(|e| e.to_string())?;
    let wall = t0.elapsed();
    read.map_err(|e| e.to_string())?;
    Ok((out, wall))
}

/// Checks a `p4bid batch --json` report; an unparseable one fails every
/// expected input.
fn check_batch_report(text: &str, expect: &HashMap<String, Expect>, what: &str, tally: &mut Tally) {
    match parse_json(text) {
        Ok(report) => oracle::check_programs(&report, expect, what, tally),
        Err(e) => {
            tally.attempted += expect.len() as u64;
            for name in expect.keys() {
                tally.fail(format!("{what}/{name}: unreadable report ({e})"));
            }
        }
    }
}

/// Checks a `p4bid topo --json` report; an unparseable one is one failure.
fn check_topo_report(
    text: &str,
    answer: &TopoAnswer,
    what: &str,
    tally: &mut Tally,
) -> Option<Json> {
    match parse_json(text) {
        Ok(report) => {
            oracle::check_topo(&report, answer, what, tally);
            Some(report)
        }
        Err(e) => {
            tally.attempted += 1;
            tally.fail(format!("{what}: unreadable report ({e})"));
            None
        }
    }
}

fn write_file(path: impl AsRef<Path>, text: &str) -> Result<(), String> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn dist_note(what: &str, xs: &[f64]) -> String {
    format!(
        "{what}: p50 {:.0}, p90 {:.0}, p99 {:.0}, max {:.0}",
        quantile(xs, 0.5),
        quantile(xs, 0.9),
        quantile(xs, 0.99),
        quantile(xs, 1.0)
    )
}

/// Corpus-shape lines: distinct sources, size percentiles, reject share.
pub fn shape_notes(out: &mut Outcome, label: &str, inputs: &[(&str, &Expect)]) {
    let distinct: std::collections::HashSet<&str> = inputs.iter().map(|(s, _)| *s).collect();
    let bytes: Vec<f64> = inputs.iter().map(|(s, _)| s.len() as f64).collect();
    let lines: Vec<f64> = inputs.iter().map(|(s, _)| s.lines().count() as f64).collect();
    let items: Vec<f64> = inputs
        .iter()
        .map(|(s, _)| {
            p4bid_syntax::item_chains(s).len() as f64 // segmentation only; no checking
        })
        .collect();
    let tokens: Vec<f64> =
        inputs.iter().map(|(s, _)| p4bid_syntax::lex(s).map_or(0, |t| t.len()) as f64).collect();
    let rejects = inputs.iter().filter(|(_, e)| !e.accept).count();
    let malformed = inputs.iter().filter(|(_, e)| e.codes.contains("E-MALFORMED")).count();
    out.note(format!(
        "{label}: {} inputs, {} distinct sources, {:.1}% expected rejects, {:.1}% malformed",
        inputs.len(),
        distinct.len(),
        100.0 * rejects as f64 / inputs.len().max(1) as f64,
        100.0 * malformed as f64 / inputs.len().max(1) as f64
    ));
    out.note(dist_note(&format!("{label} bytes"), &bytes));
    out.note(dist_note(&format!("{label} lines"), &lines));
    out.note(dist_note(&format!("{label} tokens"), &tokens));
    out.note(dist_note(&format!("{label} items"), &items));
}

// ---------------------------------------------------------------------
// batch-mixed
// ---------------------------------------------------------------------

/// Generated programs in the `batch-mixed` corpus (plus the hand-labelled
/// case studies and checker testdata).
pub const BATCH_PROGRAMS: usize = 3000;
/// The corpus is split into this many directories, one `p4bid batch` run
/// each, so a run yields enough batch timings for a median and a tail.
pub const BATCH_SHARDS: usize = 12;

/// The full `batch-mixed` input set with its known answers.
pub fn batch_inputs(ctx: &Ctx) -> Result<Vec<Labeled>, String> {
    let mut all = gen::batch_corpus(ctx.seed, BATCH_PROGRAMS);
    all.extend(gen::hand_labeled(&ctx.root)?);
    Ok(all)
}

pub fn batch_mixed(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let corpus = batch_inputs(ctx)?;
    let shape: Vec<(&str, &Expect)> =
        corpus.iter().map(|l| (l.source.as_str(), &l.expect)).collect();
    shape_notes(out, "corpus", &shape);
    let group_b = corpus.iter().filter(|l| l.name.ends_with("-b.p4")).count();
    out.note(format!(
        "policy: {:.1}% of programs routed to the second option set (*-b.p4)",
        100.0 * group_b as f64 / corpus.len() as f64
    ));
    write_file("policy.pack", &gen::policy_pack(&corpus))?;
    // Deal programs to shards largest first, so every shard holds the same
    // size mix and shard timings differ by noise, not by content.
    let mut by_size: Vec<usize> = (0..corpus.len()).collect();
    by_size.sort_by_key(|&i| std::cmp::Reverse(corpus[i].source.len()));
    let mut shards: Vec<HashMap<String, Expect>> = vec![HashMap::new(); BATCH_SHARDS];
    for (rank, &i) in by_size.iter().enumerate() {
        let l = &corpus[i];
        let k = rank % BATCH_SHARDS;
        write_file(format!("batch/s{k:02}/{}", l.name), &l.source)?;
        shards[k].insert(l.name.clone(), l.expect.clone());
    }
    let jobs = ctx.jobs.to_string();

    // Set-up: a one-program batch with the workload's flags.
    let warm = gen::batch_corpus(ctx.seed ^ 0x5eed, 1).remove(0);
    write_file(format!("warm/{}", warm.name), &warm.source)?;
    let warm_expect: HashMap<String, Expect> = [(warm.name.clone(), warm.expect.clone())].into();
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        let (text, wall) =
            run_cli(ctx, &["batch", "warm", "--json", "--policy", "policy.pack", "--jobs", &jobs])?;
        setup.push(wall.as_secs_f64());
        check_batch_report(&text, &warm_expect, "warm-up", &mut out.tally);
    }

    // Measure: whole passes over the shards until the time is up.
    let mut walls = Vec::new();
    let mut programs = 0usize;
    let cpu0 = children_cpu_ms();
    let t0 = Instant::now();
    let mut pass = 0;
    while pass == 0 || t0.elapsed().as_secs_f64() < ctx.seconds {
        for (k, expect) in shards.iter().enumerate() {
            let dir = format!("batch/s{k:02}");
            let (text, wall) = run_cli(
                ctx,
                &["batch", &dir, "--json", "--policy", "policy.pack", "--jobs", &jobs],
            )?;
            walls.push(ms(wall));
            programs += expect.len();
            check_batch_report(&text, expect, &dir, &mut out.tally);
        }
        pass += 1;
    }
    let cpu_per_program = (children_cpu_ms() - cpu0) / programs as f64;
    let busy: f64 = walls.iter().sum::<f64>() / 1e3;
    out.note(format!(
        "batch: {pass} pass(es), {} runs of ~{} programs, jobs {jobs}",
        walls.len(),
        corpus.len() / BATCH_SHARDS
    ));
    out.note(format!("batch_programs_per_s: {:.1} programs/s", programs as f64 / busy));
    out.note(format!(
        "batch run wall time: p50 {:.3} ms, p90 {:.3} ms, p95 {:.3} ms; CPU {cpu_per_program:.4} ms per program",
        median(&walls),
        quantile(&walls, 0.9),
        quantile(&walls, 0.95)
    ));
    out.metrics.set("setup_s", median(&setup), "s");
    out.metrics.set("throughput_per_s", programs as f64 / busy, "1/s");
    out.metrics.set("p50_ms", median(&walls), "ms");
    out.metrics.set("cpu_ms_per_verdict", cpu_per_program, "ms");
    out.metrics.set("peak_rss_mb", children_peak_rss_mb(), "MB");
    Ok(())
}

// ---------------------------------------------------------------------
// topo-fabric
// ---------------------------------------------------------------------

/// Fabric variants per run, checked round-robin.
pub const FABRICS: u32 = 8;

pub fn topo_fabric(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut fabs: Vec<(String, TopoAnswer)> = Vec::new();
    for v in 0..FABRICS {
        let fab = Fabric::generate(ctx.seed, v);
        let dir = format!("topo/f{v}");
        for p in &fab.programs {
            write_file(format!("{dir}/{}", p.file), &p.source)?;
        }
        write_file(format!("{dir}/fabric.topo"), &fab.manifest())?;
        let answer = oracle::topo_answer(&fab);
        let rejects = answer.switches.iter().filter(|s| !s.expect.accept).count();
        out.note(format!(
            "fabric {v}: {} switches, {} links, {} expected rejects, {} expected violations",
            fab.switches.len(),
            fab.links.len(),
            rejects,
            answer.violations.len()
        ));
        fabs.push((format!("{dir}/fabric.topo"), answer));
    }
    let jobs = ctx.jobs.to_string();

    // Set-up: a one-switch manifest with the workload's flags.
    let warm = Fabric::generate(ctx.seed ^ 0x5eed, 0);
    write_file("warm/sw.p4", &warm.programs[5].source)?;
    write_file(
        "warm/one.topo",
        &format!(
            "lattice = \"{}\"\n\n[switch s]\nprogram = \"sw.p4\"\nlattice = \"{}\"\n",
            gen::CHAIN,
            gen::CHAIN
        ),
    )?;
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        let (text, wall) = run_cli(ctx, &["topo", "warm/one.topo", "--json", "--jobs", &jobs])?;
        setup.push(wall.as_secs_f64());
        let one = TopoAnswer {
            switches: vec![oracle::SwitchAnswer {
                name: "s".into(),
                ingress: "l0".into(),
                egress: "l0".into(),
                expect: Expect::accept(),
            }],
            violations: Default::default(),
        };
        check_topo_report(&text, &one, "warm-up", &mut out.tally);
    }

    let mut walls = Vec::new();
    let mut rounds = Vec::new();
    let mut rechecks = Vec::new();
    let mut cpus = Vec::new();
    let t0 = Instant::now();
    let mut i = 0usize;
    while i < fabs.len() || t0.elapsed().as_secs_f64() < ctx.seconds {
        let (path, answer) = &fabs[i % fabs.len()];
        let cpu0 = children_cpu_ms();
        let (text, wall) = run_cli(ctx, &["topo", path, "--json", "--jobs", &jobs])?;
        walls.push(ms(wall));
        cpus.push(children_cpu_ms() - cpu0);
        if let Some(report) = check_topo_report(&text, answer, path, &mut out.tally) {
            rounds.push(report.num("rounds").unwrap_or(0.0));
            rechecks.push(report.num("switch_rechecks").unwrap_or(0.0));
        }
        i += 1;
    }
    let busy: f64 = walls.iter().sum::<f64>() / 1e3;
    out.note(format!(
        "topo: {} runs, jobs {jobs}, fixpoint rounds p50 {}, switch rechecks p50 {}",
        walls.len(),
        median(&rounds),
        median(&rechecks)
    ));
    out.note(format!(
        "topo_verdict_p50_ms: {:.3} ms, topo_verdict_p90_ms: {:.3} ms, topo_verdict_p95_ms: {:.3} ms",
        median(&walls),
        quantile(&walls, 0.9),
        quantile(&walls, 0.95)
    ));
    let tenth = (walls.len() / 10).max(1);
    let drift: Vec<String> = walls.chunks(tenth).map(|c| format!("{:.2}", median(c))).collect();
    out.note(format!("topo p50 by tenth of the run (ms): {}", drift.join(" ")));
    out.note(format!(
        "topo CPU per run (user+sys): p50 {:.3} ms, p90 {:.3} ms",
        median(&cpus),
        quantile(&cpus, 0.9)
    ));
    out.metrics.set("setup_s", median(&setup), "s");
    out.metrics.set("throughput_per_s", walls.len() as f64 / busy, "1/s");
    out.metrics.set("p50_ms", median(&walls), "ms");
    out.metrics.set("cpu_ms_per_verdict", median(&cpus), "ms");
    out.metrics.set("peak_rss_mb", children_peak_rss_mb(), "MB");
    Ok(())
}

// ---------------------------------------------------------------------
// serve-edit
// ---------------------------------------------------------------------

/// Working-set files (64 items each, ~1k lines). Each clean file leaves
/// one prefix snapshot per item, so 16 files fill the default 1024-entry
/// prefix cache and every new file evicts, while the 1024-entry verdict
/// cache holds the whole working set many times over.
pub const SERVE_FILES: usize = 16;
/// `--refresh-every` epochs.
pub const REFRESH_EVERY: u64 = 64;
/// The two fixed open-loop rates, in requests per second: about a quarter
/// and two thirds of what the daemon sustained at the commit that defined
/// this benchmark (2-vCPU reference box). Frozen, so later runs compare.
pub const RATE_LOW: f64 = 70.0;
pub const RATE_HIGH: f64 = 190.0;
/// The latency limit `serve_max_rps` must meet at p99.
pub const P99_LIMIT_MS: f64 = 50.0;
/// Requests per closed-loop capacity run (one per block).
pub const CAPACITY_REQUESTS: usize = 500;
/// Fresh daemons per run; serve figures are medians over them.
pub const SERVE_BLOCKS: usize = 6;
/// Ladder steps are this factor apart (≤ 10%).
pub const LADDER_STEP: f64 = 1.10;

/// A serve daemon bound to `s.sock` in the working directory. Dropping it
/// terminates and reaps the process.
pub struct Daemon {
    child: Child,
    stopped: bool,
    pub reader: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    pub fn spawn(ctx: &Ctx, extra: &[&str]) -> Result<(Daemon, std::process::ChildStdout), String> {
        let _ = std::fs::remove_file("s.sock");
        let log = std::fs::File::create("serve.log").map_err(|e| e.to_string())?;
        let jobs = ctx.jobs.to_string();
        let mut args = vec!["serve", "--socket", "s.sock", "--json", "--jobs", &jobs];
        args.extend_from_slice(extra);
        let mut child = Command::new(&ctx.p4bid)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("cannot run p4bid serve: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        Ok((Daemon { child, stopped: false, reader: None }, stdout))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Connects once the socket is up (polled every millisecond, 5 s
    /// budget). The daemon polls its listener every 10 ms, so a connection
    /// made this soon after start waits for the next poll; polling a
    /// millisecond apart keeps that wait the same from run to run.
    pub fn connect(&mut self) -> Result<UnixStream, String> {
        let t0 = Instant::now();
        loop {
            if let Ok(s) = UnixStream::connect("s.sock") {
                return Ok(s);
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("p4bid serve exited early: {status}"));
            }
            if t0.elapsed() > Duration::from_secs(5) {
                return Err("p4bid serve did not open its socket".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Graceful stop: SIGTERM (the daemon drains), then reap.
    pub fn stop(&mut self) {
        if std::mem::replace(&mut self.stopped, true) {
            return;
        }
        // SAFETY: `kill` only sends a signal to our own child's pid.
        unsafe {
            kill(self.child.id() as i32, 15);
        }
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(5) {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One answered request as the stdout reader saw it.
#[derive(Debug, Clone)]
struct Answer {
    at: Instant,
    accepted: bool,
    codes: std::collections::BTreeSet<String>,
}

/// State shared between the sender (main thread) and the stdout reader.
#[derive(Default)]
struct Inbox {
    answers: Mutex<HashMap<u64, Answer>>,
    answered: AtomicU64,
    bad_lines: AtomicU64,
}

fn spawn_reader(
    stdout: std::process::ChildStdout,
    inbox: Arc<Inbox>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut lines = BufReader::new(stdout);
        let mut line = String::new();
        loop {
            line.clear();
            match lines.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let at = Instant::now();
            let Ok(doc) = parse_json(&line) else {
                inbox.bad_lines.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            let mut got = Vec::new();
            for p in doc.arr("programs") {
                let (name, accepted, codes) = oracle::program_verdict(p);
                if let Some(id) = name.strip_prefix('r').and_then(|n| n.parse::<u64>().ok()) {
                    got.push((id, Answer { at, accepted, codes }));
                }
            }
            let n = got.len() as u64;
            inbox.answers.lock().expect("reader holds no lock across a panic").extend(got);
            inbox.answered.fetch_add(n, Ordering::Release);
        }
    })
}

/// Where an open-loop phase draws its requests from.
pub trait RequestSource {
    fn next_request(&mut self) -> gen::EditRequest;
}

impl RequestSource for WorkingSet {
    fn next_request(&mut self) -> gen::EditRequest {
        WorkingSet::next_request(self)
    }
}

/// A request ready to send: its wire bytes and known answer.
struct Prepared {
    id: u64,
    kind: EditKind,
    wire: Vec<u8>,
    expect: Expect,
}

fn prepare(id: u64, req: gen::EditRequest) -> Prepared {
    let mut line = String::with_capacity(req.source.len() + 64);
    line.push_str(&format!("{{\"id\": \"r{id}\", \"source\": "));
    push_json_str(&mut line, &req.source);
    line.push_str("}\n\n");
    Prepared { id, kind: req.kind, wire: line.into_bytes(), expect: req.expect }
}

/// The open-loop feed over two connections.
pub struct Feed {
    conns: Vec<UnixStream>,
    inbox: Arc<Inbox>,
    next_id: u64,
    /// Requests written so far.
    pub sent: u64,
}

/// One phase at one rate.
pub struct PhaseResult {
    pub rate: f64,
    /// Per-request latency from due time to verdict line, ms (answered).
    pub latency_ms: Vec<f64>,
    /// Per-request generator lateness (send time minus due time), ms.
    pub late_ms: Vec<f64>,
    /// Outstanding requests sampled at each send.
    pub backlog: Vec<u64>,
    pub tally: Tally,
    pub by_kind: BTreeMap<&'static str, Vec<f64>>,
}

impl PhaseResult {
    pub fn p(&self, q: f64) -> f64 {
        quantile(&self.latency_ms, q)
    }

    /// Whether the backlog grew over the phase: the mean over its second
    /// half exceeds the first half's by more than two requests and half.
    pub fn backlog_grew(&self) -> bool {
        let n = self.backlog.len();
        if n < 4 {
            return false;
        }
        let mean = |xs: &[u64]| xs.iter().sum::<u64>() as f64 / xs.len() as f64;
        let (a, b) = (mean(&self.backlog[..n / 2]), mean(&self.backlog[n / 2..]));
        b > a * 1.5 + 2.0
    }

    /// Counts toward `serve_max_rps`: every verdict right, p99 within the
    /// limit, and no growing backlog.
    pub fn sustains(&self) -> bool {
        self.tally.failed == 0 && self.p(0.99) <= P99_LIMIT_MS && !self.backlog_grew()
    }
}

impl Feed {
    pub fn open(daemon: &mut Daemon, stdout: std::process::ChildStdout) -> Result<Feed, String> {
        let inbox = Arc::new(Inbox::default());
        daemon.reader = Some(spawn_reader(stdout, Arc::clone(&inbox)));
        let conns = vec![daemon.connect()?, daemon.connect()?];
        Ok(Feed { conns, inbox, next_id: 0, sent: 0 })
    }

    fn outstanding(&self) -> u64 {
        self.sent.saturating_sub(self.inbox.answered.load(Ordering::Acquire))
    }

    /// Waits until every sent request is answered (or `limit` passes).
    pub fn drain(&self, limit: Duration) {
        let t0 = Instant::now();
        while self.outstanding() > 0 && t0.elapsed() < limit {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Sends `reqs` closed-loop, one at a time (warm-up and set-up).
    pub fn closed_loop(
        &mut self,
        reqs: Vec<gen::EditRequest>,
        tally: &mut Tally,
    ) -> Result<(), String> {
        for req in reqs {
            let p = prepare(self.next_id, req);
            self.next_id += 1;
            let t0 = Instant::now();
            self.conns[0].write_all(&p.wire).map_err(|e| format!("socket write: {e}"))?;
            self.sent += 1;
            self.drain(Duration::from_secs(10));
            self.settle(&[p], &[t0], tally, None);
        }
        Ok(())
    }

    /// Capacity: `count` requests from `ws`, closed loop with one request
    /// outstanding per connection (so the daemon always has work queued).
    /// Returns verdicts per second over the whole run.
    pub fn saturate(
        &mut self,
        ws: &mut dyn RequestSource,
        count: usize,
        tally: &mut Tally,
    ) -> Result<f64, String> {
        let reqs: Vec<Prepared> =
            (0..count).map(|i| prepare(self.next_id + i as u64, ws.next_request())).collect();
        self.next_id += count as u64;
        let mut sent_at = Vec::with_capacity(count);
        let t0 = Instant::now();
        for (i, p) in reqs.iter().enumerate() {
            while self.outstanding() >= self.conns.len() as u64 {
                std::thread::sleep(Duration::from_micros(50));
            }
            sent_at.push(Instant::now());
            let n = self.conns.len();
            self.conns[i % n].write_all(&p.wire).map_err(|e| format!("socket write: {e}"))?;
            self.sent += 1;
        }
        self.drain(Duration::from_secs(10));
        let rate = count as f64 / t0.elapsed().as_secs_f64();
        self.settle(&reqs, &sent_at, tally, None);
        Ok(rate)
    }

    /// Checks answers for `sent` against their known answers; returns the
    /// due-time latencies of the answered ones.
    fn settle(
        &self,
        sent: &[Prepared],
        due: &[Instant],
        tally: &mut Tally,
        mut by_kind: Option<&mut BTreeMap<&'static str, Vec<f64>>>,
    ) -> Vec<f64> {
        let mut answers = self.inbox.answers.lock().expect("reader holds no lock across a panic");
        let mut lat = Vec::with_capacity(sent.len());
        for (p, due) in sent.iter().zip(due) {
            let what = format!("serve/r{} ({})", p.id, p.kind.name());
            match answers.remove(&p.id) {
                Some(a) => {
                    let l = ms(a.at.saturating_duration_since(*due));
                    lat.push(l);
                    if let Some(k) = by_kind.as_deref_mut() {
                        k.entry(p.kind.name()).or_default().push(l);
                    }
                    tally.verdict(&what, &p.expect, a.accepted, &a.codes);
                }
                None => {
                    tally.attempted += 1;
                    tally.fail(format!("{what}: no report"));
                }
            }
        }
        lat
    }

    /// Runs one open-loop phase of `count` requests drawn from `ws` at
    /// `rate` req/s, alternating connections.
    pub fn phase(
        &mut self,
        ws: &mut dyn RequestSource,
        rate: f64,
        count: usize,
    ) -> Result<PhaseResult, String> {
        let reqs: Vec<Prepared> =
            (0..count).map(|i| prepare(self.next_id + i as u64, ws.next_request())).collect();
        self.next_id += count as u64;
        let mut due = Vec::with_capacity(count);
        let mut late = Vec::with_capacity(count);
        let mut backlog = Vec::with_capacity(count);
        let t0 = Instant::now() + Duration::from_millis(2);
        let gap = 1.0 / rate;
        for (i, p) in reqs.iter().enumerate() {
            let d = t0 + Duration::from_secs_f64(i as f64 * gap);
            loop {
                let now = Instant::now();
                if now >= d {
                    break;
                }
                let left = d - now;
                if left > Duration::from_micros(300) {
                    std::thread::sleep(left - Duration::from_micros(200));
                } else {
                    std::hint::spin_loop();
                }
            }
            let sent_at = Instant::now();
            self.conns[i % 2].write_all(&p.wire).map_err(|e| format!("socket write: {e}"))?;
            self.sent += 1;
            late.push(ms(sent_at - d));
            backlog.push(self.outstanding());
            due.push(d);
        }
        self.drain(Duration::from_secs(10));
        let mut tally = Tally::default();
        let mut by_kind = BTreeMap::new();
        let latency_ms = self.settle(&reqs, &due, &mut tally, Some(&mut by_kind));
        Ok(PhaseResult { rate, latency_ms, late_ms: late, backlog, tally, by_kind })
    }
}

/// The rate ladder behind `serve_max_rps`. A climb runs steps
/// [`LADDER_STEP`] apart, `step_s` seconds each, from `start` upward while
/// each step sustains the p99 limit without a growing backlog (downward
/// first if the start fails); its result is the last passing step. Climbs
/// repeat, each starting two steps below the previous result, until
/// `deadline`; the ladder reports the median climb.
pub struct Ladder {
    pub max_rps: f64,
    pub climbs: Vec<f64>,
    pub steps: Vec<String>,
    pub late_ms: Vec<f64>,
}

pub fn ladder(
    feed: &mut Feed,
    ws: &mut dyn RequestSource,
    start: f64,
    step_s: f64,
    deadline: Instant,
    tally: &mut Tally,
) -> Result<Ladder, String> {
    let mut out =
        Ladder { max_rps: 0.0, climbs: Vec::new(), steps: Vec::new(), late_ms: Vec::new() };
    let mut rate = start;
    let mut best: Option<f64> = None;
    while Instant::now() < deadline {
        let count = ((rate * step_s) as usize).max(20);
        let r = feed.phase(ws, rate, count)?;
        out.late_ms.extend_from_slice(&r.late_ms);
        let ok = r.sustains();
        out.steps.push(format!(
            "{rate:.1} req/s: p99 {:.3} ms{}{}",
            r.p(0.99),
            if r.backlog_grew() { ", backlog grew" } else { "" },
            if ok { "" } else { " (fails)" }
        ));
        tally.absorb(r.tally);
        if ok {
            best = Some(rate);
            rate *= LADDER_STEP;
        } else if let Some(b) = best.take() {
            out.climbs.push(b);
            rate = b / (LADDER_STEP * LADDER_STEP);
        } else {
            rate /= LADDER_STEP;
        }
    }
    // A climb cut by the deadline still counts: its last passing step.
    out.climbs.extend(best);
    out.max_rps = if out.climbs.is_empty() { rate } else { median(&out.climbs) };
    Ok(out)
}

/// One serve block: one fresh daemon's phases and figures.
struct Block {
    low: PhaseResult,
    high: PhaseResult,
    /// Closed-loop capacity, req/s.
    capacity: f64,
    /// Daemon `VmHWM` before its feed closed.
    rss_mb: f64,
    /// Daemon CPU time (user + sys, start to exit) per request sent.
    cpu_ms_per_req: f64,
}

/// The `serve-edit` workload: set-up, a closed-loop warm-up over the
/// working set, the two fixed-rate phases, then the rate ladder.
pub fn serve_edit(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut ws = WorkingSet::new(ctx.seed, "serve-edit", SERVE_FILES);
    let initial = ws.sources();
    let shape: Vec<(&str, &Expect)> =
        initial.iter().map(|r| (r.source.as_str(), &r.expect)).collect();
    shape_notes(out, "working set", &shape);
    out.note(format!(
        "working set: {SERVE_FILES} files x 64 items = ~{} prefix snapshots vs default cap {}; {SERVE_FILES} verdicts vs default cap 1024",
        SERVE_FILES * 64,
        p4bid::DEFAULT_PREFIX_CACHE_CAP
    ));
    let refresh = REFRESH_EVERY.to_string();
    let flags = ["--refresh-every", refresh.as_str(), "--stats-json"];

    // Set-up: spawn → first verdict on a one-program request.
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (mut daemon, stdout) = Daemon::spawn(ctx, &flags)?;
        let mut feed = Feed::open(&mut daemon, stdout)?;
        feed.closed_loop(vec![gen::small_request(ctx.seed)], &mut out.tally)?;
        setup.push(t0.elapsed().as_secs_f64());
    }

    // Blocks: each a fresh daemon, warmed with the working set's current
    // text, then the low rate, the high rate and a capacity run. Figures
    // are medians over blocks, so one daemon's luck (thread placement, an
    // early refreeze) or one noisy stretch of the box moves them less.
    let budget = ctx.seconds * 0.8 / SERVE_BLOCKS as f64;
    let mut blocks: Vec<Block> = Vec::new();
    let mut ladder_out = None;
    for b in 0..SERVE_BLOCKS {
        let cpu0 = children_cpu_ms();
        let (mut daemon, stdout) = Daemon::spawn(ctx, &flags)?;
        let mut feed = Feed::open(&mut daemon, stdout)?;
        feed.closed_loop(ws.sources(), &mut out.tally)?;
        let low = feed.phase(&mut ws, RATE_LOW, (RATE_LOW * budget * 0.3) as usize)?;
        let high = feed.phase(&mut ws, RATE_HIGH, (RATE_HIGH * budget * 0.4) as usize)?;
        let capacity = feed.saturate(&mut ws, CAPACITY_REQUESTS, &mut out.tally)?;
        let rss = vm_hwm_mb(daemon.pid());
        if b + 1 == SERVE_BLOCKS {
            // The rate ladder, on the last block's daemon.
            let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds * 0.1);
            let mut tally = Tally::default();
            let lad = ladder(&mut feed, &mut ws, RATE_HIGH, 0.5, deadline, &mut tally)?;
            out.tally.absorb(tally);
            ladder_out = Some(lad);
        }
        let requests = feed.sent;
        drop(feed);
        drop(daemon);
        let cpu_ms_per_req = (children_cpu_ms() - cpu0) / requests.max(1) as f64;
        if let Some(stats) = std::fs::read_to_string("serve.log").ok().and_then(|log| {
            log.lines().rev().find(|l| l.contains("p4bid-stats/")).map(String::from)
        }) {
            out.note(format!("block {b} daemon stats: {stats}"));
        }
        blocks.push(Block { low, high, capacity, rss_mb: rss, cpu_ms_per_req });
    }
    let lad = ladder_out.expect("the last block runs the ladder");

    let per_block = |f: &dyn Fn(&Block) -> f64| -> Vec<f64> { blocks.iter().map(f).collect() };
    let mut late = lad.late_ms.clone();
    for (b, Block { low, high, capacity, rss_mb, cpu_ms_per_req }) in blocks.iter().enumerate() {
        late.extend_from_slice(&low.late_ms);
        late.extend_from_slice(&high.late_ms);
        for (name, r) in [("low", low), ("high", high)] {
            out.note(format!(
                "block {b} {name}: {} requests at {:.0} req/s, p50 {:.3} ms, p90 {:.3}, p95 {:.3}, p99 {:.3}{}",
                r.latency_ms.len(),
                r.rate,
                r.p(0.5),
                r.p(0.9),
                r.p(0.95),
                r.p(0.99),
                if r.backlog_grew() { ", backlog grew" } else { "" }
            ));
            let kinds: Vec<String> =
                r.by_kind.iter().map(|(k, xs)| format!("{k} {:.3}", median(xs))).collect();
            out.note(format!("block {b} {name} p50 by kind (ms): {}", kinds.join(", ")));
        }
        out.note(format!(
            "block {b}: capacity {capacity:.1} req/s, daemon VmHWM {rss_mb:.2} MB, daemon CPU {cpu_ms_per_req:.4} ms per request"
        ));
    }
    let p50_low = median(&per_block(&|b| b.low.p(0.5)));
    let p99_low = median(&per_block(&|b| b.low.p(0.99)));
    let p50_high = median(&per_block(&|b| b.high.p(0.5)));
    let p90_high = median(&per_block(&|b| b.high.p(0.9)));
    let p95_high = median(&per_block(&|b| b.high.p(0.95)));
    let p99_high = median(&per_block(&|b| b.high.p(0.99)));
    let capacity = median(&per_block(&|b| b.capacity));
    let rss = median(&per_block(&|b| b.rss_mb));
    let cpu = median(&per_block(&|b| b.cpu_ms_per_req));
    out.note(format!("serve_p50_ms_low: {p50_low:.3} ms, serve_p99_ms_low: {p99_low:.3} ms (medians over blocks)"));
    out.note(format!(
        "serve_p50_ms_high: {p50_high:.3} ms, serve_p90_ms_high: {p90_high:.3} ms, serve_p95_ms_high: {p95_high:.3} ms, serve_p99_ms_high: {p99_high:.3} ms"
    ));
    out.note(format!(
        "serve capacity: {capacity:.1} req/s (closed loop, {CAPACITY_REQUESTS} requests, one outstanding per connection)"
    ));
    for step in &lad.steps {
        out.note(format!("ladder step {step}"));
    }
    out.note(format!(
        "serve_max_rps: {:.1} req/s (median of {} climbs, p99 <= {P99_LIMIT_MS} ms, steps {LADDER_STEP}x)",
        lad.max_rps,
        lad.climbs.len()
    ));
    out.note(format!("serve_peak_rss_mb: {rss:.2} MB"));
    out.note(format!("harness gen_late_p99_ms: {:.3} ms", quantile(&late, 0.99)));
    out.metrics.set("setup_s", median(&setup), "s");
    out.metrics.set("throughput_per_s", capacity, "1/s");
    out.metrics.set("p50_ms", p50_low, "ms");
    out.metrics.set("cpu_ms_per_verdict", cpu, "ms");
    out.metrics.set("peak_rss_mb", rss, "MB");
    for b in blocks {
        out.tally.absorb(b.low.tally);
        out.tally.absorb(b.high.tally);
    }
    Ok(())
}

/// Used by the traced replay: the daemon's p50 at the low rate over the
/// given request stream, and the generator's lateness. Its verdicts are
/// checked into `tally`.
pub fn serve_low_rate_probe(
    ctx: &Ctx,
    extra: &[&str],
    ws: &mut dyn RequestSource,
    count: usize,
    tally: &mut Tally,
) -> Result<PhaseResult, String> {
    let refresh = REFRESH_EVERY.to_string();
    let mut flags = vec!["--refresh-every", refresh.as_str()];
    flags.extend_from_slice(extra);
    let (mut daemon, stdout) = Daemon::spawn(ctx, &flags)?;
    let mut feed = Feed::open(&mut daemon, stdout)?;
    let mut r = feed.phase(ws, RATE_LOW, count)?;
    drop(feed);
    drop(daemon);
    tally.absorb(std::mem::take(&mut r.tally));
    Ok(r)
}
