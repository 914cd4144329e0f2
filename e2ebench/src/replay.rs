//! The traced replay: the workload's seeded inputs go in-process through
//! the public functions of each layer (`syntax`, `typeck`, `batch`,
//! `serve`, `topo`). Spans (name, start, end, parent, request id) are
//! recorded in memory around those calls, in this file only — the program
//! itself carries no tracing — and written once at exit. Per-layer metrics
//! come from the spans, plus counter deltas read at the same boundaries.
//!
//! Mechanism ablations run here through options that already exist:
//! lineage off, prefix cache cap 0, verdict cache cap 0, no
//! `--refresh-every`.

use crate::drive::{self, Ctx, Outcome, REFRESH_EVERY};
use crate::gen::{self, EditKind, EditRequest, Expect, Fabric, Labeled, WorkingSet};
use crate::oracle::{self, Tally, TopoAnswer};
use crate::util::{median, parse_json, push_json_str, quantile, Metrics};
use p4bid::batch::{check_batch, check_batch_with_policy, BatchInput};
use p4bid::serve::{options_fingerprint, parse_request, ServeEngine};
use p4bid::topo::{check_topology, TopoManifest, Topology};
use p4bid::{CheckOptions, PolicyPack, SharedSessionCore};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Layer self-times must cover the replay's total to within this share;
/// the rest is harness time between spans.
pub const SPAN_TOLERANCE_PCT: f64 = 10.0;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<u32>,
    req: u64,
}

/// In-memory span recorder. Disabled, it only runs the closures, so an
/// untraced pass does the same calls without the bookkeeping.
struct Tracer {
    t0: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    fn new(enabled: bool) -> Self {
        Tracer { t0: Instant::now(), enabled, spans: Vec::new(), stack: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, req: u64) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, req });
        self.stack.push(id);
        Some(id)
    }

    fn close(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            let end = self.now();
            self.spans[id as usize].end = end;
            self.stack.pop();
        }
    }

    /// Runs `f` inside a span named `name` for request `req`.
    fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, req);
        let r = f();
        self.close(id);
        r
    }

    /// Durations in µs of every span named `name`.
    fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect()
    }

    fn total_us(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum()
    }

    /// Self time per span: its duration minus its direct children's.
    fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// One NDJSON line per span.
    fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"req\": {}}}\n",
                s.name,
                s.start,
                s.end,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req
            ));
        }
        out
    }
}

/// The layer a span belongs to: its name up to the first `.`.
fn layer(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

/// The replay's inputs: programs (with known answers under the policy
/// pack) for the syntax/typeck/batch layers, a request stream for the
/// serve layer, and fabrics for the topo layer.
struct Inputs {
    opts: CheckOptions,
    programs: Vec<Labeled>,
    pack: PolicyPack,
    requests: Vec<EditRequest>,
    fabrics: Vec<(String, Vec<String>, TopoAnswer)>,
}

/// Programs per pass for the syntax/typeck/batch layers.
const PASS_PROGRAMS: usize = 400;
/// Distinct 64-item files per pass for the syntax/typeck/batch layers on
/// `serve-edit`.
const SERVE_PASS_PROGRAMS: usize = 48;
/// Requests per pass for the serve layer.
const PASS_REQUESTS: usize = 400;

fn fabrics(seed: u64) -> Vec<(String, Vec<String>, TopoAnswer)> {
    (0..drive::FABRICS)
        .map(|v| {
            let fab = Fabric::generate(seed, v);
            let sources =
                fab.switches.iter().map(|s| fab.programs[s.program].source.clone()).collect();
            (fab.manifest(), sources, oracle::topo_answer(&fab))
        })
        .collect()
}

fn chain_lattice() -> p4bid::lattice::Lattice {
    let names = ["l0", "l1", "l2", "l3"];
    p4bid::lattice::Lattice::from_order(&names, &[("l0", "l1"), ("l1", "l2"), ("l2", "l3")])
        .expect("the chain lattice is well formed")
}

fn inputs(ctx: &Ctx, workload: &str) -> Result<Inputs, String> {
    let fabrics = fabrics(ctx.seed);
    let (opts, programs, requests) = match workload {
        "batch-mixed" => {
            let mut corpus = drive::batch_inputs(ctx)?;
            // Stratified sample: every k-th program of the size-sorted
            // corpus, so a pass has the corpus's size mix.
            corpus.sort_by_key(|l| std::cmp::Reverse(l.source.len()));
            let k = (corpus.len() / PASS_PROGRAMS).max(1);
            let programs: Vec<Labeled> = corpus.into_iter().step_by(k).collect();
            let requests = programs
                .iter()
                .filter(|l| l.rule.is_none() && l.name.ends_with("-a.p4"))
                .map(|l| EditRequest {
                    kind: EditKind::NewFile,
                    source: l.source.clone(),
                    expect: l.expect.clone(),
                })
                .collect();
            (CheckOptions::ifc(), programs, requests)
        }
        "serve-edit" => {
            let mut ws = WorkingSet::new(ctx.seed, "serve-edit", drive::SERVE_FILES);
            let mut requests = ws.sources();
            requests.extend((0..PASS_REQUESTS).map(|_| ws.next_request()));
            let mut seen = HashSet::new();
            let programs = requests
                .iter()
                .filter(|r| seen.insert(r.source.clone()))
                .take(SERVE_PASS_PROGRAMS)
                .enumerate()
                .map(|(i, r)| Labeled {
                    name: format!("q{i:05}-a.p4"),
                    source: r.source.clone(),
                    expect: r.expect.clone(),
                    rule: None,
                })
                .collect();
            (CheckOptions::ifc(), programs, requests)
        }
        _ => {
            // The fabric's switch programs, as a user would submit them.
            let opts = CheckOptions::ifc().with_lattice(chain_lattice());
            let mut programs = Vec::new();
            let mut requests = Vec::new();
            for v in 0..drive::FABRICS {
                let fab = Fabric::generate(ctx.seed, v);
                for (i, p) in fab.programs.iter().enumerate() {
                    programs.push(Labeled {
                        name: format!("f{v}-sw{i}-a.p4"),
                        source: p.source.clone(),
                        expect: Expect::accept(),
                        rule: None,
                    });
                }
                for s in &fab.switches {
                    requests.push(EditRequest {
                        kind: EditKind::Resubmit,
                        source: fab.programs[s.program].source.clone(),
                        expect: Expect::accept(),
                    });
                }
            }
            (opts, programs, requests)
        }
    };
    let pack = PolicyPack::parse(&gen::policy_pack(&programs)).map_err(|e| e.to_string())?;
    Ok(Inputs { opts, programs, pack, requests, fabrics })
}

/// What one pass measured besides its spans.
#[derive(Default)]
struct PassCounters {
    sym_hits: u64,
    sym_calls: u64,
    ty_hits: u64,
    ty_calls: u64,
    prefix_hits: u64,
    prefix_misses: u64,
    prefix_inserts: u64,
    items_saved: u64,
    /// µs per resumed check (prefix hit) in the typeck request replay.
    resume_us: Vec<f64>,
    /// Serve epoch µs by answering tier.
    epoch_us: BTreeMap<&'static str, Vec<f64>>,
    cache_hits: u64,
    cache_misses: u64,
    cache_entries: u64,
    /// In-process parse + epoch + render µs per request.
    inproc_us: Vec<f64>,
    rounds: Vec<f64>,
    rechecks: Vec<f64>,
    switches: usize,
    switch_check_us: Vec<f64>,
    jobs_n: usize,
}

/// One replay pass over the inputs. Checks every verdict the layers
/// report into `tally`.
fn pass(t: &mut Tracer, inp: &Inputs, jobs: usize, tally: &mut Tally) -> PassCounters {
    let mut c = PassCounters { jobs_n: jobs, ..Default::default() };
    let opts = &inp.opts;
    let batch_inputs: Vec<BatchInput> =
        inp.programs.iter().map(|l| BatchInput::new(l.name.clone(), l.source.clone())).collect();
    let lines: Vec<String> = inp
        .requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut line = format!("{{\"id\": \"r{i}\", \"source\": ");
            push_json_str(&mut line, &r.source);
            line.push('}');
            line
        })
        .collect();
    let epochs: Vec<[BatchInput; 1]> = inp
        .requests
        .iter()
        .enumerate()
        .map(|(i, r)| [BatchInput::new(format!("r{i}"), r.source.clone())])
        .collect();
    let root = t.open("harness.replay", 0);

    // syntax: lex, segment, parse each program.
    for (i, l) in inp.programs.iter().enumerate() {
        let src = l.source.as_str();
        let req = i as u64;
        let Ok(tokens) = t.span("syntax.lex", req, || p4bid_syntax::lex(src)) else { continue };
        t.span("syntax.segment", req, || {
            black_box(p4bid_syntax::item_segments(src, &tokens));
        });
        t.span("syntax.parse", req, || {
            let _ = black_box(p4bid_syntax::parse_tokens(src, &tokens));
        });
    }

    // typeck: cold checks off one core (default prefix cap), then the
    // same programs with lineage off and with the prefix cache off.
    let core = t.span("typeck.core_freeze", 0, || SharedSessionCore::new(opts.clone()));
    let core_nl = t
        .span("typeck.core_freeze", 1, || SharedSessionCore::new(opts.clone().with_lineage(false)));
    let core_c0 = t.span("typeck.core_freeze", 2, || {
        SharedSessionCore::with_prefix_cache_cap(opts.clone(), 0)
    });
    let base_fp = options_fingerprint(opts);
    let on_base = |l: &Labeled| options_fingerprint(&inp.pack.resolve(&l.name, opts)) == base_fp;
    // Each program three times in a row — default, lineage off, prefix
    // cache off — so the ablation differences are paired per program.
    for (i, l) in inp.programs.iter().enumerate() {
        if !on_base(l) {
            continue; // per-name policy options: covered by the batch layer
        }
        let req = i as u64;
        let mut s = t.span("typeck.session", req, || core.session());
        t.span("typeck.check", req, || {
            let _ = black_box(s.check(&l.source));
        });
        let st = t.span("typeck.stats", req, || s.stats());
        t.span("typeck.drop", req, || drop(s));
        c.sym_hits += st.sym_frozen_hits;
        c.sym_calls += st.sym_intern_calls;
        c.ty_hits += st.ty_frozen_hits;
        c.ty_calls += st.ty_intern_calls;
        for (core, name) in [(&core_nl, "typeck.check_nolineage"), (&core_c0, "typeck.check_cap0")]
        {
            let mut s = t.span("typeck.session", req, || core.session());
            t.span(name, req, || {
                let _ = black_box(s.check(&l.source));
            });
            t.span("typeck.drop", req, || drop(s));
        }
    }
    // typeck over the request stream: one session per request off one
    // core, harvested and refrozen every `REFRESH_EVERY` requests, as the
    // serve engine does per epoch.
    let mut core_q = t.span("typeck.core_freeze", 3, || SharedSessionCore::new(opts.clone()));
    let mut harvests = Vec::new();
    for (i, r) in inp.requests.iter().enumerate() {
        let req = i as u64;
        if i > 0 && (i as u64).is_multiple_of(REFRESH_EVERY) {
            let h = std::mem::take(&mut harvests);
            core_q = t.span("typeck.refreeze", req, || core_q.refreeze(h));
        }
        let mut s = t.span("typeck.session", req, || core_q.session());
        let t0 = Instant::now();
        t.span("typeck.check_stream", req, || {
            let _ = black_box(s.check(&r.source));
        });
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let st = t.span("typeck.stats", req, || s.stats());
        c.prefix_hits += st.prefix_hits;
        c.prefix_misses += st.prefix_misses;
        c.prefix_inserts += st.prefix_inserts;
        c.items_saved += st.prefix_items_saved;
        if st.prefix_hits > 0 {
            c.resume_us.push(us);
        }
        if let Some(h) = t.span("typeck.harvest", req, || s.into_harvest()) {
            harvests.push(h);
        }
    }
    t.span("typeck.drop", 0, || drop((core_q, harvests, core, core_nl, core_c0)));

    // batch: one worker, all workers, the policy pack, the JSON render.
    t.span("batch.check_batch.jobs1", 0, || {
        black_box(check_batch(&batch_inputs, opts, 1));
    });
    t.span("batch.check_batch.jobsN", 0, || {
        black_box(check_batch(&batch_inputs, opts, jobs));
    });
    let report = t.span("batch.check_batch_with_policy", 0, || {
        check_batch_with_policy(&batch_inputs, opts, &inp.pack, jobs)
    });
    let json = t.span("batch.to_json", 0, move || report.to_json());
    let mut reports = vec![Report::Batch(json)];

    // serve: the request stream through one engine, one epoch per
    // request, with the daemon's verdict cache and refresh period.
    let mut engine = t.span("serve.engine_new", 0, || {
        ServeEngine::new(opts.clone(), jobs)
            .with_refresh_every(Some(REFRESH_EVERY))
            .with_cache(1024)
    });
    for (i, line) in lines.iter().enumerate() {
        let req = i as u64;
        let t0 = Instant::now();
        let Ok(parsed) = t.span("serve.parse_request", req, || parse_request(line)) else {
            reports.push(Report::Broken(format!("replay/serve/r{i}: request did not parse")));
            continue;
        };
        let p4bid::serve::RequestBody::Source(src) = parsed.body else { continue };
        let before = t.span("serve.counters", req, || {
            (engine.ops().cache_hits, engine.cumulative_stats().sessions.prefix_hits)
        });
        let t1 = Instant::now();
        let epoch =
            t.span("serve.run_epoch", req, || engine.run_epoch(&[BatchInput::new(parsed.id, src)]));
        let epoch_us = t1.elapsed().as_secs_f64() * 1e6;
        let nd = t.span("serve.to_ndjson", req, move || epoch.to_ndjson());
        c.inproc_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let after = t.span("serve.counters", req, || {
            (engine.ops().cache_hits, engine.cumulative_stats().sessions.prefix_hits)
        });
        let tier = if after.0 > before.0 {
            "verdict"
        } else if after.1 > before.1 {
            "prefix"
        } else {
            "cold"
        };
        c.epoch_us.entry(tier).or_default().push(epoch_us);
        reports.push(Report::Serve(i, nd));
    }
    let ops = engine.ops();
    c.cache_hits = ops.cache_hits;
    c.cache_misses = ops.cache_misses;
    c.cache_entries = ops.cache_size;
    t.span("serve.drop", 0, || drop(engine));
    // Ablations: the same stream with verdict cache cap 0, and without
    // `--refresh-every`.
    for (name, cache, refresh) in [
        ("serve.run_epoch.no_verdict_cache", 0, Some(REFRESH_EVERY)),
        ("serve.run_epoch.no_refresh", 1024, None),
    ] {
        let mut engine = t.span("serve.engine_new", 0, || {
            ServeEngine::new(opts.clone(), jobs).with_refresh_every(refresh).with_cache(cache)
        });
        for (i, input) in epochs.iter().enumerate() {
            t.span(name, i as u64, || {
                black_box(engine.run_epoch(input));
            });
        }
        t.span("serve.drop", 0, || drop(engine));
    }

    // topo: parse, assemble, fixpoint, render; then every switch program
    // alone at its final ingress pc.
    let topo_base = CheckOptions::ifc();
    let mut switch_cores: HashMap<String, SharedSessionCore> = HashMap::new();
    for (v, (manifest, sources, answer)) in inp.fabrics.iter().enumerate() {
        let req = v as u64;
        let Ok(m) = t.span("topo.manifest_parse", req, || TopoManifest::parse(manifest)) else {
            reports.push(Report::Broken(format!("replay/topo/f{v}: manifest did not parse")));
            continue;
        };
        let Ok(topo) = t.span("topo.assemble", req, || Topology::assemble(&m, sources.clone()))
        else {
            reports.push(Report::Broken(format!("replay/topo/f{v}: topology did not assemble")));
            continue;
        };
        let report = t.span("topo.check_topology", req, || check_topology(&topo, &topo_base, jobs));
        c.rounds.push(report.rounds as f64);
        c.rechecks.push(report.switch_rechecks as f64);
        let json = t.span("topo.to_json", req, move || report.to_json());
        c.switches += topo.switches().len();
        reports.push(Report::Topo(v, json));
        for (sw, a) in topo.switches().iter().zip(&answer.switches) {
            let core = switch_cores.entry(a.ingress.clone()).or_insert_with(|| {
                t.span("topo.core_freeze", req, || {
                    SharedSessionCore::new(
                        CheckOptions::ifc()
                            .with_lattice(chain_lattice())
                            .with_pc(a.ingress.clone())
                            .with_pc_floor(true),
                    )
                })
            });
            let mut s = t.span("topo.session", req, || core.session());
            let t0 = Instant::now();
            t.span("topo.switch_check", req, || {
                let _ = black_box(s.check(&sw.source));
            });
            c.switch_check_us.push(t0.elapsed().as_secs_f64() * 1e6);
            t.span("topo.drop", req, || drop(s));
        }
        t.span("topo.drop", req, || drop((topo, m)));
    }
    t.span("topo.drop", 0, || drop(switch_cores));
    t.close(root);
    // Verdicts are checked after the replay's root span closes, so the
    // checking counts toward no layer.
    for r in reports {
        match r {
            Report::Batch(json) => {
                let expected: HashMap<String, Expect> =
                    inp.programs.iter().map(|l| (l.name.clone(), l.expect.clone())).collect();
                verify(&json, tally, "replay/batch", |doc, tally| {
                    oracle::check_programs(doc, &expected, "replay/batch", tally);
                });
            }
            Report::Serve(i, nd) => {
                let expected: HashMap<String, Expect> =
                    [(format!("r{i}"), inp.requests[i].expect.clone())].into();
                verify(&nd, tally, "replay/serve", |doc, tally| {
                    oracle::check_programs(doc, &expected, "replay/serve", tally);
                });
            }
            Report::Topo(v, json) => {
                let what = format!("replay/topo/f{v}");
                verify(&json, tally, &what, |doc, tally| {
                    oracle::check_topo(doc, &inp.fabrics[v].2, &what, tally)
                });
            }
            Report::Broken(what) => {
                tally.attempted += 1;
                tally.fail(what);
            }
        }
    }
    c
}

/// A report the replay produced, checked once the pass is over.
enum Report {
    Batch(String),
    Serve(usize, String),
    Topo(usize, String),
    Broken(String),
}

fn verify(
    text: &str,
    tally: &mut Tally,
    what: &str,
    check: impl FnOnce(&crate::util::Json, &mut Tally),
) {
    match parse_json(text) {
        Ok(doc) => check(&doc, tally),
        Err(e) => {
            tally.attempted += 1;
            tally.fail(format!("{what}: unreadable report ({e})"));
        }
    }
}

/// Runs traced and untraced passes until the time is up, then a short
/// daemon probe at the low rate; sets every per-layer metric.
pub fn run(ctx: &Ctx, workload: &str, out: &mut Outcome) -> Result<(), String> {
    let inp = inputs(ctx, workload)?;
    let distinct: HashSet<&str> = inp
        .programs
        .iter()
        .map(|l| l.source.as_str())
        .chain(inp.requests.iter().map(|r| r.source.as_str()))
        .chain(inp.fabrics.iter().flat_map(|(_, s, _)| s.iter().map(String::as_str)))
        .collect();
    let bytes: usize = inp.programs.iter().map(|l| l.source.len()).sum();
    out.note(format!(
        "replay inputs: {} programs ({bytes} bytes), {} requests, {} fabrics, {} distinct sources",
        inp.programs.len(),
        inp.requests.len(),
        inp.fabrics.len(),
        distinct.len()
    ));

    // The daemon probe first: the same request stream over the socket at
    // the low rate, for the door overhead and generator lateness.
    let probe_n = ((drive::RATE_LOW * ctx.seconds * 0.15) as usize).clamp(20, inp.requests.len());
    let mut probe_ws = ProbeStream { reqs: inp.requests.clone(), next: 0 };
    // The fabric's programs use the chain lattice's labels; a fleet
    // policy pack tells the daemon so, as the in-process options do.
    let mut extra = Vec::new();
    if workload == "topo-fabric" {
        std::fs::write("probe.pack", format!("[*]\nlattice = \"{}\"\n", gen::CHAIN))
            .map_err(|e| e.to_string())?;
        extra = vec!["--policy", "probe.pack"];
    }
    let probe = drive::serve_low_rate_probe(ctx, &extra, &mut probe_ws, probe_n, &mut out.tally)?;

    let t_start = Instant::now();
    let mut per_pass: Vec<Metrics> = Vec::new();
    let mut last: Option<Tracer> = None;
    let mut first_freeze_ms = 0.0;
    let mut wall_traced = Vec::new();
    let mut wall_plain = Vec::new();
    let mut tally = Tally::default();
    let mut k = 0;
    while k < 2 || t_start.elapsed().as_secs_f64() < ctx.seconds * 0.85 {
        let trace = k % 2 == 0;
        let mut t = Tracer::new(trace);
        let t0 = Instant::now();
        let c = pass(&mut t, &inp, ctx.jobs, &mut tally);
        let wall = t0.elapsed().as_secs_f64();
        if trace {
            if k == 0 {
                // The process's first core: what a fresh `p4bid` pays.
                first_freeze_ms = t.durations_us("typeck.core_freeze")[0] / 1e3;
            }
            wall_traced.push(wall);
            per_pass.push(pass_metrics(&t, &c, &inp, probe.p(0.5) * 1e3, probe_n));
            last = Some(t);
        } else {
            wall_plain.push(wall);
        }
        k += 1;
    }
    out.tally.absorb(tally);
    let t = last.expect("at least one traced pass");
    std::fs::write("trace.ndjson", t.to_ndjson()).map_err(|e| e.to_string())?;
    let keep = ctx.root.join(".bench_work").join(format!("last-trace-{workload}.ndjson"));
    let _ = std::fs::copy("trace.ndjson", keep);
    for (l, ms, total) in layer_self_ms(&t) {
        out.note(format!(
            "layer {l} (last pass): self {ms:.3} ms ({:.1}% of {total:.3} ms)",
            100.0 * ms / total.max(1e-9)
        ));
    }

    // Each per-layer metric is the median over the traced passes.
    let m = &mut out.metrics;
    for (name, (_, unit)) in &per_pass[0].0 {
        let xs: Vec<f64> = per_pass.iter().filter_map(|p| p.0.get(name)).map(|v| v.0).collect();
        m.set(name, median(&xs), unit);
    }
    let unattributed_pct = m.0.get("harness.unattributed_pct").map_or(100.0, |v| v.0);
    if unattributed_pct > SPAN_TOLERANCE_PCT {
        out.tally.attempted += 1;
        out.tally.fail(format!(
            "replay: layer self-times cover only {:.1}% of the replay total (tolerance {SPAN_TOLERANCE_PCT}%)",
            100.0 - unattributed_pct
        ));
    }
    let m = &mut out.metrics;
    m.set("typeck.core_freeze_first_ms", first_freeze_ms, "ms");
    m.set("harness.gen_late_p99_ms", quantile(&probe.late_ms, 0.99), "ms");
    m.set(
        "harness.trace_overhead_pct",
        100.0 * (median(&wall_traced) - median(&wall_plain)) / median(&wall_plain).max(1e-9),
        "%",
    );
    m.set("harness.distinct_sources", distinct.len() as f64, "sources");
    out.note(format!(
        "passes: {} traced, {} untraced; daemon probe p50 {:.3} ms over {} requests at {} req/s",
        wall_traced.len(),
        wall_plain.len(),
        probe.p(0.5),
        probe.latency_ms.len(),
        drive::RATE_LOW
    ));
    Ok(())
}

/// Self time per layer in one pass, with the replay total: `(layer, ms,
/// total ms)`.
fn layer_self_ms(t: &Tracer) -> Vec<(&'static str, f64, f64)> {
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut total = 0.0;
    for (s, own) in t.spans.iter().zip(t.self_times()) {
        if s.name == "harness.replay" {
            total = (s.end - s.start) as f64 / 1e6;
        }
        *by_layer.entry(layer(s.name)).or_default() += own as f64 / 1e6;
    }
    by_layer.into_iter().map(|(l, ms)| (l, ms, total)).collect()
}

/// The per-layer metrics of one traced pass.
fn pass_metrics(
    t: &Tracer,
    c: &PassCounters,
    inp: &Inputs,
    probe_p50_us: f64,
    probe_n: usize,
) -> Metrics {
    let mut metrics = Metrics::default();
    let m = &mut metrics;
    let nbytes = inp.programs.iter().map(|l| l.source.len()).sum::<usize>() as f64;
    m.set("syntax.lex_ns_per_byte", t.total_us("syntax.lex") * 1e3 / nbytes, "ns/B");
    m.set("syntax.segment_ns_per_byte", t.total_us("syntax.segment") * 1e3 / nbytes, "ns/B");
    m.set("syntax.parse_us", median(&t.durations_us("syntax.parse")), "us");

    m.set("typeck.core_freeze_ms", median(&t.durations_us("typeck.core_freeze")) / 1e3, "ms");
    let check = t.durations_us("typeck.check");
    m.set("typeck.cold_check_us_p50", median(&check), "us");
    m.set("typeck.cold_check_us_p99", quantile(&check, 0.99), "us");
    // Per program: the check minus the syntax calls on the same source.
    let syntax_by_req: HashMap<u64, f64> =
        t.spans.iter().filter(|s| layer(s.name) == "syntax").fold(HashMap::new(), |mut acc, s| {
            *acc.entry(s.req).or_default() += (s.end - s.start) as f64 / 1e3;
            acc
        });
    let check_self: Vec<f64> = t
        .spans
        .iter()
        .filter(|s| s.name == "typeck.check")
        .map(|s| (s.end - s.start) as f64 / 1e3 - syntax_by_req.get(&s.req).copied().unwrap_or(0.0))
        .collect();
    m.set("typeck.check_self_us", median(&check_self), "us");
    m.set("typeck.frozen_sym_hit_rate", c.sym_hits as f64 / c.sym_calls.max(1) as f64, "ratio");
    m.set("typeck.frozen_ty_hit_rate", c.ty_hits as f64 / c.ty_calls.max(1) as f64, "ratio");
    let n_checks = check.len().max(1) as f64;
    m.set(
        "typeck.lineage_us",
        (t.total_us("typeck.check") - t.total_us("typeck.check_nolineage")) / n_checks,
        "us",
    );
    m.set(
        "typeck.snapshot_cost_us",
        (t.total_us("typeck.check") - t.total_us("typeck.check_cap0")) / n_checks,
        "us",
    );
    m.set(
        "typeck.snapshot_use_ratio",
        c.prefix_hits as f64 / c.prefix_inserts.max(1) as f64,
        "ratio",
    );
    m.set("typeck.resume_us", median(&c.resume_us), "us");
    m.set(
        "typeck.prefix_hit_ratio",
        c.prefix_hits as f64 / (c.prefix_hits + c.prefix_misses).max(1) as f64,
        "ratio",
    );
    m.set(
        "typeck.items_saved_per_hit",
        c.items_saved as f64 / c.prefix_hits.max(1) as f64,
        "items",
    );
    m.set("typeck.refreeze_ms", median(&t.durations_us("typeck.refreeze")) / 1e3, "ms");

    let j1 = t.total_us("batch.check_batch.jobs1") / 1e3;
    let jn = t.total_us("batch.check_batch.jobsN") / 1e3;
    m.set("batch.check_batch_ms.jobs1", j1, "ms");
    m.set("batch.check_batch_ms.jobsN", jn, "ms");
    m.set("batch.parallel_efficiency", j1 / (c.jobs_n as f64 * jn.max(1e-9)), "ratio");
    m.set("batch.policy_serial_ms", t.total_us("batch.check_batch_with_policy") / 1e3 - jn, "ms");
    m.set("batch.render_json_ms", t.total_us("batch.to_json") / 1e3, "ms");

    m.set("serve.parse_request_us", median(&t.durations_us("serve.parse_request")), "us");
    m.set("serve.render_ndjson_us", median(&t.durations_us("serve.to_ndjson")), "us");
    let served = c.epoch_us.values().map(Vec::len).sum::<usize>().max(1) as f64;
    for tier in ["verdict", "prefix", "cold"] {
        let xs = c.epoch_us.get(tier).cloned().unwrap_or_default();
        m.set(&format!("serve.epoch_us.{tier}_p50"), median(&xs), "us");
        m.set(&format!("serve.epoch_us.{tier}_p99"), quantile(&xs, 0.99), "us");
        m.set(&format!("serve.tier_share.{tier}"), xs.len() as f64 / served, "ratio");
    }
    m.set(
        "serve.verdict_cache_hit_ratio",
        c.cache_hits as f64 / (c.cache_hits + c.cache_misses).max(1) as f64,
        "ratio",
    );
    let inproc = median(&c.inproc_us[..probe_n.min(c.inproc_us.len())]);
    m.set("serve.door_overhead_us", probe_p50_us - inproc, "us");
    m.set("serve.cache_entries_end", c.cache_entries as f64, "entries");
    let mean = |name: &str| {
        let xs = t.durations_us(name);
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    m.set("serve.epoch_us_mean", mean("serve.run_epoch"), "us");
    m.set("serve.epoch_us_mean.no_verdict_cache", mean("serve.run_epoch.no_verdict_cache"), "us");
    m.set("serve.epoch_us_mean.no_refresh", mean("serve.run_epoch.no_refresh"), "us");

    let nfab = inp.fabrics.len().max(1) as f64;
    m.set("topo.manifest_parse_us", t.total_us("topo.manifest_parse") / nfab, "us");
    m.set("topo.assemble_us", t.total_us("topo.assemble") / nfab, "us");
    let topo_ms = t.total_us("topo.check_topology") / 1e3 / nfab;
    m.set("topo.check_topology_ms", topo_ms, "ms");
    m.set("topo.render_json_us", t.total_us("topo.to_json") / nfab, "us");
    let rechecks = c.rechecks.iter().sum::<f64>() / nfab;
    m.set("topo.rounds", c.rounds.iter().sum::<f64>() / nfab, "rounds");
    m.set("topo.switch_rechecks", rechecks, "checks");
    m.set("topo.useful_check_ratio", c.switches as f64 / nfab / rechecks.max(1.0), "ratio");
    let sw_us = c.switch_check_us.iter().sum::<f64>() / c.switch_check_us.len().max(1) as f64;
    m.set("topo.switch_check_us", sw_us, "us");
    m.set("topo.propagate_ms", topo_ms - rechecks * sw_us / 1e3, "ms");

    let layers = layer_self_ms(t);
    let harness = layers.iter().find(|(l, _, _)| *l == "harness").map_or(0.0, |x| x.1);
    let total = layers.first().map_or(0.0, |x| x.2);
    m.set("harness.unattributed_pct", 100.0 * harness / total.max(1e-9), "%");
    metrics
}

/// The replay's request stream, served to the daemon probe in order.
pub struct ProbeStream {
    reqs: Vec<EditRequest>,
    next: usize,
}

impl drive::RequestSource for ProbeStream {
    fn next_request(&mut self) -> EditRequest {
        let r = self.reqs[self.next % self.reqs.len()].clone();
        self.next += 1;
        r
    }
}
