//! Parallel batch checking: fan a corpus of programs out across cores,
//! collect per-program diagnostics deterministically, and render reports.
//!
//! The driver builds one [`SharedSessionCore`] — the prelude lexed, parsed,
//! checked, and its interner/pool frozen exactly once — and hands every
//! worker of a small dependency-free work-stealing thread pool a cheap
//! overlay [`CheckerSession`] cloned off it: every worker owns a deque of
//! program indices, pops from its own front, and steals from the back of
//! its neighbours when it runs dry. The calling thread is one of the
//! workers, and helpers are spawned only when there is more than one
//! program to check. Results are collected per worker and
//! merged **by input index**, never by completion order, so the rendered
//! reports are byte-identical run over run, across `--jobs` settings, and
//! across the shared-core vs cold-session paths — the contract the
//! determinism regression suite pins down ([`check_batch_cold`] keeps the
//! per-worker cold-session path alive exactly for that comparison).
//!
//! # Examples
//!
//! ```
//! use p4bid::batch::{check_batch, BatchInput};
//! use p4bid::CheckOptions;
//!
//! let inputs = vec![
//!     BatchInput::new("ok", "control C(inout bit<8> x) { apply { x = x + 8w1; } }"),
//!     BatchInput::new(
//!         "leak",
//!         "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) { apply { l = h; } }",
//!     ),
//! ];
//! let report = check_batch(&inputs, &CheckOptions::ifc(), 2);
//! assert_eq!(report.accepted(), 1);
//! assert_eq!(report.rejected(), 1);
//! assert_eq!(report.programs[1].diagnostics[0].code, "E-EXPLICIT-FLOW");
//! ```

use crate::policy::PolicyPack;
use crate::synth::synth_program;
use p4bid_ast::span::span_line_col;
use p4bid_typeck::{
    CheckOptions, CheckerSession, Diagnostic, FlowNode, SessionStats, SharedSessionCore,
};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// One program in a batch: a display name plus its source text.
#[derive(Debug, Clone)]
pub struct BatchInput {
    /// Display name (file name, or `synth-NNNN` for generated corpora).
    pub name: String,
    /// P4 source text.
    pub source: String,
}

impl BatchInput {
    /// Builds an input.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> Self {
        BatchInput { name: name.into(), source: source.into() }
    }
}

/// One endpoint of a reported lineage step: rendered expression, label
/// name, and its 1-based position in the program source (`0:0` for spans
/// outside it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageNode {
    /// Rendered expression or l-value.
    pub expr: String,
    /// Label name against the active lattice.
    pub label: String,
    /// 1-based line, or 0 for spans outside the source.
    pub line: u32,
    /// 1-based column, or 0 for spans outside the source.
    pub col: u32,
}

impl LineageNode {
    fn from_flow(n: &FlowNode, source: &str) -> Self {
        let (line, col) = span_line_col(source, n.span).map_or((0, 0), |lc| (lc.line, lc.col));
        LineageNode { expr: n.what.clone(), label: n.label.clone(), line, col }
    }
}

/// One step of a diagnostic's flow-lineage path, flattened for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageStep {
    /// Flow-operation ident (`assign`, `guard-pc`, `table`, …).
    pub op: String,
    /// Where the data came from.
    pub source: LineageNode,
    /// Where the data went.
    pub sink: LineageNode,
}

/// A diagnostic flattened for reporting: stable code, 1-based position in
/// the program's own source (`0:0` when the span does not fall inside it),
/// the human message, and the flow-lineage path explaining the violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchDiagnostic {
    /// Stable diagnostic ident, e.g. `E-EXPLICIT-FLOW`.
    pub code: String,
    /// 1-based line, or 0 for spans outside the source (prelude/dummy).
    pub line: u32,
    /// 1-based column, or 0 for spans outside the source.
    pub col: u32,
    /// Human-readable message.
    pub message: String,
    /// The source → sink flow path, oldest step first with the violating
    /// step last; empty for diagnostics with no flow to explain or when
    /// lineage recording is off.
    pub lineage: Vec<LineageStep>,
}

impl BatchDiagnostic {
    fn from_diagnostic(d: &Diagnostic, source: &str) -> Self {
        let (line, col) = span_line_col(source, d.span).map_or((0, 0), |lc| (lc.line, lc.col));
        let lineage = d
            .lineage
            .iter()
            .map(|e| LineageStep {
                op: e.op.ident().to_string(),
                source: LineageNode::from_flow(&e.source, source),
                sink: LineageNode::from_flow(&e.sink, source),
            })
            .collect();
        BatchDiagnostic {
            code: d.code.ident().to_string(),
            line,
            col,
            message: d.message.clone(),
            lineage,
        }
    }
}

/// The verdict for one program of the batch.
#[derive(Debug, Clone)]
pub struct ProgramReport {
    /// Position in the input list (reports are always sorted by this).
    pub index: usize,
    /// Input name.
    pub name: String,
    /// Whether the checker accepted the program.
    pub accepted: bool,
    /// Diagnostics for rejected programs (empty on accept).
    pub diagnostics: Vec<BatchDiagnostic>,
}

/// A whole-batch report, ordered by input index.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-program verdicts, sorted by input index.
    pub programs: Vec<ProgramReport>,
    /// Worker count the batch ran with (reporting only; excluded from the
    /// JSON form so reports are identical across `--jobs` settings).
    pub jobs: usize,
    /// Aggregated interner/pool tier statistics across the workers
    /// (reporting only — overlay sizes depend on work-stealing order, so
    /// these are excluded from the JSON form and from `render_table`;
    /// `p4bid batch --stats` prints them via
    /// [`render_stats`](BatchReport::render_stats)).
    pub stats: BatchStats,
}

/// Aggregated type-universe statistics for one batch run: the shared
/// frozen-segment sizes, the summed per-worker overlay sizes, the
/// frozen-segment hit counters, and the failure-domain counters (the
/// `p4bid-stats/3` additions).
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchStats {
    /// Per-worker session counters, merged (frozen sizes are shared and
    /// taken once; overlay sizes and hit counters are summed).
    pub sessions: SessionStats,
    /// Number of worker sessions the counters were merged from.
    pub workers: usize,
    /// Programs whose check panicked inside an isolated worker
    /// (`E-INTERNAL` verdicts).
    pub panics: u64,
    /// Programs whose check hit the `--check-timeout-ms` wall-clock
    /// budget (`E-TIMEOUT` verdicts).
    pub timeouts: u64,
    /// Programs rejected by the `--max-source-bytes` cap (`E-OVERSIZED`
    /// verdicts).
    pub oversized: u64,
    /// Requests checked in a final drain epoch after SIGTERM/SIGINT
    /// (serve/watch only; always 0 for plain batches).
    pub drained: u64,
    /// Topology fixpoint rounds until label stabilization (`p4bid topo`
    /// only; always 0 for plain batches — the `p4bid-stats/5` additions).
    pub topo_rounds: u64,
    /// Real (non-cache-hit) per-switch program checks across the
    /// topology fixpoint (`p4bid topo` only; always 0 for plain batches).
    pub switch_rechecks: u64,
}

impl BatchStats {
    pub(crate) fn absorb(&mut self, s: &SessionStats) {
        self.sessions.absorb(s);
        self.workers += 1;
    }

    /// Accumulates a whole batch's counters into this one — the shape a
    /// long-lived serve loop wants, tracking cumulative tier/hit-rate
    /// statistics across epochs.
    pub fn merge(&mut self, other: &BatchStats) {
        self.sessions.absorb(&other.sessions);
        self.workers += other.workers;
        self.panics += other.panics;
        self.timeouts += other.timeouts;
        self.oversized += other.oversized;
        self.drained += other.drained;
        self.topo_rounds += other.topo_rounds;
        self.switch_rechecks += other.switch_rechecks;
    }

    /// Derives the failure-domain counters from a finished report by
    /// scanning its diagnostic codes — counting the *merged* report (not
    /// per-worker tallies) keeps the counters independent of
    /// work-stealing order.
    pub(crate) fn count_failure_domains(&mut self, programs: &[ProgramReport]) {
        for p in programs {
            for d in &p.diagnostics {
                match d.code.as_str() {
                    "E-INTERNAL" => self.panics += 1,
                    "E-TIMEOUT" => self.timeouts += 1,
                    "E-OVERSIZED" => self.oversized += 1,
                    _ => {}
                }
            }
        }
    }

    /// Human-readable tier/hit-rate statistics block (`--stats`). Overlay
    /// sizes and hit counts depend on which worker checked which program,
    /// so this block is intentionally not part of the deterministic
    /// table/JSON report renderings.
    #[must_use]
    pub fn render_text(&self) -> String {
        let s = &self.sessions;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "type universe: frozen {} symbols / {} types; overlay +{} symbols / +{} types \
             across {} worker session(s)",
            s.frozen_syms, s.frozen_types, s.overlay_syms, s.overlay_types, self.workers,
        );
        let _ = writeln!(
            out,
            "frozen-segment hit rate: symbols {:.1}% ({}/{}), types {:.1}% ({}/{}), \
             push-cache hits {}",
            s.sym_hit_rate() * 100.0,
            s.sym_frozen_hits,
            s.sym_intern_calls,
            s.ty_hit_rate() * 100.0,
            s.ty_frozen_hits,
            s.ty_intern_calls,
            s.push_cache_hits,
        );
        let _ = writeln!(
            out,
            "incremental: prefix hits {} / misses {} (items saved {}), snapshots inserted {}, \
             lattice-state hits {} / published {}",
            s.prefix_hits,
            s.prefix_misses,
            s.prefix_items_saved,
            s.prefix_inserts,
            s.lattice_state_hits,
            s.lattice_states_published,
        );
        let _ = writeln!(
            out,
            "failure domains: panics {}, timeouts {}, oversized {}, drained {}",
            self.panics, self.timeouts, self.oversized, self.drained,
        );
        let _ = writeln!(
            out,
            "topology: fixpoint rounds {}, switch rechecks {}",
            self.topo_rounds, self.switch_rechecks,
        );
        out
    }

    /// Machine-readable statistics (`--stats-json`): one JSON document per
    /// line, schema `p4bid-stats/5`, emitted on **stderr** so the
    /// deterministic report schemas on stdout are never polluted —
    /// everything in here (overlay sizes, hit counters) legitimately
    /// varies with work-stealing order. `epochs` is present only for
    /// `serve`/`watch`, where the counters are cumulative across epochs;
    /// `ops` (the serve front-door and verdict-cache counters — the `/2`
    /// additions) likewise. The `/3` revision added the failure-domain
    /// counters (`panics`, `timeouts`, `oversized`, `drained`); `/4` added
    /// the incremental-checking counters (`prefix_hits`, `prefix_misses`,
    /// `prefix_inserts`, `prefix_items_saved`, `lattice_state_hits`,
    /// `lattice_states_published`, and `refreezes` in the `ops` block);
    /// `/5` added the topology fixpoint counters (`topo_rounds`,
    /// `switch_rechecks`).
    #[must_use]
    pub fn render_json(
        &self,
        command: &str,
        epochs: Option<u64>,
        ops: Option<&crate::serve::ServeOps>,
    ) -> String {
        let s = &self.sessions;
        let mut out = String::from("{");
        let _ = write!(out, "\"schema\": \"p4bid-stats/5\"");
        let _ = write!(out, ", \"command\": {}", json_string(command));
        if let Some(epochs) = epochs {
            let _ = write!(out, ", \"epochs\": {epochs}");
        }
        let _ = write!(out, ", \"workers\": {}", self.workers);
        let _ = write!(out, ", \"frozen_syms\": {}", s.frozen_syms);
        let _ = write!(out, ", \"overlay_syms\": {}", s.overlay_syms);
        let _ = write!(out, ", \"frozen_types\": {}", s.frozen_types);
        let _ = write!(out, ", \"overlay_types\": {}", s.overlay_types);
        let _ = write!(out, ", \"sym_frozen_hits\": {}", s.sym_frozen_hits);
        let _ = write!(out, ", \"sym_intern_calls\": {}", s.sym_intern_calls);
        let _ = write!(out, ", \"sym_hit_rate\": {:.4}", s.sym_hit_rate());
        let _ = write!(out, ", \"ty_frozen_hits\": {}", s.ty_frozen_hits);
        let _ = write!(out, ", \"ty_intern_calls\": {}", s.ty_intern_calls);
        let _ = write!(out, ", \"ty_hit_rate\": {:.4}", s.ty_hit_rate());
        let _ = write!(out, ", \"push_cache_hits\": {}", s.push_cache_hits);
        let _ = write!(out, ", \"prefix_hits\": {}", s.prefix_hits);
        let _ = write!(out, ", \"prefix_misses\": {}", s.prefix_misses);
        let _ = write!(out, ", \"prefix_inserts\": {}", s.prefix_inserts);
        let _ = write!(out, ", \"prefix_items_saved\": {}", s.prefix_items_saved);
        let _ = write!(out, ", \"lattice_state_hits\": {}", s.lattice_state_hits);
        let _ = write!(out, ", \"lattice_states_published\": {}", s.lattice_states_published);
        let _ = write!(out, ", \"panics\": {}", self.panics);
        let _ = write!(out, ", \"timeouts\": {}", self.timeouts);
        let _ = write!(out, ", \"oversized\": {}", self.oversized);
        let _ = write!(out, ", \"drained\": {}", self.drained);
        let _ = write!(out, ", \"topo_rounds\": {}", self.topo_rounds);
        let _ = write!(out, ", \"switch_rechecks\": {}", self.switch_rechecks);
        if let Some(o) = ops {
            let _ = write!(out, ", \"connections\": {}", o.connections);
            let _ = write!(out, ", \"conn_errors\": {}", o.conn_errors);
            let _ = write!(out, ", \"shed\": {}", o.shed);
            let _ = write!(out, ", \"peak_pending\": {}", o.peak_pending);
            let _ = write!(out, ", \"cache_hits\": {}", o.cache_hits);
            let _ = write!(out, ", \"cache_misses\": {}", o.cache_misses);
            let _ = write!(out, ", \"cache_size\": {}", o.cache_size);
            let _ = write!(out, ", \"refreezes\": {}", o.refreezes);
        }
        out.push_str("}\n");
        out
    }
}

impl BatchReport {
    /// Number of accepted programs.
    #[must_use]
    pub fn accepted(&self) -> usize {
        self.programs.iter().filter(|p| p.accepted).count()
    }

    /// Number of rejected programs.
    #[must_use]
    pub fn rejected(&self) -> usize {
        self.programs.len() - self.accepted()
    }

    /// Whether every program was accepted.
    #[must_use]
    pub fn all_accepted(&self) -> bool {
        self.rejected() == 0
    }

    /// Machine-readable JSON form (schema `p4bid-batch-report/2`; the `/2`
    /// revision added the per-diagnostic `lineage` array).
    ///
    /// Deliberately timing-free: two runs over the same inputs produce
    /// byte-identical JSON regardless of scheduling or worker count.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"p4bid-batch-report/2\",\n");
        out.push_str("  \"programs\": [\n");
        for (i, p) in self.programs.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&program_json(p));
            out.push_str(if i + 1 == self.programs.len() { "\n" } else { ",\n" });
        }
        out.push_str("  ],\n");
        let _ = writeln!(out, "  \"summary\": {}", self.summary_json());
        out.push_str("}\n");
        out
    }

    /// The `{"total": …, "accepted": …, "rejected": …}` summary object
    /// shared by the batch and serve report schemas.
    pub(crate) fn summary_json(&self) -> String {
        format!(
            "{{\"total\": {}, \"accepted\": {}, \"rejected\": {}}}",
            self.programs.len(),
            self.accepted(),
            self.rejected(),
        )
    }

    /// Human-readable table, one row per program plus a summary line.
    #[must_use]
    pub fn render_table(&self) -> String {
        let name_w = self.programs.iter().map(|p| p.name.len()).max().unwrap_or(4).clamp(4, 40);
        let mut out = String::new();
        let _ = writeln!(out, "{:>5}  {:<name_w$}  {:<8}  diagnostics", "#", "name", "status");
        for p in &self.programs {
            let diag = match p.diagnostics.first() {
                None => String::new(),
                Some(d) => {
                    let more = p.diagnostics.len() - 1;
                    let suffix = if more > 0 { format!(" (+{more} more)") } else { String::new() };
                    format!("{} @ {}:{}{suffix}", d.code, d.line, d.col)
                }
            };
            let status = if p.accepted { "accept" } else { "REJECT" };
            let _ = writeln!(out, "{:>5}  {:<name_w$}  {:<8}  {diag}", p.index, p.name, status);
        }
        let _ = writeln!(
            out,
            "{} program(s): {} accepted, {} rejected",
            self.programs.len(),
            self.accepted(),
            self.rejected(),
        );
        out
    }

    /// Human-readable tier/hit-rate statistics block (`p4bid batch
    /// --stats`); see [`BatchStats::render_text`].
    #[must_use]
    pub fn render_stats(&self) -> String {
        self.stats.render_text()
    }
}

/// Renders one program's verdict as a JSON object — the exact bytes the
/// `p4bid-batch-report/2` schema embeds, reused verbatim by the
/// `p4bid-serve-report/2` epoch documents so the two schemas can never
/// drift apart per program.
pub(crate) fn program_json(p: &ProgramReport) -> String {
    let mut out = String::new();
    let status = if p.accepted { "accept" } else { "reject" };
    let _ = write!(
        out,
        "{{\"index\": {}, \"name\": {}, \"status\": \"{status}\", \"diagnostics\": [",
        p.index,
        json_string(&p.name),
    );
    for (j, d) in p.diagnostics.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"code\": {}, \"line\": {}, \"col\": {}, \"message\": {}, \"lineage\": [",
            if j == 0 { "" } else { ", " },
            json_string(&d.code),
            d.line,
            d.col,
            json_string(&d.message),
        );
        for (k, step) in d.lineage.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"op\": {}, \"source\": {}, \"sink\": {}}}",
                if k == 0 { "" } else { ", " },
                json_string(&step.op),
                lineage_node_json(&step.source),
                lineage_node_json(&step.sink),
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Renders one lineage endpoint for the report schemas.
fn lineage_node_json(n: &LineageNode) -> String {
    format!(
        "{{\"expr\": {}, \"label\": {}, \"line\": {}, \"col\": {}}}",
        json_string(&n.expr),
        json_string(&n.label),
        n.line,
        n.col,
    )
}

/// Escapes `s` as a JSON string literal (shared by the batch, serve, and
/// stats renderers — every schema in this crate is hand-rendered so the
/// byte-identical-report contract never depends on a serializer's
/// formatting choices).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A work-stealing queue of task indices: one deque per worker, owners pop
/// from the front, thieves steal from the back.
///
/// Tasks never spawn tasks here, so termination is simple: a worker exits
/// once every deque (its own and all victims') is empty.
#[derive(Debug)]
pub struct StealQueue {
    deques: Vec<Mutex<VecDeque<usize>>>,
}

impl StealQueue {
    /// Distributes `tasks` task indices round-robin over `workers` deques.
    #[must_use]
    pub fn new(tasks: usize, workers: usize) -> Self {
        let workers = workers.max(1);
        let mut deques: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
        for t in 0..tasks {
            deques[t % workers].push_back(t);
        }
        StealQueue { deques: deques.into_iter().map(Mutex::new).collect() }
    }

    /// Number of worker deques.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.deques.len()
    }

    /// The next task for `worker`: its own front, else a steal from the
    /// back of the first non-empty victim. `None` means global exhaustion.
    #[must_use]
    pub fn next_task(&self, worker: usize) -> Option<usize> {
        if let Some(t) = self.deques[worker].lock().expect("queue lock").pop_front() {
            return Some(t);
        }
        let n = self.deques.len();
        for off in 1..n {
            let victim = (worker + off) % n;
            if let Some(t) = self.deques[victim].lock().expect("queue lock").pop_back() {
                return Some(t);
            }
        }
        None
    }
}

/// Where one pool slot's worker sessions come from.
pub(crate) enum SessionSource {
    /// Cheap overlay sessions cloned off a frozen shared core.
    Core(SharedSessionCore),
    /// Cold sessions that each re-check the prelude (the historical
    /// per-worker path [`check_batch_cold`] keeps alive).
    Cold(CheckOptions),
}

impl SessionSource {
    fn session(&self) -> CheckerSession {
        match self {
            SessionSource::Core(core) => core.session(),
            SessionSource::Cold(opts) => CheckerSession::new(opts.clone()),
        }
    }
}

/// One check of a pool pass: the slot whose sessions check it, and the
/// position of its input in the pool's input list.
pub(crate) type PoolTask = (usize, usize);

/// What a pool leaves behind once its helpers are joined: every worker
/// session's counters (merged once, at the end) and, when asked for,
/// their harvests.
#[derive(Default)]
pub(crate) struct PoolOutcome {
    pub(crate) stats: BatchStats,
    pub(crate) harvests: Vec<p4bid_typeck::SessionHarvest>,
}

/// The per-slot sessions one worker owns. Sessions hold `Rc`-backed
/// overlay tables, so they never leave the worker's thread; they live
/// for the whole pool, keyed by slot, so a worker that checks slot `k`
/// in several passes reuses one warm session.
#[derive(Default)]
struct WorkerSessions {
    by_slot: Vec<Option<CheckerSession>>,
}

impl WorkerSessions {
    /// Drains `pass` as `worker`, checking each task with this worker's
    /// session for the task's slot (built on first use).
    fn drain(&mut self, shared: &PoolShared<'_>, pass: &Pass, worker: usize) -> Vec<ProgramReport> {
        let mut out = Vec::new();
        if worker >= pass.queue.workers() {
            return out;
        }
        while let Some(t) = pass.queue.next_task(worker) {
            let (slot, i) = pass.tasks[t];
            let make_session = || lock(&shared.sources)[slot].session();
            if self.by_slot.len() <= slot {
                self.by_slot.resize_with(slot + 1, || None);
            }
            let session = self.by_slot[slot].get_or_insert_with(make_session);
            out.push(check_one_isolated(session, make_session, i, &shared.inputs[i]));
        }
        out
    }

    /// Merges every session's counters and, with `harvest`, consumes the
    /// sessions into harvests.
    fn finish(self, harvest: bool) -> PoolOutcome {
        let mut outcome = PoolOutcome::default();
        for session in self.by_slot.into_iter().flatten() {
            outcome.stats.absorb(&session.stats());
            if harvest {
                outcome.harvests.extend(session.into_harvest());
            }
        }
        outcome
    }
}

/// One published pass: its tasks and the work-stealing queue over them.
struct Pass {
    tasks: Vec<PoolTask>,
    queue: StealQueue,
}

/// The pool state helpers wait on.
#[derive(Default)]
struct PoolState {
    /// Bumped on every pass published to the helpers.
    generation: u64,
    pass: Option<Arc<Pass>>,
    /// Results the helpers have handed back for the current pass.
    results: Vec<ProgramReport>,
    shutdown: bool,
    /// A helper died outside the per-program containment boundary.
    helper_failed: bool,
}

/// Everything the caller and its helpers share.
struct PoolShared<'env> {
    inputs: &'env [BatchInput],
    sources: Mutex<Vec<SessionSource>>,
    state: Mutex<PoolState>,
    /// Helpers park here between passes.
    wake: Condvar,
    /// The caller waits here for helpers to hand back a pass's results.
    done: Condvar,
}

/// Flags a helper's death (a panic outside [`check_one_isolated`]'s
/// boundary) so a caller waiting on the pass fails instead of hanging.
struct HelperGuard<'a, 'env>(&'a PoolShared<'env>);

impl Drop for HelperGuard<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            lock(&self.0.state).helper_failed = true;
            self.0.done.notify_all();
        }
    }
}

/// A helper thread's life: park until a pass is published, drain it,
/// hand the results back, park again; on shutdown, report its sessions.
fn helper_loop(
    shared: &PoolShared<'_>,
    worker: usize,
    mut seen: u64,
    harvest: bool,
) -> PoolOutcome {
    let _guard = HelperGuard(shared);
    let mut sessions = WorkerSessions::default();
    'passes: loop {
        let pass = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    break 'passes;
                }
                if st.generation != seen {
                    seen = st.generation;
                    // `None`: the pass finished before this helper woke.
                    if let Some(pass) = &st.pass {
                        break Arc::clone(pass);
                    }
                }
                st = shared.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let out = sessions.drain(shared, &pass, worker);
        if !out.is_empty() {
            let mut st = lock(&shared.state);
            st.results.extend(out);
            shared.done.notify_one();
        }
    }
    sessions.finish(harvest)
}

/// A worker pool that lives for one scope — a batch, or one topology
/// epoch — and runs any number of *passes* over a fixed input list.
///
/// The calling thread is worker 0 and checks alongside its helpers.
/// Helpers are spawned lazily, at most `jobs − 1` of them and only once a
/// pass has two or more tasks, so a one-program batch or a one-switch
/// topology never leaves the caller's thread. Between passes helpers park
/// on a condvar rather than exiting, and every worker keeps one session
/// per slot for the pool's whole life. Tasks are tagged with their slot,
/// so one pass can mix programs checked under different cores. A pass's
/// verdicts come back sorted by input index, never by completion order.
pub(crate) struct CheckPool<'scope, 'env> {
    scope: &'scope std::thread::Scope<'scope, 'env>,
    shared: Arc<PoolShared<'env>>,
    jobs: usize,
    harvest: bool,
    helpers: Vec<std::thread::ScopedJoinHandle<'scope, PoolOutcome>>,
    local: WorkerSessions,
    /// Failure-domain counters of every pass so far.
    failures: BatchStats,
}

/// Runs `f` with a [`CheckPool`] of `jobs` workers over `inputs`, then
/// joins the helpers and returns `f`'s result with the pool's outcome.
/// With `harvest`, every worker session is consumed into a
/// [`p4bid_typeck::SessionHarvest`] at the end.
pub(crate) fn with_pool<'env, R>(
    inputs: &'env [BatchInput],
    jobs: usize,
    harvest: bool,
    f: impl for<'scope> FnOnce(&mut CheckPool<'scope, 'env>) -> R,
) -> (R, PoolOutcome) {
    std::thread::scope(|scope| {
        let mut pool = CheckPool {
            scope,
            shared: Arc::new(PoolShared {
                inputs,
                sources: Mutex::new(Vec::new()),
                state: Mutex::new(PoolState::default()),
                wake: Condvar::new(),
                done: Condvar::new(),
            }),
            jobs: jobs.max(1),
            harvest,
            helpers: Vec::new(),
            local: WorkerSessions::default(),
            failures: BatchStats::default(),
        };
        let result = f(&mut pool);
        (result, pool.finish())
    })
}

impl CheckPool<'_, '_> {
    /// Registers a session source and returns its slot (slots number in
    /// registration order).
    pub(crate) fn add_slot(&mut self, source: SessionSource) -> usize {
        let mut sources = lock(&self.shared.sources);
        sources.push(source);
        sources.len() - 1
    }

    /// Number of registered slots.
    pub(crate) fn slots(&self) -> usize {
        lock(&self.shared.sources).len()
    }

    /// Helper threads spawned so far (the caller is not counted).
    #[cfg(test)]
    pub(crate) fn helpers(&self) -> usize {
        self.helpers.len()
    }

    /// Checks every task as one pass and returns the verdicts sorted by
    /// input index. Spawns helpers on the first pass that can use them.
    pub(crate) fn run_pass(&mut self, tasks: Vec<PoolTask>) -> Vec<ProgramReport> {
        let n = tasks.len();
        let want = self.jobs.min(n).saturating_sub(1);
        while self.helpers.len() < want {
            let shared = Arc::clone(&self.shared);
            let worker = self.helpers.len() + 1;
            let seen = lock(&shared.state).generation;
            let harvest = self.harvest;
            self.helpers
                .push(self.scope.spawn(move || helper_loop(&shared, worker, seen, harvest)));
        }
        let workers = (self.helpers.len() + 1).min(n).max(1);
        let pass = Arc::new(Pass { queue: StealQueue::new(n, workers), tasks });
        if workers > 1 {
            let mut st = lock(&self.shared.state);
            st.generation += 1;
            st.pass = Some(Arc::clone(&pass));
            drop(st);
            self.shared.wake.notify_all();
        }
        let mut out = self.local.drain(&self.shared, &pass, 0);
        if workers > 1 {
            let mut st = lock(&self.shared.state);
            while st.results.len() + out.len() < n {
                assert!(!st.helper_failed, "batch worker panicked");
                st = self.shared.done.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            out.append(&mut st.results);
            st.pass = None;
        }
        // Deterministic contract: order by input index, not completion.
        out.sort_by_key(|p| p.index);
        self.failures.count_failure_domains(&out);
        out
    }

    /// Stops and joins the helpers and merges every worker's sessions.
    fn finish(mut self) -> PoolOutcome {
        self.stop();
        let mut outcome = std::mem::take(&mut self.local).finish(self.harvest);
        for h in std::mem::take(&mut self.helpers) {
            let helper = h.join().expect("batch worker panicked");
            outcome.stats.merge(&helper.stats);
            outcome.harvests.extend(helper.harvests);
        }
        outcome.stats.merge(&self.failures);
        outcome
    }

    fn stop(&self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.wake.notify_all();
    }
}

impl Drop for CheckPool<'_, '_> {
    /// Releases parked helpers even when the caller unwinds, so the
    /// enclosing scope's implicit join cannot hang.
    fn drop(&mut self) {
        self.stop();
    }
}

/// Locks a pool mutex, riding through poisoning: a worker panic is
/// contained per program, and the guarded state stays structurally valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Resolves a `--jobs` value: `0` means one worker per available core.
pub(crate) fn resolve_jobs(jobs: usize) -> usize {
    match jobs {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
}

/// Checks every input against one freshly frozen [`SharedSessionCore`]
/// and returns the ordered report.
///
/// `jobs == 0` means "one worker per available core". The prelude is
/// lexed, parsed, and checked exactly once (when the core is frozen); each
/// worker owns a private overlay [`CheckerSession`] cloned off the core.
/// Verdicts are merged by input index so the report (and its JSON/table
/// renderings) is deterministic.
#[must_use]
pub fn check_batch(inputs: &[BatchInput], opts: &CheckOptions, jobs: usize) -> BatchReport {
    let core = SharedSessionCore::new(opts.clone());
    check_batch_with_core(inputs, &core, jobs)
}

/// [`check_batch`] against an existing shared core — the entry point for
/// long-lived services that keep one core across many batches.
#[must_use]
pub fn check_batch_with_core(
    inputs: &[BatchInput],
    core: &SharedSessionCore,
    jobs: usize,
) -> BatchReport {
    run_batch(inputs, jobs, SessionSource::Core(core.clone()), false).0
}

/// [`check_batch_with_core`] that also harvests every worker session's
/// overlay tables and newly built per-lattice prelude states, for callers
/// that periodically [`SharedSessionCore::refreeze`] the core (serve's
/// `--refresh-every` hook). Harvests are returned in worker order; the
/// report is byte-identical to [`check_batch_with_core`]'s.
#[must_use]
pub fn check_batch_harvesting(
    inputs: &[BatchInput],
    core: &SharedSessionCore,
    jobs: usize,
) -> (BatchReport, Vec<p4bid_typeck::SessionHarvest>) {
    run_batch(inputs, jobs, SessionSource::Core(core.clone()), true)
}

/// [`check_batch`] on the pre-shared-core path: every worker builds its
/// own cold session (prelude re-checked per worker). Kept so the
/// determinism suite can assert the shared-core reports are byte-identical
/// to the historical per-worker-session output.
#[must_use]
pub fn check_batch_cold(inputs: &[BatchInput], opts: &CheckOptions, jobs: usize) -> BatchReport {
    run_batch(inputs, jobs, SessionSource::Cold(opts.clone()), false).0
}

/// Checks a batch under a policy pack: each input's effective options are
/// resolved from its *name*, and each distinct resolved option set (in
/// first-appearance order, so the slots are deterministic) gets its own
/// shared core. The whole batch then runs as **one** pool pass whose
/// tasks are tagged with their core's slot, and verdicts merge by input
/// index — a pack that resolves every name to the base options produces
/// exactly [`check_batch`]'s output.
#[must_use]
pub fn check_batch_with_policy(
    inputs: &[BatchInput],
    base: &CheckOptions,
    pack: &PolicyPack,
    jobs: usize,
) -> BatchReport {
    check_batch_with_policy_cap(inputs, base, pack, jobs, p4bid_typeck::DEFAULT_PREFIX_CACHE_CAP)
}

/// [`check_batch_with_policy`] whose every group core holds at most
/// `prefix_cap` prefix snapshots (`--prefix-cache-cap`; `0` disables
/// them).
#[must_use]
pub fn check_batch_with_policy_cap(
    inputs: &[BatchInput],
    base: &CheckOptions,
    pack: &PolicyPack,
    jobs: usize,
    prefix_cap: usize,
) -> BatchReport {
    let core_for = |opts: &CheckOptions| {
        SessionSource::Core(SharedSessionCore::with_prefix_cache_cap(opts.clone(), prefix_cap))
    };
    if pack.is_empty() {
        return run_batch(inputs, jobs, core_for(base), false).0;
    }
    let mut fps: Vec<u64> = Vec::new();
    let mut sources: Vec<SessionSource> = Vec::new();
    let mut tasks: Vec<PoolTask> = Vec::with_capacity(inputs.len());
    for (i, inp) in inputs.iter().enumerate() {
        let opts = pack.resolve(&inp.name, base);
        let fp = crate::serve::options_fingerprint(&opts);
        let slot = fps.iter().position(|&g| g == fp).unwrap_or_else(|| {
            fps.push(fp);
            sources.push(core_for(&opts));
            fps.len() - 1
        });
        tasks.push((slot, i));
    }
    run_tasks(inputs, jobs, sources, tasks, false).0
}

/// The shared driver: checks every input with sessions from `source`.
fn run_batch(
    inputs: &[BatchInput],
    jobs: usize,
    source: SessionSource,
    harvest: bool,
) -> (BatchReport, Vec<p4bid_typeck::SessionHarvest>) {
    let tasks = (0..inputs.len()).map(|i| (0, i)).collect();
    run_tasks(inputs, jobs, vec![source], tasks, harvest)
}

/// Runs `tasks` over `inputs` as one pass of a fresh [`CheckPool`] with
/// `sources` as its slots. With `harvest`, every worker session is
/// consumed into a [`p4bid_typeck::SessionHarvest`] after the pass
/// (sessions a panic tore down mid-batch were already replaced, so their
/// fresh substitute is harvested instead — an empty but valid overlay).
fn run_tasks(
    inputs: &[BatchInput],
    jobs: usize,
    sources: Vec<SessionSource>,
    tasks: Vec<PoolTask>,
    harvest: bool,
) -> (BatchReport, Vec<p4bid_typeck::SessionHarvest>) {
    let jobs = resolve_jobs(jobs).min(inputs.len()).max(1);
    let (programs, outcome) = with_pool(inputs, jobs, harvest, |pool| {
        for source in sources {
            pool.add_slot(source);
        }
        pool.run_pass(tasks)
    });
    (BatchReport { programs, jobs, stats: outcome.stats }, outcome.harvests)
}

/// [`check_one`] inside a crash containment boundary: a panicking check —
/// a checker bug, a pathological program, or an injected `P4BID_FAULTS`
/// fault — becomes a deterministic `E-INTERNAL` verdict for that program
/// alone, and the worker keeps draining its queue. A panic inside the
/// check may have torn the session mid-mutation, so the worker goes on
/// with a freshly rebuilt one. An injected panic fires before the session
/// is touched, so the worker keeps its session — and with it everything
/// earlier programs taught its overlay, which a refreeze harvests. (A
/// rebuild there would make that harvest depend on which worker happened
/// to draw the faulting program.)
pub(crate) fn check_one_isolated(
    session: &mut CheckerSession,
    make_session: impl Fn() -> CheckerSession,
    index: usize,
    input: &BatchInput,
) -> ProgramReport {
    // Arm the wall-clock deadline before the fault hook so injected
    // slowness (`P4BID_FAULTS=…:slow=…`) deterministically exercises the
    // `--check-timeout-ms` path; key injected faults on the program's
    // content hash so the same program faults identically regardless of
    // which worker picks it up. The hash exists only to key injected
    // faults; skip it (it is O(source)) on the vastly common no-faults
    // path.
    let deadline = session.options().deadline_from_now();
    if crate::faults::plan().is_some() {
        let key = p4bid_ast::fnv::hash(input.source.as_bytes());
        if std::panic::catch_unwind(|| crate::faults::check_faults(key)).is_err() {
            return internal_error_report(index, input);
        }
    }
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        check_one(session, deadline, index, input)
    })) {
        Ok(report) => report,
        Err(_) => {
            *session = make_session();
            internal_error_report(index, input)
        }
    }
}

/// The deterministic verdict a caught worker panic turns into. The
/// message deliberately carries no panic payload or location — payloads
/// can differ across runs, and the byte-identical-report contract covers
/// faulting programs too.
pub(crate) fn internal_error_report(index: usize, input: &BatchInput) -> ProgramReport {
    ProgramReport {
        index,
        name: input.name.clone(),
        accepted: false,
        diagnostics: vec![BatchDiagnostic {
            code: "E-INTERNAL".to_string(),
            line: 0,
            col: 0,
            message: "internal error: the checker panicked on this program".to_string(),
            lineage: Vec::new(),
        }],
    }
}

fn check_one(
    session: &mut CheckerSession,
    deadline: Option<std::time::Instant>,
    index: usize,
    input: &BatchInput,
) -> ProgramReport {
    session.set_deadline(deadline);
    match session.check(&input.source) {
        Ok(_) => ProgramReport {
            index,
            name: input.name.clone(),
            accepted: true,
            diagnostics: Vec::new(),
        },
        Err(diags) => ProgramReport {
            index,
            name: input.name.clone(),
            accepted: false,
            diagnostics: diags
                .iter()
                .map(|d| BatchDiagnostic::from_diagnostic(d, &input.source))
                .collect(),
        },
    }
}

/// A deterministic synthetic corpus of `n` well-typed annotated programs
/// (sizes cycling over 1–8 table/action pairs), for scale testing and the
/// `batch` bench. Every program is accepted by the IFC checker.
#[must_use]
pub fn synthetic_corpus(n: usize) -> Vec<BatchInput> {
    (0..n)
        .map(|i| BatchInput::new(format!("synth-{i:04}"), synth_program(i % 8 + 1, true)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_inputs() -> Vec<BatchInput> {
        let mut inputs = synthetic_corpus(6);
        inputs.insert(
            2,
            BatchInput::new(
                "leak",
                "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) { apply { l = h; } }",
            ),
        );
        inputs.insert(5, BatchInput::new("syntax-error", "control {"));
        inputs
    }

    #[test]
    fn verdicts_are_input_ordered_and_correct() {
        let report = check_batch(&mixed_inputs(), &CheckOptions::ifc(), 4);
        assert_eq!(report.programs.len(), 8);
        for (i, p) in report.programs.iter().enumerate() {
            assert_eq!(p.index, i);
        }
        assert_eq!(report.rejected(), 2);
        assert!(!report.programs[2].accepted);
        assert_eq!(report.programs[2].diagnostics[0].code, "E-EXPLICIT-FLOW");
        assert!(!report.programs[5].accepted);
        assert_eq!(report.programs[5].diagnostics[0].code, "E-MALFORMED");
    }

    #[test]
    fn reports_identical_across_job_counts() {
        let inputs = mixed_inputs();
        let opts = CheckOptions::ifc();
        let one = check_batch(&inputs, &opts, 1);
        for jobs in [2, 3, 8] {
            let par = check_batch(&inputs, &opts, jobs);
            assert_eq!(one.to_json(), par.to_json(), "jobs={jobs}");
            assert_eq!(one.render_table(), par.render_table(), "jobs={jobs}");
        }
    }

    #[test]
    fn json_is_schema_tagged_and_escaped() {
        let inputs = vec![BatchInput::new("we\"ird\nname", "control {")];
        let report = check_batch(&inputs, &CheckOptions::ifc(), 1);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"p4bid-batch-report/2\""), "{json}");
        assert!(json.contains("we\\\"ird\\nname"), "{json}");
        assert!(json.contains("\"summary\": {\"total\": 1, \"accepted\": 0, \"rejected\": 1}"));
    }

    #[test]
    fn diagnostics_carry_positions_in_their_own_source() {
        let src =
            "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) {\n    apply { l = h; }\n}\n";
        let report = check_batch(&[BatchInput::new("leak", src)], &CheckOptions::ifc(), 1);
        let d = &report.programs[0].diagnostics[0];
        assert_eq!((d.line, d.col), (2, 13), "{d:?}");
    }

    #[test]
    fn empty_batch_is_all_accepted() {
        let report = check_batch(&[], &CheckOptions::ifc(), 0);
        assert!(report.all_accepted());
        assert_eq!(report.programs.len(), 0);
        assert!(report.to_json().contains("\"total\": 0"));
    }

    #[test]
    fn steal_queue_drains_exactly_once() {
        let q = StealQueue::new(100, 3);
        let mut seen = [false; 100];
        // Worker 1 never pops its own; everything still drains via steals.
        while let Some(t) = q.next_task(1) {
            assert!(!seen[t], "task {t} handed out twice");
            seen[t] = true;
        }
        assert!(seen.iter().all(|&s| s), "all tasks drained");
        for w in 0..q.workers() {
            assert_eq!(q.next_task(w), None);
        }
    }

    #[test]
    fn a_batch_of_one_stays_on_the_calling_thread() {
        let inputs = synthetic_corpus(1);
        let core = SharedSessionCore::new(CheckOptions::ifc());
        let ((programs, helpers), outcome) = with_pool(&inputs, 8, false, |pool| {
            let slot = pool.add_slot(SessionSource::Core(core.clone()));
            (pool.run_pass(vec![(slot, 0)]), pool.helpers())
        });
        assert_eq!(helpers, 0, "a one-task pass spawns no helper");
        assert!(programs[0].accepted);
        assert_eq!(outcome.stats.workers, 1);
    }

    #[test]
    fn pool_sessions_live_across_passes_keyed_by_slot() {
        let inputs = mixed_inputs();
        let plain = CheckOptions::ifc();
        let permissive = CheckOptions::permissive();
        let ((passes, helpers), outcome) = with_pool(&inputs, 2, false, |pool| {
            let a = pool.add_slot(SessionSource::Core(SharedSessionCore::new(plain.clone())));
            let b = pool.add_slot(SessionSource::Core(SharedSessionCore::new(permissive.clone())));
            // Alternate which slot leads each pass, as fixpoint rounds do.
            let passes: Vec<_> = (0..4)
                .map(|k| {
                    let slot = |i: usize| if (i + k).is_multiple_of(2) { a } else { b };
                    (k, pool.run_pass((0..inputs.len()).map(|i| (slot(i), i)).collect()))
                })
                .collect();
            (passes, pool.helpers())
        });
        assert_eq!(helpers, 1, "jobs 2: the caller plus one helper, spawned once");
        assert!(outcome.stats.workers <= 4, "two workers × two slots: {:?}", outcome.stats);
        let by_opts = [check_batch(&inputs, &plain, 1), check_batch(&inputs, &permissive, 1)];
        for (k, programs) in passes {
            assert_eq!(programs.len(), inputs.len());
            for (i, p) in programs.iter().enumerate() {
                let want = &by_opts[(i + k) % 2].programs[i];
                assert_eq!(program_json(p), program_json(want), "pass {k} input {i}");
            }
        }
    }

    #[test]
    fn pool_survives_many_short_passes() {
        // Passes of 1–3 tasks: helpers wake late, find a finished pass, or
        // sit one out — none of which may lose or duplicate a verdict.
        let inputs = mixed_inputs();
        let want = check_batch(&inputs, &CheckOptions::ifc(), 1);
        let core = SharedSessionCore::new(CheckOptions::ifc());
        let (checked, _) = with_pool(&inputs, 4, false, |pool| {
            let slot = pool.add_slot(SessionSource::Core(core.clone()));
            (0..300)
                .flat_map(|k| {
                    let tasks = (0..k % 3 + 1).map(|j| (slot, (k + j) % inputs.len())).collect();
                    pool.run_pass(tasks)
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(checked.len(), 600);
        for p in &checked {
            assert_eq!(program_json(p), program_json(&want.programs[p.index]));
        }
    }

    #[test]
    fn synthetic_corpus_is_accepted_at_scale() {
        let inputs = synthetic_corpus(64);
        let report = check_batch(&inputs, &CheckOptions::ifc(), 0);
        assert!(report.all_accepted(), "{}", report.render_table());
    }

    #[test]
    fn shared_core_and_cold_paths_render_identically() {
        let inputs = mixed_inputs();
        let opts = CheckOptions::ifc();
        let cold = check_batch_cold(&inputs, &opts, 1);
        for jobs in [1, 2, 8] {
            let shared = check_batch(&inputs, &opts, jobs);
            assert_eq!(cold.to_json(), shared.to_json(), "jobs={jobs}");
            assert_eq!(cold.render_table(), shared.render_table(), "jobs={jobs}");
        }
    }

    #[test]
    fn one_core_serves_many_batches() {
        let core = SharedSessionCore::new(CheckOptions::ifc());
        let inputs = mixed_inputs();
        let first = check_batch_with_core(&inputs, &core, 2);
        let second = check_batch_with_core(&inputs, &core, 4);
        assert_eq!(first.to_json(), second.to_json());
    }

    #[test]
    fn lineage_rides_the_json_report() {
        let inputs = vec![BatchInput::new(
            "leak",
            "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) { apply { l = h; } }",
        )];
        let report = check_batch(&inputs, &CheckOptions::ifc(), 1);
        let d = &report.programs[0].diagnostics[0];
        assert_eq!(d.lineage.len(), 1, "{d:?}");
        assert_eq!(d.lineage[0].op, "assign");
        assert_eq!(d.lineage[0].source.expr, "h");
        assert_eq!(d.lineage[0].source.label, "high");
        assert_eq!(d.lineage[0].sink.expr, "l");
        assert_eq!(d.lineage[0].sink.label, "low");
        let json = report.to_json();
        assert!(json.contains("\"lineage\": [{\"op\": \"assign\""), "{json}");
        // Lineage off: the array is present but empty.
        let off = check_batch(&inputs, &CheckOptions::ifc().with_lineage(false), 1);
        assert!(off.to_json().contains("\"lineage\": []"), "{}", off.to_json());
    }

    #[test]
    fn policy_batches_resolve_per_program_options() {
        let pack = PolicyPack::parse(
            "[declass-*]\ndeclassify = true\n\n[strict-*]\nlattice = \"lo < mid; mid < hi\"\n",
        )
        .unwrap();
        let declassifying = "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) \
             { apply { l = declassify(h); } }";
        let inputs = vec![
            BatchInput::new("declass-a.p4", declassifying),
            BatchInput::new("plain-b.p4", declassifying),
            BatchInput::new(
                "strict-c.p4",
                "control C(inout <bit<8>, lo> l, inout <bit<8>, hi> h) { apply { l = h; } }",
            ),
        ];
        let report = check_batch_with_policy(&inputs, &CheckOptions::ifc(), &pack, 2);
        // Same source, different verdicts: the policy granted declassify
        // only to the first name.
        assert!(report.programs[0].accepted, "{}", report.render_table());
        assert!(!report.programs[1].accepted);
        assert_eq!(report.programs[1].diagnostics[0].code, "E-DECLASSIFY-FORBIDDEN");
        // The third program only typechecks under the rule's lattice.
        assert!(!report.programs[2].accepted);
        assert_eq!(report.programs[2].diagnostics[0].code, "E-EXPLICIT-FLOW");
        assert!(report.programs[2].diagnostics[0].message.contains("`hi`"));
        // Deterministic across job counts, like plain batches.
        let one = check_batch_with_policy(&inputs, &CheckOptions::ifc(), &pack, 1);
        let eight = check_batch_with_policy(&inputs, &CheckOptions::ifc(), &pack, 8);
        assert_eq!(one.to_json(), report.to_json());
        assert_eq!(one.to_json(), eight.to_json());
        // An empty pack is exactly the plain path.
        let empty = PolicyPack::parse("").unwrap();
        let plain = check_batch(&inputs, &CheckOptions::ifc(), 1);
        let via_policy = check_batch_with_policy(&inputs, &CheckOptions::ifc(), &empty, 1);
        assert_eq!(plain.to_json(), via_policy.to_json());
    }

    #[test]
    fn oversized_inputs_become_verdicts_and_counters() {
        let mut inputs = synthetic_corpus(3);
        inputs.push(BatchInput::new("big", "control C(inout bit<8> x) { apply { } }"));
        let opts = CheckOptions::ifc().with_max_source_bytes(30);
        let report = check_batch(&inputs, &opts, 2);
        // The synthetic programs are well over 30 bytes too — every input
        // is rejected as oversized, none is parsed.
        assert_eq!(report.rejected(), 4, "{}", report.render_table());
        for p in &report.programs {
            assert_eq!(p.diagnostics[0].code, "E-OVERSIZED", "{p:?}");
        }
        assert_eq!(report.stats.oversized, 4);
        assert_eq!(report.stats.panics, 0);
        let json = report.stats.render_json("batch", None, None);
        assert!(json.contains("\"oversized\": 4"), "{json}");
        assert!(json.contains("\"schema\": \"p4bid-stats/5\""), "{json}");
        assert!(json.contains("\"prefix_hits\": "), "{json}");
        let text = report.stats.render_text();
        assert!(text.contains("failure domains: panics 0, timeouts 0, oversized 4"), "{text}");
    }

    #[test]
    fn internal_error_verdicts_are_deterministic_and_counted() {
        // The verdict a caught worker panic turns into (real injection is
        // exercised end-to-end by the chaos suite via P4BID_FAULTS).
        let input = BatchInput::new("boom", "control C(inout bit<8> x) { apply { } }");
        let report = internal_error_report(7, &input);
        assert_eq!(report.index, 7);
        assert!(!report.accepted);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].code, "E-INTERNAL");
        assert_eq!(
            report.diagnostics[0].message,
            "internal error: the checker panicked on this program",
        );
        assert_eq!((report.diagnostics[0].line, report.diagnostics[0].col), (0, 0));
        let mut stats = BatchStats::default();
        stats.count_failure_domains(&[report]);
        assert_eq!((stats.panics, stats.timeouts, stats.oversized), (1, 0, 0));
    }

    #[test]
    fn stats_report_frozen_segment_reuse() {
        let report = check_batch(&synthetic_corpus(8), &CheckOptions::ifc(), 2);
        let s = report.stats.sessions;
        assert!(s.frozen_syms > 0 && s.frozen_types > 0, "{s:?}");
        assert!(s.sym_frozen_hits > 0, "prelude names must be served frozen: {s:?}");
        let rendered = report.render_stats();
        assert!(rendered.contains("frozen-segment hit rate"), "{rendered}");
        assert!(rendered.contains("type universe"), "{rendered}");
        // The cold path reports empty frozen segments.
        let cold = check_batch_cold(&synthetic_corpus(2), &CheckOptions::ifc(), 1);
        assert_eq!(cold.stats.sessions.frozen_syms, 0);
        assert_eq!(cold.stats.sessions.sym_frozen_hits, 0);
    }
}
