//! Seeded input generators. Every input carries the verdict it must get,
//! fixed by how it was built: a program is a list of items, each item
//! either clean or carrying exactly one injected leak whose diagnostic code
//! is known, so the expected verdict is the union of the item codes. No
//! generator calls the checker.

use crate::util::Rng;
use std::collections::BTreeSet;

/// The injected leak kinds, one per information-flow rule the checker must
/// enforce (explicit, implicit, table key / apply, call pc, index,
/// declassification).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leak {
    Explicit,
    Implicit,
    TableKey,
    TableApply,
    CallPc,
    Index,
    Declassify,
}

impl Leak {
    pub const ALL: [Leak; 7] = [
        Leak::Explicit,
        Leak::Implicit,
        Leak::TableKey,
        Leak::TableApply,
        Leak::CallPc,
        Leak::Index,
        Leak::Declassify,
    ];

    pub fn code(self) -> &'static str {
        match self {
            Leak::Explicit => "E-EXPLICIT-FLOW",
            Leak::Implicit => "E-IMPLICIT-FLOW",
            Leak::TableKey => "E-TABLE-KEY-FLOW",
            Leak::TableApply => "E-TABLE-APPLY-PC",
            Leak::CallPc => "E-CALL-PC",
            Leak::Index => "E-INDEX-LEAK",
            Leak::Declassify => "E-DECLASSIFY-FORBIDDEN",
        }
    }
}

/// The verdict an input must receive. With `exact`, the report's code set
/// must equal `codes`; without it (hand-labelled inputs, whose labels name
/// the codes the bug must trigger), `codes` must be a subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expect {
    pub accept: bool,
    pub codes: BTreeSet<String>,
    pub exact: bool,
}

impl Expect {
    pub fn accept() -> Self {
        Expect { accept: true, codes: BTreeSet::new(), exact: true }
    }

    pub fn reject(codes: impl IntoIterator<Item = impl Into<String>>, exact: bool) -> Self {
        Expect { accept: false, codes: codes.into_iter().map(Into::into).collect(), exact }
    }

    /// Why `(accepted, codes)` does not match, or `None` when it does.
    pub fn mismatch(&self, accepted: bool, codes: &BTreeSet<String>) -> Option<String> {
        let ok = accepted == self.accept
            && if self.exact { *codes == self.codes } else { self.codes.is_subset(codes) };
        (!ok).then(|| {
            format!(
                "expected {} {:?}, got {} {:?}",
                if self.accept { "accept" } else { "reject" },
                self.codes,
                if accepted { "accept" } else { "reject" },
                codes
            )
        })
    }
}

/// One top-level item of a generated program.
#[derive(Debug, Clone)]
pub enum ItemKind {
    /// `header hdrT_t { … }` with two low and two high fields.
    Header,
    /// `struct headers { hdrT_t h; }`.
    Struct,
    /// A low function `lfT` the controls call.
    Func,
    /// A top-level action `haT` over a high inout parameter.
    TopAction,
    /// A control with `tables` match-action tables and an optional leak.
    Control { tables: u32 },
}

#[derive(Debug, Clone)]
pub struct Item {
    pub kind: ItemKind,
    /// Unique within the program: names the control's actions and tables.
    pub uid: u32,
    /// Varies the constants, so an edit changes bytes but not the verdict.
    pub nonce: u32,
    pub leak: Option<Leak>,
}

/// A generated program: a tag naming its header type, its items, and
/// whether one item is deliberately unparseable.
#[derive(Debug, Clone)]
pub struct Program {
    pub tag: u32,
    pub items: Vec<Item>,
    /// Index of an item rendered with a syntax error (`E-MALFORMED`).
    pub malformed_at: Option<usize>,
}

fn konst(uid: u32, nonce: u32, k: u32) -> u32 {
    (uid.wrapping_mul(2_654_435_761) ^ nonce.wrapping_mul(40_503) ^ k.wrapping_mul(977)) % 65_521
}

impl Program {
    /// The four prologue items every program starts with.
    fn prologue(rng: &mut Rng) -> Vec<Item> {
        [ItemKind::Header, ItemKind::Struct, ItemKind::Func, ItemKind::TopAction]
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Item { kind, uid: i as u32, nonce: rng.next_u64() as u32, leak: None })
            .collect()
    }

    /// A program with `controls` controls (1 to `max_tables` tables
    /// each). With probability `leak_p` one control carries one leak of a
    /// random kind.
    pub fn generate(
        rng: &mut Rng,
        tag: u32,
        controls: usize,
        max_tables: usize,
        leak_p: f64,
    ) -> Program {
        let mut items = Self::prologue(rng);
        for c in 0..controls {
            let tables = 1 + rng.below(max_tables) as u32;
            items.push(Item {
                kind: ItemKind::Control { tables },
                uid: 4 + c as u32,
                nonce: rng.next_u64() as u32,
                leak: None,
            });
        }
        if rng.chance(leak_p) {
            let at = 4 + rng.below(controls);
            items[at].leak = Some(Leak::ALL[rng.below(Leak::ALL.len())]);
        }
        Program { tag, items, malformed_at: None }
    }

    pub fn source(&self) -> String {
        let mut out = String::with_capacity(self.items.len() * 480);
        for (i, item) in self.items.iter().enumerate() {
            render_item(&mut out, self.tag, item, self.malformed_at == Some(i));
        }
        out
    }

    /// The known answer, given whether the options grant `declassify`.
    pub fn expect(&self, declassify_ok: bool) -> Expect {
        if self.malformed_at.is_some() {
            return Expect::reject(["E-MALFORMED"], true);
        }
        let codes: BTreeSet<String> = self
            .items
            .iter()
            .filter_map(|i| i.leak)
            .filter(|l| !(declassify_ok && *l == Leak::Declassify))
            .map(|l| l.code().to_string())
            .collect();
        if codes.is_empty() {
            Expect::accept()
        } else {
            Expect { accept: false, codes, exact: true }
        }
    }
}

fn render_item(out: &mut String, tag: u32, item: &Item, broken: bool) {
    use std::fmt::Write as _;
    let (u, n) = (item.uid, item.nonce);
    let k = |i: u32| konst(u, n, i);
    match item.kind {
        ItemKind::Header => {
            let _ = writeln!(
                out,
                "header hdr{tag}_t {{\n    <bit<32>, low> p0;\n    <bit<32>, low> p1;\n    <bit<32>, high> s0;\n    <bit<32>, high> s1;\n}}"
            );
        }
        ItemKind::Struct => {
            let _ = writeln!(out, "struct headers {{\n    hdr{tag}_t h;\n}}");
        }
        ItemKind::Func => {
            let _ = writeln!(
                out,
                "function <bit<32>, low> lf{tag}(in <bit<32>, low> x) {{\n    return x + 32w{};\n}}",
                k(0)
            );
        }
        ItemKind::TopAction => {
            let _ = writeln!(
                out,
                "action ha{tag}(inout <bit<32>, high> v) {{\n    v = v + 32w{};\n}}",
                k(0)
            );
        }
        ItemKind::Control { tables } => {
            let _ =
                writeln!(out, "control C{u}(inout headers hdr, inout standard_metadata_t meta) {{");
            for j in 0..tables {
                let _ = writeln!(
                    out,
                    "    action a{u}_{j}(<bit<32>, low> v) {{ hdr.h.p0 = hdr.h.p1 + v; }}\n    action b{u}_{j}(<bit<32>, high> v) {{ hdr.h.s0 = hdr.h.s1 + v; }}\n    table t{u}_{j} {{\n        key = {{ hdr.h.p0: exact; }}\n        actions = {{ a{u}_{j}; b{u}_{j}; NoAction; }}\n        default_action = NoAction;\n    }}"
                );
            }
            let leak_stmt = match item.leak {
                None => String::new(),
                Some(Leak::Explicit) => format!("        hdr.h.p0 = hdr.h.s1 + 32w{};\n", k(9)),
                Some(Leak::Implicit) => {
                    format!("        if (hdr.h.s0 == 32w{}) {{ hdr.h.p1 = 32w{}; }}\n", k(9), k(10))
                }
                Some(Leak::TableKey) => {
                    let _ = writeln!(
                        out,
                        "    action k{u}() {{ hdr.h.p0 = 32w{}; }}\n    table kt{u} {{\n        key = {{ hdr.h.s0: exact; }}\n        actions = {{ k{u}; }}\n    }}",
                        k(9)
                    );
                    format!("        kt{u}.apply();\n")
                }
                Some(Leak::TableApply) => {
                    let _ = writeln!(
                        out,
                        "    action l{u}() {{ hdr.h.p1 = 32w{}; }}\n    table lt{u} {{\n        key = {{ hdr.h.p0: exact; }}\n        actions = {{ l{u}; }}\n    }}",
                        k(9)
                    );
                    format!("        if (hdr.h.s1 == 32w{}) {{ lt{u}.apply(); }}\n", k(10))
                }
                Some(Leak::CallPc) => {
                    let _ = writeln!(out, "    action w{u}() {{ hdr.h.p0 = 32w{}; }}", k(9));
                    format!("        if (hdr.h.s0 == 32w{}) {{ w{u}(); }}\n", k(10))
                }
                Some(Leak::Index) => {
                    let _ = writeln!(out, "    <bit<32>, low>[4] arr{u};");
                    format!("        hdr.h.s0 = arr{u}[hdr.h.s1];\n")
                }
                Some(Leak::Declassify) => "        hdr.h.p0 = declassify(hdr.h.s1);\n".to_string(),
            };
            out.push_str("    apply {\n");
            let _ = writeln!(out, "        t{u}_0.apply();");
            for j in 1..tables {
                let _ =
                    writeln!(out, "        if (hdr.h.p1 == 32w{}) {{ t{u}_{j}.apply(); }}", k(j));
            }
            let _ = writeln!(out, "        hdr.h.s0 = hdr.h.s1 + hdr.h.p0 + 32w{};", k(4));
            if broken {
                out.push_str("        hdr.h.p1 = = lf;\n");
            }
            let _ = writeln!(out, "        hdr.h.p1 = lf{tag}(hdr.h.p0);");
            let _ =
                writeln!(out, "        if (hdr.h.s1 == 32w{}) {{ hdr.h.s0 = 32w{}; }}", k(5), k(6));
            let _ = writeln!(out, "        ha{tag}(hdr.h.s1);");
            out.push_str(&leak_stmt);
            out.push_str("    }\n}\n");
        }
    }
}

/// One input of the batch workload, with its known answer.
#[derive(Debug, Clone)]
pub struct Labeled {
    pub name: String,
    pub source: String,
    pub expect: Expect,
    /// Policy-pack lines this input's label assumes (a testdata file's
    /// `// pc:` and `// declassify:` harness directives).
    pub rule: Option<String>,
}

/// The second option set of the policy pack: names matching `*-b.p4` may
/// declassify.
pub const GROUP_B_RULE: &str = "[*-b.p4]\ndeclassify = true\n";

/// The policy pack for `inputs`: one rule per input whose label assumes
/// options of its own (first match wins, so these come first), then the
/// second option set.
pub fn policy_pack(inputs: &[Labeled]) -> String {
    let mut out = String::from("# generated policy pack\n");
    for l in inputs {
        if let Some(rule) = &l.rule {
            out.push_str(&format!("[{}]\n{rule}\n", l.name));
        }
    }
    out.push_str(GROUP_B_RULE);
    out
}

/// The `batch-mixed` corpus: `n` distinct generated programs with
/// heavy-tailed sizes (Pareto, 1 to 60 controls), 15% carrying one leak
/// and 1% malformed, a quarter routed to the policy pack's second option
/// set (`*-b.p4`, which grants `declassify`).
///
/// Sizes and shares are stratified, not sampled: every seed gets the same
/// multiset of sizes (Pareto quantiles at evenly spaced points) and the
/// same counts, shuffled by the seed. A heavy tail drawn at random would
/// make the corpus's total work, and so its throughput, vary by seed.
pub fn batch_corpus(seed: u64, n: usize) -> Vec<Labeled> {
    let mut rng = Rng::fork(seed, "batch-mixed");
    let mut sizes: Vec<usize> = (0..n)
        .map(|i| {
            let q = (i as f64 + 0.5) / n as f64;
            ((1.0 - q).powf(-1.0 / 1.1).floor() as usize).clamp(1, 60)
        })
        .collect();
    rng.shuffle(&mut sizes);
    // Ranks decide the shares: leaks, then malformed, in a shuffled order.
    let mut rank: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut rank);
    let mut group: Vec<bool> = (0..n).map(|i| i < n / 4).collect();
    rng.shuffle(&mut group);
    (0..n)
        .map(|i| {
            let controls = sizes[i];
            let mut prog = Program::generate(&mut rng, i as u32, controls, 3, 0.0);
            let r = rank[i] as f64 / n as f64;
            if r < 0.15 {
                prog.items[4 + rng.below(controls)].leak =
                    Some(Leak::ALL[rng.below(Leak::ALL.len())]);
            } else if r < 0.16 {
                prog.malformed_at = Some(4 + rng.below(controls));
            }
            let group_b = group[i];
            let name = format!("p{i:05}-{}.p4", if group_b { 'b' } else { 'a' });
            Labeled { name, source: prog.source(), expect: prog.expect(group_b), rule: None }
        })
        .collect()
}

/// The hand-labelled inputs: the six paper case studies (secure must be
/// accepted; insecure must be rejected with at least the codes the corpus
/// lists) and the type checker's `testdata/accept|reject` files (a reject
/// file's `// expect: CODE` line names the code it must trigger).
pub fn hand_labeled(repo_root: &std::path::Path) -> Result<Vec<Labeled>, String> {
    let mut out = Vec::new();
    for cs in p4bid::corpus::case_studies() {
        let slug = cs.name.to_ascii_lowercase().replace(|c: char| !c.is_ascii_alphanumeric(), "");
        out.push(Labeled {
            name: format!("cs-{slug}-secure.p4"),
            source: cs.secure.to_string(),
            expect: Expect::accept(),
            rule: None,
        });
        out.push(Labeled {
            name: format!("cs-{slug}-insecure.p4"),
            source: cs.insecure.to_string(),
            expect: Expect::reject(cs.expected_codes.iter().map(|c| c.ident()), false),
            rule: None,
        });
    }
    for verdict in ["accept", "reject"] {
        let dir = repo_root.join("crates/typeck/testdata").join(verdict);
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "p4"))
            .collect();
        paths.sort();
        for p in paths {
            let source = std::fs::read_to_string(&p).map_err(|e| e.to_string())?;
            let stem = p.file_stem().map_or(String::new(), |s| s.to_string_lossy().into_owned());
            // Harness directives: `// expect: CODE…`, `// pc: LABEL`,
            // `// declassify: allow`, `// mode: base` (not expressible in a
            // policy pack, so such files are left out).
            let directive = |key: &str| {
                source.lines().find_map(|l| {
                    l.trim()
                        .strip_prefix("//")?
                        .trim()
                        .strip_prefix(key)
                        .map(|v| v.trim().to_string())
                })
            };
            if directive("mode:").is_some_and(|m| m == "base") {
                continue;
            }
            let expect = if verdict == "accept" {
                Expect::accept()
            } else {
                let codes = directive("expect:")
                    .ok_or_else(|| format!("{} has no `// expect:` label", p.display()))?;
                Expect::reject(codes.split_whitespace(), false)
            };
            let mut rule = String::new();
            if let Some(pc) = directive("pc:") {
                rule.push_str(&format!("pc = \"{pc}\"\n"));
            }
            if directive("declassify:").is_some_and(|d| d == "allow") {
                rule.push_str("declassify = true\n");
            }
            out.push(Labeled {
                name: format!("td-{verdict}-{stem}.p4"),
                source,
                expect,
                rule: (!rule.is_empty()).then_some(rule),
            });
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// serve-edit: a working set of ~64-item files and an edit stream.
// ---------------------------------------------------------------------

/// Controls per working-set file (plus the 4 prologue items: 64 items).
pub const SERVE_CONTROLS: usize = 60;

/// What a serve request does to the working set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// A one-item edit at the last item.
    TailEdit,
    /// A one-item edit somewhere in the middle.
    MidEdit,
    /// The file's current text, unchanged.
    Resubmit,
    /// A brand-new file replacing a working-set slot.
    NewFile,
    /// An edit that adds a leak to, or removes one from, one control.
    LeakToggle,
}

impl EditKind {
    pub fn name(self) -> &'static str {
        match self {
            EditKind::TailEdit => "tail_edit",
            EditKind::MidEdit => "mid_edit",
            EditKind::Resubmit => "resubmit",
            EditKind::NewFile => "new_file",
            EditKind::LeakToggle => "leak_toggle",
        }
    }
}

/// One serve request: the program text and its known answer.
#[derive(Debug, Clone)]
pub struct EditRequest {
    pub kind: EditKind,
    pub source: String,
    pub expect: Expect,
}

/// A one-control program: the set-up request.
pub fn small_request(seed: u64) -> EditRequest {
    let mut rng = Rng::fork(seed, "serve-setup");
    let p = Program::generate(&mut rng, 0, 1, 1, 0.0);
    EditRequest { kind: EditKind::NewFile, source: p.source(), expect: p.expect(false) }
}

/// The serve working set: `files` programs of 64 items, mutated by a
/// seeded edit stream.
#[derive(Debug)]
pub struct WorkingSet {
    rng: Rng,
    files: Vec<Program>,
    next_tag: u32,
}

impl WorkingSet {
    /// Exactly one file in eight starts with a leak (a leaky file leaves
    /// no prefix snapshots), so every seed starts from the same mix.
    pub fn new(seed: u64, label: &str, files: usize) -> Self {
        let mut rng = Rng::fork(seed, label);
        let files = (0..files)
            .map(|i| {
                let mut p = Program::generate(&mut rng, i as u32, SERVE_CONTROLS, 1, 0.0);
                if i % 8 == 7 {
                    let at = 4 + rng.below(SERVE_CONTROLS);
                    p.items[at].leak = Some(Leak::ALL[rng.below(Leak::ALL.len())]);
                }
                p
            })
            .collect();
        WorkingSet { rng, next_tag: 1_000_000, files }
    }

    /// The current text of every file (the warm-up set).
    pub fn sources(&self) -> Vec<EditRequest> {
        self.files
            .iter()
            .map(|p| EditRequest {
                kind: EditKind::Resubmit,
                source: p.source(),
                expect: p.expect(false),
            })
            .collect()
    }

    /// Draws the next request: 50% tail edits, 10% mid-file edits, 20%
    /// exact resubmissions, 10% brand-new files, 10% leak toggles.
    pub fn next_request(&mut self) -> EditRequest {
        let r = self.rng.unit();
        let kind = match r {
            r if r < 0.50 => EditKind::TailEdit,
            r if r < 0.60 => EditKind::MidEdit,
            r if r < 0.80 => EditKind::Resubmit,
            r if r < 0.90 => EditKind::NewFile,
            _ => EditKind::LeakToggle,
        };
        let slot = self.rng.below(self.files.len());
        match kind {
            EditKind::TailEdit | EditKind::MidEdit => {
                let n = self.files[slot].items.len();
                let at = if kind == EditKind::TailEdit { n - 1 } else { 4 + self.rng.below(n - 5) };
                self.files[slot].items[at].nonce = self.rng.next_u64() as u32;
            }
            EditKind::Resubmit => {}
            EditKind::NewFile => {
                let tag = self.next_tag;
                self.next_tag += 1;
                self.files[slot] = Program::generate(&mut self.rng, tag, SERVE_CONTROLS, 1, 0.10);
            }
            EditKind::LeakToggle => {
                let n = self.files[slot].items.len();
                let at = 4 + self.rng.below(n - 4);
                let leak = Leak::ALL[self.rng.below(Leak::ALL.len())];
                let item = &mut self.files[slot].items[at];
                item.leak = if item.leak.is_some() { None } else { Some(leak) };
            }
        }
        let prog = &self.files[slot];
        EditRequest { kind, source: prog.source(), expect: prog.expect(false) }
    }
}

// ---------------------------------------------------------------------
// topo-fabric: a leaf-spine fabric over a 4-level chain lattice.
// ---------------------------------------------------------------------

/// The boundary and checker lattice of the fabric: `l0 < l1 < l2 < l3`.
pub const CHAIN: &str = "l0 < l1; l1 < l2; l2 < l3";

#[derive(Debug, Clone)]
pub struct FabSwitch {
    pub name: String,
    /// Index into [`Fabric::programs`].
    pub program: usize,
    /// External seed label (chain level).
    pub seed: u8,
    /// Declared egress level, if any.
    pub egress: Option<u8>,
    pub declassify: bool,
}

#[derive(Debug, Clone)]
pub struct FabLink {
    pub from: usize,
    pub from_port: String,
    pub to: usize,
    pub to_port: String,
    pub contract: Option<u8>,
}

/// A switch program: writes at chain levels `lo` and `hi` (`lo <= hi`), so
/// it accepts exactly when its ingress level is at most `lo`.
#[derive(Debug, Clone)]
pub struct FabProgram {
    pub file: String,
    pub lo: u8,
    pub source: String,
}

#[derive(Debug, Clone)]
pub struct Fabric {
    pub switches: Vec<FabSwitch>,
    pub links: Vec<FabLink>,
    pub programs: Vec<FabProgram>,
}

fn fab_program(rng: &mut Rng, idx: usize, lo: u8, hi: u8) -> FabProgram {
    let (c, d) = (1 + rng.below(250), 1 + rng.below(250));
    let source = format!(
        "// fabric program {idx}: writes at l{lo} and l{hi}\ncontrol Sw{idx}(inout <bit<8>, l{lo}> x, inout <bit<8>, l{hi}> y) {{\n    apply {{\n        x = x + 8w{c};\n        if (x == 8w{d}) {{\n            y = y + x;\n        }}\n        y = y + 8w{c};\n    }}\n}}\n"
    );
    FabProgram { file: format!("sw{idx}.p4"), lo, source }
}

impl Fabric {
    /// A seeded fabric of 4 spines in a directed ring (a cycle), 40 leaves
    /// in four pods with up- and downlinks to their spine, a declassifying
    /// gateway fed by a tainted leaf and feeding three public sinks over
    /// `l0`-contracted wires, taints seeded at a few leaves, random
    /// contracts (some breached), and one leaf declaring a lower egress
    /// without the grant.
    pub fn generate(seed: u64, variant: u32) -> Fabric {
        let mut rng = Rng::fork(seed, &format!("topo-fabric-{variant}"));
        let mut programs = Vec::new();
        for (lo, hi) in [(0, 0), (0, 3), (1, 2), (1, 3), (2, 3), (3, 3)] {
            let idx = programs.len();
            programs.push(fab_program(&mut rng, idx, lo, hi));
        }
        let mut switches = Vec::new();
        let mut links = Vec::new();
        for s in 0..4 {
            switches.push(FabSwitch {
                name: format!("spine{s}"),
                program: 5,
                seed: 0,
                egress: None,
                declassify: false,
            });
        }
        for s in 0..4 {
            links.push(FabLink {
                from: s,
                from_port: "ring".into(),
                to: (s + 1) % 4,
                to_port: "ring".into(),
                contract: None,
            });
        }
        let leaves = 40;
        // Counts are fixed and placements seeded, so every fabric does a
        // similar amount of work: 6 tainted leaves (levels 1, 2, 3, twice
        // each), uplinks from 2 of them (levels 1 and 2) and from 22
        // untainted leaves, 20 downlinks, and contracts on 6 leaf links.
        let mut order: Vec<usize> = (0..leaves).collect();
        rng.shuffle(&mut order);
        let mut seeds = vec![0u8; leaves];
        for (k, &l) in order.iter().take(6).enumerate() {
            seeds[l] = 1 + (k % 3) as u8;
        }
        let mut up = vec![false; leaves];
        for &l in order[..2].iter().chain(&order[6..28]) {
            up[l] = true;
        }
        let mut down_order: Vec<usize> = (0..leaves).collect();
        rng.shuffle(&mut down_order);
        let mut downlink = vec![false; leaves];
        for &l in &down_order[..20] {
            downlink[l] = true;
        }
        for (l, &seed_lvl) in seeds.iter().enumerate() {
            switches.push(FabSwitch {
                name: format!("leaf{l:02}"),
                program: rng.below(5),
                seed: seed_lvl,
                egress: None,
                declassify: false,
            });
        }
        // One leaf declares a lower egress without the grant: a refused
        // downgrade whenever its ingress rises above it.
        let down = 4 + rng.below(leaves);
        switches[down].egress = Some(0);
        for l in 0..leaves {
            let (leaf, spine) = (4 + l, l % 4);
            if up[l] {
                links.push(FabLink {
                    from: leaf,
                    from_port: "up".into(),
                    to: spine,
                    to_port: format!("d{l}"),
                    contract: None,
                });
            }
            if downlink[l] {
                links.push(FabLink {
                    from: spine,
                    from_port: format!("u{l}"),
                    to: leaf,
                    to_port: "in".into(),
                    contract: None,
                });
            }
        }
        let mut leaf_links: Vec<usize> = (4..links.len()).collect();
        rng.shuffle(&mut leaf_links);
        for &k in &leaf_links[..6] {
            links[k].contract = Some(1 + rng.below(2) as u8);
        }
        let gw = switches.len();
        switches.push(FabSwitch {
            name: "gateway".into(),
            program: 5,
            seed: 0,
            egress: Some(0),
            declassify: true,
        });
        // The gateway is fed by a leaf carrying the top taint; one with no
        // uplink, so the taint reaches the spines only through the gateway.
        let no_uplink: Vec<usize> = (4..4 + leaves)
            .filter(|&s| !links.iter().any(|l| l.from == s && l.from_port == "up"))
            .collect();
        let feeder = if no_uplink.is_empty() { 4 } else { no_uplink[rng.below(no_uplink.len())] };
        switches[feeder].seed = 3;
        links.push(FabLink {
            from: feeder,
            from_port: "gw".into(),
            to: gw,
            to_port: "in".into(),
            contract: None,
        });
        for p in 0..3 {
            let sink = switches.len();
            switches.push(FabSwitch {
                name: format!("public{p}"),
                program: rng.below(2),
                seed: 0,
                egress: None,
                declassify: false,
            });
            links.push(FabLink {
                from: gw,
                from_port: format!("p{p}"),
                to: sink,
                to_port: "in".into(),
                contract: Some(0),
            });
        }
        Fabric { switches, links, programs }
    }

    pub fn manifest(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("# generated leaf-spine fabric\nlattice = \"{CHAIN}\"\n");
        for sw in &self.switches {
            let _ = write!(
                out,
                "\n[switch {}]\nprogram = \"{}\"\nlattice = \"{CHAIN}\"\n",
                sw.name, self.programs[sw.program].file
            );
            if sw.seed > 0 {
                let _ = writeln!(out, "ingress = \"l{}\"", sw.seed);
            }
            if let Some(e) = sw.egress {
                let _ = writeln!(out, "egress = \"l{e}\"");
            }
            if sw.declassify {
                out.push_str("declassify = true\n");
            }
        }
        for l in &self.links {
            let _ = write!(
                out,
                "\n[link {}:{} -> {}:{}]\n",
                self.switches[l.from].name, l.from_port, self.switches[l.to].name, l.to_port
            );
            if let Some(c) = l.contract {
                let _ = writeln!(out, "contract = \"l{c}\"");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_seeded_and_distinct() {
        let a = batch_corpus(3, 200);
        let b = batch_corpus(3, 200);
        assert!(a.iter().zip(&b).all(|(x, y)| x.source == y.source && x.name == y.name));
        let distinct: BTreeSet<&str> = a.iter().map(|l| l.source.as_str()).collect();
        assert_eq!(distinct.len(), a.len());
        assert_ne!(batch_corpus(4, 1)[0].source, a[0].source);
    }

    #[test]
    fn serve_files_have_64_items() {
        let ws = WorkingSet::new(1, "t", 2);
        assert_eq!(ws.files[0].items.len(), 64);
    }

    #[test]
    fn declassify_grant_changes_the_answer() {
        let mut rng = Rng::new(1);
        let mut p = Program::generate(&mut rng, 0, 2, 1, 0.0);
        p.items[4].leak = Some(Leak::Declassify);
        assert!(!p.expect(false).accept);
        assert!(p.expect(true).accept);
    }
}
