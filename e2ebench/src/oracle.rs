//! Known answers and verdict comparison. The topology answer comes from a
//! reachability pass over the generated graph written here, independent of
//! the checker's own fixpoint engine.

use crate::gen::{Expect, Fabric};
use crate::util::Json;
use std::collections::{BTreeSet, HashMap};

/// Wrong or missing verdicts, counted against the verdicts attempted, with
/// each mismatch named by input.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.mismatches.len() < 200 {
            self.mismatches.push(what);
        }
    }

    /// Counts one verdict and records it when it is wrong. `E-INTERNAL`
    /// and `E-TIMEOUT` never match an expected answer.
    pub fn verdict(
        &mut self,
        what: &str,
        expect: &Expect,
        accepted: bool,
        codes: &BTreeSet<String>,
    ) {
        self.attempted += 1;
        if let Some(why) = expect.mismatch(accepted, codes) {
            self.fail(format!("{what}: {why}"));
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.mismatches {
            if self.mismatches.len() < 200 {
                self.mismatches.push(m);
            }
        }
    }

    pub fn correct_pct(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        100.0 * (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// `(name, accepted, codes)` of one `p4bid-batch-report/2` program entry.
pub fn program_verdict(p: &Json) -> (String, bool, BTreeSet<String>) {
    let name = p.str("name").unwrap_or_default().to_string();
    let accepted = p.str("status") == Some("accept");
    let codes =
        p.arr("diagnostics").iter().filter_map(|d| d.str("code")).map(String::from).collect();
    (name, accepted, codes)
}

/// Checks every program of a batch or serve report against `expected`
/// (keyed by name). Every expected name must appear exactly once.
pub fn check_programs(
    report: &Json,
    expected: &HashMap<String, Expect>,
    what: &str,
    tally: &mut Tally,
) {
    let mut seen = BTreeSet::new();
    for p in report.arr("programs") {
        let (name, accepted, codes) = program_verdict(p);
        match expected.get(&name) {
            Some(e) if seen.insert(name.clone()) => {
                tally.verdict(&format!("{what}/{name}"), e, accepted, &codes);
            }
            _ => tally.fail(format!("{what}/{name}: unexpected or duplicate report entry")),
        }
    }
    for name in expected.keys() {
        if !seen.contains(name) {
            tally.attempted += 1;
            tally.fail(format!("{what}/{name}: no report"));
        }
    }
}

/// The known answer for one switch of a fabric.
#[derive(Debug, Clone)]
pub struct SwitchAnswer {
    pub name: String,
    pub ingress: String,
    pub egress: String,
    pub expect: Expect,
}

/// The known answer for a whole fabric: per-switch labels and verdicts,
/// and the `(kind, at, label, bound)` set of topology violations.
#[derive(Debug, Clone)]
pub struct TopoAnswer {
    pub switches: Vec<SwitchAnswer>,
    pub violations: BTreeSet<(String, String, String, String)>,
}

/// Labels on the chain `l0 < l1 < l2 < l3` are their levels, joins are
/// maxima. A switch's ingress level is the highest level among its own
/// seed and every upstream egress; its egress is its ingress, unless it
/// declares one the grant (or the order) allows. Iterating the link
/// relation to a fixpoint is plain reachability of seeds along links.
pub fn topo_answer(fab: &Fabric) -> TopoAnswer {
    let n = fab.switches.len();
    let mut inl: Vec<u8> = fab.switches.iter().map(|s| s.seed).collect();
    let egress_of = |i: usize, in_lvl: u8| match fab.switches[i].egress {
        Some(e) if e >= in_lvl || fab.switches[i].declassify => e,
        _ => in_lvl,
    };
    let mut changed = true;
    while changed {
        changed = false;
        for l in &fab.links {
            let up = egress_of(l.from, inl[l.from]);
            if up > inl[l.to] {
                inl[l.to] = up;
                changed = true;
            }
        }
    }
    let lvl = |x: u8| format!("l{x}");
    let switches = (0..n)
        .map(|i| {
            let sw = &fab.switches[i];
            let accepts = inl[i] <= fab.programs[sw.program].lo;
            SwitchAnswer {
                name: sw.name.clone(),
                ingress: lvl(inl[i]),
                egress: lvl(egress_of(i, inl[i])),
                expect: if accepts {
                    Expect::accept()
                } else {
                    Expect::reject(["E-IMPLICIT-FLOW"], true)
                },
            }
        })
        .collect();
    let mut violations = BTreeSet::new();
    for l in &fab.links {
        let carried = egress_of(l.from, inl[l.from]);
        if let Some(c) = l.contract.filter(|&c| carried > c) {
            let at = format!(
                "{}:{} -> {}:{}",
                fab.switches[l.from].name, l.from_port, fab.switches[l.to].name, l.to_port
            );
            violations.insert(("contract".into(), at, lvl(carried), lvl(c)));
        }
    }
    for (i, sw) in fab.switches.iter().enumerate() {
        if let Some(e) = sw.egress.filter(|&e| inl[i] > e && !sw.declassify) {
            violations.insert(("downgrade".into(), sw.name.clone(), lvl(inl[i]), lvl(e)));
        }
    }
    TopoAnswer { switches, violations }
}

/// Checks a `p4bid-topo-report/1` document against the known answer: one
/// verdict per switch (status, codes, ingress and egress labels) plus one
/// for the violation set.
pub fn check_topo(report: &Json, answer: &TopoAnswer, what: &str, tally: &mut Tally) {
    let got = report.arr("switches");
    for (i, a) in answer.switches.iter().enumerate() {
        let Some(s) = got.get(i).filter(|s| s.str("switch") == Some(a.name.as_str())) else {
            tally.attempted += 1;
            tally.fail(format!("{what}/{}: no report", a.name));
            continue;
        };
        let (_, accepted, codes) = program_verdict(s.get("verdict").unwrap_or(&Json::Null));
        let labels = (s.str("ingress").unwrap_or(""), s.str("egress").unwrap_or(""));
        if labels != (a.ingress.as_str(), a.egress.as_str()) {
            tally.attempted += 1;
            tally.fail(format!(
                "{what}/{}: expected labels {} -> {}, got {} -> {}",
                a.name, a.ingress, a.egress, labels.0, labels.1
            ));
        } else {
            tally.verdict(&format!("{what}/{}", a.name), &a.expect, accepted, &codes);
        }
    }
    let violations: BTreeSet<(String, String, String, String)> = report
        .arr("violations")
        .iter()
        .map(|v| {
            let f = |k| v.str(k).unwrap_or("").to_string();
            (f("kind"), f("at"), f("label"), f("bound"))
        })
        .collect();
    tally.attempted += 1;
    if violations != answer.violations {
        tally.fail(format!(
            "{what}: expected violations {:?}, got {:?}",
            answer.violations, violations
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{batch_corpus, Fabric};
    use crate::util::parse_json;

    fn report_for(entries: &[(&str, &str, &[&str])]) -> Json {
        let programs: Vec<String> = entries
            .iter()
            .enumerate()
            .map(|(i, (name, status, codes))| {
                let diags: Vec<String> =
                    codes.iter().map(|c| format!("{{\"code\": \"{c}\", \"lineage\": []}}")).collect();
                format!(
                    "{{\"index\": {i}, \"name\": \"{name}\", \"status\": \"{status}\", \"diagnostics\": [{}]}}",
                    diags.join(", ")
                )
            })
            .collect();
        parse_json(&format!("{{\"programs\": [{}]}}", programs.join(", "))).unwrap()
    }

    #[test]
    fn a_flipped_expected_answer_is_caught() {
        let mut expected = HashMap::new();
        expected.insert("a.p4".to_string(), Expect::accept());
        expected.insert("b.p4".to_string(), Expect::reject(["E-EXPLICIT-FLOW"], true));
        let report =
            report_for(&[("a.p4", "accept", &[]), ("b.p4", "reject", &["E-EXPLICIT-FLOW"])]);
        let mut ok = Tally::default();
        check_programs(&report, &expected, "t", &mut ok);
        assert_eq!((ok.attempted, ok.failed), (2, 0));

        // Flip one answer: the same report now fails exactly that input.
        expected.insert("a.p4".to_string(), Expect::reject(["E-IMPLICIT-FLOW"], true));
        let mut flipped = Tally::default();
        check_programs(&report, &expected, "t", &mut flipped);
        assert_eq!((flipped.attempted, flipped.failed), (2, 1));
        assert!(flipped.mismatches[0].starts_with("t/a.p4"), "{:?}", flipped.mismatches);
    }

    #[test]
    fn wrong_codes_missing_reports_and_internal_errors_fail() {
        let mut expected = HashMap::new();
        expected.insert("a.p4".to_string(), Expect::reject(["E-CALL-PC"], true));
        expected.insert("b.p4".to_string(), Expect::accept());
        let report = report_for(&[("a.p4", "reject", &["E-CALL-PC", "E-INTERNAL"])]);
        let mut t = Tally::default();
        check_programs(&report, &expected, "t", &mut t);
        assert_eq!((t.attempted, t.failed), (2, 2));
    }

    #[test]
    fn subset_labels_accept_extra_codes() {
        let e = Expect::reject(["E-EXPLICIT-FLOW"], false);
        let got: BTreeSet<String> = ["E-EXPLICIT-FLOW", "E-IMPLICIT-FLOW"].map(String::from).into();
        assert!(e.mismatch(false, &got).is_none());
        assert!(e.mismatch(true, &got).is_some());
    }

    #[test]
    fn fabric_answer_flows_taint_and_honours_the_gateway() {
        let fab = Fabric::generate(5, 0);
        let a = topo_answer(&fab);
        let gw = fab.switches.iter().position(|s| s.name == "gateway").unwrap();
        assert_eq!(a.switches[gw].egress, "l0");
        // Public sinks sit behind the gateway's `l0` egress only.
        for s in a.switches.iter().filter(|s| s.name.starts_with("public")) {
            assert_eq!(s.ingress, "l0");
            assert!(s.expect.accept);
        }
        // A flipped switch answer is caught by the topology check.
        let mut report = String::from("{\"switches\": [");
        for (i, s) in a.switches.iter().enumerate() {
            let status = if s.expect.accept { "accept" } else { "reject" };
            let diags = if s.expect.accept { "" } else { "{\"code\": \"E-IMPLICIT-FLOW\"}" };
            report.push_str(&format!(
                "{}{{\"switch\": \"{}\", \"ingress\": \"{}\", \"egress\": \"{}\", \"verdict\": {{\"status\": \"{status}\", \"diagnostics\": [{diags}]}}}}",
                if i > 0 { ", " } else { "" },
                s.name, s.ingress, s.egress
            ));
        }
        report.push_str("], \"violations\": [");
        for (i, (k, at, l, b)) in a.violations.iter().enumerate() {
            report.push_str(&format!(
                "{}{{\"kind\": \"{k}\", \"at\": \"{at}\", \"label\": \"{l}\", \"bound\": \"{b}\"}}",
                if i > 0 { ", " } else { "" }
            ));
        }
        report.push_str("]}");
        let report = parse_json(&report).unwrap();
        let mut t = Tally::default();
        check_topo(&report, &a, "f", &mut t);
        assert_eq!(t.failed, 0, "{:?}", t.mismatches);
        let mut flipped = a.clone();
        flipped.switches[gw].expect = Expect::reject(["E-IMPLICIT-FLOW"], true);
        let mut t = Tally::default();
        check_topo(&report, &flipped, "f", &mut t);
        assert_eq!(t.failed, 1);
    }

    /// The generated answers agree with the checker itself (a sanity pin
    /// on the generator's templates, not part of the oracle).
    #[test]
    fn generated_answers_match_the_checker() {
        let corpus = batch_corpus(11, 300);
        let pack = p4bid::PolicyPack::parse(&crate::gen::policy_pack(&corpus)).unwrap();
        for l in corpus {
            let opts = pack.resolve(&l.name, &p4bid::CheckOptions::ifc());
            let (accepted, codes) = match p4bid::check(&l.source, &opts) {
                Ok(_) => (true, BTreeSet::new()),
                Err(ds) => (false, ds.iter().map(|d| d.code.ident().to_string()).collect()),
            };
            assert!(l.expect.mismatch(accepted, &codes).is_none(), "{}:\n{}", l.name, l.source);
        }
    }
}
