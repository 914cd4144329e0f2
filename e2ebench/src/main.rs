//! `e2ebench`: the repository benchmark. See README.md.
//!
//! ```text
//! e2ebench --p4bid PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it drives the release `p4bid` binary through one
//! workload and prints the end-to-end metrics; with `--trace 1` it replays
//! the same seeded inputs in-process through each layer's public functions
//! and prints the per-layer metrics. Either way the last stdout line is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod drive;
mod gen;
mod oracle;
mod replay;
mod util;

use drive::{Ctx, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, with why each was chosen.
const WORKLOADS: [(&str, &str); 3] = [
    (
        "batch-mixed",
        "distinct programs, heavy-tailed sizes, ~15% leaks, a policy pack: cold per-program checking, nothing repeats",
    ),
    (
        "serve-edit",
        "open-loop edits to 64-item files over a socket daemon: prefix resumes, verdict-cache hits and cold checks",
    ),
    (
        "topo-fabric",
        "48-switch leaf-spine fabric with cycles, taints and a gateway: fixpoint rounds and the topo verdict cache",
    ),
];

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn run(args: &[String]) -> Result<(Outcome, bool), String> {
    let workload = flag(args, "--workload").ok_or("missing --workload")?;
    let why = WORKLOADS
        .iter()
        .find(|(w, _)| *w == workload)
        .map(|(_, why)| *why)
        .ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed: u64 =
        flag(args, "--seed").ok_or("missing --seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 =
        flag(args, "--seconds").ok_or("missing --seconds")?.parse().map_err(|_| "bad --seconds")?;
    let trace = flag(args, "--trace").unwrap_or("0") == "1";
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let p4bid = root.join(flag(args, "--p4bid").ok_or("missing --p4bid")?);
    if !p4bid.is_file() {
        return Err(format!("no p4bid binary at {}", p4bid.display()));
    }
    // Work space inside the checkout. The process works from there, so
    // the serve socket path stays short whatever the checkout's path is.
    let work: PathBuf =
        root.join(".bench_work").join(format!("{workload}-{seed}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    std::env::set_current_dir(&work).map_err(|e| e.to_string())?;
    let jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let ctx = Ctx { p4bid, root: root.clone(), seed, seconds, jobs };
    let mut out = Outcome::default();
    out.note(format!(
        "workload {workload} (seed {seed}, {seconds} s, jobs {jobs}, trace {}): {why}",
        u8::from(trace)
    ));
    let result = if trace {
        replay::run(&ctx, workload, &mut out)
    } else {
        match workload {
            "batch-mixed" => drive::batch_mixed(&ctx, &mut out),
            "serve-edit" => drive::serve_edit(&ctx, &mut out),
            _ => drive::topo_fabric(&ctx, &mut out),
        }
    };
    let _ = std::env::set_current_dir(&root);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(root.join(".bench_work"));
    result.map(|()| (out, trace))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (out, trace) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &out.notes {
        println!("# {line}");
    }
    let t = &out.tally;
    println!(
        "# verdicts: {} attempted, {} wrong (failed_pct {:.4}%)",
        t.attempted,
        t.failed,
        100.0 - t.correct_pct()
    );
    for m in &t.mismatches {
        println!("# MISMATCH {m}");
    }
    let mut metrics = out.metrics;
    if !trace {
        metrics.set("correct_pct", t.correct_pct(), "%");
    }
    let correct = t.failed == 0 && t.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        t.attempted.max(1),
        t.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}
