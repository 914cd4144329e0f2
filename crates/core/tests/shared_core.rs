//! Shared-core regression: batch and fuzz workers must share one frozen
//! session core — the prelude is lexed, parsed, and type-checked exactly
//! once per core, never once per worker.
//!
//! Prelude checks are counted per core
//! ([`SharedSessionCore::build_counts`]) and per session (the
//! `prelude_checks` field of a batch report's session stats), so the
//! assertions below only see this test's own cores and sessions, however
//! the harness interleaves it with its siblings.

use p4bid::batch::{check_batch, check_batch_cold, check_batch_with_core, synthetic_corpus};
use p4bid::CheckOptions;
use p4bid_typeck::SharedSessionCore;

#[test]
fn workers_never_rebuild_the_prelude() {
    let inputs = synthetic_corpus(40);
    let opts = CheckOptions::ifc();

    // Freezing a core type-checks the prelude exactly once.
    let core = SharedSessionCore::new(opts.clone());
    let after_core = core.build_counts();
    assert_eq!(after_core.checks, 1, "one prelude check per core");
    // The token slice and the parsed program are process-wide: at most one
    // build of each, ever, no matter how many sessions/cores exist.
    assert!(after_core.lexes <= 1, "{after_core:?}");
    assert!(after_core.parses <= 1, "{after_core:?}");

    // Checking a corpus over 8 workers off the shared core rebuilds
    // nothing: no re-lex, no re-parse, no re-check.
    let report = check_batch_with_core(&inputs, &core, 8);
    assert!(report.all_accepted(), "{}", report.render_table());
    assert_eq!(report.stats.sessions.prelude_checks, 0, "{:?}", report.stats.sessions);
    assert_eq!(core.build_counts(), after_core, "shared-core workers must not rebuild the prelude");

    // `check_batch` freezes its own core; its workers rebuild nothing
    // either.
    let owned = check_batch(&inputs, &opts, 8);
    assert_eq!(owned.stats.sessions.prelude_checks, 0, "{:?}", owned.stats.sessions);

    // The cold path (kept for the determinism comparison) pays one prelude
    // check per worker session — the warm-up the shared core eliminates.
    let cold = check_batch_cold(&inputs, &opts, 4);
    let cold_checks = cold.stats.sessions.prelude_checks;
    assert!(
        (1..=4).contains(&cold_checks),
        "cold workers each check the prelude, got {cold_checks}"
    );
    let after_cold = core.build_counts();
    assert_eq!(after_cold.lexes, after_core.lexes, "lexing stays process-wide even when cold");
    assert_eq!(after_cold.parses, after_core.parses, "parsing stays process-wide even when cold");
}

/// Program-supplied lattices build their prelude state once per *core*,
/// not once per worker: the publish-once side table serializes the first
/// build under its lock and every sibling session adopts the published
/// state. A renamed two-point chain is used because its label indices
/// coincide with the frozen warm lattice's, so the built state is
/// tier-pure and publishable.
#[test]
fn program_lattices_publish_prelude_state_once_across_workers() {
    use p4bid::batch::BatchInput;
    let lat = "lattice { lo < hi; }\n";
    let inputs: Vec<BatchInput> = (0..40)
        .map(|i| {
            BatchInput::new(
                format!("chain-{i:02}"),
                format!(
                    "{lat}control C{i}(inout <bit<8>, lo> x) {{ apply {{ x = x + 8w{}; }} }}",
                    i % 9
                ),
            )
        })
        .collect();
    let core = SharedSessionCore::new(CheckOptions::ifc());
    let report = check_batch_with_core(&inputs, &core, 8);
    assert!(report.all_accepted(), "{}", report.render_table());
    let s = report.stats.sessions;
    assert_eq!(
        s.lattice_states_published, 1,
        "exactly one worker builds the chain prelude state: {s:?}"
    );

    // Resubmitting the same corpus rebuilds nothing: every program either
    // resumes from the shared depth-1 prefix snapshot (the lattice decl
    // prefix is byte-identical across all 40 programs) or adopts the
    // published lattice state — no second build, no second publish.
    let again = check_batch_with_core(&inputs, &core, 8);
    assert_eq!(report.to_json(), again.to_json(), "warm reports are byte-identical");
    let s2 = again.stats.sessions;
    assert_eq!(s2.lattice_states_published, 0, "{s2:?}");
    assert_eq!(s2.prefix_hits, 40, "every resubmission resumes past the lattice decl: {s2:?}");
}
