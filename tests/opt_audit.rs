//! The optimizer rule audit, as a tier-1 test battery.
//!
//! Every shipped rewrite rule must be observationally equivalent to the
//! literal engine — byte-identical wire replies (success *and* error
//! lines) and an identical post-run `lineage` world view — on every point
//! of the shards {1,2,3,7} × threads {1,4} grid. Every tombstoned
//! candidate must be *rejected* by the same oracle when applied on
//! purpose. The audit lives in `gea::audit` so this battery and the
//! nightly `gea-opt-audit` bin share one implementation; the default tier
//! here is kick-tires (one seed, the query subset), and `GEA_OPT_AUDIT=full`
//! upgrades to the nightly enumeration in place.

use gea::audit::{self, AUDIT_GRID};

#[test]
fn shipped_rules_pass_the_observational_equivalence_audit() {
    let full = audit::full_tier();
    let report = audit::audit_shipped(full);
    assert!(
        report.divergences.is_empty(),
        "shipped execution diverged from the engine:\n{}",
        report.divergences.join("\n")
    );
    // The audit is vacuous unless every shipped rule actually fired.
    assert_eq!(gea::opt::shipped_rules().len(), 3);
    assert_eq!(report.silent_rules(), Vec::<&str>::new());
    assert_eq!(
        report.configs,
        AUDIT_GRID.len() * audit::audit_seeds(full).len()
    );
    assert!(report.rewrites > 0);
}

#[test]
fn tombstoned_rules_are_rejected_by_the_oracle() {
    let failures = audit::audit_tombstones();
    assert!(
        failures.is_empty(),
        "tombstoned rules survived the oracle:\n{}",
        failures.join("\n")
    );
    // The tombstones stay in-tree, each with its refutation recorded.
    assert_eq!(gea::opt::tombstoned_rules().len(), 3);
    for name in gea::opt::tombstoned_rules() {
        let rule = gea::opt::rule(name).expect("registered rule");
        match rule.status {
            gea::opt::RuleStatus::Tombstoned { refuted_by } => {
                assert!(!refuted_by.is_empty(), "{name} lacks a refutation note")
            }
            gea::opt::RuleStatus::Shipped => panic!("{name} listed as tombstoned"),
        }
    }
}
