//! Policy construction from the stable CLI slugs.
//!
//! The daemon stores the *slug* (not the policy object) in its snapshots,
//! so a restore can rebuild the identical policy without serializing any
//! policy state — journal replay regenerates it. The slugs here are the
//! same stable identifiers `pdpa-cli` uses for its `replay-<slug>` run
//! keys; a snapshot written today must restore under any future build,
//! which is why both sides pin them with tests.

use pdpa_core::Pdpa;
use pdpa_policies::{
    EqualEfficiency, Equipartition, GangScheduler, HeSrpt, IrixLike, LearnedAlloc, OptSplit,
    RigidFirstFit, SchedulingPolicy,
};

/// Builds the policy named by `slug` (the CLI's stable identifiers, plus
/// the common long-form aliases). Returns `None` for unknown names.
pub fn policy_from_slug(slug: &str) -> Option<Box<dyn SchedulingPolicy>> {
    Some(match slug.to_ascii_lowercase().as_str() {
        "pdpa" => Box::new(Pdpa::paper_default()),
        "equip" | "equipartition" => Box::new(Equipartition::default()),
        "equal-eff" | "equal_eff" | "equal-efficiency" => {
            Box::new(EqualEfficiency::paper_default())
        }
        "irix" => Box::new(IrixLike::paper_default()),
        "rigid" => Box::new(RigidFirstFit::paper_default()),
        "gang" => Box::new(GangScheduler::paper_comparable()),
        "hesrpt" | "he-srpt" => Box::new(HeSrpt::default()),
        "optsplit" | "opt-split" => Box::new(OptSplit::default()),
        "learned" | "learnedalloc" | "learned-alloc" => Box::new(LearnedAlloc::default()),
        _ => return None,
    })
}

/// The canonical slugs [`policy_from_slug`] accepts, for error messages.
pub fn known_policies() -> &'static [&'static str] {
    &[
        "pdpa",
        "equip",
        "equal-eff",
        "irix",
        "rigid",
        "gang",
        "hesrpt",
        "optsplit",
        "learned",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_canonical_slug_builds() {
        for slug in known_policies() {
            let policy = policy_from_slug(slug);
            assert!(policy.is_some(), "slug {slug} must build");
        }
        assert!(policy_from_slug("no-such-policy").is_none());
    }

    #[test]
    fn slugs_are_case_insensitive() {
        assert!(policy_from_slug("PDPA").is_some());
        assert!(policy_from_slug("Equipartition").is_some());
    }
}
