//! The policy roster: every scheduling policy the front ends can name,
//! listed once.
//!
//! Each [`Entry`] carries the policy's display label (the paper's figure
//! label where it has one), its stable slug, the aliases a user may type,
//! and its paper-default constructor. The CLI, the daemon and the
//! experiment harness resolve names here and nowhere else; they keep only
//! the decision of *which* slugs they run, in what order.
//!
//! Slugs are stable identifiers: they name the `replay-<slug>` and
//! `tournament-<slug>-<leg>` run keys and the policy of a daemon snapshot,
//! so a snapshot written today restores under any later build.

use pdpa_policies::{
    EqualEfficiency, Equipartition, GangScheduler, HeSrpt, IrixLike, LearnedAlloc, OptSplit,
    RigidFirstFit, SchedulingPolicy,
};

use crate::Pdpa;

/// One policy of the [`ROSTER`].
#[derive(Debug)]
pub struct Entry {
    /// Display label, as in the paper's figures where applicable.
    pub label: &'static str,
    /// Stable identifier (run keys, daemon snapshots).
    pub slug: &'static str,
    /// Further accepted spellings, lower case.
    pub aliases: &'static [&'static str],
    build: fn() -> Box<dyn SchedulingPolicy + Send>,
}

impl Entry {
    /// A fresh instance with the paper's default configuration.
    pub fn build(&self) -> Box<dyn SchedulingPolicy + Send> {
        (self.build)()
    }
}

// Entries are distinct by slug; comparing the constructors' addresses
// would say nothing more.
impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.slug == other.slug
    }
}

/// Every policy, in the paper's presentation order followed by the rigid
/// and gang baselines and the literature policies.
pub static ROSTER: &[Entry] = &[
    Entry {
        label: "IRIX",
        slug: "irix",
        aliases: &[],
        build: || Box::new(IrixLike::paper_default()),
    },
    Entry {
        label: "Equip",
        slug: "equip",
        aliases: &["equipartition"],
        build: || Box::new(Equipartition::default()),
    },
    Entry {
        label: "Equal_eff",
        slug: "equal-eff",
        aliases: &["equal_eff", "equal-efficiency"],
        build: || Box::new(EqualEfficiency::paper_default()),
    },
    Entry {
        label: "Rigid",
        slug: "rigid",
        aliases: &[],
        build: || Box::new(RigidFirstFit::paper_default()),
    },
    Entry {
        label: "Gang",
        slug: "gang",
        aliases: &[],
        build: || Box::new(GangScheduler::paper_comparable()),
    },
    Entry {
        label: "PDPA",
        slug: "pdpa",
        aliases: &[],
        build: || Box::new(Pdpa::paper_default()),
    },
    Entry {
        label: "heSRPT",
        slug: "hesrpt",
        aliases: &["he-srpt"],
        build: || Box::new(HeSrpt::default()),
    },
    Entry {
        label: "OptSplit",
        slug: "optsplit",
        aliases: &["opt-split"],
        build: || Box::new(OptSplit::default()),
    },
    Entry {
        label: "Learned",
        slug: "learned",
        aliases: &["learnedalloc", "learned-alloc"],
        build: || Box::new(LearnedAlloc::default()),
    },
];

/// The entry a slug or alias names, in any case.
///
/// # Errors
///
/// An unknown name: the diagnostic lists every slug.
pub fn lookup(name: &str) -> Result<&'static Entry, String> {
    ROSTER
        .iter()
        .find(|e| {
            std::iter::once(&e.slug)
                .chain(e.aliases)
                .any(|s| s.eq_ignore_ascii_case(name))
        })
        .ok_or_else(|| {
            let slugs: Vec<&str> = ROSTER.iter().map(|e| e.slug).collect();
            format!("unknown policy {name:?} (known: {})", slugs.join(", "))
        })
}

/// The entry `name` names, for callers whose names are fixed in code.
///
/// # Panics
///
/// If the roster has no such policy.
pub fn get(name: &str) -> &'static Entry {
    lookup(name).unwrap_or_else(|e| panic!("{e}"))
}
