//! The policy roster (`pdpa_core::roster`) is the one place a policy name
//! becomes a policy: the CLI, the daemon and the experiment harness all
//! resolve through it. Its slugs name run keys and daemon snapshots, so
//! every entry is pinned here.

use pdpa_daemon::{DaemonConfig, DaemonCore};
use pdpa_suite::core::roster::{self, ROSTER};
use pdpa_suite::watch::{RequestKind, ResponseBody};

#[test]
fn every_entry_is_pinned() {
    let got: Vec<_> = ROSTER
        .iter()
        .map(|e| (e.label, e.slug, e.aliases, e.build().name()))
        .collect();
    let none: &[&str] = &[];
    assert_eq!(
        got,
        [
            ("IRIX", "irix", none, "IRIX"),
            ("Equip", "equip", &["equipartition"][..], "Equipartition"),
            (
                "Equal_eff",
                "equal-eff",
                &["equal_eff", "equal-efficiency"][..],
                "Equal_efficiency"
            ),
            ("Rigid", "rigid", none, "RigidFirstFit"),
            ("Gang", "gang", none, "Gang"),
            ("PDPA", "pdpa", none, "PDPA"),
            ("heSRPT", "hesrpt", &["he-srpt"][..], "heSRPT"),
            ("OptSplit", "optsplit", &["opt-split"][..], "OptSplit"),
            (
                "Learned",
                "learned",
                &["learnedalloc", "learned-alloc"][..],
                "LearnedAlloc"
            ),
        ]
    );
}

#[test]
fn every_slug_alias_and_label_resolves_in_any_case() {
    for entry in ROSTER {
        let names = [entry.slug, entry.label]
            .into_iter()
            .chain(entry.aliases.iter().copied());
        for name in names {
            let shouted = name.to_ascii_uppercase();
            let mixed: String = name
                .chars()
                .enumerate()
                .map(|(i, c)| {
                    if i % 2 == 0 {
                        c.to_ascii_uppercase()
                    } else {
                        c
                    }
                })
                .collect();
            for spelling in [name, &shouted, &mixed] {
                let found = roster::lookup(spelling).unwrap_or_else(|e| panic!("{e}"));
                assert_eq!(found.slug, entry.slug, "{spelling}");
            }
        }
    }
    let err = roster::lookup("nonesuch").unwrap_err();
    assert!(err.contains("nonesuch"), "{err}");
    for entry in ROSTER {
        assert!(err.contains(entry.slug), "{err} omits {}", entry.slug);
    }
}

#[test]
#[should_panic(expected = "unknown policy \"Equipartitioning\"")]
fn a_fixed_name_the_roster_lacks_panics_naming_it() {
    roster::get("Equipartitioning");
}

#[test]
fn a_snapshot_that_names_an_alias_restores() {
    let dir = std::env::temp_dir().join(format!("pdpa-roster-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("alias.snapshot").to_string_lossy().into_owned();
    let config = DaemonConfig {
        policy: "Equipartition".to_string(),
        time_scale: 0.0,
        ..DaemonConfig::default()
    };
    let mut core = DaemonCore::new(config.clone()).expect("an alias opens a daemon");
    let submit = RequestKind::Submit {
        class: "swim".to_string(),
        request: None,
        work_secs: None,
    };
    assert!(matches!(core.handle(&submit, 0.0), ResponseBody::Ack(_)));
    core.snapshot_to(&path).expect("snapshot");
    let text = std::fs::read_to_string(&path).expect("snapshot file");
    assert!(text.contains("\"Equipartition\""), "{text}");

    let restored = DaemonCore::restore(&path, config).expect("the alias restores");
    assert_eq!(restored.session().policy_name(), "Equipartition");
    assert_eq!(restored.journal(), core.journal());
    let _ = std::fs::remove_dir_all(&dir);
}
