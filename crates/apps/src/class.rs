//! Application classes used by the paper's workloads.

use std::fmt;

/// The four application types of the paper's evaluation (Table 1).
///
/// Each class stands for one benchmark and, more importantly, for one
/// scalability shape; the workloads w1–w4 are defined as mixes of these
/// classes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum AppClass {
    /// swim (SpecFP95): superlinear speedup in the 8–16 processor range.
    Swim,
    /// bt.A (NAS Parallel Benchmarks): good, progressive scalability.
    BtA,
    /// hydro2d (SpecFP95): medium scalability, saturates early.
    Hydro2d,
    /// apsi (SpecFP95): does not scale at all.
    Apsi,
}

/// Every accepted spelling, lowercase, with the class it names.
const NAMES: [(&str, AppClass); 7] = [
    ("swim", AppClass::Swim),
    ("bt.a", AppClass::BtA),
    ("bt", AppClass::BtA),
    ("bt_a", AppClass::BtA),
    ("hydro2d", AppClass::Hydro2d),
    ("hydro", AppClass::Hydro2d),
    ("apsi", AppClass::Apsi),
];

impl AppClass {
    /// All classes, in the paper's order.
    pub const ALL: [AppClass; 4] = [
        AppClass::Swim,
        AppClass::BtA,
        AppClass::Hydro2d,
        AppClass::Apsi,
    ];

    /// The benchmark's short name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            AppClass::Swim => "swim",
            AppClass::BtA => "bt.A",
            AppClass::Hydro2d => "hydro2d",
            AppClass::Apsi => "apsi",
        }
    }

    /// Parses a benchmark name (as written by [`AppClass::name`], case
    /// insensitive; `bt` and `bt_a` are accepted for `bt.A`, `hydro` for
    /// `hydro2d`). Compares in place, so parsing allocates nothing.
    pub fn parse(s: &str) -> Option<AppClass> {
        NAMES
            .iter()
            .find(|(name, _)| s.eq_ignore_ascii_case(name))
            .map(|&(_, class)| class)
    }

    /// The scalability description the paper gives this class.
    pub fn scalability(self) -> &'static str {
        match self {
            AppClass::Swim => "superlinear",
            AppClass::BtA => "good",
            AppClass::Hydro2d => "medium",
            AppClass::Apsi => "none",
        }
    }

    /// The *tuned* processor request used in the paper's workloads:
    /// "swim, bt, and hydro2d request for 30 processors, and apsi requests
    /// for 2 processors due to its poor scalability" (§5).
    pub fn tuned_request(self) -> usize {
        match self {
            AppClass::Apsi => 2,
            _ => 30,
        }
    }

    /// The *untuned* request used by the Table 3/4 experiments: every
    /// application asks for 30 processors.
    pub fn untuned_request(self) -> usize {
        30
    }
}

impl fmt::Display for AppClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for class in AppClass::ALL {
            assert_eq!(AppClass::parse(class.name()), Some(class));
        }
    }

    #[test]
    fn parse_aliases() {
        assert_eq!(AppClass::parse("BT"), Some(AppClass::BtA));
        assert_eq!(AppClass::parse("hydro"), Some(AppClass::Hydro2d));
        assert_eq!(AppClass::parse("SWIM"), Some(AppClass::Swim));
        assert_eq!(AppClass::parse("nonesuch"), None);
    }

    /// Every ASCII case mix of `name`.
    fn case_mixes(name: &str) -> Vec<String> {
        let letters: Vec<usize> = name
            .char_indices()
            .filter(|(_, c)| c.is_ascii_alphabetic())
            .map(|(i, _)| i)
            .collect();
        (0..1u32 << letters.len())
            .map(|mask| {
                let mut mix = name.as_bytes().to_vec();
                for (bit, &i) in letters.iter().enumerate() {
                    if mask & (1 << bit) != 0 {
                        mix[i] = mix[i].to_ascii_uppercase();
                    }
                }
                String::from_utf8(mix).expect("ASCII stays UTF-8")
            })
            .collect()
    }

    #[test]
    fn parse_accepts_exactly_the_alias_table_in_any_case() {
        let table = [
            ("swim", AppClass::Swim),
            ("bt.a", AppClass::BtA),
            ("bt", AppClass::BtA),
            ("bt_a", AppClass::BtA),
            ("hydro2d", AppClass::Hydro2d),
            ("hydro", AppClass::Hydro2d),
            ("apsi", AppClass::Apsi),
        ];
        for (name, class) in table {
            let mixes = case_mixes(name);
            assert_eq!(
                mixes.len(),
                1 << name.bytes().filter(u8::is_ascii_alphabetic).count()
            );
            for mix in mixes {
                assert_eq!(AppClass::parse(&mix), Some(class), "{mix:?}");
            }
        }
        for miss in [
            "",
            "swi",
            "swimm",
            " swim",
            "swim ",
            "swim\n",
            "bt.",
            "bt.b",
            "bt-a",
            "bta",
            "bt.a.",
            "btA",
            "hydro2",
            "hydro3d",
            "hydro_2d",
            "aps",
            "apsi2",
            "ſwim",
            "ＳＷＩＭ",
            "bt\u{0}",
            "nonesuch",
        ] {
            assert_eq!(AppClass::parse(miss), None, "{miss:?}");
        }
    }

    #[test]
    fn tuned_requests_match_paper() {
        assert_eq!(AppClass::Swim.tuned_request(), 30);
        assert_eq!(AppClass::BtA.tuned_request(), 30);
        assert_eq!(AppClass::Hydro2d.tuned_request(), 30);
        assert_eq!(AppClass::Apsi.tuned_request(), 2);
    }

    #[test]
    fn untuned_requests_are_all_30() {
        for class in AppClass::ALL {
            assert_eq!(class.untuned_request(), 30);
        }
    }
}
