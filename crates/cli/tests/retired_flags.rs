//! Options of retired features fail loudly: the `pdpa` binary rejects
//! them as unknown options with the usage exit code, instead of running
//! without them.

use std::process::Command;

#[test]
fn replay_and_tournament_json_are_unknown_options() {
    for args in [
        &["replay", "t.swf", "--policy", "pdpa", "--json"][..],
        &["tournament", "--json"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pdpa"))
            .args(args)
            .output()
            .expect("runs the pdpa binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("unknown option") && stderr.contains("--json"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed output");
    }
}
