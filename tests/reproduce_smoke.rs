//! Drives the real `reproduce` binary over its cheap sub-commands and pins
//! the lines EXPERIMENTS.md quotes, so the document cannot drift from the
//! tree unseen. (`phases`, `table1` and `table2` take a release build and
//! about a minute; they are re-pasted into EXPERIMENTS.md by hand.)

use std::process::Command;

fn reproduce(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce binary runs")
}

#[test]
fn fig1_fig4_physical_print_what_experiments_md_quotes() {
    let out = reproduce(&["fig1", "fig4", "physical"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    for line in [
        "initial  : ((1.3)//(2.4.5.6)).7.8.9",
        "optimized: ((1.8'1.3)//(2.4.6.8'2.5)).7.9",
        "cost 137106 -> 128061 (6.6%), 8 states visited",
        "empirical equivalence on PARTS1/PARTS2 data: true",
        "Fig. 2 structure: σ(€) distributed (clone ids present) = true",
        "paper formulas  : c1 = 56, c2 = 32, c3 = 24",
        "model pricing   : c1 = 64, c2 = 32, c3 = 40",
        "shape check     : DIS beats original = true | FAC beats original = true",
        "  roomy memory   cost     27885   $2E=scan A2E=scan NN=scan U=concat γ-SUM=hash-group σ(€)=scan",
        "  tight memory   cost    137106   $2E=scan A2E=scan NN=scan U=concat γ-SUM=sort-group σ(€)=scan",
    ] {
        assert!(
            stdout.lines().any(|l| l == line),
            "missing line `{line}` in:\n{stdout}"
        );
    }
}

#[test]
fn unknown_sub_command_exits_2() {
    let out = reproduce(&["table3"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command `table3`"));
}

#[test]
fn a_bad_or_missing_seed_exits_2() {
    for args in [&["--seed", "abc"][..], &["fig1", "--seed"][..]] {
        let out = reproduce(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--seed takes an unsigned integer"),
            "{args:?}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{args:?}: ran before the usage error"
        );
    }
}
