//! CLI for the [`dhg_lint`] source auditor.
//!
//! ```text
//! dhg-lint [--root PATH] [--allow FILE] [--self-test]
//! ```
//!
//! Scans `crates/**/src/**/*.rs` under the root (default: the current
//! directory, falling back upward to the workspace root if `crates/` is
//! not here), suppresses findings covered by the allowlist (default:
//! `<root>/lint.allow`), prints the survivors and the stale allowlist
//! entries (those matching no finding), and exits non-zero if there is
//! any of either. `--self-test` instead runs the embedded seeded
//! negatives.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut allow_path: Option<PathBuf> = None;
    let mut self_test = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--allow" => allow_path = args.next().map(PathBuf::from),
            "--self-test" => self_test = true,
            "--help" | "-h" => {
                println!("usage: dhg-lint [--root PATH] [--allow FILE] [--self-test]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("dhg-lint: unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    if self_test {
        return match dhg_lint::self_test() {
            Ok(()) => {
                println!("dhg-lint self-test: every seeded negative flagged with its code");
                ExitCode::SUCCESS
            }
            Err(why) => {
                eprintln!("dhg-lint self-test FAILED: {why}");
                ExitCode::FAILURE
            }
        };
    }

    let root = root.unwrap_or_else(|| {
        // run from anywhere inside the workspace: walk up to `crates/`
        let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        while !dir.join("crates").is_dir() {
            if !dir.pop() {
                return PathBuf::from(".");
            }
        }
        dir
    });
    let allow_path = allow_path.unwrap_or_else(|| root.join("lint.allow"));

    let mut allow = match dhg_lint::Allowlist::load(&allow_path) {
        Ok(a) => a,
        Err(why) => {
            eprintln!("dhg-lint: {why}");
            return ExitCode::FAILURE;
        }
    };
    let (findings, n_files) = match dhg_lint::scan_tree(&root) {
        Ok(r) => r,
        Err(why) => {
            eprintln!("dhg-lint: scan failed: {why}");
            return ExitCode::FAILURE;
        }
    };
    let mut kept = Vec::new();
    for f in findings {
        if !allow.allows(&f) {
            kept.push(f);
        }
    }

    for f in &kept {
        println!("{f}");
    }
    for e in allow.unused() {
        println!(
            "dhg-lint: error: stale allowlist entry {} {} `{}` matches nothing",
            e.code, e.path_suffix, e.fragment
        );
    }
    let counts = dhg_lint::counts_by_code(&kept);
    let summary: Vec<String> =
        counts.iter().map(|(code, n)| format!("{code}: {n}")).collect();
    println!(
        "dhg-lint: {} file(s) scanned, {} finding(s){}",
        n_files,
        kept.len(),
        if summary.is_empty() { String::new() } else { format!(" [{}]", summary.join(", ")) }
    );
    if dhg_lint::gate_passes(&kept, &allow) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
