//! CLI for `nbl-analyze`.
//!
//! ```text
//! cargo run -p nbl-analyze --release               # report, exit 0
//! cargo run -p nbl-analyze --release -- --deny     # exit 1 on findings
//! cargo run -p nbl-analyze --release -- --json results/json/analyze.json
//! cargo run -p nbl-analyze --release -- --root some/tree
//! ```

use nbl_analyze::{report, run_analysis};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny = false;
    let mut json: Option<PathBuf> = None;
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--json" => match args.next() {
                Some(p) => json = Some(PathBuf::from(p)),
                None => return usage("--json needs a path"),
            },
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage("--root needs a directory"),
            },
            "--help" | "-h" => {
                print!("{}", HELP);
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let analysis = match run_analysis(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nbl-analyze: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    for f in &analysis.findings {
        println!("{}", f.render());
    }
    println!(
        "nbl-analyze: {} finding(s) across {} file(s) ({} inline allow(s))",
        analysis.findings.len(),
        analysis.files_scanned,
        analysis.allows_used,
    );

    if let Some(path) = json {
        let doc = report::analyze_json(
            &analysis.findings,
            analysis.files_scanned,
            analysis.allows_used,
        );
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("nbl-analyze: cannot create {}: {e}", parent.display());
                    return ExitCode::from(2);
                }
            }
        }
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("nbl-analyze: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("nbl-analyze: wrote {}", path.display());
    }

    if deny && !analysis.findings.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

const HELP: &str = "\
nbl-analyze: repo-specific static analysis (see DESIGN.md §13)

USAGE:
    nbl-analyze [--deny] [--json PATH] [--root DIR]

OPTIONS:
    --deny        exit non-zero if any finding survives suppression
    --json PATH   write the machine-readable report (analyze.json shape)
    --root DIR    analyze a tree other than the current directory
    -h, --help    print this help
";

fn usage(msg: &str) -> ExitCode {
    eprintln!("nbl-analyze: {msg}");
    eprint!("{}", HELP);
    ExitCode::from(2)
}
