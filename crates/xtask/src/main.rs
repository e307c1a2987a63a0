//! `lmkg-xtask` — the repo's static-analysis driver.
//!
//! Usage: `cargo run -p lmkg-xtask -- check [--root <path>]`
//!
//! Walks every `crates/*/src/**/*.rs` (tests and vendored code are out
//! of scope — the lints guard production code) and enforces:
//!
//! * **L1** — every `unsafe` site carries a `// SAFETY:` comment or a
//!   `# Safety` doc section.
//! * **L2** — no `unwrap()` / `expect()` / `panic!` / `unreachable!` in
//!   the serving hot paths, minus the justified `allow.toml` residue.
//! * **L3** — protocol verbs and `ERR code=` codes in `protocol.rs`
//!   match the README grammar exactly.
//! * **L5** — explicit atomic orderings only in files whose `allow.toml`
//!   entry names the synchronization argument, with a per-file cap.
//!
//! Exit status: 0 when clean, 1 with findings, 2 on usage/setup errors.

mod allow;
mod lexer;
mod lints;

use lints::{Finding, SourceFile};
use std::path::{Path, PathBuf};

fn workspace_root(cli_root: Option<PathBuf>) -> Result<PathBuf, String> {
    let root = match cli_root {
        Some(r) => r,
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."),
    };
    let root = root
        .canonicalize()
        .map_err(|e| format!("cannot resolve workspace root {}: {e}", root.display()))?;
    if !root.join("Cargo.toml").is_file() {
        return Err(format!("{} does not look like the workspace root", root.display()));
    }
    Ok(root)
}

/// All `crates/*/src/**/*.rs`, as root-relative `/`-separated paths.
fn collect_sources(root: &Path) -> Result<Vec<String>, String> {
    let crates_dir = root.join("crates");
    let mut out = Vec::new();
    let entries = std::fs::read_dir(&crates_dir).map_err(|e| format!("reading {}: {e}", crates_dir.display()))?;
    for entry in entries.flatten() {
        let src_dir = entry.path().join("src");
        if src_dir.is_dir() {
            walk_rs(&src_dir, &mut out)?;
        }
    }
    let mut rels: Vec<String> = out
        .iter()
        .map(|p| p.strip_prefix(root).unwrap_or(p).to_string_lossy().replace('\\', "/"))
        .collect();
    rels.sort();
    Ok(rels)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn run_check(root: &Path) -> Result<Vec<Finding>, String> {
    let allow_path = root.join("crates/xtask/allow.toml");
    let allow_text =
        std::fs::read_to_string(&allow_path).map_err(|e| format!("reading {}: {e}", allow_path.display()))?;
    let allow = allow::parse(&allow_text).map_err(|e| e.to_string())?;

    let rels = collect_sources(root)?;
    let mut files = Vec::with_capacity(rels.len());
    for rel in &rels {
        let src = std::fs::read_to_string(root.join(rel)).map_err(|e| format!("reading {rel}: {e}"))?;
        files.push(SourceFile::from_source(rel, &src));
    }

    let mut findings = Vec::new();
    let mut unwrap_used = vec![false; allow.unwraps.len()];
    let mut ordering_used = vec![false; allow.orderings.len()];

    for f in &files {
        findings.extend(lints::l1_safety_comments(f));
        findings.extend(lints::l2_hot_path_panics(f, &allow, &mut unwrap_used));
        findings.extend(lints::l5_atomic_orderings(f, &allow, &mut ordering_used));
    }

    let readme = std::fs::read_to_string(root.join("README.md")).map_err(|e| format!("reading README.md: {e}"))?;
    match files.iter().find(|f| f.rel == "crates/serve/src/protocol.rs") {
        Some(protocol) => findings.extend(lints::l3_protocol_drift(protocol, &readme)),
        None => return Err("crates/serve/src/protocol.rs not found — L3 has nothing to check".into()),
    }

    findings.extend(lints::unused_allow_entries(&allow, &unwrap_used, &ordering_used));

    findings.sort_by(|a, b| (a.lint, &a.file, a.line).cmp(&(b.lint, &b.file, b.line)));
    Ok(findings)
}

fn usage() -> ! {
    eprintln!("usage: cargo run -p lmkg-xtask -- check [--root <path>]");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else { usage() };
    if cmd != "check" {
        usage();
    }
    let mut cli_root = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--root" => match args.next() {
                Some(v) => cli_root = Some(PathBuf::from(v)),
                None => usage(),
            },
            _ => usage(),
        }
    }

    let root = match workspace_root(cli_root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lmkg-xtask: {e}");
            std::process::exit(2);
        }
    };
    match run_check(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("lmkg-xtask check: clean (L1 safety, L2 hot-path panics, L3 protocol drift, L5 atomic orderings)");
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            println!("lmkg-xtask check: {} finding(s)", findings.len());
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("lmkg-xtask: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end on the real tree: the checked-in workspace must be
    /// clean, which is exactly what CI asserts via the binary.
    #[test]
    fn the_workspace_is_clean() {
        let root = workspace_root(None).expect("workspace root resolves");
        let findings = run_check(&root).expect("check runs");
        assert!(
            findings.is_empty(),
            "workspace has lint findings:\n{}",
            findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
        );
    }
}
