//! Every explicit atomic ordering in production code is argued for. A file
//! under `crates/*/src` that names `Ordering::{Relaxed,Acquire,Release,
//! AcqRel,SeqCst}` outside comments and its `#[cfg(test)]` module carries one
//! `// ORDERING (max N): <synchronization argument>` comment. `N` caps the
//! file's site count, so a new site forces a reviewed update, and a comment
//! in a file with no site left is stale and must go.

use std::fs;
use std::path::Path;

/// `(explicit ordering sites, the ORDERING comment's cap and argument)` of
/// one source, skipping comment lines and the `#[cfg(test)]` item (from the
/// attribute to its closing top-level `}`).
fn scan(src: &str) -> (usize, Option<(usize, &str)>) {
    let (mut sites, mut argued, mut in_test) = (0, None, false);
    for line in src.lines() {
        let code = line.trim_start();
        if line == "#[cfg(test)]" {
            in_test = true;
        } else if in_test {
            in_test = line != "}";
        } else if let Some(comment) = code.strip_prefix("// ORDERING (max ") {
            let (max, why) = comment.split_once("): ").unwrap_or(("", ""));
            argued = argued.or(Some((max.parse().unwrap_or(0), why.trim())));
        } else if !code.starts_with("//") {
            for name in ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"] {
                sites += line.matches(&format!("Ordering::{name}")).count();
            }
        }
    }
    (sites, argued)
}

/// What is wrong with one source's ordering sites, if anything.
fn verdict(src: &str) -> Option<String> {
    match scan(src) {
        (0, None) => None,
        (n, None) => Some(format!("{n} ordering site(s) and no `// ORDERING (max N): why`")),
        (0, Some(_)) => Some("stale ORDERING comment, the file has no ordering site".into()),
        (_, Some((_, ""))) => Some("ORDERING comment without an argument".into()),
        (n, Some((max, _))) if n > max => Some(format!(
            "{n} ordering sites, capped at {max}: argue the new ones, raise the cap"
        )),
        _ => None,
    }
}

/// Checks every `.rs` file under `dir`, pushing one line per violation.
fn check(dir: &Path, problems: &mut Vec<String>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            check(&path, problems);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Some(problem) = verdict(&fs::read_to_string(&path).unwrap()) {
                problems.push(format!("{}: {problem}", path.display()));
            }
        }
    }
}

#[test]
fn every_atomic_ordering_site_is_argued_and_capped() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().join("crates");
    let mut problems = Vec::new();
    for krate in fs::read_dir(crates).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            check(&src, &mut problems);
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn scan_ignores_cmp_ordering_and_test_code() {
    let src = "use std::cmp::Ordering;
fn f(a: u8, b: u8) -> Ordering {
    // Ordering::Relaxed in a comment is not a site.
    a.cmp(&b).then(Ordering::Less)
}

#[cfg(test)]
mod tests {
    fn g(x: &AtomicU64) {
        x.load(Ordering::SeqCst);
    }
}
";
    assert_eq!(scan(src), (0, None));
    assert_eq!(verdict(src), None);
}

#[test]
fn unargued_or_overcap_sites_are_flagged() {
    let site = "fn f(x: &AtomicU64) -> u64 {\n    x.load(Ordering::Acquire)\n}\n";
    let two_sites = "fn f(x: &AtomicU64) {\n    x.store(x.load(Ordering::Relaxed), Ordering::Release);\n}\n";
    let argued = "// ORDERING (max 1): the load pairs with the Release store in g.\n";
    assert!(verdict(site).unwrap().contains("no `// ORDERING"));
    assert_eq!(verdict(&format!("{argued}{site}")), None);
    assert!(verdict(&format!("{argued}{two_sites}"))
        .unwrap()
        .contains("capped at 1"));
    assert_eq!(
        verdict(&format!("{}{two_sites}", argued.replace("max 1", "max 2"))),
        None
    );
    assert!(verdict("// ORDERING (max 1): \n").unwrap().contains("stale"));
    assert!(verdict(&format!("// ORDERING (max 1): \n{site}"))
        .unwrap()
        .contains("without an argument"));
}
