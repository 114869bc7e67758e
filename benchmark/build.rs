//! Records the compiler version and source commit the benchmark was
//! built from, for the provenance block every result carries.

use std::path::{Path, PathBuf};
use std::process::Command;

fn capture(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

/// The commit of the repository this package sits in, or `None` for a
/// source tree without git metadata (an exported checkout) — including
/// one that happens to lie inside some other repository.
fn commit(repo: &Path) -> Option<String> {
    let dir = repo.to_str()?;
    let top = capture("git", &["-C", dir, "rev-parse", "--show-toplevel"])?;
    if Path::new(&top).canonicalize().ok()? != repo.canonicalize().ok()? {
        return None;
    }
    capture("git", &["-C", dir, "rev-parse", "HEAD"])
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let repo = manifest
        .parent()
        .expect("the benchmark lives inside the repository");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = capture(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let commit = commit(repo).unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
    println!("cargo:rustc-env=BENCH_GIT_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
    // Re-capture the commit whenever HEAD moves.
    let head_log = repo.join(".git/logs/HEAD");
    if head_log.exists() {
        println!("cargo:rerun-if-changed={}", head_log.display());
    }
}
