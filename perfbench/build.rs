//! Records the compiler, the source revision and the build profile, so
//! every benchmark result carries the host descriptor it was made on.

use std::path::Path;
use std::process::Command;

fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = stdout_of(Command::new(rustc).arg("--version"));

    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let repo = Path::new(&manifest).join("..");
    let git = repo.join(".git");
    // Look for the repository's own `.git` only, never an enclosing one.
    let rev = if git.exists() {
        stdout_of(
            Command::new("git")
                .arg("-C")
                .arg(&repo)
                .args(["rev-parse", "--short=12", "HEAD"])
                .env("GIT_CEILING_DIRECTORIES", repo.join("..")),
        )
    } else {
        None
    };

    let profile = format!(
        "{} opt-level={}",
        std::env::var("PROFILE").unwrap_or_default(),
        std::env::var("OPT_LEVEL").unwrap_or_default()
    );
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        version.as_deref().unwrap_or("unknown")
    );
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_REV={}",
        rev.as_deref().unwrap_or("unknown")
    );
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
    for watched in ["HEAD", "refs/heads"] {
        if git.join(watched).exists() {
            println!("cargo:rerun-if-changed={}", git.join(watched).display());
        }
    }
}
