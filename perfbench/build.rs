//! Stamps the compiler version and the source revision into the binary for
//! the provenance line of every result.

use std::process::Command;

fn output(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version =
        output(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".to_string());
    // The repository root is the manifest directory's parent; git must not
    // search above it. A tree without git metadata (an exported checkout)
    // has no SHA.
    let manifest =
        std::path::PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest.parent().expect("perfbench sits in the repository root");
    let sha = output(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(root)
            .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root)),
    )
    .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_SHA={sha}");
    println!("cargo:rerun-if-changed=build.rs");
}
