//! Records the compiler version and build profile in the binary, so every
//! result line names the toolchain and profile that produced it.

use std::process::Command;

/// The release profile's `lto` setting: `CARGO_PROFILE_RELEASE_LTO` when
/// set, else the `[profile.release]` entry of this package's manifest.
fn release_lto() -> String {
    if let Ok(lto) = std::env::var("CARGO_PROFILE_RELEASE_LTO") {
        return lto;
    }
    let dir = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".to_string());
    let manifest = std::fs::read_to_string(format!("{dir}/Cargo.toml")).unwrap_or_default();
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .filter_map(|l| l.split_once('='))
        .find(|(key, _)| key.trim() == "lto")
        .map(|(_, value)| value.trim().trim_matches('"').to_string())
        .unwrap_or_else(|| "false".to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    let opt = std::env::var("OPT_LEVEL").unwrap_or_else(|_| "?".to_string());
    let described = if profile == "release" {
        format!("{profile} (opt-level {opt}, lto {})", release_lto())
    } else {
        format!("{profile} (opt-level {opt})")
    };
    println!("cargo:rustc-env=PERFBENCH_PROFILE={described}");
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-changed=Cargo.toml");
    println!("cargo:rerun-if-env-changed=CARGO_PROFILE_RELEASE_LTO");
}
