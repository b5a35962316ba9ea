//! Records the compiler version and target triple for the host
//! fingerprint every benchmark run prints.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let target = std::env::var("TARGET").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=EVOBENCH_RUSTC={version}");
    println!("cargo:rustc-env=EVOBENCH_TARGET={target}");
    println!("cargo:rerun-if-changed=build.rs");
}
