//! Frozen artifacts: each binary below must print its file under
//! `tests/golden/` byte for byte — Figure 4's table and the E1
//! latency/throughput frontier. After a deliberate change, rewrite the
//! golden files with `PIPEMAP_BLESS=1 cargo test -p pipemap-bench --test
//! figure4` and review their diff.

use std::process::Command;

/// Runs the binary at `exe` and compares its stdout with
/// `tests/golden/<name>.txt`, or rewrites that file under
/// `PIPEMAP_BLESS=1`.
fn matches_golden(exe: &str, name: &str) {
    let out = Command::new(exe).output().expect("binary runs");
    assert!(
        out.status.success(),
        "{name} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("PIPEMAP_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&golden, &out.stdout).expect("golden file is writable");
        return;
    }
    let want = std::fs::read(&golden).expect("golden file exists");
    assert!(
        out.stdout == want,
        "{name} output differs from {golden}:\n--- got ---\n{}\n--- want ---\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&want)
    );
}

#[test]
fn figure4_matches_its_golden_file() {
    matches_golden(env!("CARGO_BIN_EXE_figure4"), "figure4");
}

#[test]
fn latency_frontier_matches_its_golden_file() {
    matches_golden(env!("CARGO_BIN_EXE_latency_frontier"), "latency_frontier");
}
