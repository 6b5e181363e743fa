//! Figure 4's table is frozen: the `figure4` binary must print
//! `tests/golden/figure4.txt` byte for byte. After a deliberate change,
//! rewrite the golden file with `PIPEMAP_BLESS=1 cargo test -p
//! pipemap-bench --test figure4` and review its diff.

use std::process::Command;

#[test]
fn figure4_matches_its_golden_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_figure4"))
        .output()
        .expect("figure4 runs");
    assert!(
        out.status.success(),
        "figure4 failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/figure4.txt");
    if std::env::var_os("PIPEMAP_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(golden, &out.stdout).expect("golden file is writable");
        return;
    }
    let want = std::fs::read(golden).expect("golden file exists");
    assert!(
        out.stdout == want,
        "figure4 output differs from {golden}:\n--- got ---\n{}\n--- want ---\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&want)
    );
}
