//! Committed expectations: `benchmark/expected/seed_<n>.txt`, one
//! `key value` pair per line. Throughputs are stored as the bit pattern
//! of the `f64` (`0x` + 16 hex digits), so "equal" means bit for bit.
//!
//! The values were produced once by `--write-expected` (the serial,
//! unpruned reference solver for the optima) and are frozen: a run
//! compares against the file, never against what the code under test
//! says today.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

#[derive(Debug, Default, PartialEq)]
pub struct Expected(BTreeMap<String, String>);

pub fn path_for(dir: &Path, seed: u64) -> PathBuf {
    dir.join(format!("seed_{seed}.txt"))
}

pub fn bits_text(v: f64) -> String {
    format!("0x{:016x}", v.to_bits())
}

impl Expected {
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("line {}: no value", n + 1))?;
            if map
                .insert(key.to_string(), value.trim().to_string())
                .is_some()
            {
                return Err(format!("line {}: {key} given twice", n + 1));
            }
        }
        Ok(Expected(map))
    }

    /// The expectations for `seed`, or `None` when none are committed.
    /// A file that exists but does not parse is an error, not a skip.
    pub fn load(dir: &Path, seed: u64) -> Result<Option<Self>, String> {
        let path = path_for(dir, seed);
        match std::fs::read_to_string(&path) {
            Ok(text) => Self::parse(&text)
                .map(Some)
                .map_err(|e| format!("{}: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    pub fn text(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    pub fn f64(&self, key: &str) -> Option<f64> {
        let hex = self.text(key)?.strip_prefix("0x")?;
        u64::from_str_radix(hex, 16).ok().map(f64::from_bits)
    }

    /// Replace every key under `prefix.` with `entries` and write the
    /// file back, leaving other workloads' keys alone.
    pub fn rewrite(
        dir: &Path,
        seed: u64,
        prefix: &str,
        entries: Vec<(String, String)>,
    ) -> Result<(), String> {
        let mut all = Self::load(dir, seed)?.unwrap_or_default();
        all.0.retain(|k, _| !k.starts_with(&format!("{prefix}.")));
        all.0.extend(entries);
        let mut text = String::from(
            "# Reference answers for one --seed; see benchmark/README.md. Written by --write-expected.\n",
        );
        for (k, v) in &all.0 {
            text.push_str(&format!("{k} {v}\n"));
        }
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        std::fs::write(path_for(dir, seed), text).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_patterns_round_trip() {
        let v = 16.514_886_990_987_59_f64;
        let text = format!("# c\nplan_cold.3.dp {}\nm 0-0:8x3,1-2:10x4\n", bits_text(v));
        let e = Expected::parse(&text).unwrap();
        assert_eq!(e.f64("plan_cold.3.dp").map(f64::to_bits), Some(v.to_bits()));
        assert_eq!(e.text("m"), Some("0-0:8x3,1-2:10x4"));
        assert_eq!(e.f64("m"), None);
        assert_eq!(e.f64("absent"), None);
        assert!(Expected::parse("novalue\n").is_err());
        assert!(Expected::parse("a 1\na 2\n").is_err());
    }
}
