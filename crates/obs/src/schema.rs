//! The one place every `pipemap-*/v<n>` schema tag lives.
//!
//! Each JSON document the tooling emits carries a schema tag so
//! consumers can reject documents they do not understand. Those tags
//! used to be string literals scattered across the emitting crates;
//! collecting them here means a version bump is a one-line change and
//! the emitters cannot drift apart from the parsers.
//!
//! A tag is always `pipemap-<family>/v<version>`; [`split`] takes one
//! apart and [`all`] enumerates every tag the workspace emits (used by
//! the round-trip test below and by anything that wants to sanity-check
//! a document's tag against the known set).

/// Sampled per-dataset journey events (JSONL header + event lines).
pub const JOURNEY: &str = "pipemap-journey/v1";
/// Observatory alert/event stream (`/events.jsonl`).
pub const EVENTS: &str = "pipemap-events/v1";
/// Drift-doctor report (`pipemap doctor --report json`).
pub const DOCTOR: &str = "pipemap-doctor/v1";
/// Decision-provenance document (`pipemap explain`).
pub const EXPLAIN: &str = "pipemap-explain/v1";
/// Measured transport cost fit (`pipemap calibrate`).
pub const CALIBRATION: &str = "pipemap-calibration/v1";
/// Incremental re-solve artifact report (`pipemap resolve`).
pub const RESOLVE: &str = "pipemap-resolve/v1";
/// Online fitted cost model (`/model.json`).
pub const MODEL: &str = "pipemap-model/v1";
/// Perf-regression harness document (`pipemap bench`).
pub const BENCH: &str = "pipemap-bench/v1";
/// Cross-process telemetry frames (worker → parent), each carrying the
/// worker's cumulative totals. `v1` frames carried deltas and are
/// rejected.
pub const TELEMETRY: &str = "pipemap-telemetry/v2";

/// Every schema tag the workspace emits, with a short family label.
pub fn all() -> &'static [(&'static str, &'static str)] {
    &[
        ("journey", JOURNEY),
        ("events", EVENTS),
        ("doctor", DOCTOR),
        ("explain", EXPLAIN),
        ("calibration", CALIBRATION),
        ("resolve", RESOLVE),
        ("model", MODEL),
        ("bench", BENCH),
        ("telemetry", TELEMETRY),
    ]
}

/// Split a tag into `(family, version)`: `pipemap-doctor/v1` →
/// `("doctor", 1)`. `None` when the tag is not of that shape.
pub fn split(tag: &str) -> Option<(&str, u32)> {
    let rest = tag.strip_prefix("pipemap-")?;
    let (family, version) = rest.split_once("/v")?;
    if family.is_empty() {
        return None;
    }
    Some((family, version.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_tag_round_trips_through_split() {
        for (label, tag) in all() {
            let (family, version) = split(tag)
                .unwrap_or_else(|| panic!("schema tag '{tag}' is not pipemap-<family>/v<n>"));
            assert_eq!(family, *label, "family label drifted for '{tag}'");
            // Telemetry frames moved from deltas to cumulative totals.
            let expected = if *label == "telemetry" { 2 } else { 1 };
            assert_eq!(version, expected, "unexpected version in '{tag}'");
            assert_eq!(
                *tag,
                format!("pipemap-{family}/v{version}"),
                "tag does not rebuild from its parts"
            );
        }
    }

    #[test]
    fn tags_are_unique() {
        let tags: Vec<&str> = all().iter().map(|(_, t)| *t).collect();
        for (i, t) in tags.iter().enumerate() {
            assert!(!tags[i + 1..].contains(t), "duplicate schema tag '{t}'");
        }
    }

    #[test]
    fn split_rejects_malformed_tags() {
        assert_eq!(split("pipemap-doctor/v1"), Some(("doctor", 1)));
        assert_eq!(split("doctor/v1"), None);
        assert_eq!(split("pipemap-/v1"), None);
        assert_eq!(split("pipemap-doctor"), None);
        assert_eq!(split("pipemap-doctor/vx"), None);
    }
}
