//! The telemetry plane's wire form under stress: frames taken while
//! several threads record and stored only in part must still leave the
//! parent equal to the worker, and the decoder must survive any bytes a
//! dying or confused worker could send.

use pipemap_obs::{schema, JourneyEvent, JourneyKind, Registry, TelemetryFrame};

/// Seeded xorshift64*, enough to pick values, ticks and subsets.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Several threads record into a worker registry while frames are
/// taken at random points; the parent stores only a random subset
/// of them, and always the final one. Its series must then equal
/// the worker's exactly, however many frames were lost.
#[test]
fn any_subset_of_frames_ending_with_the_last_reproduces_worker_totals() {
    const PREFIX: &str = "exec.worker.s0i0.p77.";
    const PER_THREAD: u64 = 20_000;
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for round in 0..8 {
        let worker = Registry::new();
        let wrec = worker.recorder();
        let parent = Registry::new();
        let prec = parent.recorder();
        let seeds: Vec<u64> = (0..3).map(|_| rng.next() | 1).collect();
        std::thread::scope(|scope| {
            for &seed in &seeds {
                let wrec = wrec.clone();
                scope.spawn(move || {
                    let mut rng = Rng(seed);
                    let items = wrec.counter("items");
                    let service = wrec.histogram("service_s");
                    for _ in 0..PER_THREAD {
                        service.record((1 + rng.below(1 << 20)) as f64 * 1e-9);
                        items.add(1);
                    }
                });
            }
            for seq in 1.. {
                let done = worker.snapshot().counter("items") == Some(3 * PER_THREAD);
                let frame = TelemetryFrame::collect(&worker, 77, seq);
                if rng.below(3) == 0 {
                    frame.store(&prec, PREFIX);
                }
                if done {
                    break;
                }
                std::thread::yield_now();
            }
        });
        TelemetryFrame::collect(&worker, 77, u64::MAX).store(&prec, PREFIX);

        let (w, p) = (worker.snapshot(), parent.snapshot());
        assert_eq!(w.counter("items"), Some(3 * PER_THREAD));
        assert_eq!(
            p.counter(&format!("{PREFIX}items")),
            w.counter("items"),
            "round {round}"
        );
        let cells = |reg: &Registry, name: &str| {
            let (_, h) = reg
                .histogram_cells()
                .into_iter()
                .find(|(k, _)| k == name)
                .expect("histogram present");
            (h.bucket_counts(), h.count(), h.sum(), h.max())
        };
        let (wb, wc, ws, wm) = cells(&worker, "service_s");
        let (pb, pc, ps, pm) = cells(&parent, &format!("{PREFIX}service_s"));
        assert_eq!(pb, wb, "round {round}: per-bucket totals");
        assert_eq!((pc, ps, pm), (wc, ws, wm), "round {round}");
        assert_eq!(pb.iter().map(|&(_, c)| c).sum::<u64>(), pc);
        assert_eq!(pc, 3 * PER_THREAD);
    }
}

/// The decoder is the one place a worker's bytes enter the parent:
/// every truncation, every single-bit flip, oversized numbers and a
/// foreign schema must each yield `Err` or a frame, never a panic, and
/// a frame that decodes must store without one.
#[test]
fn decoder_survives_hostile_bytes() {
    let worker = Registry::new();
    let rec = worker.recorder();
    let mut rng = Rng(7919);
    for _ in 0..64 {
        rec.observe("service_s", rng.below(1 << 30) as f64 * 1e-9);
    }
    rec.add("items", 64);
    rec.gauge_set("cpu_pct", 12.5);
    let mut frame = TelemetryFrame::collect(&worker, 4242, 3);
    frame.journeys = vec![JourneyEvent {
        seq: 9,
        stage: 1,
        instance: 0,
        kind: JourneyKind::ServiceEnd,
        t_us: 1234.5,
        batch: 7,
    }];
    let good = frame.to_json();
    assert_eq!(TelemetryFrame::decode(good.as_bytes()), Ok(frame));

    let sink = Registry::new().recorder();
    let feed = |bytes: &[u8]| {
        if let Ok(f) = TelemetryFrame::decode(bytes) {
            f.store(&sink, "p.");
        }
    };
    let bytes = good.as_bytes();
    for end in 0..bytes.len() {
        feed(&bytes[..end]);
    }
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.to_vec();
            flipped[i] ^= 1 << bit;
            feed(&flipped);
        }
    }
    let hostile = |buckets: &str, count: &str| {
        format!(
            r#"{{"schema":"{}","pid":1,"seq":1,"histograms":[{{"name":"h","count":{count},"sum":1,"max":1,"buckets":{buckets}}}]}}"#,
            schema::TELEMETRY
        )
    };
    for (buckets, count) in [
        ("[[1024,1]]", "1"),
        ("[[4294967296,1]]", "1"),
        ("[[1e300,1]]", "1"),
        ("[[-1,1]]", "1"),
        ("[[5,1],[5,1]]", "2"),
        ("[[6,1],[5,1]]", "2"),
        ("[[5]]", "1"),
    ] {
        let text = hostile(buckets, count);
        assert!(TelemetryFrame::decode(text.as_bytes()).is_err(), "{text}");
    }
    for (buckets, count) in [("[[5,1e300]]", "1e300"), ("[[5,-3]]", "-3")] {
        let text = hostile(buckets, count);
        assert!(TelemetryFrame::decode(text.as_bytes()).is_ok(), "{text}");
        feed(text.as_bytes());
    }
    let wrong = good.replace(schema::TELEMETRY, "pipemap-telemetry/v1");
    assert!(TelemetryFrame::decode(wrong.as_bytes()).is_err());
}
