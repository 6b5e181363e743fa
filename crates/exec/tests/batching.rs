//! Property test: the batched, pooled data plane is an exact drop-in for
//! the unbatched reference path.
//!
//! For any replication degrees, batch size, queue depth, stream length
//! and input seed, running the same stage chain
//!
//! * unbatched (`batch = 1`, plain `Vec<u64>` payloads — the paper's
//!   rendezvous-style reference),
//! * batched (`batch = B`), and
//! * batched over pooled [`Lease`] payloads
//!
//! must produce bit-identical outputs in the same order: round-robin
//! dispatch keys on the sequence number, so batching only changes *when*
//! items travel, never *where* or in what final order.
//!
//! Worker threads per instance come from `PIPEMAP_THREADS` (default 1,
//! capped at 4) so CI can exercise both the serial fast path and the
//! multi-threaded kernels.

use pipemap_exec::{run_pipeline, BufferPool, Data, Lease, PipelinePlan, Stage, StagePlan};
use proptest::prelude::*;

const PAYLOAD_LEN: usize = 8;

fn env_threads() -> usize {
    std::env::var("PIPEMAP_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(1)
        .clamp(1, 4)
}

/// Deterministic per-stage transform; must be injective enough that a
/// misrouted or reordered data set cannot collide back to the right
/// answer by accident.
fn mix(x: u64, salt: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15 | 1)
        .rotate_left(((salt % 61) + 1) as u32)
        ^ salt.wrapping_mul(0xD131_0BA6_985D_F3A5)
}

fn input_vec(seed: u64, i: usize) -> Vec<u64> {
    (0..PAYLOAD_LEN)
        .map(|j| seed ^ ((i as u64) << 32) ^ mix(j as u64, seed))
        .collect()
}

fn plain_stage(si: usize) -> Stage {
    Stage::new(format!("s{si}"), move |mut v: Vec<u64>, _threads| {
        for x in v.iter_mut() {
            *x = mix(*x, si as u64 + 1);
        }
        v
    })
}

fn pooled_stage(si: usize) -> Stage {
    Stage::new(
        format!("s{si}"),
        move |mut lease: Lease<Vec<u64>>, _threads| {
            for x in lease.iter_mut() {
                *x = mix(*x, si as u64 + 1);
            }
            lease
        },
    )
}

fn plan(
    replicas: &[usize],
    threads: usize,
    batch: usize,
    queue_depth: usize,
    make_stage: fn(usize) -> Stage,
) -> PipelinePlan {
    let stages = replicas
        .iter()
        .enumerate()
        .map(|(si, &r)| StagePlan::new(make_stage(si), r, threads))
        .collect();
    PipelinePlan::new(stages)
        .with_queue_depth(queue_depth)
        .with_batch(batch)
}

fn run_plain(
    replicas: &[usize],
    threads: usize,
    batch: usize,
    queue_depth: usize,
    n: usize,
    seed: u64,
) -> Vec<Vec<u64>> {
    let plan = plan(replicas, threads, batch, queue_depth, plain_stage);
    let inputs: Vec<Data> = (0..n)
        .map(|i| Box::new(input_vec(seed, i)) as Data)
        .collect();
    let (out, stats) = run_pipeline(&plan, inputs);
    assert_eq!(stats.datasets, n);
    out.into_iter()
        .map(|d| *d.downcast::<Vec<u64>>().expect("plain output"))
        .collect()
}

fn run_pooled(
    replicas: &[usize],
    threads: usize,
    batch: usize,
    queue_depth: usize,
    n: usize,
    seed: u64,
) -> Vec<Vec<u64>> {
    let plan = plan(replicas, threads, batch, queue_depth, pooled_stage);
    let pool = BufferPool::new(16);
    let inputs: Vec<Data> = (0..n)
        .map(|i| {
            let mut lease = pool.take(Vec::new);
            lease.clear();
            lease.extend(input_vec(seed, i));
            Box::new(lease) as Data
        })
        .collect();
    let (out, stats) = run_pipeline(&plan, inputs);
    assert_eq!(stats.datasets, n);
    out.into_iter()
        .map(|d| {
            d.downcast::<Lease<Vec<u64>>>()
                .expect("leased output")
                .into_inner()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_and_pooled_match_unbatched_reference(
        replicas in prop::collection::vec(1..4usize, 1..4),
        batch in 1..9usize,
        queue_depth in 1..4usize,
        n in 0..80usize,
        seed in any::<u64>(),
    ) {
        let threads = env_threads();

        let reference = run_plain(&replicas, threads, 1, queue_depth, n, seed);
        prop_assert_eq!(reference.len(), n);

        let batched = run_plain(&replicas, threads, batch, queue_depth, n, seed);
        prop_assert_eq!(
            &reference, &batched,
            "batch={} replicas={:?} queue={} n={}",
            batch, replicas, queue_depth, n
        );

        let pooled = run_pooled(&replicas, threads, batch, queue_depth, n, seed);
        prop_assert_eq!(
            &reference, &pooled,
            "pooled: batch={} replicas={:?} queue={} n={}",
            batch, replicas, queue_depth, n
        );
    }
}

/// The pool batches both ends of a load run: the source reads a batch's
/// payloads ahead under one shelf lock and the sink returns a message's
/// under one, where an unbatched pool locks twice per data set.
#[test]
fn a_pooled_load_run_locks_the_shelf_per_batch_not_per_data_set() {
    use pipemap_exec::{run_load, LoadOptions};
    const N: usize = 4096;
    let pool = BufferPool::new(N);
    let plan = plan(&[1, 1], env_threads(), 32, 4, pooled_stage);
    let opts = LoadOptions {
        rate: None,
        duration: None,
        max_datasets: Some(N),
        ..LoadOptions::default()
    };
    let make = |seq: usize| -> Data {
        let mut lease = pool.take(Vec::new);
        lease.clear();
        lease.extend(input_vec(7, seq));
        Box::new(lease)
    };
    // Stock the shelf for every take: how many data sets are in flight at
    // once depends on how the threads are scheduled, and a miss costs a
    // lock of its own.
    drop((0..N).map(make).collect::<Vec<_>>());
    let (locks, before) = (pool.shelf_locks(), pool.stats());
    assert_eq!(run_load(&plan, make, &opts).completed, N);
    let locks = pool.shelf_locks() - locks;
    let after = pool.stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    assert_eq!(hits + misses, N as u64);
    // No lease is stranded or lost: each one dropped at the sink is back.
    assert_eq!(after.returns - before.returns, N as u64);
    assert_eq!(pool.shelved(), N);
    assert!(
        locks <= (N / 8) as u64,
        "{locks} shelf locks for {N} data sets"
    );
    let hit_rate = hits as f64 / N as f64;
    assert!(hit_rate >= 0.99, "hit rate {hit_rate} ({misses} misses)");
}
