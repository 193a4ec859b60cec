//! Criterion microbenchmarks of the queue substrate (§4/§6.1): tagged
//! queue ops, rotating queues, token queues, and the weighted reduce of
//! Eq. (2).

use criterion::{criterion_group, criterion_main, Criterion};
use hop_queue::tagged::TagFilter;
use hop_queue::{RotatingQueues, Tag, TaggedQueue, TokenQueue};
use std::hint::black_box;

fn bench_tagged_queue(c: &mut Criterion) {
    c.bench_function("tagged_enqueue_dequeue_64", |b| {
        b.iter(|| {
            let mut q = TaggedQueue::unbounded();
            for i in 0..64u64 {
                q.enqueue(
                    black_box(i),
                    Tag {
                        iter: i % 4,
                        w_id: (i % 8) as usize,
                    },
                )
                .unwrap();
            }
            for iter in 0..4 {
                black_box(q.drain_matching(TagFilter::iter(iter)));
            }
        })
    });
}

fn bench_rotating_queues(c: &mut Criterion) {
    c.bench_function("rotating_enqueue_dequeue_64", |b| {
        b.iter(|| {
            let mut q = RotatingQueues::new(5);
            for i in 0..64u64 {
                q.enqueue(
                    black_box(i),
                    Tag {
                        iter: i % 6,
                        w_id: (i % 8) as usize,
                    },
                )
                .unwrap();
            }
            for iter in 0..6 {
                black_box(q.dequeue_up_to(16, iter));
            }
        })
    });
}

fn bench_token_queue(c: &mut Criterion) {
    c.bench_function("token_insert_remove_1k", |b| {
        b.iter(|| {
            let mut q = TokenQueue::new(4);
            for _ in 0..1000 {
                q.insert(1);
                assert!(q.try_remove(1));
            }
            black_box(q.available())
        })
    });
}

fn bench_reduce(c: &mut Criterion) {
    let updates: Vec<Vec<f32>> = (0..5).map(|i| vec![i as f32; 4096]).collect();
    let views: Vec<&[f32]> = updates.iter().map(Vec::as_slice).collect();
    let staleness_views: Vec<(u64, &[f32])> = views
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as u64 + 10, v))
        .collect();
    let mut out = vec![0.0f32; 4096];
    c.bench_function("reduce_mean_5x4096", |b| {
        b.iter(|| hop_core::semantics::reduce_mean(black_box(&views), None, &mut out))
    });
    c.bench_function("reduce_staleness_eq2_5x4096", |b| {
        b.iter(|| {
            hop_core::semantics::reduce_staleness(black_box(&staleness_views), 14, 5, &mut out)
        })
    });
}

criterion_group!(
    benches,
    bench_tagged_queue,
    bench_rotating_queues,
    bench_token_queue,
    bench_reduce
);
criterion_main!(benches);
