//! Criterion benchmark: compiled-plan batch execution vs the
//! tree-walking oracle on the NIPS models. A developer microscope: it
//! gates nothing. The plan executor's cost is measured by
//! `core.plan_exec_ns_per_sample` in `benchmark/`; its bit-exactness
//! against the oracle by `tests/plan_differential.rs`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use spn_core::{CompiledPlan, Evaluator, NipsBenchmark, PlanExecutor, Query};

fn benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("plan_vs_treewalk");
    g.sample_size(10)
        .measurement_time(std::time::Duration::from_secs(4))
        .warm_up_time(std::time::Duration::from_millis(500));
    for bench in [NipsBenchmark::Nips10, NipsBenchmark::Nips40] {
        let spn = bench.build_spn();
        let data = bench.dataset(20_000, 42);
        g.throughput(Throughput::Elements(data.num_samples() as u64));

        g.bench_function(format!("treewalk_{}", bench.name()), |b| {
            let mut ev = Evaluator::new(&spn);
            b.iter(|| {
                let mut acc = 0.0;
                for row in data.rows() {
                    acc += ev.eval_bytes(&Query::Complete, black_box(row));
                }
                black_box(acc)
            })
        });

        let plan = CompiledPlan::compile(&spn);
        g.bench_function(format!("plan_{}", bench.name()), |b| {
            let mut ex = PlanExecutor::new(&plan);
            let mut out = Vec::with_capacity(data.num_samples());
            b.iter(|| {
                out.clear();
                ex.eval_batch_into(&Query::Complete, black_box(&data), &mut out);
                black_box(out.last().copied())
            })
        });
    }
    g.finish();
}

criterion_group!(plan, benches);
criterion_main!(plan);
