//! Criterion benchmark of the bit-accurate accelerator model across
//! arithmetic formats: `AcceleratorCore::run_job` — the synthesised
//! datapath the virtual device runs — with the per-sample reference
//! (`run_sample`, i.e. `DatapathProgram::execute`) beside it in the
//! paper's format. A developer microscope: it gates nothing.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use spn_arith::AnyFormat;
use spn_core::NipsBenchmark;
use spn_hw::{AcceleratorConfig, AcceleratorCore, DatapathProgram};

fn benches(c: &mut Criterion) {
    for bench in [NipsBenchmark::Nips10, NipsBenchmark::Nips40] {
        let prog = DatapathProgram::compile(&bench.build_spn());
        let data = bench.dataset(4096, 7);
        let core_in = |name: &str| {
            AcceleratorCore::new(
                AcceleratorConfig::paper_default(),
                prog.clone(),
                AnyFormat::from_name(name).expect("known format"),
            )
        };
        let mut g = c.benchmark_group(format!("datapath/{}", bench.name()));
        g.sample_size(10)
            .measurement_time(std::time::Duration::from_secs(4))
            .warm_up_time(std::time::Duration::from_millis(500));
        g.throughput(Throughput::Elements(data.num_samples() as u64));
        for name in ["f64", "cfp", "lns"] {
            let core = core_in(name);
            g.bench_function(name, |b| {
                b.iter(|| black_box(core.run_job(black_box(data.raw()))))
            });
        }
        let reference = core_in("cfp");
        g.bench_function("reference/execute", |b| {
            b.iter(|| {
                for row in data.rows() {
                    black_box(reference.run_sample(black_box(row)));
                }
            })
        });
        g.finish();
    }
}

criterion_group!(datapath, benches);
criterion_main!(datapath);
