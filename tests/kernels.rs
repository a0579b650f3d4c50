//! End-to-end kernel-backend equivalence: the SIMD dispatch layer must be
//! invisible in every result. A full minimization under `Backend::Scalar`
//! and under the auto-detected SIMD backend must produce bit-identical
//! forms and identical search-effort counters at 1, 2 and 4 threads —
//! the cross-backend extension of the thread-count determinism guarantee.
//!
//! The backend is flipped in-process with [`spp::kernels::set_backend`]
//! (the `SPP_KERNEL` environment variable is only read once per process),
//! which is exactly the test surface that function exists for.

use spp::benchgen::registry;
use spp::core::{GenLimits, Minimizer, Parallelism, SppMinResult, SppOptions};
use spp::cover::Limits;
use spp::kernels::Backend;

fn minimize(name: &str, output: usize, threads: usize) -> SppMinResult {
    let f = registry::circuit(name).unwrap().output_on_support(output);
    let options =
        SppOptions::default().with_cover_limits(Limits::default().with_max_nodes(100_000));
    Minimizer::new(&f)
        .options(options)
        .limits(GenLimits::default().with_parallelism(Parallelism::fixed(threads)))
        .run_exact()
}

#[test]
fn scalar_and_simd_backends_minimize_bit_identically() {
    let simd = Backend::detect();
    if simd == Backend::Scalar {
        eprintln!("no SIMD backend on this CPU; cross-backend test is vacuous");
        return;
    }
    for (name, output) in [("life", 0), ("adr4", 3)] {
        for threads in [1usize, 2, 4] {
            spp::kernels::set_backend(Backend::Scalar).unwrap();
            let scalar = minimize(name, output, threads);
            spp::kernels::set_backend(simd).unwrap();
            let vectored = minimize(name, output, threads);
            assert_eq!(
                scalar.form, vectored.form,
                "{name}({output}) form diverged across backends at {threads} threads"
            );
            assert_eq!(
                scalar.gen_stats.comparisons, vectored.gen_stats.comparisons,
                "{name}({output}) comparison count diverged at {threads} threads"
            );
            assert_eq!(
                scalar.num_candidates, vectored.num_candidates,
                "{name}({output}) EPPP count diverged at {threads} threads"
            );
            assert_eq!(scalar.optimal, vectored.optimal);
            assert_eq!(scalar.literal_count(), vectored.literal_count());
        }
    }
    // Leave the process-wide backend as detection would have picked it.
    spp::kernels::set_backend(Backend::detect()).unwrap();
}
