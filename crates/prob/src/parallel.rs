//! Multi-threaded Monte-Carlo drivers.
//!
//! The paper parallelises Monte-Carlo simulation on GPUs (§6.2, Table 8),
//! observing ~10× speedups because the workload is embarrassingly parallel.
//! This module reproduces the scheme with CPU threads via crossbeam's scoped
//! threads: samples are split across workers, each with an independently
//! seeded RNG stream, and counts are merged.
//!
//! Determinism: for a fixed `(cfg, threads)` pair results are reproducible;
//! changing the thread count changes the sample-stream split and therefore
//! the estimate (within Monte-Carlo error), exactly as on real parallel
//! hardware. [`influence_all`] is the exception: one sampling pass already
//! serves every literal, so it returns [`mc::influence_all`]'s answer for
//! every thread count.

use crate::dnf::Dnf;
use crate::mc::{self, CompiledDnf, McConfig};
use crate::var::{VarId, VarTable};

/// Parses the `P3_THREADS` environment override.
///
/// Returns `Ok(None)` when the variable is unset, `Ok(Some(n))` for a
/// numeric value (where `n = 0` means "auto": use the hardware default),
/// and `Err` with a clear message for anything non-numeric — a typo'd
/// `P3_THREADS` must fail loudly, not silently fall back to the default.
pub fn threads_from_env() -> Result<Option<usize>, String> {
    match std::env::var("P3_THREADS") {
        Err(_) => Ok(None),
        Ok(raw) => raw.trim().parse::<usize>().map(Some).map_err(|_| {
            format!("P3_THREADS must be a non-negative integer (0 = auto), got '{raw}'")
        }),
    }
}

/// Number of worker threads to use by default.
///
/// Honours the `P3_THREADS` environment variable (`0` = auto); otherwise
/// uses the available parallelism, capped at 16 (beyond that, memory
/// bandwidth dominates for this workload). A thread count of `0` passed to
/// any driver in this module means "use this default", so callers can store
/// `0` in configs to defer the decision.
///
/// # Panics
/// If `P3_THREADS` is set to a non-numeric value; use
/// [`threads_from_env`] to handle that case gracefully.
pub fn default_threads() -> usize {
    match threads_from_env() {
        Ok(Some(n)) if n > 0 => n,
        Ok(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(16),
        Err(msg) => panic!("{msg}"),
    }
}

/// Maps the `0 = use default` convention onto a concrete worker count.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        default_threads()
    } else {
        threads
    }
}

/// Splits `total` samples into `parts` near-equal chunks.
fn split(total: usize, parts: usize) -> Vec<usize> {
    let parts = parts.max(1);
    let base = total / parts;
    let extra = total % parts;
    (0..parts).map(|i| base + usize::from(i < extra)).collect()
}

/// Parallel naive Monte-Carlo estimate of `P[λ]` using `threads` workers.
pub fn estimate(dnf: &Dnf, vars: &VarTable, cfg: McConfig, threads: usize) -> f64 {
    if dnf.is_false() {
        return 0.0;
    }
    if dnf.is_true() {
        return 1.0;
    }
    let compiled = CompiledDnf::compile(dnf, vars);
    let chunks = split(cfg.samples, resolve_threads(threads));
    let estimates: Vec<(usize, f64)> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let compiled = &compiled;
                let worker_cfg = McConfig {
                    samples: n,
                    seed: worker_seed(cfg.seed, i),
                };
                scope.spawn(move |_| (n, mc::estimate_compiled(compiled, worker_cfg)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("mc worker panicked"))
            .collect()
    })
    .expect("mc scope panicked");
    weighted_mean(&estimates)
}

/// Every variable's paired influence estimate, as `(var, influence)` pairs
/// in ascending variable order, with the samples split across `threads`
/// workers exactly as [`estimate`] splits them: worker `i` runs one pass
/// over its own chunk with its own seed, and the per-chunk hit ratios are
/// merged by sample-weighted mean. The answers therefore depend on the
/// thread count; [`influence_all`] does not.
pub fn influences(dnf: &Dnf, vars: &VarTable, cfg: McConfig, threads: usize) -> Vec<(VarId, f64)> {
    let compiled = CompiledDnf::compile(dnf, vars);
    let chunks = split(cfg.samples, resolve_threads(threads));
    let per_chunk: Vec<(usize, Vec<(VarId, f64)>)> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let compiled = &compiled;
                scope.spawn(move |_| {
                    let hits = compiled.critical_counts(worker_seed(cfg.seed, i), n);
                    (n, compiled.hit_ratios(&hits, n))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("mc worker panicked"))
            .collect()
    })
    .expect("mc scope panicked");
    (0..compiled.num_slots())
        .map(|slot| {
            let parts: Vec<(usize, f64)> = per_chunk
                .iter()
                .map(|(n, ratios)| (*n, ratios[slot].1))
                .collect();
            (compiled.slot_var(slot), weighted_mean(&parts))
        })
        .collect()
}

/// Influence of every variable in `dnf`: [`mc::influence_all`]'s answer,
/// from its one sampling pass. `threads` is accepted for symmetry with the
/// other drivers and does not change the answer. (Splitting the worlds of
/// the one seeded stream across workers, each drawing and skipping the
/// worlds before its range, measured slower on Table 8's formula on two
/// cores: drawing the worlds, not counting them, is most of the pass.)
pub fn influence_all(
    dnf: &Dnf,
    vars: &VarTable,
    cfg: McConfig,
    _threads: usize,
) -> Vec<(VarId, f64)> {
    mc::influence_all(dnf, vars, cfg)
}

/// Derives a distinct, stable seed for worker `i`.
fn worker_seed(base: u64, i: usize) -> u64 {
    // SplitMix64 step keeps streams decorrelated even for adjacent indices.
    let mut z = base.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn weighted_mean(parts: &[(usize, f64)]) -> f64 {
    let total: usize = parts.iter().map(|&(n, _)| n).sum();
    if total == 0 {
        return 0.0;
    }
    parts.iter().map(|&(n, est)| est * n as f64).sum::<f64>() / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dnf::Monomial;
    use crate::exact;

    fn table(probs: &[f64]) -> VarTable {
        let mut t = VarTable::new();
        for (i, &p) in probs.iter().enumerate() {
            t.add(format!("x{i}"), p);
        }
        t
    }

    fn m(lits: &[u32]) -> Monomial {
        Monomial::new(lits.iter().map(|&i| VarId(i)).collect())
    }

    #[test]
    fn split_distributes_remainders() {
        assert_eq!(split(10, 3), vec![4, 3, 3]);
        assert_eq!(split(2, 4), vec![1, 1, 0, 0]);
        assert_eq!(split(0, 3), vec![0, 0, 0]);
        assert_eq!(split(5, 1), vec![5]);
    }

    #[test]
    fn parallel_estimate_converges() {
        let vars = table(&[0.5, 0.4, 0.2]);
        let dnf = Dnf::new(vec![m(&[0, 1]), m(&[0, 2])]);
        let expected = exact::probability(&dnf, &vars);
        let est = estimate(
            &dnf,
            &vars,
            McConfig {
                samples: 200_000,
                seed: 11,
            },
            4,
        );
        assert!(
            (est - expected).abs() < 0.01,
            "est={est} expected={expected}"
        );
    }

    #[test]
    fn parallel_influence_all_matches_sequential_ranking() {
        let vars = table(&[0.8, 0.4, 0.2, 1.0, 1.0, 0.4, 0.6, 1.0]);
        let dnf = Dnf::new(vec![m(&[2, 7, 0, 3, 4]), m(&[2, 7, 1, 5, 6])]);
        let cfg = McConfig {
            samples: 100_000,
            seed: 5,
        };
        let seq = mc::influence_all(&dnf, &vars, cfg);
        for threads in [1, 2, 3, 4] {
            assert_eq!(seq, influence_all(&dnf, &vars, cfg, threads));
        }
    }

    #[test]
    fn parallel_results_are_reproducible() {
        let vars = table(&[0.5, 0.4]);
        let dnf = Dnf::new(vec![m(&[0]), m(&[1])]);
        let cfg = McConfig {
            samples: 50_000,
            seed: 9,
        };
        assert_eq!(estimate(&dnf, &vars, cfg, 3), estimate(&dnf, &vars, cfg, 3));
    }

    #[test]
    fn worker_seeds_are_distinct() {
        let seeds: std::collections::HashSet<u64> = (0..64).map(|i| worker_seed(42, i)).collect();
        assert_eq!(seeds.len(), 64);
    }

    #[test]
    fn zero_threads_means_default() {
        let vars = table(&[0.5, 0.4]);
        let dnf = Dnf::new(vec![m(&[0]), m(&[1])]);
        let cfg = McConfig {
            samples: 10_000,
            seed: 2,
        };
        // `0` resolves to default_threads(); the estimate must match an
        // explicit call with that count (same seed split).
        let dflt = default_threads();
        assert_eq!(
            estimate(&dnf, &vars, cfg, 0),
            estimate(&dnf, &vars, cfg, dflt)
        );
        assert_eq!(
            influence_all(&dnf, &vars, cfg, 0),
            influence_all(&dnf, &vars, cfg, dflt)
        );
        assert_eq!(resolve_threads(0), dflt);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn p3_threads_env_overrides_default() {
        // Serialised with nothing: other tests pass explicit counts, so the
        // env var cannot leak into them.
        std::env::set_var("P3_THREADS", "2");
        assert_eq!(threads_from_env(), Ok(Some(2)));
        assert_eq!(default_threads(), 2);
        // Non-numeric values are rejected with a clear error, not silently
        // replaced by the hardware default.
        std::env::set_var("P3_THREADS", "not a number");
        let err = threads_from_env().unwrap_err();
        assert!(err.contains("P3_THREADS"), "{err}");
        assert!(err.contains("not a number"), "{err}");
        let panic = std::panic::catch_unwind(default_threads).unwrap_err();
        let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("P3_THREADS"), "{msg}");
        // 0 = auto: same as the variable being unset.
        std::env::remove_var("P3_THREADS");
        let auto = default_threads();
        assert!((1..=16).contains(&auto));
        std::env::set_var("P3_THREADS", "0");
        assert_eq!(threads_from_env(), Ok(Some(0)));
        assert_eq!(default_threads(), auto, "0 means auto");
        std::env::remove_var("P3_THREADS");
    }

    #[test]
    fn more_threads_than_samples_is_fine() {
        let vars = table(&[0.5]);
        let dnf = Dnf::new(vec![m(&[0])]);
        let est = estimate(
            &dnf,
            &vars,
            McConfig {
                samples: 3,
                seed: 1,
            },
            8,
        );
        assert!((0.0..=1.0).contains(&est));
    }
}
