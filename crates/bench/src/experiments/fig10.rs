//! Figure 10: provenance query time (hop limit 4) compared with
//! maintenance time, over the same sample sweep as Fig 9.
//!
//! The "query" is a generic Explanation Query: extract the provenance
//! polynomial of `mutualTrustPath` tuples under the hop limit. The paper
//! observes query time on the same order of magnitude as maintenance, but
//! growing more slowly thanks to the hop limit.

use crate::experiments::common::{base_network, mutual_tuples};
use crate::report::{secs, Report};
use crate::{time, Scale};
use p3_core::P3;
use p3_provenance::extract::{ExtractOptions, Extractor};

/// Tuples queried per sample (the paper queries the relation of interest;
/// we cap the count so a single point stays bounded).
const QUERIES_PER_SAMPLE: usize = 10;

/// Hop limit 4 → extraction depth 5 (r1 adds one nesting level, r3 one
/// more).
const DEPTH: usize = 5;

/// Runs the experiment.
pub fn run(scale: &Scale) -> Report {
    let net = base_network(scale);
    let mut report = Report::new(
        "fig10",
        "Figure 10: provenance query time vs maintenance time (hop limit 4)",
        &[
            "sample size",
            "maintenance (s)",
            "query total (s)",
            "#queries",
            "avg polynomial size",
        ],
    );

    for &size in &scale.fig9_sizes {
        let mut maintenance = 0.0f64;
        let mut query = 0.0f64;
        let mut queries = 0usize;
        let mut poly_sizes = 0usize;
        for rep in 0..scale.repeats {
            let sample = net.sample_bfs(size, scale.seed ^ (size as u64) ^ (rep as u64) << 21);
            let program = sample.to_program();
            // Construction is lazy: forcing the graph runs the naive
            // evaluation with capture (and the cycle analysis), which is
            // the maintenance this figure compares against.
            let (p3, t_build) = time(|| {
                let p3 = P3::from_program(program).expect("negation-free program");
                p3.graph();
                p3
            });
            maintenance += t_build.as_secs_f64();

            let tuples = mutual_tuples(&p3);
            let chosen: Vec<_> = tuples.iter().copied().take(QUERIES_PER_SAMPLE).collect();
            let (sizes, t_query) = time(|| {
                let extractor = Extractor::new(p3.graph());
                chosen
                    .iter()
                    .map(|&t| {
                        extractor
                            .polynomial(t, ExtractOptions::with_max_depth(DEPTH))
                            .len()
                    })
                    .collect::<Vec<_>>()
            });
            query += t_query.as_secs_f64();
            queries += sizes.len();
            poly_sizes += sizes.iter().sum::<usize>();
        }
        let avg_size = if queries > 0 {
            poly_sizes as f64 / queries as f64
        } else {
            0.0
        };
        report.row(vec![
            size.to_string(),
            secs(std::time::Duration::from_secs_f64(
                maintenance / scale.repeats as f64,
            )),
            secs(std::time::Duration::from_secs_f64(
                query / scale.repeats as f64,
            )),
            (queries / scale.repeats.max(1)).to_string(),
            format!("{avg_size:.1}"),
        ]);
    }
    report.note(
        "paper: query time is on the same order as maintenance time but grows more slowly \
         for larger graphs owing to the hop limit",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_times_are_recorded() {
        let scale = Scale {
            fig9_sizes: vec![40],
            repeats: 1,
            mc_samples: 1000,
            seed: 5,
        };
        let report = run(&scale);
        assert_eq!(report.rows.len(), 1);
        let maintenance: f64 = report.rows[0][1].parse().unwrap();
        assert!(maintenance >= 0.0);
    }
}
