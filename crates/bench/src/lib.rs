//! # lmkg-bench
//!
//! The experiment harness regenerating every table and figure of the LMKG
//! paper's evaluation (§VIII), as one binary: `lmkg-bench <experiment>`
//! prints one table/figure, `lmkg-bench all` prints every one from a single
//! [`sweep`] and writes the committed `BENCH_accuracy.json`, and
//! `lmkg-bench check` gates q-error regressions against that file.
//!
//! Scale is controlled by the `LMKG_SCALE` environment variable:
//! `ci` (tiny, seconds per figure), `bench` (default — small but meaningful),
//! `default` (≈2% of paper sizes), `paper` (full sizes, hours on a laptop).
//! `LMKG_SEED` overrides the master seed, `LMKG_QUERIES` the per-cell
//! workload size.

#![warn(missing_docs)]

pub mod competitors;
pub mod experiments;
pub mod report;
pub mod sweep;
pub mod workloads;

use lmkg_data::Scale;

/// Harness-wide configuration derived from the environment.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Dataset scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Query sizes (paper: 2, 3, 5, 8).
    pub sizes: Vec<usize>,
    /// Test queries per (dataset, shape, size) cell (paper: 600).
    pub queries_per_cell: usize,
    /// Training queries per (shape, size) for the supervised models.
    pub train_queries: usize,
    /// LMKG-S epochs (paper: 200).
    pub s_epochs: usize,
    /// LMKG-U epochs (paper: 5).
    pub u_epochs: usize,
    /// LMKG-U training tuples.
    pub u_samples: usize,
    /// LMKG-U sampling particles at estimation time.
    pub particles: usize,
    /// Hidden width for LMKG-S (paper: 512; scaled down with the data).
    pub s_hidden: usize,
    /// Hidden width for LMKG-U.
    pub u_hidden: usize,
}

impl BenchConfig {
    /// Builds the configuration from the values of `LMKG_SCALE` / `LMKG_SEED`
    /// / `LMKG_QUERIES` (`None` = unset: scale `bench`, seed 42, the preset's
    /// workload size) and returns it with the preset's name. A value that is
    /// set but not understood is an error naming what is accepted — it never
    /// falls back to a default, which would run the wrong experiment.
    pub fn parse(
        scale: Option<&str>,
        seed: Option<&str>,
        queries: Option<&str>,
    ) -> Result<(&'static str, Self), String> {
        let (name, preset): (_, fn(u64) -> Self) = match scale.unwrap_or("bench") {
            "ci" => ("ci", Self::ci),
            "bench" => ("bench", Self::bench),
            "default" => ("default", Self::default_scale),
            "paper" => ("paper", Self::paper),
            other => {
                return Err(format!(
                    "LMKG_SCALE={other:?}: expected one of ci | bench | default | paper"
                ))
            }
        };
        let seed = match seed {
            Some(s) => s
                .parse()
                .map_err(|_| format!("LMKG_SEED={s:?}: expected an unsigned integer"))?,
            None => 42u64,
        };
        let mut cfg = preset(seed);
        if let Some(q) = queries {
            cfg.queries_per_cell = match q.parse() {
                Ok(n) if n > 0 => n,
                _ => return Err(format!("LMKG_QUERIES={q:?}: expected a positive integer")),
            };
        }
        Ok((name, cfg))
    }

    /// Tiny smoke-test configuration.
    pub fn ci(seed: u64) -> Self {
        Self {
            scale: Scale::Ci,
            seed,
            sizes: vec![2, 3],
            queries_per_cell: 60,
            train_queries: 300,
            s_epochs: 30,
            u_epochs: 5,
            u_samples: 2500,
            particles: 128,
            s_hidden: 64,
            u_hidden: 32,
        }
    }

    /// The default experiment configuration for a 2-core laptop: full query
    /// size range, statistically useful workloads, minutes per figure.
    pub fn bench(seed: u64) -> Self {
        Self {
            scale: Scale::Ci,
            seed,
            sizes: vec![2, 3, 5, 8],
            queries_per_cell: 200,
            train_queries: 800,
            s_epochs: 60,
            u_epochs: 8,
            u_samples: 6000,
            particles: 192,
            s_hidden: 128,
            u_hidden: 48,
        }
    }

    /// ≈2% of the paper's dataset sizes.
    pub fn default_scale(seed: u64) -> Self {
        Self {
            scale: Scale::Default,
            seed,
            sizes: vec![2, 3, 5, 8],
            queries_per_cell: 600,
            train_queries: 2000,
            s_epochs: 120,
            u_epochs: 5,
            u_samples: 20_000,
            particles: 256,
            s_hidden: 256,
            u_hidden: 64,
        }
    }

    /// The paper's stated sizes (slow!).
    pub fn paper(seed: u64) -> Self {
        Self {
            scale: Scale::Paper,
            seed,
            sizes: vec![2, 3, 5, 8],
            queries_per_cell: 600,
            train_queries: 4000,
            s_epochs: 200,
            u_epochs: 5,
            u_samples: 100_000,
            particles: 512,
            s_hidden: 512,
            u_hidden: 128,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_knobs_keep_the_defaults() {
        let (name, cfg) = BenchConfig::parse(None, None, None).unwrap();
        assert_eq!((name, cfg.seed, cfg.queries_per_cell), ("bench", 42, 200));
        let (name, cfg) = BenchConfig::parse(Some("ci"), Some("7"), Some("15")).unwrap();
        assert_eq!((name, cfg.seed, cfg.queries_per_cell), ("ci", 7, 15));
        assert_eq!(cfg.sizes, vec![2, 3]);
    }

    #[test]
    fn invalid_knobs_are_errors_naming_the_accepted_values() {
        let err = BenchConfig::parse(Some("paperr"), None, None).unwrap_err();
        assert!(
            err.contains("paperr") && err.contains("ci | bench | default | paper"),
            "{err}"
        );
        assert!(BenchConfig::parse(None, Some("x42"), None)
            .unwrap_err()
            .contains("LMKG_SEED"));
        assert!(BenchConfig::parse(None, Some("-1"), None).is_err());
        assert!(BenchConfig::parse(None, None, Some("many"))
            .unwrap_err()
            .contains("LMKG_QUERIES"));
        assert!(BenchConfig::parse(None, None, Some("0")).is_err());
    }
}
