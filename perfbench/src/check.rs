//! Output check: re-run a seeded sample of a workload's specs solo and
//! compare with what the service returned.
//!
//! Track specs re-run through [`tracto::Pipeline`] on the `GpuSim`
//! backend and are compared by `lengths_digest`. The pipeline's Step 1 is
//! [`tracto::run_mcmc_gpu`] (one stream), so its sample stack is the solo
//! reference for the estimate jobs of the same key, compared by sample
//! bytes. Every completion of one spec must also carry the same digest.

use std::collections::BTreeMap;
use tracto::gpu_sim::DeviceConfig;
use tracto::mcmc::SampleVolumes;
use tracto::{Backend as PipelineBackend, Pipeline};
use tracto_proto::lengths_digest;
use tracto_serve::{materialize_dataset, JobSpec, Work};

use crate::closed_loop::{Record, Settled};
use crate::schedule::{Job, Rng};

/// Solo reference digest of a track spec.
pub fn solo_track_digest(job: &Job, device: &DeviceConfig) -> Result<(u64, SampleVolumes), String> {
    let dataset = materialize_dataset(&job.spec.dataset).map_err(|e| e.to_string())?;
    let spec = JobSpec::from_wire(&job.spec).map_err(|e| e.to_string())?;
    let Work::Track { config, .. } = spec.work else {
        return Err("not a track spec".into());
    };
    let out = Pipeline::new(config).run(&dataset, PipelineBackend::GpuSim(device.clone()));
    Ok((lengths_digest(&out.tracking.lengths_by_sample), out.samples))
}

/// Bit-for-bit equality of two sample stacks.
pub fn same_samples(a: &SampleVolumes, b: &SampleVolumes) -> bool {
    let fields = |s: &SampleVolumes| {
        [&s.f1, &s.f2, &s.th1, &s.ph1, &s.th2, &s.ph2].map(|v| v.as_slice().to_vec())
    };
    let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<u32>>();
    a.dims() == b.dims()
        && a.num_samples() == b.num_samples()
        && fields(a)
            .into_iter()
            .zip(fields(b))
            .all(|(x, y)| bits(x) == bits(y))
}

/// Verdict over one phase's settled jobs.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Jobs whose output was verified (or, for estimates, that completed
    /// and whose key's samples were not found wrong).
    pub ok: usize,
    /// Jobs that failed, were shed, or disagreed with a reference.
    pub bad: usize,
    /// Specs re-run solo.
    pub references: usize,
    /// Human-readable mismatch reasons.
    pub problems: Vec<String>,
}

impl Verdict {
    /// No mismatch, no failure, and at least one solo reference ran.
    pub fn correct(&self) -> bool {
        self.bad == 0 && self.problems.is_empty() && self.references > 0
    }
}

/// Pick `n` distinct track classes from `records`, seeded.
pub fn sample_track_jobs(records: &[Record], n: usize, seed: u64) -> Vec<Job> {
    let mut classes: BTreeMap<String, Job> = BTreeMap::new();
    for r in records.iter().filter(|r| r.job.is_track()) {
        classes
            .entry(r.job.class())
            .or_insert_with(|| r.job.clone());
    }
    let mut jobs: Vec<Job> = classes.into_values().collect();
    let mut rng = Rng::new(seed, 0xc4ec);
    let mut picked = Vec::new();
    while picked.len() < n && !jobs.is_empty() {
        let i = rng.below(jobs.len());
        picked.push(jobs.swap_remove(i));
    }
    picked
}

/// Check every settled record: track digests must agree within a spec and
/// with the solo reference where one was computed (`references`, keyed by
/// class); estimates must have completed and not belong to `bad_estimates`.
pub fn verify(
    records: &[Record],
    references: &BTreeMap<String, u64>,
    bad_estimates: &[String],
) -> Verdict {
    let mut verdict = Verdict {
        references: references.len(),
        ..Verdict::default()
    };
    let mut consensus: BTreeMap<String, u64> = references.clone();
    for r in records {
        let class = r.job.class();
        match &r.settled {
            Settled::Failed(why) => {
                verdict.bad += 1;
                verdict.problems.push(format!("job failed: {why}"));
            }
            Settled::Estimate => {
                if bad_estimates.contains(&class) {
                    verdict.bad += 1;
                } else {
                    verdict.ok += 1;
                }
            }
            Settled::Track { digest } => {
                let expected = *consensus.entry(class).or_insert(*digest);
                if expected == *digest {
                    verdict.ok += 1;
                } else {
                    verdict.bad += 1;
                    verdict.problems.push(format!(
                        "digest {digest:016x} != expected {expected:016x} for {}",
                        r.job.class()
                    ));
                }
            }
        }
    }
    for class in bad_estimates {
        verdict.problems.push(format!(
            "sample bytes differ from solo run_mcmc_gpu for {class}"
        ));
    }
    verdict
}
